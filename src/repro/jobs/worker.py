"""The job worker: claims PENDING jobs and executes them through the engine.

One :meth:`JobWorker.run_once` call claims the oldest eligible PENDING
job, builds a :class:`~repro.engine.SweepEngine` from the job's own
:class:`~repro.engine.EngineConfig`, and runs the figure through
:func:`repro.experiments.runner.execute_figure` -- the *same* function
the blocking CLI uses, so a job's rendered result is byte-identical to
the blocking path by construction.

The engine's two runtime hooks tie execution back to the durable record:

* the ``progress`` hook writes ``points_done`` (doubling as the
  heartbeat the sweeper watches);
* the ``cancel`` hook re-reads the record each sweep point and stops
  cooperatively -- raising
  :class:`~repro.engine.resilience.SweepCancelled` inside the engine --
  when cancellation was requested or the job was requeued under us
  (another worker owns it now; we must not write anything).

Zombie fencing: the claim stamps a lease *epoch* on the record, and the
worker captures it.  Every write and every cancel poll checks the
stored epoch against the captured one; a mismatch proves the job was
requeued and re-claimed under us -- even by a worker that reused our
pid and id -- so we stand down (:class:`_Preempted`) without writing.
The repository enforces the same thing unconditionally: a stale-epoch
write raises ``StaleJobError`` no matter what the writer checked.

Chaos hook: the ``worker_kill`` fault point fires at the top of
:meth:`execute`, SIGKILLing the worker process mid-job -- the requeue
tests drive it via ``REPRO_FAULTS=worker_kill:...``.  The in-process
chaos soak instead injects deaths through its *runner* (see ``runner=``
below), which raises :class:`~repro.faults.InjectedKill` through the
worker like a SIGKILL tears through the process.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import socket
from collections.abc import Callable

from repro.engine.resilience import SweepCancelled
from repro.faults import fire as _fault_fire
from repro.jobs.lifecycle import RUNNING, Job
from repro.jobs.repository import (
    JobRepository,
    StaleJobError,
    UnknownJobError,
    now_ms,
)

__all__ = ["JobWorker", "default_worker_id"]


def default_worker_id() -> str:
    """``"<pid>@<host>"`` -- lets the sweeper liveness-check local owners."""
    return f"{os.getpid()}@{socket.gethostname()}"


class _Preempted(SweepCancelled):
    """The job was requeued/reassigned under this worker: stand down silently."""


class JobWorker:
    """Claims and executes jobs against a :class:`JobRepository`.

    Parameters
    ----------
    repository:
        The queue to claim from.
    worker_id:
        Defaults to ``"<pid>@<host>"``.
    runner:
        How to actually execute a claimed job: a callable
        ``(job, engine) -> result_text``.  Defaults to the production
        path (:func:`repro.experiments.runner.execute_figure`); the
        chaos soak substitutes a deterministic fake that drives the
        progress/cancel hooks and injects deaths.
    clock:
        Millisecond clock for heartbeats/timestamps; injectable so the
        soak runs on logical time.
    """

    def __init__(
        self,
        repository: JobRepository,
        worker_id: str | None = None,
        runner: Callable[[Job, object], str] | None = None,
        clock: Callable[[], float] = now_ms,
    ) -> None:
        self.repository = repository
        self.worker_id = worker_id if worker_id is not None else default_worker_id()
        self.runner = runner
        self.clock = clock

    # ------------------------------------------------------------------
    # Claim loop
    # ------------------------------------------------------------------
    def run_once(self) -> Job | None:
        """Claim and execute one job; ``None`` when the queue is drained."""
        job = self.repository.claim(self.worker_id, self.clock())
        if job is None:
            return None
        return self.execute(job)

    def run_until_drained(self, max_jobs: int | None = None) -> list[Job]:
        """Execute jobs until the queue has no PENDING work left."""
        done: list[Job] = []
        while max_jobs is None or len(done) < max_jobs:
            job = self.run_once()
            if job is None:
                break
            done.append(job)
        return done

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _default_runner(self, job: Job, engine) -> str:
        # Import here, not at module top: repro.experiments imports the
        # engine this package configures; keep the layering acyclic.
        from repro.experiments.runner import execute_figure

        return execute_figure(job.spec.figure, engine=engine, fast=job.spec.fast)

    def execute(self, job: Job) -> Job:
        """Execute an already-claimed RUNNING job; returns the final record.

        The returned job is terminal (COMPLETED/FAILED/CANCELLED) except
        after a failure requeue (retry budget left: RUNNING -> PENDING)
        or a preemption (another worker owns the record; returns our
        last consistent read without writing).
        """
        if _fault_fire("worker_kill"):
            os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover

        current = job
        claim_epoch = job.epoch

        def lost_ownership(fresh: Job) -> bool:
            return (
                fresh.state != RUNNING
                or fresh.worker_id != self.worker_id
                or fresh.epoch != claim_epoch
            )

        def write(evolved: Job) -> Job:
            """Store an evolved copy, surfacing preemption as _Preempted."""
            nonlocal current
            while True:
                try:
                    current = self.repository.update(evolved)
                    return current
                except StaleJobError:
                    fresh = self.repository.get(evolved.job_id)
                    if lost_ownership(fresh):
                        raise _Preempted(
                            f"job {evolved.job_id} reassigned to "
                            f"{fresh.worker_id} (epoch {fresh.epoch})"
                        ) from None
                    # Concurrent non-ownership change (a cancel request):
                    # reapply our delta on top of the fresh copy and retry.
                    evolved = _reapply(fresh, evolved)

        def progress(points: int) -> None:
            write(current.progressed(points, self.clock()))

        def cancel() -> bool:
            try:
                fresh = self.repository.get(current.job_id)
            except UnknownJobError:
                return True  # record purged under us: stop solving
            if lost_ownership(fresh):
                raise _Preempted(
                    f"job {current.job_id} reassigned to {fresh.worker_id} "
                    f"(epoch {fresh.epoch})"
                )
            return fresh.cancel_requested

        engine = job.spec.engine.build_engine(progress=progress, cancel=cancel)
        runner = self.runner if self.runner is not None else self._default_runner
        try:
            result_text = runner(job, engine)
        except _Preempted:
            return current  # new owner's record is authoritative; write nothing
        except SweepCancelled:
            try:
                return write(current.cancelled(self.clock()))
            except _Preempted:
                return current
        except Exception as exc:  # noqa: BLE001 -- a job must record any failure
            return self._record_failure(current, exc)
        try:
            return write(current.completed(result_text, self.clock()))
        except _Preempted:
            return current

    def _record_failure(self, current: Job, exc: Exception) -> Job:
        """FAILED, or RUNNING -> PENDING while retry budget remains.

        The requeue's forensics record carries outcome ``"failed"`` (the
        worker survived to report), so it never counts toward the
        sweeper's consecutive-death circuit breaker.
        """
        error = f"{type(exc).__name__}: {exc}"
        try:
            if current.retries < current.max_retries:
                return self.repository.update(
                    current.requeued(self.clock(), outcome="failed", detail=error)
                )
            return self.repository.update(current.failed(error, self.clock()))
        except StaleJobError:
            return self.repository.get(current.job_id)


def _reapply(fresh: Job, evolved: Job) -> Job:
    """Re-apply a worker-side delta on top of a concurrently updated record.

    Only fields the worker owns are carried over; concurrently written
    fields (``cancel_requested``) are taken from the fresh copy.  Only
    reached when the fresh copy still carries our worker id *and* our
    lease epoch, so the fresh record's ownership fields are ours too.
    """
    return dataclasses.replace(  # noqa: RL012 -- re-applies a delta already produced through _to() onto the concurrently updated record; no new transition is minted here
        fresh,
        state=evolved.state,
        points_done=evolved.points_done,
        points_total=evolved.points_total,
        heartbeat_ms=evolved.heartbeat_ms,
        updated_ms=evolved.updated_ms,
        finished_ms=evolved.finished_ms,
        result_text=evolved.result_text,
        error=evolved.error,
    )
