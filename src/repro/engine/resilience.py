"""Failure isolation for the solve/sweep pipeline.

A 40-point sweep must not lose 39 healthy points to one divergent
R-matrix, singular boundary solve or corrupt cache entry.
This module defines the vocabulary the engine uses to degrade gracefully:

* the ``on_error`` modes of :class:`~repro.engine.SweepEngine`,
  :func:`~repro.experiments.sweeps.sweep` and ``sweep_many``:

  - ``"raise"`` (default) -- propagate the first failure, the historical
    behavior;
  - ``"skip"`` -- failed points become NaN in the series; each failure
    emits a :class:`ResilienceWarning`, and :class:`ContractViolation`
    failures are *additionally* recorded in
    :attr:`~repro.engine.stats.EngineStats.failures` (a contract
    violation is never silently swallowed);
  - ``"collect"`` -- failed points become NaN and *every* failure is
    recorded as a structured :class:`FailedSolve` in ``EngineStats``;

* :class:`FailedSolve`, the structured failure record: which model (by
  fingerprint), which pipeline stage, what went wrong, the solver
  attempt log (escalation-ladder rungs, quarantined cache paths) and whatever
  :class:`~repro.qbd.rmatrix.SolveStats` the failed solve produced.

Failures never turn into numbers: a failed point is NaN in every series,
and the record states why.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.contracts.errors import ContractViolation
from repro.qbd.rmatrix import SolveStats

__all__ = [
    "ON_ERROR_MODES",
    "FailedSolve",
    "ResilienceWarning",
    "SweepCancelled",
    "failure_from_exception",
    "validate_on_error",
]

#: Valid ``on_error`` modes of the sweep pipeline.
ON_ERROR_MODES = ("raise", "skip", "collect")

#: Pipeline stages a :class:`FailedSolve` can originate from.
FAILURE_STAGES = (
    "solve",  # a sequential model solve (R matrix, boundary, metrics)
    "batched",  # an item of a batched kernel call
    "cache-load",  # a corrupt on-disk cache entry (quarantined, re-solved)
)


class ResilienceWarning(RuntimeWarning):  # noqa: RL007 -- plain warning category; carries no data to validate
    """Warns that a sweep point was skipped or degraded (``on_error="skip"``)."""


class SweepCancelled(RuntimeError):  # noqa: RL007 -- plain exception type; carries no data to validate
    """A sweep was cancelled cooperatively through the engine's ``cancel`` hook.

    Deliberately *not* one of the failure types ``on_error`` isolates: a
    cancellation must stop the whole sweep, never degrade into a NaN
    point.  The background-job layer (:mod:`repro.jobs`) raises and
    catches this to implement cooperative job cancellation.
    """


def validate_on_error(value: str) -> str:
    """Validate and return an ``on_error`` mode.

    Raises
    ------
    ValueError
        For anything outside :data:`ON_ERROR_MODES`.
    """
    if value not in ON_ERROR_MODES:
        raise ValueError(
            f"on_error must be one of {ON_ERROR_MODES}, got {value!r}"
        )
    return value


@dataclass(frozen=True)
class FailedSolve:
    """One isolated failure of the sweep pipeline.

    Attributes
    ----------
    fingerprint:
        Content hash of the model that failed (see
        :meth:`~repro.core.model.FgBgModel.fingerprint`).
    stage:
        Where in the pipeline the failure happened, one of
        :data:`FAILURE_STAGES`.
    error_type:
        Exception class name (``"QBDConvergenceError"``, ...).
    message:
        ``str(exception)`` -- the diagnostic a raise would have shown.
    contract_violation:
        True when the underlying exception was a
        :class:`~repro.contracts.ContractViolation` -- these are never
        silently swallowed, whatever the ``on_error`` mode.
    attempts:
        Attempt log: escalation-ladder rungs tried
        (``"logarithmic-reduction"``, ``"functional"``, ...),
        quarantined cache paths -- whatever the stage recorded
        before giving up.
    solve_stats:
        Solver diagnostics of the failed solve, when any iteration got
        far enough to produce them.
    """

    fingerprint: str
    stage: str
    error_type: str
    message: str
    contract_violation: bool = False
    attempts: tuple[str, ...] = field(default=())
    solve_stats: SolveStats | None = None

    def __post_init__(self) -> None:
        if self.stage not in FAILURE_STAGES:
            raise ValueError(
                f"stage must be one of {FAILURE_STAGES}, got {self.stage!r}"
            )
        if not self.fingerprint:
            raise ValueError("fingerprint must be non-empty")

    def as_dict(self) -> dict:
        """JSON-serializable representation."""
        return {
            "fingerprint": self.fingerprint,
            "stage": self.stage,
            "error_type": self.error_type,
            "message": self.message,
            "contract_violation": self.contract_violation,
            "attempts": list(self.attempts),
            "solve_stats": (
                None if self.solve_stats is None else self.solve_stats.as_dict()
            ),
        }

    def __str__(self) -> str:
        return (
            f"FailedSolve({self.fingerprint[:12]}, stage={self.stage}, "
            f"{self.error_type}: {self.message})"
        )


def failure_from_exception(  # noqa: RL007 -- validation delegated to FailedSolve.__post_init__
    fingerprint: str,
    exc: BaseException,
    stage: str = "solve",
    attempts: tuple[str, ...] = (),
) -> FailedSolve:
    """Build a :class:`FailedSolve` from a caught exception.

    Merges the exception's own attempt log (the ``attempts`` attribute
    :class:`~repro.qbd.rmatrix.QBDConvergenceError` carries after the
    escalation ladder is exhausted) with any caller-side attempts.
    """
    exc_attempts = tuple(getattr(exc, "attempts", ()))
    return FailedSolve(
        fingerprint=fingerprint,
        stage=stage,
        error_type=type(exc).__name__,
        message=str(exc),
        contract_violation=isinstance(exc, ContractViolation),
        attempts=tuple(attempts) + exc_attempts,
    )
