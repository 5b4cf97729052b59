"""The sweep engine: one cached, cold solve per distinct point.

A parameter sweep solves many nearby :class:`~repro.core.model.FgBgModel`
instances.  :class:`SweepEngine` serves every call through one pipeline:

1. **dedupe** -- points that share a solve key (the model's content hash,
   :meth:`FgBgModel.fingerprint`, plus algorithm and tolerance) are
   solved once per call;
2. **cache** -- keys already in the :class:`~repro.engine.cache.SolveCache`
   are served from it, so repeated points (across figures, or across runs
   with an on-disk cache) are never solved twice;
3. **cold solve** -- the misses are solved in turn, or with
   ``batched=True`` grouped by QBD block shape and solved in one stacked
   kernel call per group (:mod:`repro.qbd.batched`); fresh solutions
   populate the cache;
4. **record** -- every served point appends a
   :class:`~repro.engine.stats.SolveRecord` to :attr:`SweepEngine.stats`.

Cached results are bit-identical to the solve that populated the entry;
batched results agree with sequential results to solver tolerance
(bitwise for the R matrices in practice).

Resilience (see :mod:`repro.engine.resilience`): ``on_error`` isolates
per-point solve failures instead of sinking the sweep, ``escalate``
enables the truncated dense-chain rung of the solver escalation ladder,
and corrupt cache entries are quarantined and re-solved -- so a sweep
either finishes with every healthy point intact or raises, never silently
drops work.
"""

from __future__ import annotations

import os
import warnings
from collections.abc import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.contracts.errors import ContractViolation
from repro.core.batched import solve_models_batched
from repro.core.model import FgBgModel
from repro.core.result import FgBgSolution
from repro.engine.cache import SolveCache, solve_key
from repro.engine.config import EngineConfig
from repro.engine.resilience import (
    FailedSolve,
    ResilienceWarning,
    SweepCancelled,
    failure_from_exception,
    validate_on_error,
)
from repro.engine.stats import BatchGroupRecord, EngineStats, SolveRecord
from repro.qbd.rmatrix import QBDConvergenceError

__all__ = ["SweepEngine"]

#: Solve failures ``on_error`` isolates: solver divergence, a singular
#: boundary system, an invalid/unstable model, a contract violation.
#: Anything else (a TypeError, a genuine bug) always propagates.
_SOLVE_FAILURES = (
    QBDConvergenceError,
    np.linalg.LinAlgError,
    ContractViolation,
    ValueError,
)

#: How the misses of one call are solved: models in, one solution (or
#: ``None`` for an isolated failure) out per model, in order.
_Solver = Callable[[list[FgBgModel]], Iterable[FgBgSolution | None]]


class SweepEngine:
    """Executes model solves for parameter sweeps.

    Parameters
    ----------
    config:
        An :class:`~repro.engine.config.EngineConfig` supplying every
        keyword below in one validated, serializable object.  Explicit
        keyword arguments override the matching config field, so
        ``SweepEngine(config=cfg, batched=True)`` is ``cfg`` batched.
        The resolved configuration is exposed as :attr:`config`.
    cache:
        ``None`` (default) for no caching, a :class:`SolveCache`, or a
        directory path for an on-disk cache shared across runs/processes.
    batched:
        Solve the cache-miss models of each :meth:`run_chain` /
        :meth:`run_chains` call through the stacked kernel
        (:mod:`repro.qbd.batched`): pending models are grouped by QBD
        block shape and each group becomes one batched solve, recorded as
        a :class:`~repro.engine.stats.BatchGroupRecord`.  Batched results
        agree with sequential results to solver tolerance.  Requires the
        default ``logarithmic-reduction`` algorithm.  Caching composes:
        hits are served per model, only misses enter a batch.
    algorithm, tol:
        Passed through to :meth:`FgBgModel.solve`.
    on_error:
        ``"raise"`` (default) propagates the first solve failure --
        the historical behavior.  ``"skip"`` and ``"collect"`` isolate
        failures per point: the failed point's solution slot is ``None``
        (NaN in any derived series) and every healthy point still solves.
        ``"skip"`` emits a :class:`~repro.engine.resilience.ResilienceWarning`
        per failure and records :class:`ContractViolation` failures in
        :attr:`stats` ``.failures`` (a contract violation is never
        silently swallowed); ``"collect"`` records *every* failure as a
        structured :class:`~repro.engine.resilience.FailedSolve` and
        warns about none of them.
    escalate:
        Enable the truncated dense-chain rung of the solver escalation
        ladder (see :func:`repro.qbd.stationary.solve_qbd`); escalated
        solves are flagged ``degraded`` in their
        :class:`~repro.qbd.rmatrix.SolveStats`.
    progress:
        Optional callback ``progress(points)`` invoked with the number of
        points just served: after each fresh sequential solve (isolated
        failures included), after each batch, and once per call for the
        cache hits and duplicates.  The background-job layer uses this to
        report per-point job progress.
    cancel:
        Optional callback ``cancel() -> bool`` polled at the start of each
        call and before each sequential solve; returning True raises :class:`~repro.engine.resilience.SweepCancelled`.
        Cooperative: a solve already in flight finishes first.
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        *,
        cache: SolveCache | str | os.PathLike | None = None,
        batched: bool | None = None,
        algorithm: str | None = None,
        tol: float | None = None,
        on_error: str | None = None,
        escalate: bool | None = None,
        progress: Callable[[int], None] | None = None,
        cancel: Callable[[], bool] | None = None,
    ) -> None:
        overrides = {
            name: value
            for name, value in (
                ("batched", batched),
                ("algorithm", algorithm),
                ("tol", tol),
                ("on_error", on_error),
                ("escalate", escalate),
            )
            if value is not None
        }
        if cache is not None and not isinstance(cache, SolveCache):
            cache = SolveCache(cache)
        if cache is not None:
            directory = cache.directory
            overrides["cache_dir"] = (
                None if directory is None else str(directory)
            )
            overrides["cache_memory"] = directory is None
        base = config if config is not None else EngineConfig()
        # replace() re-runs EngineConfig validation over the merged fields.
        self.config = base.replace(**overrides) if overrides else base
        self.cache = cache if cache is not None else self.config.build_cache()
        self.batched = self.config.batched
        self.algorithm = self.config.algorithm
        self.tol = self.config.tol
        self.on_error = validate_on_error(self.config.on_error)
        self.escalate = self.config.escalate
        self.progress = progress
        self.cancel = cancel
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    # Progress and cancellation hooks
    # ------------------------------------------------------------------
    def _tick(self, points: int = 1) -> None:
        """Report ``points`` served to the progress hook, if any."""
        if self.progress is not None and points:
            self.progress(points)

    def _check_cancelled(self) -> None:
        """Raise :class:`SweepCancelled` when the cancel hook says stop."""
        if self.cancel is not None and self.cancel():
            raise SweepCancelled("sweep cancelled by the engine's cancel hook")

    # ------------------------------------------------------------------
    # Failure bookkeeping
    # ------------------------------------------------------------------
    def _record_failure(self, failure: FailedSolve) -> None:
        """Apply the ``on_error`` policy to one isolated failure.

        Callers only reach this in ``"skip"``/``"collect"`` mode.
        """
        if self.on_error == "collect" or failure.contract_violation:
            self.stats.add_failure(failure)
        if self.on_error == "skip":
            warnings.warn(str(failure), ResilienceWarning, stacklevel=3)

    # ------------------------------------------------------------------
    # The pipeline: dedupe, cache, cold solve, record
    # ------------------------------------------------------------------
    def _cache_lookup(self, key: str, fingerprint: str) -> FgBgSolution | None:
        """Cache get with quarantine: a corrupt entry is moved aside,
        recorded as a ``"cache-load"`` failure (in *every* ``on_error``
        mode -- the point is re-solved, so nothing is lost), and treated
        as a miss."""
        if self.cache is None:
            return None
        try:
            return self.cache.get(key)
        except ContractViolation as exc:
            quarantined = self.cache.quarantine(key)
            attempts = (
                () if quarantined is None else (f"quarantined:{quarantined.name}",)
            )
            failure = failure_from_exception(
                fingerprint, exc, stage="cache-load", attempts=attempts
            )
            self.stats.add_failure(failure)
            if self.on_error == "skip":
                warnings.warn(
                    f"corrupt cache entry quarantined; re-solving: {failure}",
                    ResilienceWarning,
                    stacklevel=3,
                )
            return None

    def _serve(
        self, models: Iterable[FgBgModel], solve_misses: _Solver
    ) -> list[FgBgSolution | None]:
        """Serve ``models`` in order: dedupe, cache, cold solve, record.

        Fresh solutions populate the cache and are recorded as fresh
        solves as ``solve_misses`` yields them, so a call cut short by a
        failure or a cancel keeps the records of the points it solved.
        Cache hits and duplicates of a solved key are recorded as hits
        once the whole call is served.  Failed points (``None`` slots) get
        no :class:`~repro.engine.stats.SolveRecord` -- their
        :class:`~repro.engine.resilience.FailedSolve` is the record.
        """
        self._check_cancelled()
        points = list(models)
        fingerprints = [model.fingerprint() for model in points]
        keys = [solve_key(fp, self.algorithm, self.tol) for fp in fingerprints]
        served: dict[str, FgBgSolution | None] = {}
        misses: dict[str, tuple[FgBgModel, str]] = {}
        for model, fingerprint, key in zip(points, fingerprints, keys):
            if key in served or key in misses:
                continue
            cached = self._cache_lookup(key, fingerprint)
            if cached is None:
                misses[key] = (model, fingerprint)
            else:
                served[key] = cached
        miss_models = [model for model, _ in misses.values()]
        for key, solution in zip(misses, solve_misses(miss_models)):
            if solution is not None:
                if self.cache is not None:
                    self.cache.put(key, solution)
                self.stats.add(
                    SolveRecord(
                        misses[key][1],
                        cache_hit=False,
                        stats=solution.solve_stats,
                    )
                )
            served[key] = solution
        # The first point of each solved key is already recorded above.
        first_of_miss = set(misses)
        results: list[FgBgSolution | None] = []
        for fingerprint, key in zip(fingerprints, keys):
            solution = served[key]
            if key in first_of_miss:
                first_of_miss.discard(key)
            elif solution is not None:
                self.stats.add(
                    SolveRecord(
                        fingerprint, cache_hit=True, stats=solution.solve_stats
                    )
                )
            results.append(solution)
        self._tick(len(points) - len(misses))
        return results

    def _solve_each(
        self, models: list[FgBgModel]
    ) -> Iterator[FgBgSolution | None]:
        """Cold-solve the misses one at a time, yielding each solution."""
        for model in models:
            self._check_cancelled()
            try:
                solution = model.solve(
                    algorithm=self.algorithm,
                    tol=self.tol,
                    escalate=self.escalate,
                )
            except _SOLVE_FAILURES as exc:
                if self.on_error == "raise":
                    raise
                self._record_failure(
                    failure_from_exception(model.fingerprint(), exc, stage="solve")
                )
                solution = None
            self._tick()
            yield solution

    def _solve_batched(
        self, models: list[FgBgModel]
    ) -> list[FgBgSolution | None]:
        """Cold-solve the misses through the stacked kernel.

        :func:`~repro.core.batched.solve_models_batched` groups them by
        QBD block shape, one kernel call per group, each recorded in
        :attr:`stats` ``.batch_groups``.  With ``on_error="skip"`` /
        ``"collect"``, a poisoned item is isolated to its own slot
        (``None``) per the kernel's item-level fallback -- the rest of its
        shape group solves normally.
        """
        if not models:
            return []
        solutions, reports = solve_models_batched(
            models,
            tol=self.tol,
            return_reports=True,
            on_error=self.on_error,
            escalate=self.escalate,
        )
        for report in reports:
            self.stats.add_batch_group(
                BatchGroupRecord(
                    boundary_size=report.boundary_size,
                    phase_count=report.phase_count,
                    report=report,
                )
            )
            for item in report.failures:
                self._record_failure(
                    FailedSolve(
                        fingerprint=models[item.index].fingerprint(),
                        stage="batched",
                        error_type=item.error_type,
                        message=item.message,
                        contract_violation=item.contract_violation,
                        attempts=item.attempts,
                    )
                )
        self._tick(len(models))
        return solutions

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def solve(self, model: FgBgModel) -> FgBgSolution | None:
        """Solve one model, consulting the cache first.

        With ``on_error="skip"``/``"collect"`` a failed solve returns
        ``None`` instead of raising (see the class docstring).
        """
        return self._serve([model], self._solve_each)[0]

    def solve_batch(
        self, models: Iterable[FgBgModel]
    ) -> list[FgBgSolution | None]:
        """Solve many models through the batched kernel, cache first.

        Solutions come back in input order and fresh ones populate the
        cache, so a later sequential or batched run over the same models
        is all hits.
        """
        return self._serve(models, self._solve_batched)

    def run_chain(
        self, models: Iterable[FgBgModel]
    ) -> list[FgBgSolution | None]:
        """Solve a sequence of models, in input order.

        With :attr:`batched` on, the chain is handed to
        :meth:`solve_batch` (output is identical to solver tolerance).
        Failed points (isolated by ``on_error``) are ``None`` slots.
        """
        if self.batched:
            return self.solve_batch(models)
        return self._serve(models, self._solve_each)

    def run_chains(
        self, chains: Sequence[Sequence[FgBgModel]]
    ) -> list[list[FgBgSolution | None]]:
        """Solve several independent chains; results come in chain order.

        Sequentially each chain is one :meth:`run_chain`.  With
        :attr:`batched` on, all chains pool into one :meth:`solve_batch`
        call, so cross-chain duplicates are solved once and every shape
        group spans the whole sweep.
        """
        if not self.batched:
            return [self.run_chain(chain) for chain in chains]
        chains = [list(chain) for chain in chains]
        solutions = self.solve_batch(
            [model for chain in chains for model in chain]
        )
        results: list[list[FgBgSolution | None]] = []
        cursor = 0
        for chain in chains:
            results.append(solutions[cursor : cursor + len(chain)])
            cursor += len(chain)
        return results

    def __repr__(self) -> str:
        return (
            f"SweepEngine(cache={self.cache!r}, batched={self.batched}, "
            f"algorithm={self.algorithm!r}, tol={self.tol:g}, "
            f"on_error={self.on_error!r}, escalate={self.escalate})"
        )
