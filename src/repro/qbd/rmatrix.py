"""R- and G-matrix algorithms for QBD processes.

``R`` is the minimal non-negative solution of ``A0 + R A1 + R^2 A2 = 0``;
``G`` the minimal non-negative solution of ``A2 + A1 G + A0 G^2 = 0``.
Three algorithms are provided:

* functional iteration on R (Neuts' classic fixed point) -- simple,
  linearly convergent;
* "natural" U-based iteration on G -- linearly convergent with better
  constants;
* logarithmic reduction on G (Latouche & Ramaswami 1993) -- quadratically
  convergent, the default.

All operate on the CTMC (generator) form of the blocks.  :func:`r_matrix`
runs one cold solve with the requested algorithm, escalates through the
others when it fails to converge, and can report per-solve
:class:`SolveStats`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import connected_components

from repro.contracts.checks import (
    check_generator,
    check_nonnegative,
    check_r_matrix,
    contracts_enabled,
)
from repro.faults import fire as _fault_fire
from repro.markov.stationary import stationary_distribution

__all__ = [
    "ESCALATION_TIME_BUDGET_MS",
    "QBDConvergenceError",
    "SolveStats",
    "drift",
    "escalation_time_budget_ms",
    "is_stable",
    "r_matrix",
    "r_matrix_functional_iteration",
    "r_matrix_natural_iteration",
    "r_matrix_logarithmic_reduction",
    "r_matrix_from_g",
    "g_matrix_logarithmic_reduction",
]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 2_000_000

#: Default wall-time budget of the linearly convergent escalation rungs
#: (functional / natural fallback inside :func:`r_matrix`).  Override with
#: the ``REPRO_SOLVER_BUDGET_MS`` environment variable; a hopeless chain
#: then fails fast into the next rung (ultimately the truncated dense
#: fallback of ``solve_qbd(escalate=True)``) instead of burning the full
#: ``DEFAULT_MAX_ITER`` iteration budget.
ESCALATION_TIME_BUDGET_MS = 30_000.0

#: Environment variable overriding :data:`ESCALATION_TIME_BUDGET_MS`.
ENV_SOLVER_BUDGET_MS = "REPRO_SOLVER_BUDGET_MS"

#: Iterations between wall-clock budget checks inside the linearly
#: convergent loops (a per-iteration clock read would dominate the step).
_BUDGET_CHECK_EVERY = 256

#: How long one fired ``solver_stall`` fault sleeps, in milliseconds.
_STALL_SLEEP_MS = 25.0


def escalation_time_budget_ms() -> float:
    """The active escalation time budget, honouring the env override."""
    raw = os.environ.get(ENV_SOLVER_BUDGET_MS, "")
    if raw:
        try:
            value = float(raw)
        except ValueError as exc:
            raise ValueError(
                f"{ENV_SOLVER_BUDGET_MS} must be a number of milliseconds, "
                f"got {raw!r}"
            ) from exc
        if value <= 0:
            raise ValueError(
                f"{ENV_SOLVER_BUDGET_MS} must be positive, got {value}"
            )
        return value
    return ESCALATION_TIME_BUDGET_MS


class QBDConvergenceError(RuntimeError):
    """Raised when an R/G iteration fails to converge.

    The ``iterations`` attribute records how many iterations were spent
    before giving up, so callers can account for abandoned attempts; after
    :func:`r_matrix` exhausts its whole escalation ladder, ``attempts``
    lists every rung that was tried (the failure records of
    ``on_error="collect"`` sweeps surface it).
    """

    def __init__(
        self,
        message: str,
        iterations: int = 0,
        attempts: tuple[str, ...] = (),
    ) -> None:
        super().__init__(message)
        self.iterations = iterations
        self.attempts = tuple(attempts)


def _budget_tick(
    started_at: float,
    time_budget_ms: float | None,
    iteration: int,
    label: str,
) -> None:
    """Fault hook + wall-clock budget check shared by the linear loops.

    Runs every :data:`_BUDGET_CHECK_EVERY` iterations: fires the
    ``solver_stall`` injection point (a deterministic sleep, so budget
    overruns are reproducible in tests) and raises once the elapsed time
    since the ``started_at`` ``perf_counter`` mark exceeds
    ``time_budget_ms``.
    """
    if iteration % _BUDGET_CHECK_EVERY:
        return
    if _fault_fire("solver_stall"):
        time.sleep(_STALL_SLEEP_MS / 1e3)
    if time_budget_ms is not None:
        elapsed_ms = (time.perf_counter() - started_at) * 1e3
        if elapsed_ms > time_budget_ms:
            raise QBDConvergenceError(
                f"{label} exceeded its {time_budget_ms:.0f} ms time budget "
                f"after {iteration} iterations",
                iterations=iteration,
            )


@dataclass(frozen=True)
class SolveStats:
    """Diagnostics of one R-matrix solve.

    Attributes
    ----------
    algorithm:
        Name of the iteration that produced the accepted ``R``
        (``"logarithmic-reduction"``, ``"natural"`` or ``"functional"``).
    iterations:
        Total iterations spent, *including* abandoned attempts (for
        logarithmic reduction one iteration is one doubling step).
    wall_time_ms:
        Wall-clock time of the whole solve in milliseconds.
    spectral_radius:
        ``sp(R)`` of the accepted solution -- the geometric tail decay.
    fallbacks:
        Names of the iterations that were tried and abandoned first.
    degraded:
        True when the solution came from the last escalation rung -- the
        truncated dense chain of :func:`repro.qbd.truncated.solve_qbd_truncated`
        -- rather than a matrix-geometric solve.  Figures use this to
        state which points degraded.
    truncation_level:
        The level the dense chain was truncated at when ``degraded``.
    """

    algorithm: str
    iterations: int
    wall_time_ms: float
    spectral_radius: float
    fallbacks: tuple[str, ...] = field(default=())
    degraded: bool = False
    truncation_level: int | None = None

    def as_dict(self) -> dict:
        """JSON-serializable representation."""
        return {
            "algorithm": self.algorithm,
            "iterations": self.iterations,
            "wall_time_ms": self.wall_time_ms,
            "spectral_radius": self.spectral_radius,
            "fallbacks": list(self.fallbacks),
            "degraded": self.degraded,
            "truncation_level": self.truncation_level,
        }


def _closed_classes(a: np.ndarray) -> list[np.ndarray]:
    """Indices of the closed communicating classes of generator ``a``.

    A closed class is a strongly connected component with no transition
    leaving it; the long-run phase process lives on these classes only.
    """
    scale = max(float(np.max(np.abs(np.diag(a)))), 1.0)
    adjacency = (a > 1e-14 * scale)
    np.fill_diagonal(adjacency, False)
    count, labels = connected_components(
        adjacency, directed=True, connection="strong"
    )
    # A component is closed when no edge leaves it: mark the source
    # component of every edge whose endpoints carry different labels.
    rows, cols = np.nonzero(adjacency)
    leaking = np.zeros(count, dtype=bool)
    leaking[labels[rows[labels[rows] != labels[cols]]]] = True
    return [np.flatnonzero(labels == c) for c in range(count) if not leaking[c]]


def drift(a0: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> float:
    """Mean drift of the repeating portion: ``theta A0 e - theta A2 e``.

    ``theta`` is the stationary vector of the phase generator
    ``A = A0 + A1 + A2``.  Negative drift means the level process tends
    down, i.e. the QBD is positive recurrent (stable).

    The phase generator may be *reducible* (in the FG/BG model the
    background-serving groups are transient within a level, and with
    several background classes every full-buffer occupancy forms its own
    closed class).  The drift is then evaluated per closed communicating
    class and the worst (largest) value is returned: the QBD is stable iff
    the level process drifts down from every class the phases can settle
    into.
    """
    a0 = np.asarray(a0, float)
    a2 = np.asarray(a2, float)
    a = a0 + np.asarray(a1, float) + a2
    classes = _closed_classes(a)
    if not classes:
        raise ValueError("phase process A0+A1+A2 has no closed class")
    e = np.ones(a.shape[0])
    up = a0 @ e
    down = a2 @ e
    worst = -np.inf
    for indices in classes:
        sub = a[np.ix_(indices, indices)]
        theta = stationary_distribution(sub, method="gth" if sub.shape[0] > 1 else "dense")
        value = float(theta @ up[indices] - theta @ down[indices])
        worst = max(worst, value)
    return worst


def is_stable(a0: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> bool:
    """True when the QBD with these repeating blocks is positive recurrent."""
    return drift(a0, a1, a2) < 0.0


def _functional_impl(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float,
    max_iter: int,
    time_budget_ms: float | None = None,
) -> tuple[np.ndarray, int]:
    """Functional iteration returning ``(R, iterations)``."""
    a0 = np.asarray(a0, float)
    a1 = np.asarray(a1, float)
    a2 = np.asarray(a2, float)
    inv_neg_a1 = np.linalg.inv(-a1)
    r = np.zeros_like(a0)
    started_at = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            _budget_tick(started_at, time_budget_ms, it, "functional iteration")
            r_next = (a0 + r @ r @ a2) @ inv_neg_a1
            if not np.all(np.isfinite(r_next)):
                raise QBDConvergenceError(
                    "functional iteration overflowed",
                    iterations=it,
                )
            delta = float(np.max(np.abs(r_next - r)))
            r = r_next
            if delta < tol:
                return r, it
    raise QBDConvergenceError(
        f"functional iteration did not converge in {max_iter} iterations "
        f"(last delta {delta:.3g}); is the QBD stable?",
        iterations=max_iter,
    )


def r_matrix_functional_iteration(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> np.ndarray:
    """Neuts' fixed-point iteration ``R <- -(A0 + R^2 A2) A1^{-1}``.

    Converges monotonically from ``R = 0`` to the minimal solution.
    """
    return _functional_impl(a0, a1, a2, tol, max_iter)[0]


def _natural_impl(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float,
    max_iter: int,
    time_budget_ms: float | None = None,
) -> tuple[np.ndarray, int]:
    """Natural (U-based) iteration returning ``(G, iterations)``."""
    a0 = np.asarray(a0, float)
    a1 = np.asarray(a1, float)
    a2 = np.asarray(a2, float)
    g = np.zeros_like(a0)
    started_at = time.perf_counter()
    for it in range(1, max_iter + 1):
        _budget_tick(started_at, time_budget_ms, it, "natural iteration")
        g_next = np.linalg.solve(-(a1 + a0 @ g), a2)
        delta = float(np.max(np.abs(g_next - g)))
        g = g_next
        if delta < tol:
            return g, it
    raise QBDConvergenceError(
        f"natural iteration did not converge in {max_iter} iterations "
        f"(last delta {delta:.3g}); is the QBD stable?",
        iterations=max_iter,
    )


def g_matrix_natural_iteration(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> np.ndarray:
    """U-based iteration ``G <- (-(A1 + A0 G))^{-1} A2``."""
    return _natural_impl(a0, a1, a2, tol, max_iter)[0]


def _logred_impl(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, int]:
    """Logarithmic reduction returning ``(G, doubling steps)``."""
    a0 = np.asarray(a0, float)
    a1 = np.asarray(a1, float)
    a2 = np.asarray(a2, float)
    m = a0.shape[0]
    inv_neg_a1 = np.linalg.inv(-a1)
    h = inv_neg_a1 @ a0
    low = inv_neg_a1 @ a2
    g = low.copy()
    t = h.copy()
    ones = np.ones(m)
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            if _fault_fire("logred_overflow"):
                # Injected replica of the real overflow below: same
                # exception type and message shape, so every downstream
                # escalation path is exercised exactly as in production.
                raise QBDConvergenceError(
                    "logarithmic reduction overflowed (injected fault "
                    "logred_overflow); use the natural or functional "
                    "iteration",
                    iterations=it,
                )
            u = h @ low + low @ h
            m_inv = np.linalg.inv(np.eye(m) - u)
            h = m_inv @ (h @ h)
            low = m_inv @ (low @ low)
            g += t @ low
            t = t @ h
            if not np.all(np.isfinite(g)):
                raise QBDConvergenceError(
                    "logarithmic reduction overflowed (nearly decomposable "
                    "phase process); use the natural or functional iteration",
                    iterations=it,
                )
            if float(np.max(np.abs(ones - g @ ones))) < tol:
                return g, it
    raise QBDConvergenceError(
        f"logarithmic reduction did not converge in {max_iter} doublings; "
        "is the QBD stable and irreducible?",
        iterations=max_iter,
    )


def g_matrix_logarithmic_reduction(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = 64,
) -> np.ndarray:
    """Logarithmic reduction (Latouche & Ramaswami), quadratic convergence.

    Operates on the uniformized/probabilistic form: with
    ``H = (-A1)^{-1} A0`` (up) and ``L = (-A1)^{-1} A2`` (down),

    iterate ``U = H L + L H``; ``H <- (I-U)^{-1} H^2``;
    ``L <- (I-U)^{-1} L^2``; accumulating ``G += T L`` with ``T`` the
    product of the successive ``H`` factors.
    """
    return _logred_impl(a0, a1, a2, tol, max_iter)[0]


def r_matrix_from_g(
    a0: np.ndarray, a1: np.ndarray, a2: np.ndarray, g: np.ndarray
) -> np.ndarray:
    """Recover ``R = A0 (-(A1 + A0 G))^{-1}`` from the G matrix."""
    a0 = np.asarray(a0, float)
    u = np.asarray(a1, float) + a0 @ np.asarray(g, float)
    return a0 @ np.linalg.inv(-u)


def r_matrix_logarithmic_reduction(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """R via logarithmic reduction of G (the recommended default)."""
    g = g_matrix_logarithmic_reduction(a0, a1, a2, tol=tol)
    return r_matrix_from_g(a0, a1, a2, g)


def r_matrix_natural_iteration(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """R via the U-based natural iteration on G."""
    g = g_matrix_natural_iteration(a0, a1, a2, tol=tol)
    return r_matrix_from_g(a0, a1, a2, g)


def _r_logred_impl(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float,
    time_budget_ms: float | None = None,
) -> tuple[np.ndarray, int]:
    # Quadratically convergent in at most 64 doublings -- no time budget
    # needed (each doubling is a handful of dense m x m products).
    g, iters = _logred_impl(a0, a1, a2, tol, 64)
    return r_matrix_from_g(a0, a1, a2, g), iters


def _r_natural_impl(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float,
    time_budget_ms: float | None = None,
) -> tuple[np.ndarray, int]:
    g, iters = _natural_impl(
        a0, a1, a2, tol, DEFAULT_MAX_ITER, time_budget_ms=time_budget_ms
    )
    return r_matrix_from_g(a0, a1, a2, g), iters


def _r_functional_impl(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float,
    time_budget_ms: float | None = None,
) -> tuple[np.ndarray, int]:
    return _functional_impl(
        a0, a1, a2, tol, DEFAULT_MAX_ITER, time_budget_ms=time_budget_ms
    )


_ALGORITHMS = {
    "logarithmic-reduction": _r_logred_impl,
    "natural": _r_natural_impl,
    "functional": _r_functional_impl,
}


def _spectral_radius(r: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(r))))


def r_matrix(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    algorithm: str = "logarithmic-reduction",
    tol: float = DEFAULT_TOL,
    return_stats: bool = False,
    blocks_validated: bool = False,
    time_budget_ms: float | None = None,
) -> np.ndarray | tuple[np.ndarray, SolveStats]:
    """Minimal non-negative solution of ``A0 + R A1 + R^2 A2 = 0``.

    Parameters
    ----------
    algorithm:
        One of ``"logarithmic-reduction"`` (default, quadratic),
        ``"natural"`` or ``"functional"``.
    return_stats:
        When True, return ``(R, SolveStats)`` instead of just ``R``.
    blocks_validated:
        Caller's certificate that ``(a0, a1, a2)`` already passed the
        generator/split precondition and are frozen read-only -- true for
        blocks taken off a :class:`~repro.qbd.structure.QBDProcess`, whose
        constructor validates exactly these invariants.  Skips the
        redundant re-validation; the R postcondition still runs.  Never
        pass True for matrices assembled by hand.
    time_budget_ms:
        Wall-time budget of the linearly convergent escalation rungs
        (functional / natural).  Defaults to
        :func:`escalation_time_budget_ms` (30 s, overridable via
        ``REPRO_SOLVER_BUDGET_MS``); a rung that exceeds it raises
        :class:`QBDConvergenceError` and the ladder moves on.  The
        quadratic logarithmic reduction is bounded by its step cap
        instead.

    Raises
    ------
    ValueError
        For an unknown algorithm name or an unstable QBD.
    QBDConvergenceError
        If every iteration fails to converge; its ``attempts`` attribute
        then lists every abandoned rung.
    """
    if algorithm not in _ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(_ALGORITHMS)}"
        )
    if not blocks_validated and contracts_enabled():
        # The repeating blocks must form a generator row-split into
        # non-negative up/down parts; a violated precondition here would
        # otherwise converge to plausible-looking garbage.
        a0_arr = np.asarray(a0, float)
        a1_arr = np.asarray(a1, float)
        a2_arr = np.asarray(a2, float)
        check_nonnegative(a0_arr, "A0")
        check_nonnegative(a2_arr, "A2")
        check_generator(a0_arr + a1_arr + a2_arr, "A0+A1+A2")
    if not is_stable(a0, a1, a2):
        raise ValueError(
            f"QBD is not positive recurrent (drift {drift(a0, a1, a2):.6g} >= 0); "
            "the stationary distribution does not exist"
        )
    if time_budget_ms is None:
        time_budget_ms = escalation_time_budget_ms()
    start = time.perf_counter()
    total_iterations = 0
    attempted: list[str] = []
    used = algorithm
    try:
        r, iters = _ALGORITHMS[algorithm](
            a0, a1, a2, tol, time_budget_ms=time_budget_ms
        )
        total_iterations += iters
    except QBDConvergenceError as exc:
        total_iterations += exc.iterations
        attempted.append(algorithm)
        # Nearly decomposable phase processes can overflow logarithmic
        # reduction; the linearly convergent iterations are slower but
        # unconditionally monotone, so fall back before giving up.
        # Functional iteration first: cheapest per step and monotone.
        # Each fallback rung runs under the escalation time budget.
        order = ["functional", "natural", "logarithmic-reduction"]
        found: np.ndarray | None = None
        for name in (n for n in order if n != algorithm):
            try:
                found, iters = _ALGORITHMS[name](
                    a0, a1, a2, tol, time_budget_ms=time_budget_ms
                )
                total_iterations += iters
                used = name
                break
            except QBDConvergenceError as fallback_exc:
                total_iterations += fallback_exc.iterations
                attempted.append(name)
        if found is None:
            # The whole ladder failed: attach the attempt log so the
            # caller's failure record can state every rung tried.
            exc.attempts = tuple(attempted)
            raise
        r = found
    # Clip round-off negatives; R must be entrywise non-negative.
    if np.any(r < -1e-9):
        raise QBDConvergenceError(
            f"computed R has a significantly negative entry ({r.min():.3g})"
        )
    r = np.clip(r, 0.0, None)
    # Postcondition: the accepted R -- first choice or a fallback -- must
    # be the minimal solution, i.e. finite, non-negative, sp(R) < 1.
    check_r_matrix(r, "R")
    if not return_stats:
        return r
    stats = SolveStats(
        algorithm=used,
        iterations=total_iterations,
        wall_time_ms=(time.perf_counter() - start) * 1e3,
        spectral_radius=_spectral_radius(r),
        fallbacks=tuple(attempted),
    )
    return r, stats
