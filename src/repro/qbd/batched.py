"""Batched matrix-geometric kernel: many same-shape QBDs in one solve.

Every figure of the paper is a *sweep*: 40+ nearby models with identical
block shapes, each previously paying its own Python-level logarithmic
reduction loop, boundary solve and ``(I-R)^{-1}`` extraction.  This module
stacks ``N`` block triples ``(A0, A1, A2)`` along a leading axis and runs
the whole pipeline with batched ``np.linalg`` primitives (``solve``,
``inv`` and ``@`` all accept ``(N, m, m)`` operands), so the per-point
Python overhead is paid once per *batch* instead of once per *point*:

* **stacked logarithmic reduction** with a per-item convergence mask --
  finished items leave the active set and stop contributing work;
* **per-item fallback** -- items that overflow, go singular or fail the
  minimality certificate are re-solved through the scalar
  :func:`~repro.qbd.rmatrix.r_matrix` path (which also performs the full
  drift/stability diagnosis and raises its usual errors);
* **batched boundary solve** and **stacked level-sum extraction**
  (``pi_1 (I-R)^{-1}``, ``pi_1 (I-R)^{-2}``) feeding the per-item
  :class:`~repro.qbd.stationary.QBDStationaryDistribution` objects.

The batched path skips the a-priori (closed-class) drift check of the
scalar path: an unstable item cannot converge to a stochastic ``G``, so it
lands in the scalar fallback, which performs the drift diagnosis and
raises the same ``ValueError`` a sequential solve would.  Accepted items
still pass the per-item ``sp(R) < 1`` postcondition, so batched results
agree with sequential results to solver tolerance (in practice bitwise,
since the stacked BLAS calls perform the identical per-slice operations).
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass, replace
from typing import Literal, overload

import numpy as np

from repro._types import ArrayLike, FloatArray
from repro.contracts.checks import (
    check_r_matrix,
    contracts_enabled,
)
from repro.faults import fire as _fault_fire
from repro.contracts.errors import ContractViolation
from repro.qbd.boundary import solve_boundary
from repro.qbd.rmatrix import (
    DEFAULT_TOL,
    QBDConvergenceError,
    SolveStats,
    r_matrix,
)
from repro.qbd.stationary import QBDStationaryDistribution
from repro.qbd.structure import QBDProcess
from repro.qbd.truncated import solve_qbd_truncated

__all__ = [
    "BatchedItemFailure",
    "BatchedSolveReport",
    "batched_r_matrix",
    "solve_qbd_batched",
]

#: Doubling-step budget of the stacked logarithmic reduction; matches the
#: scalar path (quadratic convergence: the paper's chains need ~6-8).
LOGRED_MAX_ITER = 64

#: Algorithm name recorded in per-item :class:`SolveStats`.
BATCHED_ALGORITHM = "batched-logarithmic-reduction"

#: ``on_error`` modes accepted by the batched entry points; "skip" and
#: "collect" both isolate failures here (warning emission vs. silent
#: collection is the engine's concern).
_ON_ERROR_MODES = ("raise", "skip", "collect")


def _validate_on_error(value: str) -> str:
    if value not in _ON_ERROR_MODES:
        raise ValueError(
            f"on_error must be one of {_ON_ERROR_MODES}, got {value!r}"
        )
    return value


@dataclass(frozen=True)
class BatchedItemFailure:
    """One isolated item failure inside a batched kernel call.

    Attributes
    ----------
    index:
        Position of the failed item in the call's input order (remapped to
        the original model order by :func:`repro.core.batched.solve_models_batched`).
    stage:
        ``"precheck"`` (unstable before any solving), ``"r-matrix"``,
        ``"boundary"`` or ``"truncated"`` (the escalation rung itself
        failed).
    error_type / message:
        Exception class name and ``str(exception)``.
    contract_violation:
        True when the underlying exception was a
        :class:`~repro.contracts.ContractViolation`.
    attempts:
        Escalation rungs tried before the item was given up.
    error:
        The exception object itself, kept so ``on_error="raise"`` callers
        re-raise the original error after a failed escalation.
    """

    index: int
    stage: str
    error_type: str
    message: str
    contract_violation: bool = False
    attempts: tuple[str, ...] = ()
    error: BaseException | None = None


def _item_failure(
    index: int,
    stage: str,
    exc: BaseException,
    attempts: tuple[str, ...] = (),
) -> BatchedItemFailure:
    return BatchedItemFailure(
        index=index,
        stage=stage,
        error_type=type(exc).__name__,
        message=str(exc),
        contract_violation=isinstance(exc, ContractViolation),
        attempts=tuple(attempts) + tuple(getattr(exc, "attempts", ())),
        error=exc,
    )


@dataclass(frozen=True)
class BatchedSolveReport:
    """Diagnostics of one batched kernel call (one shape group).

    Attributes
    ----------
    batch_size:
        Number of stacked items.
    phase_count:
        Phase count ``m`` of every item.
    iterations:
        Masked doubling steps summed over items: converged items stop
        counting, so this is the work actually performed, not
        ``batch_size * max_iterations``.
    max_iterations:
        Doubling steps until the slowest item converged.
    wall_time_ms:
        Wall-clock time of the whole kernel call (including fallbacks).
    fallbacks:
        Indices of the items re-solved through the scalar path.
    boundary_size:
        Boundary size ``n_b`` of every item (0 when unknown, e.g. a bare
        :func:`batched_r_matrix` call that never sees boundary blocks).
    failures:
        Per-item failures isolated by ``on_error="skip"|"collect"``, in
        input order; empty in ``"raise"`` mode (the first failure
        propagated instead).
    """

    batch_size: int
    phase_count: int
    iterations: int
    max_iterations: int
    wall_time_ms: float
    fallbacks: tuple[int, ...] = ()
    boundary_size: int = 0
    failures: tuple[BatchedItemFailure, ...] = ()

    def __post_init__(self) -> None:
        if self.batch_size < 0:
            raise ValueError(f"batch_size must be >= 0, got {self.batch_size}")
        if self.phase_count < 0:
            raise ValueError(
                f"phase_count must be >= 0, got {self.phase_count}"
            )

    def as_dict(self) -> dict:
        """JSON-serializable representation."""
        return {
            "batch_size": self.batch_size,
            "phase_count": self.phase_count,
            "iterations": self.iterations,
            "max_iterations": self.max_iterations,
            "wall_time_ms": self.wall_time_ms,
            "fallbacks": list(self.fallbacks),
            "boundary_size": self.boundary_size,
            "failures": [
                {
                    "index": f.index,
                    "stage": f.stage,
                    "error_type": f.error_type,
                    "message": f.message,
                    "contract_violation": f.contract_violation,
                    "attempts": list(f.attempts),
                }
                for f in self.failures
            ],
        }


def _as_block_stack(a: ArrayLike, name: str) -> FloatArray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError(
            f"{name} must be a stack of square blocks with shape (N, m, m), "
            f"got {arr.shape}"
        )
    return arr


def _check_block_stack(
    a0: FloatArray, a1: FloatArray, a2: FloatArray, atol: float = 1e-8
) -> None:
    """Vectorized per-item precondition of the repeating blocks.

    The stacked equivalent of the scalar path's ``check_nonnegative(A0)``,
    ``check_nonnegative(A2)`` and ``check_generator(A0+A1+A2)``: one pass
    over each stack, localizing the offending item only on failure.
    """
    for name, stack in (("A0", a0), ("A2", a2)):
        mins = stack.min(axis=(1, 2)) if stack.size else np.zeros(0)
        if stack.size and float(mins.min()) < -atol:
            item = int(np.argmin(mins))
            raise ContractViolation(
                "check_nonnegative",
                f"{name}[{item}]",
                f"negative entry {mins[item]:.6g}",
            )
    s = a0 + a1 + a2
    if not s.size:
        return
    row_sums = s.sum(axis=2)
    if not np.isfinite(row_sums).all():
        item = int(np.argmax(~np.isfinite(row_sums).all(axis=1)))
        raise ContractViolation(
            "check_generator", f"A0+A1+A2[{item}]", "non-finite entry"
        )
    diag = np.diagonal(s, axis1=1, axis2=2)
    scale = np.maximum(np.abs(diag).max(axis=1), 1.0)
    off = s.copy()
    idx = np.arange(s.shape[1])
    off[:, idx, idx] = 0.0
    off_min = off.min(axis=(1, 2))
    if np.any(off_min < -atol * scale):
        item = int(np.argmax(off_min < -atol * scale))
        raise ContractViolation(
            "check_generator",
            f"A0+A1+A2[{item}]",
            f"negative off-diagonal rate {off_min[item]:.6g}",
        )
    worst = np.abs(row_sums).max(axis=1)
    if np.any(worst > atol * scale * s.shape[1]):
        item = int(np.argmax(worst / scale))
        raise ContractViolation(
            "check_generator",
            f"A0+A1+A2[{item}]",
            f"row sums reach {worst[item]:.6g}, expected 0",
        )


def _stack_inv(stack: FloatArray) -> tuple[FloatArray, np.ndarray]:
    """Batched inverse with per-item failure: ``(result, ok_mask)``.

    ``np.linalg.inv`` on a stack raises when *any* item is singular
    without saying which; on that path each item is inverted individually
    and the singular ones are reported through ``ok_mask`` (their result
    slots hold NaN) instead of failing the whole batch.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return np.linalg.inv(stack), np.ones(stack.shape[0], dtype=bool)
    except np.linalg.LinAlgError:
        out = np.full_like(stack, np.nan)
        ok = np.zeros(stack.shape[0], dtype=bool)
        for i in range(stack.shape[0]):
            try:
                out[i] = np.linalg.inv(stack[i])
                ok[i] = True
            except np.linalg.LinAlgError:
                pass
        return out, ok


def _batched_logred_g(
    a0: FloatArray, a1: FloatArray, a2: FloatArray, tol: float, max_iter: int
) -> tuple[FloatArray, np.ndarray, np.ndarray]:
    """Masked stacked logarithmic reduction: ``(G, iterations, failed)``.

    Performs, per active item, exactly the update sequence of the scalar
    :func:`~repro.qbd.rmatrix._logred_impl`; items leave the active set as
    soon as their ``G`` row sums reach 1 within ``tol`` (converged) or
    their iterates go non-finite / singular (failed -> scalar fallback).
    """
    n, m = a0.shape[0], a0.shape[1]
    iterations = np.zeros(n, dtype=int)
    failed = np.zeros(n, dtype=bool)
    # Per-item fault check mirroring the scalar _logred_impl hook: a fired
    # item is demoted to the scalar fallback, which re-checks the fault
    # (and performs the full escalation) exactly as a sequential solve.
    for i in range(n):
        if _fault_fire("logred_overflow"):
            failed[i] = True
    eye = np.eye(m)
    ones = np.ones(m)
    inv_neg_a1, ok = _stack_inv(-a1)
    failed |= ~ok
    with np.errstate(over="ignore", invalid="ignore"):
        h = inv_neg_a1 @ a0
        low = inv_neg_a1 @ a2
        g = low.copy()
        t = h.copy()
        finite = np.isfinite(g).all(axis=(1, 2)) & np.isfinite(h).all(
            axis=(1, 2)
        )
    failed |= ~finite
    active = ~failed
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            hh, ll, tt = h[idx], low[idx], t[idx]
            u = hh @ ll + ll @ hh
            m_inv, ok = _stack_inv(eye - u)
            h_next = m_inv @ (hh @ hh)
            low_next = m_inv @ (ll @ ll)
            g_next = g[idx] + tt @ low_next
            t_next = tt @ h_next
            h[idx], low[idx], g[idx], t[idx] = h_next, low_next, g_next, t_next
            iterations[idx] += 1
            finite = ok & np.isfinite(g_next).all(axis=(1, 2))
            newly_failed = idx[~finite]
            failed[newly_failed] = True
            active[newly_failed] = False
            live = idx[finite]
            residual = np.abs(ones - g[live] @ ones).max(axis=1)
            active[live[residual < tol]] = False
    # Items still active after the budget did not converge (unstable or
    # irreducibility trouble) -- hand them to the scalar path for the
    # full diagnosis.
    failed |= active
    return g, iterations, failed


@overload
def batched_r_matrix(
    a0: ArrayLike,
    a1: ArrayLike,
    a2: ArrayLike,
    tol: float = ...,
    blocks_validated: bool = ...,
    return_stats: Literal[False] = ...,
    on_error: str = ...,
) -> FloatArray: ...


@overload
def batched_r_matrix(
    a0: ArrayLike,
    a1: ArrayLike,
    a2: ArrayLike,
    tol: float = ...,
    blocks_validated: bool = ...,
    *,
    return_stats: Literal[True],
    on_error: str = ...,
) -> tuple[FloatArray, list[SolveStats], BatchedSolveReport]: ...


def batched_r_matrix(
    a0: ArrayLike,
    a1: ArrayLike,
    a2: ArrayLike,
    tol: float = DEFAULT_TOL,
    blocks_validated: bool = False,
    return_stats: bool = False,
    on_error: str = "raise",
) -> FloatArray | tuple[FloatArray, list[SolveStats], BatchedSolveReport]:
    """Minimal R matrices of ``N`` stacked QBD block triples.

    The stacked equivalent of :func:`repro.qbd.rmatrix.r_matrix` with
    ``algorithm="logarithmic-reduction"``: one masked batched iteration
    solves every item at once, and items the kernel cannot finish
    (overflow, singular step, failed minimality certificate, no
    convergence) are transparently re-solved through the scalar path --
    including its drift/stability diagnosis and error reporting, so an
    unstable item raises the same ``ValueError`` it would sequentially.

    Parameters
    ----------
    a0, a1, a2:
        Block stacks of shape ``(N, m, m)``.
    tol:
        Convergence tolerance of the underlying iterations.
    blocks_validated:
        Caller's certificate that every item already passed the
        generator/row-split precondition and is frozen read-only (true for
        blocks taken off :class:`~repro.qbd.structure.QBDProcess`
        instances).  Never pass True for hand-assembled stacks.
    return_stats:
        When True, return ``(R, stats, report)`` where ``stats`` is a list
        of per-item :class:`~repro.qbd.rmatrix.SolveStats` and ``report``
        the group-level :class:`BatchedSolveReport`.
    on_error:
        ``"raise"`` (default) propagates the first scalar-fallback
        failure; ``"skip"``/``"collect"`` isolate it instead -- the item's
        ``R`` slot stays zero, and the failure lands in
        ``report.failures`` (pass ``return_stats=True`` to see it).

    Returns
    -------
    ``(N, m, m)`` stack of R matrices (read-only), optionally with stats.
    """
    _validate_on_error(on_error)
    a0 = _as_block_stack(a0, "A0")
    a1 = _as_block_stack(a1, "A1")
    a2 = _as_block_stack(a2, "A2")
    if not (a0.shape == a1.shape == a2.shape):
        raise ValueError(
            f"block stacks must share one shape, got {a0.shape}, "
            f"{a1.shape}, {a2.shape}"
        )
    n, m = a0.shape[0], a0.shape[1]
    if not blocks_validated and contracts_enabled():
        _check_block_stack(a0, a1, a2)
    start = time.perf_counter()
    g, iterations, failed = _batched_logred_g(a0, a1, a2, tol, LOGRED_MAX_ITER)
    r = np.zeros_like(a0)
    ok = np.flatnonzero(~failed)
    if ok.size:
        with np.errstate(over="ignore", invalid="ignore"):
            u = a1[ok] + a0[ok] @ g[ok]
            inv_neg_u, inv_ok = _stack_inv(-u)
            r_ok = a0[ok] @ inv_neg_u
        # A converged G whose U factor is singular, a significantly
        # negative R entry, or a failed minimality certificate all demote
        # the item to the scalar path rather than failing the batch.
        finite = inv_ok & np.isfinite(r_ok).all(axis=(1, 2))
        bad_sign = np.zeros(ok.size, dtype=bool)
        bad_sign[finite] = r_ok[finite].min(axis=(1, 2)) < -1e-9
        accepted = finite & ~bad_sign
        r[ok[accepted]] = np.clip(r_ok[accepted], 0.0, None)
        failed[ok[~accepted]] = True
    if contracts_enabled():
        for i in np.flatnonzero(~failed):
            try:
                check_r_matrix(r[i], f"R[{i}]")
            except ContractViolation:  # noqa: RL014 -- not dropped: the item is demoted to the scalar path below, which re-solves and re-raises the full diagnostics
                failed[i] = True
    fallback_stats: dict[int, SolveStats] = {}
    failures: list[BatchedItemFailure] = []
    for i in np.flatnonzero(failed):
        try:
            result = r_matrix(
                a0[i],
                a1[i],
                a2[i],
                tol=tol,
                return_stats=True,
                blocks_validated=blocks_validated,
            )
        except (QBDConvergenceError, ValueError, ContractViolation) as exc:
            # The scalar diagnosis raised: unstable item (ValueError),
            # exhausted ladder (QBDConvergenceError) or violated block
            # precondition (ContractViolation).  In isolation mode the
            # item's R slot stays zero and downstream stages must skip it.
            if on_error == "raise":
                raise
            failures.append(
                _item_failure(int(i), "r-matrix", exc, (BATCHED_ALGORITHM,))
            )
            continue
        r[i], stats = result
        fallback_stats[i] = replace(
            stats,
            iterations=stats.iterations + int(iterations[i]),
            fallbacks=(BATCHED_ALGORITHM, *stats.fallbacks),
        )
    r.setflags(write=False)
    wall_time_ms = (time.perf_counter() - start) * 1e3
    if not return_stats:
        return r
    # One stacked eigenvalue call covers every item's reported sp(R).
    radii = (
        np.abs(np.linalg.eigvals(r)).max(axis=1) if n else np.zeros(0)
    )
    per_item_ms = wall_time_ms / n if n else 0.0
    stats_list = [
        fallback_stats[i]
        if i in fallback_stats
        else SolveStats(
            algorithm=BATCHED_ALGORITHM,
            iterations=int(iterations[i]),
            wall_time_ms=per_item_ms,
            spectral_radius=float(radii[i]),
        )
        for i in range(n)
    ]
    report = BatchedSolveReport(
        batch_size=n,
        phase_count=m,
        iterations=int(iterations.sum()),
        max_iterations=int(iterations.max()) if n else 0,
        wall_time_ms=wall_time_ms,
        fallbacks=tuple(int(i) for i in np.flatnonzero(failed)),
        failures=tuple(failures),
    )
    return r, stats_list, report


def _batched_boundary(
    qbds: list[QBDProcess], r: FloatArray, on_error: str = "raise"
) -> tuple[FloatArray, FloatArray, list[tuple[int, BaseException]]]:
    """Stacked boundary solve: ``(pi_0, pi_1, failed)`` -- jointly normalized.

    Per item this assembles and solves exactly the linear system of
    :func:`repro.qbd.boundary.solve_boundary`; items whose batched solve
    goes singular or significantly negative are re-solved (and error
    checked) through the scalar path.  In isolation mode a scalar re-solve
    that *raises* lands in the returned ``failed`` list (its ``pi`` rows
    are NaN) instead of propagating.
    """
    n = len(qbds)
    n_b, m = qbds[0].boundary_size, qbds[0].phase_count
    # Per-item fault check mirroring the scalar solve_boundary hook; a
    # fired item fails with the same injected LinAlgError a sequential
    # solve would raise.
    failed_items: list[tuple[int, BaseException]] = []
    injected = np.zeros(n, dtype=bool)
    for i in range(n):
        if _fault_fire("singular_boundary"):
            exc: BaseException = np.linalg.LinAlgError(
                "boundary system is singular (injected fault "
                "singular_boundary)"
            )
            if on_error == "raise":
                raise exc
            injected[i] = True
            failed_items.append((i, exc))
    big = np.zeros((n, n_b + m, n_b + m))
    big[:, :n_b, :n_b] = np.stack([q.b00 for q in qbds])
    big[:, :n_b, n_b:] = np.stack([q.b01 for q in qbds])
    big[:, n_b:, :n_b] = np.stack([q.b10 for q in qbds])
    a1 = np.stack([q.a1 for q in qbds])
    a2 = np.stack([q.a2 for q in qbds])
    big[:, n_b:, n_b:] = a1 + r @ a2

    eye = np.eye(m)
    # RHS kept explicitly 3-D: stacked-solve vector dispatch differs
    # between numpy 1.x and 2.x for a 2-D RHS.
    tail_weights = np.linalg.solve(eye - r, np.ones((n, m, 1)))[..., 0]
    norm_rows = np.concatenate([np.ones((n, n_b)), tail_weights], axis=1)

    a = big.transpose(0, 2, 1).copy()
    diag = np.diagonal(big, axis1=1, axis2=2)
    drop = np.argmax(np.abs(diag), axis=1)
    rows = np.arange(n)
    a[rows, drop, :] = norm_rows
    rhs = np.zeros((n, n_b + m))
    rhs[rows, drop] = 1.0

    pi0 = np.empty((n, n_b))
    pi1 = np.empty((n, m))
    try:
        x = np.linalg.solve(a, rhs[..., None])[..., 0]
        scalar_items = np.flatnonzero(
            (~np.isfinite(x).all(axis=1))
            | (
                x.min(axis=1)
                < -1e-8 * np.maximum(1.0, np.abs(x).max(axis=1))
            )
        )
    except np.linalg.LinAlgError:
        x = None
        scalar_items = rows
    inj_idx = np.flatnonzero(injected)
    scalar_items = np.setdiff1d(scalar_items, inj_idx)
    pi0[inj_idx] = np.nan
    pi1[inj_idx] = np.nan
    if x is not None:
        good = np.setdiff1d(rows, np.union1d(scalar_items, inj_idx))
        xg = np.clip(x[good], 0.0, None)
        total = xg[:, :n_b].sum(axis=1) + np.einsum(
            "ni,ni->n", xg[:, n_b:], tail_weights[good]
        )
        xg /= total[:, None]
        pi0[good] = xg[:, :n_b]
        pi1[good] = xg[:, n_b:]
    for i in scalar_items:
        try:
            pi0[i], pi1[i] = solve_boundary(qbds[i], r[i])
        except (np.linalg.LinAlgError, ValueError) as exc:
            if on_error == "raise":
                raise
            pi0[i] = np.nan
            pi1[i] = np.nan
            failed_items.append((int(i), exc))
    return pi0, pi1, failed_items


@overload
def solve_qbd_batched(
    qbds: Iterable[QBDProcess],
    tol: float = ...,
    return_report: Literal[False] = ...,
    on_error: Literal["raise"] = ...,
    escalate: bool = ...,
) -> list[QBDStationaryDistribution]: ...


@overload
def solve_qbd_batched(
    qbds: Iterable[QBDProcess],
    tol: float = ...,
    *,
    return_report: Literal[True],
    on_error: Literal["raise"] = ...,
    escalate: bool = ...,
) -> tuple[list[QBDStationaryDistribution], BatchedSolveReport]: ...


@overload
def solve_qbd_batched(
    qbds: Iterable[QBDProcess],
    tol: float = ...,
    *,
    return_report: Literal[True],
    on_error: str,
    escalate: bool = ...,
) -> tuple[list[QBDStationaryDistribution | None], BatchedSolveReport]: ...


def solve_qbd_batched(
    qbds: Iterable[QBDProcess],
    tol: float = DEFAULT_TOL,
    return_report: bool = False,
    on_error: str = "raise",
    escalate: bool = False,
) -> (
    list[QBDStationaryDistribution]
    | list[QBDStationaryDistribution | None]
    | tuple[list[QBDStationaryDistribution | None], BatchedSolveReport]
):
    """Solve ``N`` same-shape QBDs end to end in one stacked pipeline.

    The batched counterpart of :func:`repro.qbd.stationary.solve_qbd`:
    stacked R matrices (:func:`batched_r_matrix`), a batched boundary
    solve, and the ``(I-R)^{-1}`` level sums of *all* items extracted with
    two batched linear solves, seeded into the returned per-item
    distributions.  Mixed-shape inputs are rejected -- group by
    ``(boundary_size, phase_count)`` first (the sweep engine does).

    Parameters
    ----------
    qbds:
        Non-empty sequence of :class:`~repro.qbd.structure.QBDProcess`
        instances sharing one block shape.
    tol:
        R-iteration tolerance.
    return_report:
        When True, return ``(distributions, report)``.
    on_error:
        ``"raise"`` (default) propagates the first per-item failure;
        ``"skip"``/``"collect"`` isolate failures instead: the failed
        item's distribution slot is ``None``, the failure lands in
        ``report.failures``, and every other item solves normally.
    escalate:
        Per item that the matrix-geometric pipeline gives up on, try the
        truncated dense-chain rung
        (:func:`repro.qbd.truncated.solve_qbd_truncated`) before failing
        it; successful escalations return real distributions flagged
        ``degraded=True`` in their ``solve_stats``.

    Returns
    -------
    List of :class:`~repro.qbd.stationary.QBDStationaryDistribution`, one
    per input, each carrying its per-item
    :class:`~repro.qbd.rmatrix.SolveStats` (``None`` slots only in
    isolation mode).
    """
    _validate_on_error(on_error)
    qbds = list(qbds)
    if not qbds:
        raise ValueError("solve_qbd_batched needs at least one QBD")
    for q in qbds:
        if not isinstance(q, QBDProcess):
            raise TypeError(
                f"expected QBDProcess instances, got {type(q).__name__}"
            )
    shapes = {(q.boundary_size, q.phase_count) for q in qbds}
    if len(shapes) > 1:
        raise ValueError(
            f"mixed block shapes {sorted(shapes)}; group same-shape QBDs "
            "before calling solve_qbd_batched"
        )
    n, m = len(qbds), qbds[0].phase_count
    n_b = qbds[0].boundary_size
    # With escalation on, the R stage must isolate its failures even in
    # "raise" mode so the truncated rung gets its chance; the original
    # exception object is preserved and re-raised if escalation fails too.
    isolate = on_error != "raise" or escalate
    # QBDProcess.__post_init__ validated the row split and froze every
    # block, so the stacked precondition is certified (same certificate
    # solve_qbd passes to r_matrix).
    r, stats_list, report = batched_r_matrix(
        np.stack([q.a0 for q in qbds]),
        np.stack([q.a1 for q in qbds]),
        np.stack([q.a2 for q in qbds]),
        tol=tol,
        blocks_validated=True,
        return_stats=True,
        on_error="collect" if isolate else "raise",
    )
    stats_list = list(stats_list)
    failures: dict[int, BatchedItemFailure] = {
        f.index: f for f in report.failures
    }
    distributions: list[QBDStationaryDistribution | None] = [None] * n

    def _escalate_item(
        i: int, rungs: tuple[str, ...], original: BaseException | None
    ) -> None:
        """Run the truncated dense rung for item ``i`` or record/raise."""
        try:
            dist = solve_qbd_truncated(qbds[i], fallbacks=rungs)
        except (QBDConvergenceError, ValueError) as exc:
            if on_error == "raise":
                raise original if original is not None else exc
            failures[i] = _item_failure(i, "truncated", exc, rungs)
        else:
            distributions[i] = dist
            assert dist.solve_stats is not None
            stats_list[i] = dist.solve_stats
            failures.pop(i, None)

    if escalate:
        for i, failure in sorted(failures.copy().items()):
            _escalate_item(
                i, failure.attempts or (BATCHED_ALGORITHM,), failure.error
            )

    # Boundary + level sums over the items the R stage actually solved.
    pending = [
        i
        for i in range(n)
        if distributions[i] is None and i not in failures
    ]
    if pending:
        sub_pi0, sub_pi1, boundary_failed = _batched_boundary(
            [qbds[i] for i in pending],
            r[pending],
            on_error="collect" if isolate else "raise",
        )
        for local, exc in boundary_failed:
            i = pending[local]
            if escalate:
                _escalate_item(i, (BATCHED_ALGORITHM, "boundary"), exc)
            elif on_error == "raise":
                raise exc
            else:
                failures[i] = _item_failure(i, "boundary", exc)
        good_local = [
            k
            for k, i in enumerate(pending)
            if distributions[i] is None and i not in failures
        ]
        good = [pending[k] for k in good_local]
    else:
        good_local, good = [], []

    if good:
        pi0 = np.ascontiguousarray(sub_pi0[good_local])
        pi1 = np.ascontiguousarray(sub_pi1[good_local])
        r_good = r[good]
        # Stacked level sums: pi_1 (I-R)^{-1} and pi_1 (I-R)^{-2} for
        # every solved item via two batched transposed solves.
        i_minus_r_t = (np.eye(m) - r_good).transpose(0, 2, 1)
        rep_mass = np.linalg.solve(i_minus_r_t, pi1[..., None])[..., 0]
        rep_weighted = np.linalg.solve(
            i_minus_r_t, rep_mass[..., None]
        )[..., 0]

        for stack in (pi0, pi1, rep_mass, rep_weighted):
            stack.setflags(write=False)

        for k, i in enumerate(good):
            dist = QBDStationaryDistribution(
                qbds[i], r[i], pi0[k], pi1[k], solve_stats=stats_list[i]
            )
            dist._seed_level_sums(rep_mass[k], rep_weighted[k])
            distributions[i] = dist

        if contracts_enabled():
            # End-to-end invariant per solved item, vectorized on the
            # pass path exactly like solve_qbd: non-negative mass, total
            # mass 1.  Failed items are excluded -- their slots are None
            # with a structured failure, not a wrong number.
            least = np.minimum(pi0.min(axis=1), pi1.min(axis=1))
            total = pi0.sum(axis=1) + rep_mass.sum(axis=1)
            bad = ~((least > -1e-6) & (np.abs(total - 1.0) <= 1e-8))
            if np.any(bad):
                item = good[int(np.argmax(bad))]
                raise ContractViolation(
                    "check_solution",
                    f"QBD stationary distribution [{item}]",
                    f"total mass {total[int(np.argmax(bad))]:.10g}, "
                    "expected 1",
                )
    report = replace(
        report,
        boundary_size=n_b,
        failures=tuple(failures[i] for i in sorted(failures)),
    )
    if return_report:
        return distributions, report
    return distributions
