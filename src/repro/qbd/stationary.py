"""Stationary distribution of a QBD with closed-form level sums."""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.linalg

from repro.contracts.checks import (
    check_probability_vector,
    contracts_enabled,
)
from repro.contracts.errors import ContractViolation
from repro.qbd.boundary import solve_boundary
from repro.qbd.rmatrix import QBDConvergenceError, SolveStats, r_matrix
from repro.qbd.structure import QBDProcess

__all__ = ["QBDStationaryDistribution", "solve_qbd"]


class QBDStationaryDistribution:
    """Stationary distribution ``(pi_0, pi_1 R^{k-1})`` of a QBD.

    Provides the closed-form sums used by all model metrics:

    * total repeating mass ``sum_{k>=1} pi_k = pi_1 (I-R)^{-1}``,
    * level-weighted mass ``sum_{k>=1} k pi_k = pi_1 (I-R)^{-2}``,

    plus per-level access and tail sums for diagnostics.
    """

    def __init__(
        self,
        qbd: QBDProcess,
        r: np.ndarray,
        pi_boundary: np.ndarray,
        pi_first: np.ndarray,
        solve_stats: SolveStats | None = None,
    ) -> None:
        self._qbd = qbd
        self._r = np.asarray(r, dtype=float)
        self._pi_boundary = np.asarray(pi_boundary, dtype=float)
        self._pi_first = np.asarray(pi_first, dtype=float)
        self._solve_stats = solve_stats
        # Memoized levels pi_1, pi_2, ... built by vector recurrence
        # pi_{k+1} = pi_k R; grows on demand (level/tail_mass/residual).
        self._levels: list[np.ndarray] = [self._pi_first]

    def __setstate__(self, state: dict) -> None:
        # Solutions pickled before the LU refactor carry neither the level
        # memo nor the LU slot; re-derive what is missing and drop the
        # stale dense-inverse cache so old on-disk cache entries keep
        # working.
        self.__dict__.update(state)
        self.__dict__.pop("_inv_i_minus_r", None)
        self.__dict__.setdefault("_levels", [self._pi_first])

    @property
    def qbd(self) -> QBDProcess:
        """The process this distribution solves."""
        return self._qbd

    @property
    def solve_stats(self) -> SolveStats | None:
        """Diagnostics of the R-matrix solve that produced this
        distribution (``None`` when R was supplied directly)."""
        return self._solve_stats

    @property
    def r(self) -> np.ndarray:
        """The rate matrix R."""
        return self._r

    @property
    def boundary(self) -> np.ndarray:
        """Stationary probabilities of the boundary states."""
        return self._pi_boundary

    @cached_property
    def _i_minus_r_lu(self) -> tuple[np.ndarray, np.ndarray]:
        """LU factorization of ``I - R``, shared by every level sum.

        Factoring once replaces the repeated ``inv(I-R)``-sized work of
        ``repeating_mass``/``repeating_level_weighted``/``tail_mass`` with
        one O(m^3) factorization plus O(m^2) triangular solves.
        """
        return scipy.linalg.lu_factor(np.eye(self._r.shape[0]) - self._r)

    def _apply_inv_i_minus_r(self, row: np.ndarray) -> np.ndarray:
        """``row (I-R)^{-1}`` via the cached LU (transposed solve)."""
        return scipy.linalg.lu_solve(self._i_minus_r_lu, row, trans=1)

    def level(self, k: int) -> np.ndarray:
        """Stationary probabilities of repeating level ``k`` (k >= 1)."""
        if k < 1:
            raise ValueError(f"repeating levels are numbered from 1, got {k}")
        while len(self._levels) < k:
            self._levels.append(self._levels[-1] @ self._r)
        return self._levels[k - 1]

    @cached_property
    def repeating_mass(self) -> np.ndarray:
        """``sum_{k>=1} pi_k`` -- total phase mass of the repeating portion."""
        return self._apply_inv_i_minus_r(self._pi_first)

    @cached_property
    def repeating_level_weighted(self) -> np.ndarray:
        """``sum_{k>=1} k pi_k = pi_1 (I-R)^{-2}``."""
        return self._apply_inv_i_minus_r(self.repeating_mass)

    def tail_mass(self, from_level: int) -> np.ndarray:
        """``sum_{k>=from_level} pi_k`` for ``from_level >= 1``."""
        if from_level < 1:
            raise ValueError(f"from_level must be >= 1, got {from_level}")
        return self._apply_inv_i_minus_r(self.level(from_level))

    def _seed_level_sums(
        self, repeating_mass: np.ndarray, repeating_level_weighted: np.ndarray
    ) -> None:
        """Pre-populate the cached level sums.

        The batched kernel (:mod:`repro.qbd.batched`) computes the
        ``(I-R)^{-1}`` sums for a whole stack of solutions in one batched
        solve; seeding the ``cached_property`` slots here lets the per-item
        distributions reuse that work.  Seeded values must agree with the
        lazy LU path to solver accuracy -- they are the same linear systems
        solved by a different (batched) factorization.
        """
        self.__dict__["repeating_mass"] = repeating_mass
        self.__dict__["repeating_level_weighted"] = repeating_level_weighted

    @cached_property
    def total_mass(self) -> float:
        """Should equal 1; exposed for diagnostics."""
        return float(self._pi_boundary.sum() + self.repeating_mass.sum())

    @cached_property
    def spectral_radius(self) -> float:
        """Spectral radius of R (the geometric tail decay rate)."""
        return float(np.max(np.abs(np.linalg.eigvals(self._r))))

    def residual(self, levels: int = 6) -> float:
        """Max balance-equation residual over the boundary and the first
        ``levels`` repeating levels -- a solution-quality diagnostic."""
        qbd = self._qbd
        res = self._pi_boundary @ qbd.b00 + self.level(1) @ qbd.b10
        worst = float(np.max(np.abs(res)))
        res = self._pi_boundary @ qbd.b01 + self.level(1) @ qbd.a1 + self.level(2) @ qbd.a2
        worst = max(worst, float(np.max(np.abs(res))))
        for k in range(2, levels + 1):
            res = (
                self.level(k - 1) @ qbd.a0
                + self.level(k) @ qbd.a1
                + self.level(k + 1) @ qbd.a2
            )
            worst = max(worst, float(np.max(np.abs(res))))
        return worst

    def __repr__(self) -> str:
        return (
            f"QBDStationaryDistribution(boundary_mass={self._pi_boundary.sum():.6g}, "
            f"spectral_radius={self.spectral_radius:.6g})"
        )


def solve_qbd(
    qbd: QBDProcess,
    algorithm: str = "logarithmic-reduction",
    tol: float = 1e-12,
    escalate: bool = False,
    time_budget_ms: float | None = None,
) -> QBDStationaryDistribution:
    """Solve a QBD end to end: R matrix, boundary system, stationary object.

    The R matrix comes from one cold :func:`repro.qbd.rmatrix.r_matrix`
    solve; the returned distribution carries its
    :class:`~repro.qbd.rmatrix.SolveStats`.

    With ``escalate=True`` the solve gains a last rung: when every
    matrix-geometric iteration fails (``QBDConvergenceError``) or the
    boundary system is singular, the QBD is re-solved as an adaptively
    truncated dense chain (:func:`repro.qbd.truncated.solve_qbd_truncated`)
    and the returned ``solve_stats`` is flagged ``degraded=True``.  The
    unstable-QBD ``ValueError`` always propagates -- truncating an
    unstable chain would fabricate a number where no stationary regime
    exists.  ``time_budget_ms`` bounds the linearly convergent rungs
    inside :func:`~repro.qbd.rmatrix.r_matrix`.
    """
    # QBDProcess.__post_init__ already validated the generator row-split
    # and froze the blocks read-only, so that precondition cannot go
    # stale -- certify it instead of re-validating on every solve.
    try:
        r, stats = r_matrix(
            qbd.a0, qbd.a1, qbd.a2, algorithm=algorithm, tol=tol,
            return_stats=True, blocks_validated=True,
            time_budget_ms=time_budget_ms,
        )
        pi_boundary, pi_first = solve_boundary(qbd, r)
    except (QBDConvergenceError, np.linalg.LinAlgError) as exc:
        if not escalate:
            raise
        # Imported lazily: truncated.py builds QBDStationaryDistribution
        # instances, so a module-level import would be circular.
        from repro.qbd.truncated import solve_qbd_truncated

        if isinstance(exc, QBDConvergenceError):
            failed_rungs = exc.attempts or (algorithm,)
        else:
            failed_rungs = (algorithm, "boundary")
        return solve_qbd_truncated(qbd, fallbacks=tuple(failed_rungs))
    distribution = QBDStationaryDistribution(
        qbd, r, pi_boundary, pi_first, solve_stats=stats
    )
    if contracts_enabled():
        # The R preconditions/postconditions ran inside r_matrix; here the
        # end-to-end invariant is that the assembled distribution is one:
        # non-negative boundary mass and total mass 1 (the level sums are
        # closed forms in R, so a bad boundary solve shows up here).
        # Fast path: two vector mins and the (cached) total mass; NaNs
        # fail the comparisons and land in the diagnostic branch.
        least = min(float(pi_boundary.min()), float(pi_first.min()))
        total = distribution.total_mass
        if not (least > -1e-6) or not (abs(total - 1.0) <= 1e-8):
            check_probability_vector(pi_boundary, "pi_boundary", total=None)
            check_probability_vector(pi_first, "pi_1", total=None)
            raise ContractViolation(
                "check_solution",
                "QBD stationary distribution",
                f"total mass {total:.10g}, expected 1",
            )
    return distribution
