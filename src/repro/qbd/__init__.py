"""Quasi-Birth-Death (QBD) processes and the matrix-geometric method.

A QBD is a CTMC on a two-dimensional state space (level, phase) whose
generator is block tridiagonal with level-independent blocks beyond a finite
boundary::

        | B00 B01            |
        | B10 A1  A0         |
    Q = |     A2  A1  A0     |
        |         A2  A1  A0 |
        |             ...    |

The stationary vector satisfies ``pi_k = pi_1 R^{k-1}`` for ``k >= 1`` where
``R`` is the minimal non-negative solution of
``A0 + R A1 + R^2 A2 = 0`` (Neuts; Latouche & Ramaswami).  This package
implements the structure (:mod:`~repro.qbd.structure`), three R/G-matrix
algorithms (:mod:`~repro.qbd.rmatrix`), the boundary solve
(:mod:`~repro.qbd.boundary`) and a stationary-distribution object with
closed-form level sums (:mod:`~repro.qbd.stationary`).
"""

from repro.qbd.structure import QBDProcess
from repro.qbd.rmatrix import (
    SolveStats,
    drift,
    g_matrix_logarithmic_reduction,
    is_stable,
    r_matrix,
    r_matrix_functional_iteration,
    r_matrix_from_g,
    r_matrix_logarithmic_reduction,
    r_matrix_natural_iteration,
)
from repro.qbd.batched import (
    BatchedSolveReport,
    batched_r_matrix,
    solve_qbd_batched,
)
from repro.qbd.boundary import solve_boundary
from repro.qbd.mg1 import MG1Process, MG1StationaryDistribution, g_matrix_mg1, solve_mg1
from repro.qbd.stationary import QBDStationaryDistribution, solve_qbd

__all__ = [
    "BatchedSolveReport",
    "QBDProcess",
    "SolveStats",
    "drift",
    "is_stable",
    "r_matrix",
    "r_matrix_functional_iteration",
    "r_matrix_logarithmic_reduction",
    "r_matrix_natural_iteration",
    "r_matrix_from_g",
    "g_matrix_logarithmic_reduction",
    "batched_r_matrix",
    "solve_boundary",
    "solve_qbd_batched",
    "MG1Process",
    "MG1StationaryDistribution",
    "g_matrix_mg1",
    "solve_mg1",
    "QBDStationaryDistribution",
    "solve_qbd",
]
