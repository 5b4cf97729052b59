"""Seeded inputs of the benchmark workloads.

Everything here is plain data derived from the workload seed with
``random.Random``; nothing imports ``repro``, so the self-tests can check
the generators without the program under test.

The seed jitters the continuous parameters (load range, idle wait, spawn
probabilities, reported metric, order) but never the structure of a
workload: every seed sweeps the same arrival families, the same buffer
sizes and the same number of points, and every job round holds each
sweep figure once.  Two seeds therefore cost the same amount of work, so
the spread between seeds measures the system, not the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

#: Arrival families of the sweep grid: the three trace fits of
#: ``repro.workloads.WORKLOADS`` and the four Section 5.4 comparators of
#: ``repro.workloads.dependence_comparators("email")``.
TRACE_FAMILIES = ("email", "software_development", "user_accounts")
COMPARATOR_FAMILIES = ("high_acf", "low_acf", "ipp", "expo")
FAMILIES = TRACE_FAMILIES + COMPARATOR_FAMILIES

#: Background buffer sizes X.  The repeating level has 4X+2 phases for the
#: 2-state MMPPs (6 at X=1, 62 at X=15); around X=15 the batched kernel
#: stops beating the sequential engine.
BUFFERS = (1, 3, 6, 10, 15)

#: Load points per ``sweep_many`` curve, from light load to near saturation.
POINTS_PER_CURVE = 4

#: Range of the highest foreground utilization of a curve: near saturation,
#: where sp(R) -> 1 and the R iteration needs more steps.  The E-mail MMPP
#: (also the ``high_acf`` comparator) stays lower: from a load of 0.85 on,
#: logarithmic reduction misses its tolerance on some points (about 1% at
#: 0.85-0.90, 12% at 0.90-0.95) and the functional-iteration fallback then
#: takes seconds per point, so a seed would decide how much of a pass is
#: spent there.  The User Accounts MMPP stays below 0.93 for the same
#: reason: from about 0.94 on, with spawn probabilities of 0.6 and more,
#: the fallback runs on single points (3 of 20 seeds drew one, each adding
#: a third to a pass).  :data:`EDGE` keeps that path in every grid.
TOP_LOAD = (0.90, 0.95)
TOP_LOADS = {
    "email": (0.75, 0.80),
    "high_acf": (0.75, 0.80),
    "user_accounts": (0.90, 0.93),
}
BOTTOM_LOAD = (0.05, 0.15)

#: Idle wait before background service, in mean service times.
IDLE_WAIT_MULTIPLES = (0.5, 4.0)

#: Spawn probabilities a curve may use (p = 0 is excluded: its BG
#: completion rate is a deliberate NaN, which would count as a failure).
BG_PROBABILITIES = (0.1, 0.3, 0.6, 0.9)
CURVES_PER_CALL = 2

#: The paper's four metrics (keys of ``repro.core.METRICS``).
METRICS = ("qlen_fg", "waitp_fg", "comp_bg", "qlen_bg")

#: The sweep figures a job may run; fig1/fig2 solve no chains.
SWEEP_FIGURES = (
    "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
)


@dataclass(frozen=True)
class SweepCall:
    """One ``sweep_many`` call of the grid."""

    family: str
    bg_buffer: int
    idle_wait_multiple: float
    utilizations: tuple[float, ...]
    bg_probabilities: tuple[float, ...]
    metric: str

    @property
    def points(self) -> int:
        return len(self.utilizations) * len(self.bg_probabilities)


#: One fixed point beyond the User Accounts edge, in every grid: there
#: logarithmic reduction misses its tolerance and the functional-iteration
#: fallback runs (one fallback, about 29 000 iterations and 0.9 s on either
#: engine).  Every pass pays for it exactly once, so the slow path stays
#: measured with a weight that no seed changes.
EDGE = SweepCall(
    family="user_accounts",
    bg_buffer=10,
    idle_wait_multiple=1.8126,
    utilizations=(0.948527,),
    bg_probabilities=(0.9,),
    metric="qlen_fg",
)


def sweep_grid(seed: int) -> tuple[SweepCall, ...]:
    """The grid of ``sweep_many`` calls for ``seed``: one call per
    (family, buffer) pair plus :data:`EDGE`, in a seeded order."""
    rng = random.Random(f"sweep_grid/{seed}")
    calls = []
    for family in FAMILIES:
        for bg_buffer in BUFFERS:
            low = rng.uniform(*BOTTOM_LOAD)
            top = rng.uniform(*TOP_LOADS.get(family, TOP_LOAD))
            step = (top - low) / (POINTS_PER_CURVE - 1)
            calls.append(
                SweepCall(
                    family=family,
                    bg_buffer=bg_buffer,
                    idle_wait_multiple=round(rng.uniform(*IDLE_WAIT_MULTIPLES), 4),
                    utilizations=tuple(
                        round(low + i * step, 6) for i in range(POINTS_PER_CURVE)
                    ),
                    bg_probabilities=tuple(
                        sorted(rng.sample(BG_PROBABILITIES, CURVES_PER_CALL))
                    ),
                    metric=rng.choice(METRICS),
                )
            )
    calls.append(replace(EDGE, metric=rng.choice(METRICS)))
    rng.shuffle(calls)
    return tuple(calls)


def oracle_order(seed: int, candidates: list) -> list:
    """The ``candidates`` for the truncated-chain oracle in a seeded order;
    the caller checks the first eligible ones."""
    return random.Random(f"oracle/{seed}").sample(sorted(candidates), len(candidates))


def job_round(seed: int, round_index: int) -> tuple[str, ...]:
    """Round ``round_index`` of the job sequence: every sweep figure once,
    in a seeded order."""
    figures = list(SWEEP_FIGURES)
    random.Random(f"job_queue/{seed}/{round_index}").shuffle(figures)
    return tuple(figures)
