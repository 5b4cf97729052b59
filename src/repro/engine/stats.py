"""Aggregation of per-solve statistics across a sweep.

Every solve the engine performs -- fresh or served from cache -- appends a
:class:`SolveRecord`; :class:`EngineStats` aggregates them into one
JSON-serializable summary.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.resilience import FailedSolve
from repro.qbd.batched import BatchedSolveReport
from repro.qbd.rmatrix import SolveStats

__all__ = ["BatchGroupRecord", "EngineStats", "SolveRecord"]


@dataclass(frozen=True)
class BatchGroupRecord:
    """One batched kernel call: one shape group of cache-miss models.

    Wraps the kernel's :class:`~repro.qbd.batched.BatchedSolveReport`
    (batch size, masked iteration total, wall time, fallback indices)
    together with the engine-level shape key the group was formed under.
    """

    boundary_size: int
    phase_count: int
    report: BatchedSolveReport

    def __post_init__(self) -> None:
        if self.boundary_size < 0 or self.phase_count < 0:
            raise ValueError(
                f"block shape must be non-negative, got "
                f"({self.boundary_size}, {self.phase_count})"
            )

    def as_dict(self) -> dict:
        return {
            "boundary_size": self.boundary_size,
            "phase_count": self.phase_count,
            **self.report.as_dict(),
        }


@dataclass(frozen=True)
class SolveRecord:
    """One engine solve: which model, how it was obtained, at what cost."""

    fingerprint: str
    cache_hit: bool
    stats: SolveStats | None

    def __post_init__(self) -> None:
        if not self.fingerprint:
            raise ValueError("SolveRecord needs a model fingerprint")

    def as_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "cache_hit": self.cache_hit,
            "stats": None if self.stats is None else self.stats.as_dict(),
        }


@dataclass
class EngineStats:
    """Aggregated solve statistics of a :class:`~repro.engine.SweepEngine`."""

    records: list[SolveRecord] = field(default_factory=list)
    batch_groups: list[BatchGroupRecord] = field(default_factory=list)
    #: Structured per-point failures isolated by ``on_error`` (see
    #: :mod:`repro.engine.resilience`); failed points have no
    #: :class:`SolveRecord` -- the :class:`FailedSolve` *is* their record.
    failures: list[FailedSolve] = field(default_factory=list)

    def add(self, record: SolveRecord) -> None:
        self.records.append(record)

    def add_batch_group(self, record: BatchGroupRecord) -> None:
        self.batch_groups.append(record)

    def add_failure(self, failure: FailedSolve) -> None:
        self.failures.append(failure)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def solves(self) -> int:
        """Total models served (fresh solves plus cache hits)."""
        return len(self.records)

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.cache_hit)

    @property
    def solver_calls(self) -> int:
        """Fresh R-matrix solves actually performed."""
        return sum(1 for r in self.records if not r.cache_hit)

    @property
    def total_iterations(self) -> int:
        """R-matrix iterations summed over the fresh solves."""
        return sum(
            r.stats.iterations
            for r in self.records
            if not r.cache_hit and r.stats is not None
        )

    @property
    def total_wall_time_ms(self) -> float:
        """R-matrix solve wall time summed over the fresh solves."""
        return sum(
            r.stats.wall_time_ms
            for r in self.records
            if not r.cache_hit and r.stats is not None
        )

    @property
    def max_spectral_radius(self) -> float:
        """Largest ``sp(R)`` seen (tail heaviness of the hardest point)."""
        radii = [
            r.stats.spectral_radius
            for r in self.records
            if r.stats is not None
        ]
        return max(radii) if radii else float("nan")

    def algorithm_counts(self) -> dict[str, int]:
        """Fresh solves per accepted algorithm name."""
        return dict(
            Counter(
                r.stats.algorithm
                for r in self.records
                if not r.cache_hit and r.stats is not None
            )
        )

    @property
    def failed(self) -> int:
        """Points isolated as :class:`FailedSolve` records."""
        return len(self.failures)

    @property
    def degraded_solves(self) -> int:
        """Solves served by the truncated dense-chain escalation rung.

        ``getattr`` default: cache entries pickled before the escalation
        ladder carry :class:`SolveStats` without the ``degraded`` field.
        """
        return sum(
            1
            for r in self.records
            if r.stats is not None and getattr(r.stats, "degraded", False)
        )

    @property
    def cache_quarantined(self) -> int:
        """Corrupt cache entries quarantined and re-solved."""
        return sum(1 for f in self.failures if f.stage == "cache-load")

    def failure_stage_counts(self) -> dict[str, int]:
        """Isolated failures per pipeline stage."""
        return dict(Counter(f.stage for f in self.failures))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """JSON-serializable aggregate record (no per-solve detail)."""
        payload = {
            "solves": self.solves,
            "cache_hits": self.cache_hits,
            "solver_calls": self.solver_calls,
            "total_iterations": self.total_iterations,
            "total_wall_time_ms": round(self.total_wall_time_ms, 3),
            "max_spectral_radius": self.max_spectral_radius,
            "algorithms": self.algorithm_counts(),
            # Recovered work is part of the solve accounting: a progress
            # line built from this summary must not under-report a sweep
            # that quarantined corrupt cache entries, so the counter is
            # always present (zero included).
            "cache_quarantined": self.cache_quarantined,
        }
        if self.batch_groups:
            payload["batch_groups"] = [g.as_dict() for g in self.batch_groups]
        if self.degraded_solves:
            payload["degraded_solves"] = self.degraded_solves
        if self.failures:
            payload["failed"] = self.failed
            payload["failure_stages"] = self.failure_stage_counts()
            payload["failures"] = [f.as_dict() for f in self.failures]
        return payload

    def write_json(
        self, path: str | os.PathLike, include_records: bool = False
    ) -> None:
        """Write the summary (optionally with per-solve records) to a file."""
        payload: dict = {"summary": self.summary()}
        if include_records:
            payload["records"] = [r.as_dict() for r in self.records]
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")

    def clear(self) -> None:
        self.records.clear()
        self.batch_groups.clear()
        self.failures.clear()

    def __repr__(self) -> str:
        return (
            f"EngineStats(solves={self.solves}, cache_hits={self.cache_hits}, "
            f"total_iterations={self.total_iterations}, "
            f"failed={self.failed})"
        )
