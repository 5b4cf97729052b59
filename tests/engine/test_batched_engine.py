"""Tests for SweepEngine's batched solve path."""

import numpy as np
import pytest

from repro.core.batched import solve_models_batched
from repro.core.model import FgBgModel
from repro.engine import BatchGroupRecord, SolveCache, SweepEngine
from repro.processes import fit_mmpp2
from repro.qbd.batched import BatchedSolveReport
from repro.workloads.paper import SERVICE_RATE_PER_MS

MU = SERVICE_RATE_PER_MS


def mmpp_base(util: float = 0.3) -> FgBgModel:
    arrival = fit_mmpp2(rate=util * MU, scv=4.0, decay=0.8)
    return FgBgModel(arrival=arrival, service_rate=MU, bg_probability=0.3)


def sweep_models(utils=(0.1, 0.2, 0.3, 0.4, 0.5), ps=(0.1, 0.3)):
    base = mmpp_base()
    return [
        base.with_bg_probability(p).at_utilization(u)
        for p in ps
        for u in utils
    ]


class TestSolveModelsBatched:
    def test_matches_sequential_metrics(self):
        models = sweep_models()
        batched = solve_models_batched(models)
        for model, solution in zip(models, batched):
            sequential = model.solve()
            for name in (
                "fg_response_time",
                "fg_queue_length",
                "idle_probability",
            ):
                assert getattr(solution, name) == pytest.approx(
                    getattr(sequential, name), abs=1e-10
                )

    def test_groups_mixed_shapes(self):
        # p = 0 builds the chain without background states: its own group.
        models = sweep_models(ps=(0.0, 0.3))
        solutions, reports = solve_models_batched(models, return_reports=True)
        assert len(reports) == 2
        assert {r.batch_size for r in reports} == {5}
        assert all(np.isnan(s.bg_completion_rate) for s in solutions[:5])
        assert all(s.bg_completion_rate > 0 for s in solutions[5:])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            solve_models_batched([])

    def test_rejects_unstable_model_before_solving(self):
        with pytest.raises(ValueError, match="unstable"):
            solve_models_batched([mmpp_base().at_utilization(1.2)])

    def test_rejects_non_model(self):
        with pytest.raises(TypeError, match="FgBgModel"):
            solve_models_batched([object()])


class TestBatchedEngine:
    def test_run_chain_matches_sequential_engine(self):
        models = sweep_models()
        sequential = SweepEngine().run_chain(models)
        batched = SweepEngine(batched=True).run_chain(models)
        for s, b in zip(sequential, batched):
            assert b.fg_response_time == pytest.approx(
                s.fg_response_time, abs=1e-10
            )

    def test_records_batch_groups(self):
        engine = SweepEngine(batched=True)
        engine.run_chain(sweep_models(ps=(0.0, 0.3)))
        assert len(engine.stats.batch_groups) == 2
        for group in engine.stats.batch_groups:
            assert isinstance(group, BatchGroupRecord)
            assert isinstance(group.report, BatchedSolveReport)
            assert group.report.batch_size == 5
            payload = group.as_dict()
            assert payload["boundary_size"] == group.boundary_size
            assert payload["batch_size"] == 5
        # The two groups really have different shapes.
        shapes = {
            (g.boundary_size, g.phase_count)
            for g in engine.stats.batch_groups
        }
        assert len(shapes) == 2

    def test_cache_hits_skip_the_kernel(self):
        engine = SweepEngine(batched=True, cache=SolveCache())
        models = sweep_models()
        engine.run_chain(models)
        groups_after_first = len(engine.stats.batch_groups)
        engine.run_chain(models)
        assert len(engine.stats.batch_groups) == groups_after_first
        assert engine.stats.cache_hits == len(models)
        assert engine.stats.solver_calls == len(models)

    def test_duplicates_solved_once(self):
        engine = SweepEngine(batched=True)
        model = mmpp_base()
        solutions = engine.run_chain([model, model, model])
        assert engine.stats.solves == 3
        assert engine.stats.solver_calls == 1
        assert engine.stats.batch_groups[0].report.batch_size == 1
        assert solutions[0] is solutions[2]

    def test_run_chains_pools_all_chains(self):
        base = mmpp_base()
        chains = [
            [base.with_bg_probability(p).at_utilization(u) for u in (0.2, 0.4)]
            for p in (0.1, 0.3, 0.6)
        ]
        engine = SweepEngine(batched=True)
        results = engine.run_chains(chains)
        assert [len(r) for r in results] == [2, 2, 2]
        # One shape, one pooled kernel call for all six points.
        assert len(engine.stats.batch_groups) == 1
        assert engine.stats.batch_groups[0].report.batch_size == 6
        sequential = SweepEngine().run_chains(chains)
        for seq_chain, bat_chain in zip(sequential, results):
            for s, b in zip(seq_chain, bat_chain):
                assert b.fg_queue_length == pytest.approx(
                    s.fg_queue_length, abs=1e-10
                )

    def test_batch_groups_survive_summary(self):
        engine = SweepEngine(batched=True)
        engine.run_chain(sweep_models(utils=(0.2, 0.4)))
        summary = engine.stats.summary()
        assert "batch_groups" in summary
        assert summary["batch_groups"][0]["batch_size"] == 4
        engine.stats.clear()
        assert "batch_groups" not in engine.stats.summary()

    def test_solve_batch_empty(self):
        assert SweepEngine(batched=True).solve_batch([]) == []

    def test_batched_requires_logred(self):
        with pytest.raises(ValueError, match="logarithmic-reduction"):
            SweepEngine(batched=True, algorithm="functional")

    def test_repr_mentions_batched(self):
        assert "batched=True" in repr(SweepEngine(batched=True))

    def test_batched_populates_cache_for_sequential_reads(self):
        cache_engine = SweepEngine(batched=True, cache=SolveCache())
        models = sweep_models(utils=(0.2, 0.3))
        batched = cache_engine.run_chain(models)
        follower = SweepEngine(cache=cache_engine.cache)
        sequential = follower.run_chain(models)
        assert follower.stats.cache_hits == len(models)
        for s, b in zip(sequential, batched):
            assert s.fg_response_time == b.fg_response_time
