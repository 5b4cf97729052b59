"""Tests for the sweep engine: deduplication, caching, chains."""

import numpy as np
import pytest

from repro.core import FgBgModel
from repro.engine import SolveCache, SweepEngine
from repro.processes import PoissonProcess, fit_mmpp2
from repro.workloads.paper import SERVICE_RATE_PER_MS

MU = SERVICE_RATE_PER_MS
UTILIZATIONS = (0.1, 0.25, 0.4, 0.55)


def mmpp_base(p=0.3):
    arrival = fit_mmpp2(rate=0.3 * MU, scv=4.0, decay=0.8)
    return FgBgModel(arrival=arrival, service_rate=MU, bg_probability=p)


def chain(p=0.3):
    base = mmpp_base(p)
    return [base.at_utilization(u) for u in UTILIZATIONS]


class TestSolve:
    def test_plain_solve_matches_model(self):
        engine = SweepEngine()
        model = mmpp_base()
        assert (
            engine.solve(model).fg_queue_length == model.solve().fg_queue_length
        )
        assert engine.stats.solves == 1
        assert engine.stats.cache_hits == 0

    def test_cache_hit_returns_same_object(self):
        engine = SweepEngine(cache=SolveCache())
        model = mmpp_base()
        first = engine.solve(model)
        second = engine.solve(model)
        assert second is first
        assert engine.stats.cache_hits == 1
        assert engine.stats.solver_calls == 1

    def test_cache_distinguishes_models(self):
        engine = SweepEngine(cache=SolveCache())
        engine.solve(mmpp_base(p=0.3))
        engine.solve(mmpp_base(p=0.6))
        assert engine.stats.cache_hits == 0
        assert engine.stats.solver_calls == 2

    def test_cache_path_is_coerced(self, tmp_path):
        engine = SweepEngine(cache=tmp_path / "solves")
        assert isinstance(engine.cache, SolveCache)
        engine.solve(mmpp_base())
        assert len(list((tmp_path / "solves").iterdir())) == 1

    def test_jobs_validation(self):
        # The engine runs no worker processes; ``jobs`` is not a keyword.
        with pytest.raises(TypeError, match="jobs"):
            SweepEngine(jobs=2)


class TestRunChain:
    def test_matches_individual_solves(self):
        engine = SweepEngine()
        solutions = engine.run_chain(chain())
        for model, solution in zip(chain(), solutions):
            assert solution.fg_queue_length == model.solve().fg_queue_length

    def test_duplicates_solved_once_without_a_cache(self):
        models = chain()
        engine = SweepEngine()
        solutions = engine.run_chain(models + chain())
        assert engine.stats.solver_calls == len(UTILIZATIONS)
        assert engine.stats.cache_hits == len(UTILIZATIONS)
        for first, again in zip(solutions[: len(models)], solutions[len(models) :]):
            assert again is first

    def test_cached_rerun_solves_nothing(self):
        engine = SweepEngine(cache=SolveCache())
        engine.run_chain(chain())
        engine.run_chain(chain())
        assert engine.stats.solver_calls == len(UTILIZATIONS)
        assert engine.stats.cache_hits == len(UTILIZATIONS)


class TestRunChains:
    def chains(self):
        return [chain(p) for p in (0.1, 0.3, 0.6)]

    def test_serial_results(self):
        results = SweepEngine().run_chains(self.chains())
        assert len(results) == 3
        for models, solutions in zip(self.chains(), results):
            for model, solution in zip(models, solutions):
                assert (
                    solution.fg_queue_length == model.solve().fg_queue_length
                )

    def test_run_chains_merges_stats(self):
        engine = SweepEngine()
        engine.run_chains(self.chains())
        assert engine.stats.solves == 3 * len(UTILIZATIONS)
        assert engine.stats.total_iterations > 0

    def test_run_chains_populates_cache(self):
        engine = SweepEngine(cache=SolveCache())
        engine.run_chains(self.chains())
        rerun = engine.run_chains(self.chains())
        assert engine.stats.cache_hits == 3 * len(UTILIZATIONS)
        assert len(rerun) == 3

    def test_run_chains_shares_disk_cache(self, tmp_path):
        first = SweepEngine(cache=tmp_path)
        first.run_chains(self.chains())
        second = SweepEngine(cache=tmp_path)
        second.run_chains(self.chains())
        assert second.stats.solver_calls == 0
        assert second.stats.cache_hits == 3 * len(UTILIZATIONS)

    def test_poisson_chain(self):
        # Degenerate one-phase arrivals go through the same machinery.
        base = FgBgModel(
            arrival=PoissonProcess(0.3 * MU), service_rate=MU, bg_probability=0.3
        )
        models = [base.at_utilization(u) for u in UTILIZATIONS]
        solved = SweepEngine().run_chain(models)
        for model, solution in zip(models, solved):
            assert solution.fg_queue_length == pytest.approx(
                model.solve().fg_queue_length, abs=1e-8
            )


class TestStatsSurface:
    def test_solution_exposes_solve_stats(self):
        solution = mmpp_base().solve()
        stats = solution.solve_stats
        assert stats is not None
        assert stats.algorithm == "logarithmic-reduction"
        assert stats.iterations > 0
        assert np.isfinite(stats.spectral_radius)
