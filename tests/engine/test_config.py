"""Tests for EngineConfig and the engine's progress/cancel hooks."""

import numpy as np
import pytest

from repro.core import FgBgModel
from repro.engine import EngineConfig, SolveCache, SweepCancelled, SweepEngine
from repro.processes import PoissonProcess
from repro.workloads.paper import SERVICE_RATE_PER_MS

MU = SERVICE_RATE_PER_MS


def models(n=3, p=0.3):
    base = FgBgModel(
        arrival=PoissonProcess(0.01), service_rate=MU, bg_probability=p
    )
    return [base.at_utilization(u) for u in np.linspace(0.2, 0.6, n)]


def summary_without_timings(stats) -> dict:
    """EngineStats.summary() minus the wall-clock field (never equal)."""
    payload = stats.summary()
    payload.pop("total_wall_time_ms")
    return payload


class TestValidation:
    def test_defaults_are_valid_and_default(self):
        config = EngineConfig()
        assert config.is_default
        assert not EngineConfig(batched=True).is_default

    @pytest.mark.parametrize(
        ("field", "value", "match"),
        [
            ("tol", 0.0, "tol must be positive"),
            ("on_error", "explode", "on_error must be one of"),
        ],
    )
    def test_field_validation(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            EngineConfig(**{field: value})

    def test_batched_requires_logred(self):
        with pytest.raises(ValueError, match="logarithmic-reduction"):
            EngineConfig(batched=True, algorithm="functional")

    def test_replace_revalidates(self):
        with pytest.raises(ValueError, match="tol must be positive"):
            EngineConfig().replace(tol=0.0)

    def test_round_trip(self):
        config = EngineConfig(cache_dir="/tmp/c", batched=True, on_error="collect")
        assert EngineConfig.from_dict(config.as_dict()) == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown EngineConfig field"):
            EngineConfig.from_dict({"jbos": 2})

    def test_from_dict_drops_the_retired_pool_and_warm_start_fields(self):
        """Configs serialized while the worker pool and warm starts existed
        still load; none of their five fields ever changed a solution."""
        payload = {
            "jobs": 2,
            "cache_dir": None,
            "cache_memory": False,
            "warm_start": True,
            "batched": False,
            "algorithm": "logarithmic-reduction",
            "tol": 1e-12,
            "on_error": "collect",
            "escalate": False,
            "max_retries": 2,
            "retry_backoff_ms": 100.0,
            "chain_timeout_ms": None,
        }
        assert EngineConfig.from_dict(payload) == EngineConfig(on_error="collect")

    def test_from_dict_still_rejects_unknown_next_to_retired_fields(self):
        with pytest.raises(ValueError, match="unknown EngineConfig field"):
            EngineConfig.from_dict({"jobs": 2, "workers": 2})


class TestBuildCache:
    def test_no_cache_by_default(self):
        assert EngineConfig().build_cache() is None

    def test_memory_cache(self):
        cache = EngineConfig(cache_memory=True).build_cache()
        assert isinstance(cache, SolveCache)
        assert cache.directory is None

    def test_disk_cache(self, tmp_path):
        cache = EngineConfig(cache_dir=str(tmp_path / "c")).build_cache()
        assert str(cache.directory) == str(tmp_path / "c")


class TestEquivalence:
    """config= and legacy kwargs are two spellings of the same engine."""

    def test_engine_attributes_match(self):
        config = EngineConfig(batched=True, escalate=True, on_error="collect")
        via_config = SweepEngine(config=config)
        via_kwargs = SweepEngine(batched=True, escalate=True, on_error="collect")
        assert via_config.config == via_kwargs.config
        assert (via_config.batched, via_config.escalate, via_config.on_error) == (
            via_kwargs.batched,
            via_kwargs.escalate,
            via_kwargs.on_error,
        )

    def test_identical_engine_stats(self):
        """The acceptance check: same chain, same stats summary."""
        chain = models()
        via_config = SweepEngine(config=EngineConfig(cache_memory=True))
        via_kwargs = SweepEngine(cache=SolveCache(None))
        a = via_config.run_chain(chain)
        b = via_kwargs.run_chain(chain)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(
                [x.fg_queue_length, x.bg_queue_length],
                [y.fg_queue_length, y.bg_queue_length],
            )
        assert summary_without_timings(via_config.stats) == summary_without_timings(
            via_kwargs.stats
        )

    def test_kwargs_override_config_fields(self):
        engine = SweepEngine(
            config=EngineConfig(batched=True, on_error="skip"), batched=False
        )
        assert engine.batched is False
        assert engine.on_error == "skip"
        assert engine.config.batched is False

    def test_explicit_cache_object_wins(self, tmp_path):
        cache = SolveCache(str(tmp_path / "c"))
        engine = SweepEngine(config=EngineConfig(), cache=cache)
        assert engine.cache is cache
        assert engine.config.cache_dir == str(tmp_path / "c")

    def test_invalid_override_rejected(self):
        with pytest.raises(ValueError, match="tol must be positive"):
            SweepEngine(config=EngineConfig(), tol=0.0)


class TestHooks:
    def test_progress_ticks_once_per_point(self):
        ticks = []
        engine = SweepEngine(progress=ticks.append)
        engine.run_chain(models(3))
        assert sum(ticks) == 3

    def test_progress_counts_cache_hits(self):
        cache = SolveCache(None)
        SweepEngine(cache=cache).run_chain(models(3))
        ticks = []
        engine = SweepEngine(cache=cache, progress=ticks.append)
        engine.run_chain(models(3))
        assert sum(ticks) == 3
        assert engine.stats.cache_hits == 3

    def test_progress_ticks_over_chains(self):
        ticks = []
        engine = SweepEngine(progress=ticks.append)
        chains = [models(2, p=0.1), models(2, p=0.6)]
        engine.run_chains(chains)
        assert sum(ticks) == 4

    def test_progress_ticks_when_batched(self):
        ticks = []
        engine = SweepEngine(batched=True, progress=ticks.append)
        engine.run_chain(models(3))
        assert sum(ticks) == 3

    def test_cancel_checked_before_first_solve(self):
        engine = SweepEngine(cancel=lambda: True)
        with pytest.raises(SweepCancelled):
            engine.run_chain(models(2))
        assert engine.stats.solves == 0

    def test_cancel_mid_chain_stops_promptly(self):
        done = []

        def cancel_after_one():
            return len(done) >= 1

        engine = SweepEngine(progress=done.append, cancel=cancel_after_one)
        with pytest.raises(SweepCancelled):
            engine.run_chain(models(4))
        assert sum(done) < 4

    def test_cancel_keeps_records_of_points_already_solved(self):
        done = []

        def cancel_after_two():
            return sum(done) >= 2

        cache = SolveCache()
        engine = SweepEngine(
            cache=cache, progress=done.append, cancel=cancel_after_two
        )
        with pytest.raises(SweepCancelled):
            engine.run_chain(models(4))
        assert engine.stats.solver_calls == 2
        assert engine.stats.solves == 2
        assert len(cache) == 2

    def test_raise_keeps_records_of_points_already_solved(self, monkeypatch):
        real_solve = FgBgModel.solve
        calls = []

        def solve_then_fail(self, *args, **kwargs):
            calls.append(self)
            if len(calls) == 3:
                raise np.linalg.LinAlgError("boundary system is singular")
            return real_solve(self, *args, **kwargs)

        monkeypatch.setattr(FgBgModel, "solve", solve_then_fail)
        engine = SweepEngine()
        with pytest.raises(np.linalg.LinAlgError):
            engine.run_chain(models(4))
        assert engine.stats.solver_calls == 2

    def test_cancel_never_becomes_a_nan_point(self):
        """SweepCancelled must not be swallowed by on_error isolation."""
        engine = SweepEngine(on_error="collect", cancel=lambda: True)
        with pytest.raises(SweepCancelled):
            engine.run_chain(models(2))
        assert engine.stats.failures == []

    def test_no_hooks_by_default(self):
        engine = SweepEngine()
        assert engine.progress is None
        assert engine.cancel is None


class TestStatsSummaryKeys:
    def test_recovered_work_counters_always_present(self):
        engine = SweepEngine()
        engine.run_chain(models(1))
        summary = engine.stats.summary()
        assert summary["cache_quarantined"] == 0
