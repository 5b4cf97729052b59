"""Property-based tests on the sweep engine (caching)."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import FgBgModel
from repro.engine import SolveCache, SweepEngine
from repro.processes import MMPP
from repro.workloads.paper import SERVICE_RATE_PER_MS

MU = SERVICE_RATE_PER_MS


@st.composite
def stable_mmpp_models(draw):
    """Random stable FG/BG models with MMPP(2) arrivals, lag-1 ACF decay
    <= 0.9 so the solves are not tail-dominated.

    The MMPP is built directly from random switching/arrival rates (the
    least-squares fitter is too slow -- and not total -- for property
    tests) and rescaled to the drawn utilization, which preserves the
    decay."""
    v1 = draw(st.floats(min_value=0.01, max_value=1.0))
    v2 = draw(st.floats(min_value=0.01, max_value=1.0))
    l1 = draw(st.floats(min_value=0.5, max_value=5.0))
    l2 = draw(st.floats(min_value=0.01, max_value=0.4))
    util = draw(st.floats(min_value=0.05, max_value=0.7))
    p = draw(st.floats(min_value=0.0, max_value=1.0))
    mmpp = MMPP.two_state(v1, v2, l1, l2)
    acf = mmpp.acf(2)
    assume(abs(acf[0]) > 1e-12)
    assume(0.0 < acf[1] / acf[0] <= 0.9)
    arrival = mmpp.scaled_to_utilization(util, MU)
    return FgBgModel(arrival=arrival, service_rate=MU, bg_probability=p)


class TestCachingProperties:
    @given(model=stable_mmpp_models())
    @settings(max_examples=25, deadline=None)
    def test_cached_solve_equals_fresh_solve_exactly(self, model):
        engine = SweepEngine(cache=SolveCache())
        fresh = engine.solve(model)
        cached = engine.solve(model)
        assert cached is fresh
        for name, value in fresh.as_dict().items():
            again = getattr(cached, name)
            assert (value == again) or (np.isnan(value) and np.isnan(again))

    @given(model=stable_mmpp_models())
    @settings(max_examples=25, deadline=None)
    def test_rebuilt_model_hits_cache(self, model):
        # A structurally identical model built from the same parameters
        # must share the fingerprint and therefore the cache entry.
        engine = SweepEngine(cache=SolveCache())
        engine.solve(model)
        clone = FgBgModel(
            arrival=model.arrival,
            service_rate=model.service_rate,
            bg_probability=model.bg_probability,
            bg_buffer=model.bg_buffer,
            idle_wait_rate=model.idle_wait_rate,
            bg_mode=model.bg_mode,
        )
        engine.solve(clone)
        assert engine.stats.cache_hits == 1
