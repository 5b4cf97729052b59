"""Tests for R/G matrix algorithms."""

import numpy as np
import pytest

from repro.qbd import (
    SolveStats,
    drift,
    g_matrix_logarithmic_reduction,
    is_stable,
    r_matrix,
    r_matrix_from_g,
    r_matrix_functional_iteration,
    r_matrix_logarithmic_reduction,
    r_matrix_natural_iteration,
)
from repro.qbd.rmatrix import _closed_classes

LAM, MU = 1.0, 2.0
MM1 = (np.array([[LAM]]), np.array([[-(LAM + MU)]]), np.array([[MU]]))


def mmpp_m1_blocks(util: float = 0.7, mu: float = 1.0):
    """Repeating blocks of an MMPP(2)/M/1 queue at the given utilization."""
    from repro.processes import fit_mmpp2

    mmpp = fit_mmpp2(rate=util * mu, scv=2.4, decay=0.98)
    d0, d1 = mmpp.d0, mmpp.d1
    a0 = d1
    a1 = d0 - mu * np.eye(2)
    a2 = mu * np.eye(2)
    return a0, a1, a2


class TestDriftAndStability:
    def test_mm1_drift_is_lambda_minus_mu(self):
        assert drift(*MM1) == pytest.approx(LAM - MU)

    def test_stable_mm1(self):
        assert is_stable(*MM1)

    def test_unstable_when_lam_exceeds_mu(self):
        a0, a1, a2 = np.array([[3.0]]), np.array([[-5.0]]), np.array([[2.0]])
        assert not is_stable(a0, a1, a2)

    def test_mmpp_drift_matches_rates(self):
        a0, a1, a2 = mmpp_m1_blocks(util=0.7)
        assert drift(a0, a1, a2) == pytest.approx(0.7 - 1.0, rel=1e-6)


ALGOS = [
    r_matrix_functional_iteration,
    r_matrix_natural_iteration,
    r_matrix_logarithmic_reduction,
]


@pytest.mark.parametrize("algo", ALGOS)
class TestRAlgorithms:
    def test_mm1_r_is_rho(self, algo):
        r = algo(*MM1)
        np.testing.assert_allclose(r, [[LAM / MU]], atol=1e-10)

    def test_r_solves_quadratic(self, algo):
        a0, a1, a2 = mmpp_m1_blocks()
        r = algo(a0, a1, a2)
        residual = a0 + r @ a1 + r @ r @ a2
        np.testing.assert_allclose(residual, 0.0, atol=1e-8)

    def test_r_nonnegative_with_subunit_spectral_radius(self, algo):
        a0, a1, a2 = mmpp_m1_blocks()
        r = algo(a0, a1, a2)
        assert np.all(r >= -1e-12)
        assert np.max(np.abs(np.linalg.eigvals(r))) < 1.0


class TestAgreement:
    def test_all_algorithms_agree(self):
        a0, a1, a2 = mmpp_m1_blocks(util=0.85)
        results = [algo(a0, a1, a2) for algo in ALGOS]
        for other in results[1:]:
            np.testing.assert_allclose(results[0], other, atol=1e-8)

    def test_dispatch_by_name(self):
        a0, a1, a2 = mmpp_m1_blocks()
        for name in ("logarithmic-reduction", "natural", "functional"):
            r = r_matrix(a0, a1, a2, algorithm=name)
            np.testing.assert_allclose(
                a0 + r @ a1 + r @ r @ a2, 0.0, atol=1e-8
            )

    def test_unknown_algorithm_raises(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            r_matrix(*MM1, algorithm="magic")

    def test_unstable_raises(self):
        a0, a1, a2 = np.array([[3.0]]), np.array([[-5.0]]), np.array([[2.0]])
        with pytest.raises(ValueError, match="not positive recurrent"):
            r_matrix(a0, a1, a2)


class TestGMatrix:
    def test_g_is_stochastic_for_recurrent_qbd(self):
        a0, a1, a2 = mmpp_m1_blocks()
        g = g_matrix_logarithmic_reduction(a0, a1, a2)
        np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(g >= -1e-12)

    def test_g_solves_quadratic(self):
        a0, a1, a2 = mmpp_m1_blocks()
        g = g_matrix_logarithmic_reduction(a0, a1, a2)
        residual = a2 + a1 @ g + a0 @ g @ g
        np.testing.assert_allclose(residual, 0.0, atol=1e-9)

    def test_r_from_g_equals_direct(self):
        a0, a1, a2 = mmpp_m1_blocks()
        g = g_matrix_logarithmic_reduction(a0, a1, a2)
        np.testing.assert_allclose(
            r_matrix_from_g(a0, a1, a2, g),
            r_matrix_functional_iteration(a0, a1, a2),
            atol=1e-8,
        )


class TestSolveStats:
    def test_return_stats(self):
        a0, a1, a2 = mmpp_m1_blocks()
        r, stats = r_matrix(a0, a1, a2, return_stats=True)
        assert isinstance(stats, SolveStats)
        assert stats.algorithm == "logarithmic-reduction"
        assert stats.iterations > 0
        assert stats.wall_time_ms >= 0.0
        assert 0 < stats.spectral_radius < 1
        assert stats.fallbacks == ()

    def test_as_dict_round_trips_to_json_types(self):
        import json

        a0, a1, a2 = mmpp_m1_blocks()
        _, stats = r_matrix(a0, a1, a2, return_stats=True)
        payload = stats.as_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_without_flag_returns_matrix_only(self):
        r = r_matrix(*MM1)
        assert isinstance(r, np.ndarray)


class TestClosedClasses:
    """The closed communicating classes the drift is evaluated on."""

    @staticmethod
    def classes(a):
        return sorted(tuple(c.tolist()) for c in _closed_classes(a))

    def test_hand_built_reducible_generator(self):
        # 0 <-> 1 is closed; 2 leaks into it; 3 <-> 4 is closed; 5 is
        # absorbing.
        a = np.zeros((6, 6))
        for i, j, rate in [
            (0, 1, 1.0), (1, 0, 2.0), (2, 0, 0.5), (2, 3, 0.5),
            (3, 4, 1.0), (4, 3, 1.0),
        ]:
            a[i, j] = rate
        np.fill_diagonal(a, -a.sum(axis=1))
        assert self.classes(a) == [(0, 1), (3, 4), (5,)]

    def test_irreducible_generator_is_one_class(self):
        a0, a1, a2 = mmpp_m1_blocks()
        assert self.classes(a0 + a1 + a2) == [(0, 1)]

    def test_multiclass_full_buffer_classes_are_unchanged(self):
        """Two background classes, buffer 2: the phases settle into one
        closed class per full-buffer occupancy -- (0, 2), (1, 1), (2, 0)
        with the foreground in service -- out of 12 strongly connected
        components."""
        from repro.core.multiclass import MulticlassFgBgModel
        from repro.processes import fit_mmpp2

        mu = 1 / 6.0
        model = MulticlassFgBgModel(
            arrival=fit_mmpp2(rate=0.4 * mu, scv=4.0, decay=0.8),
            service_rate=mu,
            bg_probabilities=(0.3, 0.3),
            bg_buffer=2,
        )
        qbd = model._qbd
        assert self.classes(qbd.a0 + qbd.a1 + qbd.a2) == [
            (10, 11), (14, 15), (20, 21)
        ]
