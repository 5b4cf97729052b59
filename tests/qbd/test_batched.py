"""Tests for the batched matrix-geometric kernel (`repro.qbd.batched`)."""

import numpy as np
import pytest

from repro.contracts.errors import ContractViolation
from repro.core.model import FgBgModel
from repro.processes import fit_mmpp2
from repro.qbd import (
    BatchedSolveReport,
    QBDProcess,
    batched_r_matrix,
    r_matrix,
    solve_qbd,
    solve_qbd_batched,
)
from repro.workloads.paper import SERVICE_RATE_PER_MS

MU = SERVICE_RATE_PER_MS


def email_models(ps=(0.05, 0.1, 0.3, 0.6, 0.9), util=0.3):
    arrival = fit_mmpp2(rate=util * MU, scv=4.0, decay=0.8)
    return [
        FgBgModel(arrival=arrival, service_rate=MU, bg_probability=p)
        for p in ps
    ]


def mm1_triple(lam=1.0, mu=2.0):
    return (
        np.array([[lam]]),
        np.array([[-(lam + mu)]]),
        np.array([[mu]]),
    )


class TestBatchedRMatrix:
    def test_matches_scalar_solver_bitwise(self):
        qbds = [m.qbd for m in email_models()]
        stack = batched_r_matrix(
            np.stack([q.a0 for q in qbds]),
            np.stack([q.a1 for q in qbds]),
            np.stack([q.a2 for q in qbds]),
            blocks_validated=True,
        )
        for i, qbd in enumerate(qbds):
            scalar = r_matrix(qbd.a0, qbd.a1, qbd.a2, blocks_validated=True)
            np.testing.assert_array_equal(stack[i], scalar)

    def test_mm1_closed_form(self):
        lam, mu = 1.0, 2.0
        a0, a1, a2 = mm1_triple(lam, mu)
        stack = batched_r_matrix(
            np.stack([a0, a0]), np.stack([a1, a1]), np.stack([a2, a2])
        )
        np.testing.assert_allclose(stack, lam / mu, atol=1e-12)

    def test_result_is_read_only(self):
        a0, a1, a2 = mm1_triple()
        stack = batched_r_matrix(np.stack([a0]), np.stack([a1]), np.stack([a2]))
        assert not stack.flags.writeable

    def test_stats_and_report(self):
        qbds = [m.qbd for m in email_models(ps=(0.1, 0.3, 0.6))]
        r, stats, report = batched_r_matrix(
            np.stack([q.a0 for q in qbds]),
            np.stack([q.a1 for q in qbds]),
            np.stack([q.a2 for q in qbds]),
            blocks_validated=True,
            return_stats=True,
        )
        assert isinstance(report, BatchedSolveReport)
        assert report.batch_size == 3
        assert report.phase_count == qbds[0].phase_count
        assert report.fallbacks == ()
        assert report.iterations == sum(s.iterations for s in stats)
        assert report.max_iterations == max(s.iterations for s in stats)
        for s in stats:
            assert s.algorithm == "batched-logarithmic-reduction"
            assert 0 < s.spectral_radius < 1

    def test_report_round_trips_to_dict(self):
        report = BatchedSolveReport(
            batch_size=2,
            phase_count=3,
            iterations=10,
            max_iterations=6,
            wall_time_ms=1.5,
            fallbacks=(1,),
        )
        payload = report.as_dict()
        assert payload["batch_size"] == 2
        assert payload["fallbacks"] == [1]

    def test_report_rejects_negative_sizes(self):
        with pytest.raises(ValueError, match="batch_size"):
            BatchedSolveReport(
                batch_size=-1,
                phase_count=2,
                iterations=0,
                max_iterations=0,
                wall_time_ms=0.0,
            )

    def test_rejects_mismatched_stacks(self):
        a0, a1, a2 = mm1_triple()
        with pytest.raises(ValueError, match="share one shape"):
            batched_r_matrix(
                np.stack([a0]), np.stack([a1]), np.stack([a2, a2])
            )

    def test_rejects_non_stack_input(self):
        a0, a1, a2 = mm1_triple()
        with pytest.raises(ValueError, match=r"\(N, m, m\)"):
            batched_r_matrix(a0, a1, a2)

    def test_precondition_names_offending_item(self):
        a0, a1, a2 = mm1_triple()
        bad_a0 = np.stack([a0, -a0])
        with pytest.raises(ContractViolation, match=r"A0\[1\]"):
            batched_r_matrix(bad_a0, np.stack([a1, a1]), np.stack([a2, a2]))

    def test_unstable_item_raises_like_scalar(self):
        # lam > mu: the batched iteration cannot converge and the scalar
        # fallback performs the drift diagnosis.
        a0, a1, a2 = mm1_triple(lam=3.0, mu=2.0)
        g0, g1, g2 = mm1_triple()
        with pytest.raises(ValueError, match="not positive recurrent"):
            batched_r_matrix(
                np.stack([g0, a0]), np.stack([g1, a1]), np.stack([g2, a2])
            )


class TestSolveQbdBatched:
    def test_matches_sequential_end_to_end(self):
        qbds = [m.qbd for m in email_models()]
        sequential = [solve_qbd(q) for q in qbds]
        batched = solve_qbd_batched(qbds)
        for s, b in zip(sequential, batched):
            np.testing.assert_array_equal(b.r, s.r)
            np.testing.assert_allclose(b.boundary, s.boundary, atol=1e-10)
            np.testing.assert_allclose(
                b.repeating_mass, s.repeating_mass, atol=1e-10
            )
            np.testing.assert_allclose(
                b.repeating_level_weighted,
                s.repeating_level_weighted,
                atol=1e-10,
            )

    def test_residual_is_small(self):
        for dist in solve_qbd_batched([m.qbd for m in email_models()]):
            assert dist.residual(levels=6) < 1e-9

    def test_total_mass_is_one(self):
        for dist in solve_qbd_batched([m.qbd for m in email_models()]):
            assert dist.total_mass == pytest.approx(1.0, abs=1e-10)

    def test_seeded_level_sums_match_lazy_path(self):
        qbds = [m.qbd for m in email_models(ps=(0.1, 0.6))]
        for dist in solve_qbd_batched(qbds):
            seeded = dist.repeating_mass
            lazy = dist._apply_inv_i_minus_r(dist.level(1))
            np.testing.assert_allclose(seeded, lazy, atol=1e-12)

    def test_single_item_batch(self):
        qbd = email_models(ps=(0.3,))[0].qbd
        (dist,), report = solve_qbd_batched([qbd], return_report=True)
        reference = solve_qbd(qbd)
        np.testing.assert_array_equal(dist.r, reference.r)
        assert report.batch_size == 1

    def test_carries_per_item_stats(self):
        for dist in solve_qbd_batched([m.qbd for m in email_models()]):
            assert dist.solve_stats is not None
            assert dist.solve_stats.iterations > 0

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            solve_qbd_batched([])

    def test_rejects_non_qbd(self):
        with pytest.raises(TypeError, match="QBDProcess"):
            solve_qbd_batched([np.eye(2)])

    def test_rejects_mixed_shapes(self):
        small = QBDProcess.homogeneous(*mm1_triple())
        big = email_models(ps=(0.3,))[0].qbd
        with pytest.raises(ValueError, match="mixed block shapes"):
            solve_qbd_batched([small, big])

    def test_distribution_arrays_read_only(self):
        (dist,) = solve_qbd_batched([email_models(ps=(0.3,))[0].qbd])
        for arr in (dist.r, dist.boundary, dist.repeating_mass):
            assert not np.asarray(arr).flags.writeable
