"""End-to-end contract failure modes required by the contract layer.

Each scenario corrupts one link of the analytic chain and asserts that
the failure is a typed :class:`ContractViolation` *naming the offending
matrix and the violated check* -- not a numpy warning, not a silent wrong
number.
"""

import pickle

import numpy as np
import pytest

from repro.contracts import ContractViolation, check_r_matrix, check_solution
from repro.core import FgBgModel
from repro.engine import SolveCache
from repro.processes import PoissonProcess
from repro.qbd.rmatrix import r_matrix

MU = 1 / 6.0


def model(rho=0.3, p=0.3, **kwargs):
    return FgBgModel(
        arrival=PoissonProcess(rho * MU),
        service_rate=MU,
        bg_probability=p,
        **kwargs,
    )


def mm1_blocks(lam=0.05, mu=MU):
    a0 = np.array([[lam]])
    a1 = np.array([[-(lam + mu)]])
    a2 = np.array([[mu]])
    return a0, a1, a2


class TestCorruptGenerator:
    def test_row_sum_residual_names_matrix_and_check(self):
        # Rows of A0+A1+A2 sum to 1e-6 instead of 0: six orders of
        # magnitude above roundoff for O(0.1) rates.
        a0, a1, a2 = mm1_blocks()
        a1 = a1 + 1e-6
        with pytest.raises(ContractViolation) as excinfo:
            r_matrix(a0, a1, a2)
        assert excinfo.value.check == "check_generator"
        assert excinfo.value.subject == "A0+A1+A2"
        assert "sums to" in excinfo.value.detail

    def test_negative_block_entry_is_caught(self):
        a0, a1, a2 = mm1_blocks()
        a0 = np.array([[-0.05]])
        with pytest.raises(ContractViolation) as excinfo:
            r_matrix(a0, a1, a2)
        assert excinfo.value.subject == "A0"


class TestNonMinimalR:
    def test_sp_101_names_check(self):
        r = np.array([[1.01]])
        with pytest.raises(ContractViolation) as excinfo:
            check_r_matrix(r, "R")
        assert excinfo.value.check == "check_r_matrix"
        assert excinfo.value.subject == "R"
        assert "spectral radius" in excinfo.value.detail

    def test_boundary_case_sp_exactly_one_rejected(self):
        with pytest.raises(ContractViolation, match="spectral radius"):
            check_r_matrix(np.eye(2), "R")


class TestCorruptedCachePickle:
    def solved_disk_cache(self, tmp_path):
        cache = SolveCache(tmp_path)
        m = model()
        key = SolveCache.key(m)
        cache.put(key, m.solve())
        return key, cache

    def fresh(self, tmp_path):
        # A second cache over the same directory: empty memory layer, so
        # get() must go to disk.
        return SolveCache(tmp_path)

    def test_truncated_pickle_raises_typed_error(self, tmp_path):
        key, cache = self.solved_disk_cache(tmp_path)
        path = tmp_path / f"{key}.pkl"
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(ContractViolation) as excinfo:
            self.fresh(tmp_path).get(key)
        assert excinfo.value.check == "check_solution"
        assert key[:16] in excinfo.value.subject

    def test_scribbled_payload_fails_validation(self, tmp_path):
        key, cache = self.solved_disk_cache(tmp_path)
        path = tmp_path / f"{key}.pkl"
        with path.open("wb") as fh:
            pickle.dump("not a solution at all", fh)
        with pytest.raises(ContractViolation, match="FgBgSolution"):
            self.fresh(tmp_path).get(key)

    def test_tampered_r_matrix_fails_validation(self, tmp_path):
        key, cache = self.solved_disk_cache(tmp_path)
        path = tmp_path / f"{key}.pkl"
        with path.open("rb") as fh:
            solution = pickle.load(fh)
        r = solution.qbd_solution.r.copy()
        r[0, 0] = 1.5  # sp(R) > 1: the geometric tail no longer sums
        solution.qbd_solution._r = r
        with path.open("wb") as fh:
            pickle.dump(solution, fh)
        with pytest.raises(ContractViolation, match="spectral radius"):
            self.fresh(tmp_path).get(key)

    def test_intact_entry_loads_and_validates(self, tmp_path):
        key, _ = self.solved_disk_cache(tmp_path)
        loaded = self.fresh(tmp_path).get(key)
        assert loaded is not None
        check_solution(loaded)

    def test_off_switch_skips_validation(self, tmp_path, monkeypatch):
        key, _ = self.solved_disk_cache(tmp_path)
        path = tmp_path / f"{key}.pkl"
        with path.open("wb") as fh:
            pickle.dump("not a solution at all", fh)
        monkeypatch.setenv("REPRO_CONTRACTS", "off")
        # The pickle is readable, just wrong; with contracts off it is
        # returned as-is (the caller opted out of validation).
        assert self.fresh(tmp_path).get(key) == "not a solution at all"


class TestModelLevelContracts:
    def test_model_solve_passes_contracts(self):
        solution = model().solve()
        check_solution(solution)

    def test_contracts_off_reproduces_same_numbers(self, monkeypatch):
        reference = model().solve()
        monkeypatch.setenv("REPRO_CONTRACTS", "off")
        unchecked = model().solve()
        assert unchecked.fg_queue_length == pytest.approx(
            reference.fg_queue_length, rel=1e-12
        )
        assert unchecked.fg_response_time == pytest.approx(
            reference.fg_response_time, rel=1e-12
        )
