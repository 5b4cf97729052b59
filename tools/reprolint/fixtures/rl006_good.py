"""Fixture twin: certificates only over frozen arrays (no RL006)."""

from dataclasses import dataclass, field

import numpy as np

from repro.contracts import check_generator
from repro.qbd.rmatrix import r_matrix


@dataclass(frozen=True)
class GoodCertifiedProcess:
    rates: object
    d0: object = field(init=False)
    _generator_validated: bool = field(init=False, default=False)

    def __post_init__(self):
        base = np.asarray(self.rates, dtype=float)
        d0 = base - np.diag(base.sum(axis=1))
        check_generator(d0)
        d0.setflags(write=False)
        object.__setattr__(self, "d0", d0)
        object.__setattr__(self, "_generator_validated", True)


def cold_solve(a0, a1, a2):
    # No certificate: r_matrix validates the blocks itself.
    return r_matrix(a0, a1, a2)


def _freeze(*arrays):
    # Unconditional same-module helper: the freeze oracle recognizes it,
    # so certificates over helper-frozen arrays are sound.
    for array in arrays:
        array.setflags(write=False)


@dataclass(frozen=True)
class HelperFrozenProcess:
    rates: object
    d0: object = field(init=False)
    _generator_validated: bool = field(init=False, default=False)

    def __post_init__(self):
        base = np.asarray(self.rates, dtype=float)
        d0 = base - np.diag(base.sum(axis=1))
        check_generator(d0)
        _freeze(d0)
        object.__setattr__(self, "d0", d0)
        object.__setattr__(self, "_generator_validated", True)


def frozen_solve():
    a0 = np.zeros((2, 2))
    a1 = np.diag([-1.0, -1.0])
    a2 = np.eye(2)
    a0.setflags(write=False)
    a1.setflags(write=False)
    a2.setflags(write=False)
    return r_matrix(a0, a1, a2, blocks_validated=True)
