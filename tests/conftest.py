"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import tiny_config
from repro.mesh.mesh import Mesh
from repro.nn.init import init_transformer_params
from repro.runtime.simulator import Simulator


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def cfg():
    """Small config compatible with q ∈ {1, 2, 3} and p ∈ {1, 2, 3, 6}."""
    return tiny_config(num_layers=2)


@pytest.fixture
def params(cfg):
    return init_transformer_params(cfg, seed=1)


@pytest.fixture
def batch(cfg, rng):
    b = 6
    ids = rng.integers(0, cfg.vocab_size, size=(b, cfg.seq_len))
    labels = rng.integers(0, cfg.vocab_size, size=(b, cfg.seq_len))
    return ids, labels


def clear_shared_tables() -> None:
    """Empty the process-wide tables of SUMMA plan structures, tape class
    plans and comm models, as a fresh process has them."""
    from repro.comm import cost
    from repro.core import summa
    from repro.runtime import tape

    summa._STRUCTURES.clear()
    tape._PLANS.clear()
    tape._RANK_SETS.clear()
    cost._BUILT.clear()


@pytest.fixture
def checked_partitions(monkeypatch):
    """Check every carried rank partition against a full read: before a
    tape apply that would start from its simulator's carried classes
    (``Simulator.partition``), read the start classes afresh
    (``Tape._start``) and assert each carried class lies within one read
    class.  Yields the number of applies checked."""
    from repro.runtime.tape import Tape

    checked = [0]
    apply = Tape.apply

    def oracle(self, params):
        carried = self.sim.partition
        if carried is not None:
            if self._arenas is None:
                self._touched()
            if all(b in carried.managers for b in self._managers):
                read = self._start(self.sim.devices)
                assert read is not None, "classes carried to a strict or sampling meter"
                reps = carried.reps
                assert all(
                    read.labels[r] == read.labels[reps[label]]
                    for r, label in enumerate(carried.labels)
                ), "a carried class spans ranks in different states"
                checked[0] += 1
        return apply(self, params)

    monkeypatch.setattr(Tape, "apply", oracle)
    yield checked


def make_mesh(q: int, backend: str = "numpy", **kw):
    sim = Simulator.for_mesh(q=q, backend=backend, **kw)
    return Mesh(sim, q)


@pytest.fixture
def mesh2():
    return make_mesh(2)


@pytest.fixture
def mesh3():
    return make_mesh(3)
