"""The §3.2.3 buffer manager: regions, managed/unmanaged semantics, ablations."""

import numpy as np
import pytest

from repro.core.buffers import REGIONS, ArrayPool, BufferManager
from repro.runtime.simulator import Simulator


def _mgr(**kw):
    sim = Simulator.for_flat(p=2)
    return sim, BufferManager(sim, **kw)


class TestManagedMode:
    def test_arena_grows_to_high_water(self):
        sim, m = _mgr(managed=True)
        m.hold("forward", 0, 100)
        m.hold("forward", 0, 50)
        assert m.usage("forward", 0) == 150
        assert m.capacity("forward", 0) == 150
        m.release("forward", 0, 150)
        m.hold("forward", 0, 120)  # fits in the retained arena: no new alloc
        assert m.capacity("forward", 0) == 150
        assert sim.device(0).memory.current == 150

    def test_alloc_events_minimal(self):
        sim, m = _mgr(managed=True)
        for _ in range(10):
            m.hold("workspace", 0, 64)
            m.release("workspace", 0, 64)
        # one growth event only — the paper's anti-fragmentation claim
        assert sim.device(0).memory.num_allocs == 1

    def test_reset_region_keeps_arena(self):
        sim, m = _mgr(managed=True)
        m.hold("forward", 0, 200)
        m.reset_region("forward")
        assert m.usage("forward", 0) == 0
        assert sim.device(0).memory.current == 200

    def test_scratch_context(self):
        sim, m = _mgr(managed=True)
        with m.scratch(0, 500):
            assert m.usage("workspace", 0) == 500
        assert m.usage("workspace", 0) == 0
        assert m.capacity("workspace", 0) == 500


class TestUnmanagedMode:
    def test_every_hold_is_an_alloc(self):
        sim, m = _mgr(managed=False)
        for _ in range(10):
            m.hold("workspace", 0, 64)
            m.release("workspace", 0, 64)
        assert sim.device(0).memory.num_allocs == 10
        assert sim.device(0).memory.current == 0

    def test_release_frees_real_memory(self):
        sim, m = _mgr(managed=False)
        m.hold("forward", 0, 100)
        assert sim.device(0).memory.current == 100
        m.release("forward", 0, 100)
        assert sim.device(0).memory.current == 0

    def test_reset_region_frees(self):
        sim, m = _mgr(managed=False)
        m.hold("backward", 0, 300)
        m.reset_region("backward")
        assert sim.device(0).memory.current == 0


class TestAblationOptions:
    def test_merge_fwd_bwd_shares_arena(self):
        """§3.2.3 option 1: forward and backward share one region."""
        sim, m = _mgr(managed=True, merge_fwd_bwd=True)
        m.hold("forward", 0, 100)
        m.reset_region("forward")
        m.hold("backward", 0, 80)  # reuses the forward arena
        assert m.capacity("forward", 0) == 100
        assert sim.device(0).memory.current == 100  # no separate backward arena

    def test_unmerged_uses_both(self):
        sim, m = _mgr(managed=True, merge_fwd_bwd=False)
        m.hold("forward", 0, 100)
        m.hold("backward", 0, 80)
        assert sim.device(0).memory.current == 180

    def test_total_capacity(self):
        _, m = _mgr()
        m.hold("forward", 0, 10)
        m.hold("param_grad", 0, 20)
        assert m.total_capacity(0) == 30


class TestValidation:
    def test_unknown_region(self):
        _, m = _mgr()
        with pytest.raises(ValueError):
            m.hold("nonsense", 0, 1)

    def test_over_release(self):
        _, m = _mgr()
        m.hold("forward", 0, 10)
        with pytest.raises(ValueError):
            m.release("forward", 0, 20)

    @pytest.mark.parametrize("managed", [True, False])
    def test_negative_hold_rejected_in_both_modes(self, managed):
        """A managed hold used to take a negative byte count as a silent,
        unchecked release; only the unmanaged meter refused it."""
        sim, m = _mgr(managed=managed)
        m.hold("forward", 0, 100)
        with pytest.raises(ValueError, match="negative allocation"):
            m.hold("forward", 0, -60)
        assert m.usage("forward", 0) == 100
        assert sim.device(0).memory.current == 100

    @pytest.mark.parametrize("managed", [True, False])
    def test_bulk_hold_validates_before_touching_any_rank(self, managed):
        sim, m = _mgr(managed=managed)
        with pytest.raises(ValueError, match="negative allocation"):
            m.hold_many("forward", [([0], (100,)), ([1], (-1,))])
        with pytest.raises(ValueError, match="negative allocation"):
            m.compute_in_workspace([0, 1], -8, 1.0)
        with pytest.raises(ValueError, match="negative flops"):
            m.compute_in_workspace([0, 1], 8, -1.0)
        assert [m.usage(r, k) for r in ("forward", "workspace") for k in (0, 1)] == [0] * 4
        assert [d.memory.num_allocs for d in sim.devices] == [0, 0]
        assert sim.elapsed() == 0.0

    def test_release_all(self):
        sim, m = _mgr(managed=True)
        for region in REGIONS:
            m.hold(region, 0, 10)
        m.release_all()
        assert sim.device(0).memory.current == 0
        assert m.total_capacity(0) == 0


class TestArrayPoolSizing:
    @pytest.mark.parametrize(
        "shape, nbytes, size_class",
        [((), 8, 8), ((0,), 0, 1), ((3, 0, 2), 0, 1), ((3, 5, 7), 840, 1024)],
    )
    def test_nbytes_and_size_class(self, shape, nbytes, size_class):
        pool = ArrayPool()
        x = pool.acquire(shape, np.float64)
        assert x.shape == shape and x.dtype == np.float64 and x.nbytes == nbytes
        assert (pool.hits, pool.misses) == (0, 1)
        pool.release(x)
        assert pool.stats()["free_bytes"] == size_class
        y = pool.acquire(shape, np.float64)  # the same class: served from the list
        assert y.shape == shape and (pool.hits, pool.misses) == (1, 1)
