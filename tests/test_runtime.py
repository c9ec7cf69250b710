"""Runtime: memory meter, devices, simulator clocks and counters."""

import pytest

from repro.hardware.specs import RTX5000, frontera_rtx
from repro.runtime.device import SimDevice
from repro.runtime.memory import MemoryMeter, OutOfDeviceMemory
from repro.runtime.simulator import Simulator


class TestMemoryMeter:
    def test_alloc_free_peak(self):
        m = MemoryMeter(rank=0)
        m.alloc(100, "a")
        m.alloc(50, "b")
        assert m.current == 150
        assert m.peak == 150
        m.free(100, "a")
        assert m.current == 50
        assert m.peak == 150
        assert m.num_allocs == 2

    def test_free_tag(self):
        m = MemoryMeter(rank=0)
        m.alloc(30, "x")
        m.alloc(20, "x")
        assert m.free_tag("x") == 50
        assert m.current == 0
        assert m.free_tag("x") == 0

    def test_overfree_rejected(self):
        m = MemoryMeter(rank=0)
        m.alloc(10, "a")
        with pytest.raises(ValueError):
            m.free(20, "a")
        m.alloc(10, "b")
        with pytest.raises(ValueError):
            m.free(15, "a")  # more than tag "a" holds

    def test_negative_rejected(self):
        m = MemoryMeter(rank=0)
        with pytest.raises(ValueError):
            m.alloc(-1)
        with pytest.raises(ValueError):
            m.free(-1)

    def test_strict_capacity(self):
        m = MemoryMeter(rank=3, capacity=100, strict=True)
        m.alloc(90)
        with pytest.raises(OutOfDeviceMemory) as ei:
            m.alloc(20)
        assert ei.value.rank == 3
        assert ei.value.requested == 20
        assert m.headroom == 10

    def test_nonstrict_allows_overflow(self):
        m = MemoryMeter(rank=0, capacity=100, strict=False)
        m.alloc(500)  # tracked, not enforced
        assert m.peak == 500

    def test_reset_peak(self):
        m = MemoryMeter(rank=0)
        m.alloc(100)
        m.free(100)
        m.reset_peak()
        assert m.peak == 0


class TestSimDevice:
    def _dev(self):
        return SimDevice(rank=0, spec=RTX5000, memory=MemoryMeter(rank=0))

    def test_compute_advances_clock(self):
        d = self._dev()
        dt = d.compute(RTX5000.effective_flops)  # exactly one second of work
        assert dt == pytest.approx(1.0)
        assert d.clock == pytest.approx(1.0)
        assert d.flops == RTX5000.effective_flops
        assert d.flops_gemm == RTX5000.effective_flops

    def test_elementwise_not_counted_as_gemm(self):
        d = self._dev()
        d.compute(1000, kind="elementwise")
        assert d.flops == 1000
        assert d.flops_gemm == 0

    def test_negative_flops(self):
        with pytest.raises(ValueError):
            self._dev().compute(-1)

    def test_charge_comm(self):
        d = self._dev()
        d.charge_comm(0.5, 1000, 2000)
        assert d.comm_time == 0.5
        assert d.bytes_comm == 1000
        assert d.weighted_comm_volume == 2000
        assert d.num_collectives == 1

    def test_reset(self):
        d = self._dev()
        d.compute(100)
        d.charge_comm(1, 1, 1)
        d.reset_counters()
        assert d.clock == 0 and d.flops == 0 and d.comm_time == 0


class TestSimulator:
    def test_construction(self):
        sim = Simulator.for_mesh(q=2)
        assert sim.num_ranks == 4
        assert sim.cluster.num_nodes == 1
        sim2 = Simulator.for_mesh(q=4)
        assert sim2.cluster.num_nodes == 4

    def test_flat(self):
        sim = Simulator.for_flat(p=6)
        assert sim.num_ranks == 6
        assert sim.cluster.num_nodes == 2

    def test_too_many_ranks(self):
        with pytest.raises(ValueError):
            Simulator(frontera_rtx(1), num_ranks=5)

    def test_sync_and_advance(self):
        sim = Simulator.for_flat(p=4)
        sim.device(0).clock = 5.0
        t = sim.sync([0, 1, 2])
        assert t == 5.0
        assert sim.device(1).clock == 5.0
        assert sim.device(3).clock == 0.0  # not in the barrier
        sim.advance([0, 1], 2.0)
        assert sim.elapsed() == 7.0

    def test_reset_time_keeps_memory(self):
        sim = Simulator.for_flat(p=2)
        sim.device(0).memory.alloc(100)
        sim.device(0).compute(1e9)
        sim.reset_time()
        assert sim.elapsed() == 0.0
        assert sim.device(0).memory.current == 100

    def test_totals_and_summary(self):
        sim = Simulator.for_flat(p=2)
        sim.device(0).compute(10)
        sim.device(1).compute(30)
        assert sim.total_flops() == 40
        s = sim.summary()
        assert s["total_flops"] == 40
        assert s["elapsed"] == sim.elapsed()

    def test_strict_memory_propagates(self):
        from repro.runtime.memory import OutOfDeviceMemory

        sim = Simulator.for_flat(p=1, strict_memory=True)
        with pytest.raises(OutOfDeviceMemory):
            sim.device(0).memory.alloc(RTX5000.memory_bytes + 1)
