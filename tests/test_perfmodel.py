"""Performance model: Table 1 formulas vs simulator, isoefficiency laws,
memory model vs the dryrun allocator, scaling laws."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ModelConfig
from repro.perfmodel.costs import (
    layer_macs_backward,
    layer_macs_forward,
    megatron_comm_backward,
    megatron_comm_forward,
    optimus_comm_backward,
    optimus_comm_forward,
)
from repro.perfmodel.isoefficiency import (
    asymptotic_work_megatron,
    asymptotic_work_optimus,
    efficiency_megatron,
    efficiency_optimus,
    isoefficiency_hidden,
    isoefficiency_work,
)
from repro.perfmodel.memory_model import estimate_peak_bytes, max_batch_size, measure_peak_bytes


class TestTable1Formulas:
    def test_megatron_values(self):
        # 4(p−1)/p·bsh with b=2, s=4, h=8, p=4 → 4·(3/4)·64 = 192
        assert megatron_comm_forward(2, 4, 8, 4) == pytest.approx(192.0)
        assert megatron_comm_backward(2, 4, 8, 4) == pytest.approx(384.0)

    def test_optimus_values(self):
        b, s, h, p = 2, 4, 8, 16
        expected = math.log2(p) / (2 * math.sqrt(p)) * (7 * b * s * h + 12 * h * h)
        assert optimus_comm_forward(b, s, h, p) == pytest.approx(expected)
        assert optimus_comm_backward(b, s, h, p) == pytest.approx(3 * expected)

    def test_single_device_is_free(self):
        assert megatron_comm_forward(1, 1, 1, 1) == 0
        assert optimus_comm_forward(1, 1, 1, 1) == 0

    def test_macs(self):
        assert layer_macs_forward(1, 2, 3) == 12 * 2 * 9 + 2 * 4 * 3
        assert layer_macs_backward(1, 2, 3) == 3 * layer_macs_forward(1, 2, 3)

    @pytest.mark.parametrize("scheme", ["optimus", "megatron"])
    def test_simulator_matches_formulas(self, scheme):
        """Core validation: the executed system reproduces Table 1."""
        from repro.experiments import table1

        cfg = ModelConfig(
            vocab_size=3200, hidden_size=512, num_heads=16, num_layers=1, seq_len=64
        )
        rows = table1.run(cfg, p=16, batch_size=8)
        for r in rows:
            if r.scheme != scheme:
                continue
            if r.quantity == "compute (MACs)":
                assert r.ratio == pytest.approx(1.0, rel=1e-6), r
            elif scheme == "optimus":
                # only LN/bias collectives on top of the formula
                assert 1.0 <= r.ratio < 1.10, r
            else:
                # backward additionally pays the checkpoint all-gather
                assert 1.0 <= r.ratio <= 1.13, r


class TestIsoefficiency:
    def test_efficiency_increases_with_problem_size(self):
        for eff in (efficiency_megatron, efficiency_optimus):
            assert eff(1e4, 16) > eff(1e3, 16)

    def test_efficiency_decreases_with_devices(self):
        for eff in (efficiency_megatron, efficiency_optimus):
            assert eff(1e4, 64) < eff(1e4, 4)

    def test_optimus_more_efficient_at_scale(self):
        """§3.1.2: Optimus holds efficiency with far smaller problems."""
        for p in (16, 64, 256, 1024):
            assert efficiency_optimus(1e4, p) > efficiency_megatron(1e4, p)

    def test_isoefficiency_hidden_solves_target(self):
        for scheme in ("megatron", "optimus"):
            h = isoefficiency_hidden(scheme, 64, target_efficiency=0.8)
            eff = {"megatron": efficiency_megatron, "optimus": efficiency_optimus}[scheme]
            assert eff(h, 64) == pytest.approx(0.8, rel=1e-6)

    def test_optimus_needs_smaller_problem(self):
        for p in (16, 64, 256):
            assert isoefficiency_work("optimus", p) < isoefficiency_work("megatron", p)

    def test_asymptotic_law_ratio(self):
        """Empirical isoefficiency growth tracks the paper's asymptotics."""
        for scheme, law in (
            ("megatron", asymptotic_work_megatron),
            ("optimus", asymptotic_work_optimus),
        ):
            w1 = isoefficiency_work(scheme, 256)
            w2 = isoefficiency_work(scheme, 4096)
            empirical = w2 / w1
            predicted = law(4096) / law(256)
            assert empirical == pytest.approx(predicted, rel=0.35)

    @given(st.integers(2, 12))
    @settings(max_examples=20, deadline=None)
    def test_isoefficiency_monotone_in_p(self, k):
        p = 2**k
        assert isoefficiency_work("optimus", 2 * p) > isoefficiency_work("optimus", p)


class TestMemoryModel:
    CFG = ModelConfig(
        vocab_size=51200, hidden_size=1024, num_heads=16, num_layers=4, seq_len=128
    )

    def test_measure_vs_estimate_agree(self):
        for scheme, p in (("optimus", 4), ("megatron", 4)):
            measured = measure_peak_bytes(scheme, self.CFG, p, batch_size=8)
            estimated = estimate_peak_bytes(scheme, self.CFG, p, batch_size=8).total
            assert estimated == pytest.approx(measured, rel=0.30), scheme

    def test_measured_monotone_in_batch(self):
        a = measure_peak_bytes("optimus", self.CFG, 4, 4)
        b = measure_peak_bytes("optimus", self.CFG, 4, 16)
        assert b > a

    def test_optimus_lighter_than_megatron(self):
        """§3.1.1 at equal (cfg, p, b): 2-D beats 1-D on per-device bytes."""
        o = measure_peak_bytes("optimus", self.CFG, 16, 16)
        m = measure_peak_bytes("megatron", self.CFG, 16, 16)
        assert o < m

    def test_optimizer_slots_add_memory(self):
        base = estimate_peak_bytes("optimus", self.CFG, 4, 8, optimizer_slots=0)
        adam = estimate_peak_bytes("optimus", self.CFG, 4, 8, optimizer_slots=2)
        assert adam.total - base.total == pytest.approx(2 * base.params)

    def test_max_batch_bisection(self):
        cap = measure_peak_bytes("optimus", self.CFG, 4, 8) + 1
        found = max_batch_size("optimus", self.CFG, 4, cap, granularity=2)
        assert found >= 8
        assert measure_peak_bytes("optimus", self.CFG, 4, found) <= cap
        assert measure_peak_bytes("optimus", self.CFG, 4, found + 2) > cap

    def test_max_batch_zero_when_nothing_fits(self):
        assert max_batch_size("optimus", self.CFG, 4, capacity_bytes=1) == 0

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            estimate_peak_bytes("zero", self.CFG, 4, 8)
        with pytest.raises(ValueError):
            measure_peak_bytes("zero", self.CFG, 4, 8)

    def test_non_square_mesh_rejected(self):
        with pytest.raises(ValueError):
            measure_peak_bytes("optimus", self.CFG, 8, 8)


@given(st.integers(2, 64), st.integers(1, 8), st.integers(1, 8))
@settings(max_examples=30, deadline=None)
def test_comm_formulas_nonnegative_and_monotone_in_b(p, b, s):
    h = 16
    assert megatron_comm_forward(b, s, h, p) >= 0
    assert optimus_comm_forward(b, s, h, p) >= 0
    if p > 1:
        assert megatron_comm_forward(b + 1, s, h, p) > megatron_comm_forward(b, s, h, p)
        assert optimus_comm_forward(b + 1, s, h, p) > optimus_comm_forward(b, s, h, p)
