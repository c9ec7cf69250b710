"""Experiment harness: runners and per-table/figure modules.

Full paper-scale sweeps live in benchmarks/; here we exercise every module
at reduced scale and assert the *qualitative claims* the paper makes.
"""

import dataclasses

import pytest

from repro.config import ModelConfig
from repro.experiments import fig7, fig8, fig9, table1, table2, table3
from repro.experiments.runner import run_megatron_stem, run_optimus_stem

SMALL = ModelConfig(
    vocab_size=51200, hidden_size=1024, num_heads=16, num_layers=4, seq_len=128
)


class TestRunner:
    def test_optimus_result_fields(self):
        r = run_optimus_stem(SMALL, q=2, batch_size=8)
        assert r.scheme == "optimus"
        assert r.num_devices == 4
        assert r.forward_time > 0 and r.backward_time > 0
        assert r.throughput == pytest.approx(8 / (r.forward_time + r.backward_time))
        assert r.inference == pytest.approx(8 / r.forward_time)
        assert r.forward_per_seq == pytest.approx(r.forward_time / 8)

    def test_megatron_result_fields(self):
        r = run_megatron_stem(SMALL, p=4, batch_size=8)
        assert r.scheme == "megatron"
        assert r.peak_memory_bytes > 0

    def test_backward_costlier_than_forward(self):
        """Checkpointed backward ≈ 3× forward for both schemes (§4)."""
        for r in (
            run_optimus_stem(SMALL, q=2, batch_size=8),
            run_megatron_stem(SMALL, p=4, batch_size=8),
        ):
            assert 2.0 < r.backward_time / r.forward_time < 3.5

    def test_no_checkpoint_backward_cheaper(self):
        with_ckpt = run_optimus_stem(SMALL, q=2, batch_size=8, checkpoint=True)
        without = run_optimus_stem(SMALL, q=2, batch_size=8, checkpoint=False)
        assert without.backward_time < with_ckpt.backward_time
        assert without.peak_memory_bytes > with_ckpt.peak_memory_bytes


class TestTable1:
    def test_formulas_validated(self):
        rows = table1.run(SMALL, p=4, batch_size=8)
        assert len(rows) == 8
        for r in rows:
            if r.quantity == "compute (MACs)":
                assert r.ratio == pytest.approx(1.0, rel=1e-6)
            else:
                assert 0.98 < r.ratio < 1.15
        out = table1.render(rows)
        assert "Table 1" in out and "megatron" in out


class TestTables2And3Reduced:
    """Reduced-scale weak/strong sweeps preserving the paper's orderings."""

    def _weak(self, h, n):
        # paper-scale per-layer shapes (the crossover regime), fewer layers
        return ModelConfig(vocab_size=51200, hidden_size=h, num_heads=n,
                           num_layers=4, seq_len=512)

    def test_weak_scaling_crossover(self):
        """Megatron ahead on one node; Optimus ahead by p=16 (Table 2)."""
        m4 = run_megatron_stem(self._weak(2048, 32), 4, 60)
        o4 = run_optimus_stem(self._weak(2048, 32), 2, 96)
        assert m4.throughput > o4.throughput
        m16 = run_megatron_stem(self._weak(4096, 64), 16, 60)
        o16 = run_optimus_stem(self._weak(4096, 64), 4, 192)
        assert o16.throughput > m16.throughput

    def test_strong_scaling_optimus_rises(self):
        """Optimus throughput increases with p at fixed problem (Table 3)."""
        cfg = self._weak(3072, 24)
        thr = [run_optimus_stem(cfg, q, 24).throughput for q in (2, 4, 8)]
        assert thr[0] < thr[1] < thr[2]

    def test_render(self):
        # renderers only need row objects; reuse a tiny run via dataclass
        r = run_megatron_stem(self._weak(512, 8), 4, 16)
        row = table2.Table2Row(r, (1, 2, 3, 4))
        assert "weak scaling" in table2.render([row])
        row3 = table3.Table3Row(r, (1, 2, 3, 4))
        assert "strong scaling" in table3.render([row3])


class TestFig7Reduced:
    def test_efficiency_points(self):
        cfg = ModelConfig(vocab_size=51200, hidden_size=512, num_heads=8,
                          num_layers=2, seq_len=128)
        r = run_optimus_stem(cfg, q=2, batch_size=8)
        t1 = fig7._serial_time(cfg, 8)
        pt = fig7.EfficiencyPoint("weak", "optimus", 4, r.forward_time + r.backward_time, t1)
        assert 0 < pt.efficiency <= 1.0
        assert "efficiency" in fig7.render([pt])


class TestFig8:
    def test_column_broadcast_speedup(self):
        """The paper's Fig. 8 claim: bunched beats naive on column traffic."""
        row = fig8.broadcast_comparison()
        assert row.speedup > 1.5

    def test_stem_comparison_small(self):
        cfg = dataclasses.replace(fig8.DEFAULT_CFG, num_layers=2)
        row = fig8.stem_comparison(cfg, q=4, batch_size=16)
        assert row.naive_time > 0 and row.bunched_time > 0
        assert "Figure 8" in fig8.render([row])


class TestFig9Reduced:
    def test_memory_limit_directions(self):
        """Fig. 9's shape at reduced scale: Optimus limit grows with p,
        Megatron's shrinks, Optimus ≫ Megatron at the largest p."""
        cap = 2 * 2**30  # pretend 2 GiB devices for the reduced problem

        def weak(h, n):
            return ModelConfig(vocab_size=51200, hidden_size=h, num_heads=n,
                               num_layers=4, seq_len=128)

        from repro.perfmodel.memory_model import max_batch_size

        meg4 = max_batch_size("megatron", weak(512, 8), 4, cap)
        meg16 = max_batch_size("megatron", weak(1024, 16), 16, cap)
        opt4 = max_batch_size("optimus", weak(512, 8), 4, cap)
        opt16 = max_batch_size("optimus", weak(1024, 16), 16, cap)
        assert meg16 < meg4
        assert opt16 > opt4
        assert opt16 > 2 * meg16
        # the Optimus/Megatron limit ratio widens with p (8x at paper scale)
        assert opt16 / meg16 > opt4 / meg4

    def test_render(self):
        rows = [fig9.Fig9Row(4, "optimus", 2048, 96, None)]
        out = fig9.render(rows)
        assert "maximum batch" in out
        rows = [
            fig9.Fig9Row(64, "megatron", 8192, 60, 60),
            fig9.Fig9Row(64, "optimus", 8192, 480, 480),
        ]
        assert fig9.ratio_at(rows, 64) == pytest.approx(8.0)
