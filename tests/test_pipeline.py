"""Pipeline parallelism: schedules, exact numerics, timing and memory
properties, and the LayerStack refactor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.shape_array import ShapeArray
from repro.config import ModelConfig, tiny_config
from repro.nn.init import init_transformer_params
from repro.pipeline.engine import PipelineModel
from repro.pipeline.schedule import (
    bubble_fraction,
    gpipe_schedule,
    max_in_flight,
    one_f_one_b_schedule,
)
from repro.reference.model import ReferenceTransformer
from repro.reference.stack import LayerStack
from repro.runtime.simulator import Simulator
from repro.training.optim import SerialSGD


@pytest.fixture
def deep_cfg():
    return tiny_config(num_layers=4)


@pytest.fixture
def deep_setup(deep_cfg, rng):
    params = init_transformer_params(deep_cfg, seed=1)
    ids = rng.integers(0, deep_cfg.vocab_size, size=(8, deep_cfg.seq_len))
    labels = rng.integers(0, deep_cfg.vocab_size, size=(8, deep_cfg.seq_len))
    return params, ids, labels


class TestSchedules:
    def test_gpipe_shape(self):
        sched = gpipe_schedule(3, 4)
        assert len(sched) == 3
        assert all(len(q) == 8 for q in sched)
        assert [op.phase for op in sched[0][:4]] == ["fwd"] * 4

    def test_1f1b_warmup_counts(self):
        sched = one_f_one_b_schedule(4, 8)
        for s, q in enumerate(sched):
            warmup = 0
            for op in q:
                if op.phase != "fwd":
                    break
                warmup += 1
            assert warmup == min(4 - s, 8), s

    def test_every_microbatch_scheduled_once(self):
        for maker in (gpipe_schedule, one_f_one_b_schedule):
            sched = maker(3, 5)
            for s, q in enumerate(sched):
                fwd = [op.micro_batch for op in q if op.phase == "fwd"]
                bwd = [op.micro_batch for op in q if op.phase == "bwd"]
                assert sorted(fwd) == list(range(5))
                assert sorted(bwd) == list(range(5))

    def test_in_flight_gpipe_vs_1f1b(self):
        """The schedules' defining difference: m vs ≤S live micro-batches."""
        S, m = 4, 16
        assert max_in_flight(gpipe_schedule(S, m), 0) == m
        assert max_in_flight(one_f_one_b_schedule(S, m), 0) == S

    def test_bubble_fraction(self):
        assert bubble_fraction(1, 8) == 0.0
        assert bubble_fraction(4, 4) == pytest.approx(3 / 7)
        assert bubble_fraction(4, 1000) < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            gpipe_schedule(0, 4)
        with pytest.raises(ValueError):
            bubble_fraction(2, 0)

    @given(st.integers(1, 5), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_1f1b_in_flight_bound_property(self, S, m):
        sched = one_f_one_b_schedule(S, m)
        for s in range(S):
            assert max_in_flight(sched, s) <= min(S - s, m) + 0
            assert max_in_flight(sched, s) == min(S - s, m)


class TestLayerStack:
    def test_matches_reference_model(self, deep_cfg, deep_setup):
        """The refactored stack reproduces the reference's layer math."""
        params, ids, labels = deep_setup
        ref = ReferenceTransformer(deep_cfg, params)
        ref_loss = float(ref.forward(ids, labels))
        ref_grads = ref.backward()

        # manual end-to-end using LayerStack for the middle
        from repro.reference import functional as F

        b = ids.shape[0]
        T = ids.size
        table = params["embedding.table"]
        x = np.asarray(table)[ids.reshape(-1)]
        stack = LayerStack(deep_cfg, params)
        y = stack.forward(x, b)
        out, x_hat, inv = F.layernorm_fwd(
            y, params["final_ln.gamma"], params["final_ln.beta"], deep_cfg.ln_eps
        )
        logits = out @ np.asarray(table).T
        loss_tok, probs = F.cross_entropy_fwd(logits, labels.reshape(-1))
        assert float(loss_tok.mean()) == pytest.approx(ref_loss, abs=1e-12)

        dlogits = F.cross_entropy_bwd(probs, labels.reshape(-1), np.full(T, 1.0 / T))
        d_out = dlogits @ np.asarray(table)
        dx, _, _ = F.layernorm_bwd(d_out, x_hat, inv, params["final_ln.gamma"])
        stack.backward(dx)
        for name, g in stack.grads.items():
            np.testing.assert_allclose(g, ref_grads[name], rtol=1e-8, atol=1e-11,
                                       err_msg=name)

    def test_partial_slice(self, deep_cfg, deep_setup, rng):
        params, _, _ = deep_setup
        stack = LayerStack(deep_cfg, params, layer_indices=[1, 2])
        x = rng.normal(size=(16, deep_cfg.hidden_size))
        y = stack.forward(x, 2)
        assert y.shape == x.shape
        dx = stack.backward(rng.normal(size=x.shape))
        assert set(stack.grads) == {
            f"layer{l}.{p}" for l in (1, 2)
            for p in ("ln1.gamma", "ln1.beta", "attn.wqkv", "attn.bqkv",
                      "attn.wo", "attn.bo", "ln2.gamma", "ln2.beta",
                      "mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2")
        }

    def test_backward_requires_forward(self, deep_cfg, deep_setup, rng):
        params, _, _ = deep_setup
        stack = LayerStack(deep_cfg, params, layer_indices=[0])
        with pytest.raises(RuntimeError):
            stack.backward(rng.normal(size=(8, deep_cfg.hidden_size)))

    def test_cache_export_import(self, deep_cfg, deep_setup, rng):
        """Two interleaved micro-batches through one stack instance."""
        params, _, _ = deep_setup
        stack = LayerStack(deep_cfg, params, layer_indices=[0, 1])
        xa = rng.normal(size=(8, deep_cfg.hidden_size))
        xb = rng.normal(size=(8, deep_cfg.hidden_size))
        stack.forward(xa, 1)
        ca = stack.export_caches()
        stack.forward(xb, 1)
        cb = stack.export_caches()
        dy = rng.normal(size=xa.shape)
        stack.import_caches(ca)
        dxa = stack.backward(dy)
        stack.import_caches(cb)
        dxb = stack.backward(dy)
        assert not np.allclose(dxa, dxb)  # caches really were per-micro-batch


class TestPipelineModel:
    @pytest.mark.parametrize("schedule", ["gpipe", "1f1b"])
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_exact_training_numerics(self, deep_cfg, deep_setup, schedule, m):
        params, ids, labels = deep_setup
        ref = ReferenceTransformer(deep_cfg, params)
        ref_loss = float(ref.forward(ids, labels))
        ref_grads = ref.backward()

        sim = Simulator.for_flat(p=2)
        pm = PipelineModel(sim, deep_cfg, params, num_micro_batches=m, schedule=schedule)
        loss = pm.forward_backward(ids, labels)
        assert loss == pytest.approx(ref_loss, abs=1e-10)
        for name, g in ref_grads.items():
            np.testing.assert_allclose(pm.grads[name], g, rtol=1e-8, atol=1e-11,
                                       err_msg=name)

    def test_four_stages(self, deep_cfg, deep_setup):
        params, ids, labels = deep_setup
        ref_loss = float(ReferenceTransformer(deep_cfg, params).forward(ids, labels))
        sim = Simulator.for_flat(p=4)
        pm = PipelineModel(sim, deep_cfg, params, num_micro_batches=4)
        assert pm.forward_backward(ids, labels) == pytest.approx(ref_loss, abs=1e-10)
        assert [len(l) for l in pm.stage_layers] == [1, 1, 1, 1]

    def test_uneven_layer_split(self, deep_setup):
        cfg = tiny_config(num_layers=5)
        params = init_transformer_params(cfg, seed=2)
        sim = Simulator.for_flat(p=2)
        pm = PipelineModel(sim, cfg, params, num_micro_batches=2)
        assert [len(l) for l in pm.stage_layers] == [3, 2]

    def test_training_matches_serial_sgd(self, deep_cfg, deep_setup):
        params_pipe, ids, labels = deep_setup
        params_ref = init_transformer_params(deep_cfg, seed=1)
        ref = ReferenceTransformer(deep_cfg, params_ref)
        opt_ref = SerialSGD(params_ref, lr=0.05)
        sim = Simulator.for_flat(p=2)
        pm = PipelineModel(sim, deep_cfg, params_pipe, num_micro_batches=4)
        opt_pipe = SerialSGD(params_pipe, lr=0.05)
        for _ in range(3):
            _, grads = ref.loss_and_grads(ids, labels)
            opt_ref.step(grads)
            pm.zero_grads()
            pm.forward_backward(ids, labels)
            opt_pipe.step(pm.grads)
        np.testing.assert_allclose(
            params_pipe["layer0.mlp.w1"], params_ref["layer0.mlp.w1"], rtol=1e-9
        )

    def test_1f1b_uses_less_memory_than_gpipe(self, deep_cfg, deep_setup):
        params, ids, labels = deep_setup
        peaks = {}
        for schedule in ("gpipe", "1f1b"):
            sim = Simulator.for_flat(p=2)
            pm = PipelineModel(sim, deep_cfg, params, num_micro_batches=4,
                               schedule=schedule)
            pm.forward_backward(ids, labels)
            peaks[schedule] = sim.device(0).memory.peak
        assert peaks["1f1b"] < peaks["gpipe"]

    def test_more_microbatches_shrink_the_bubble(self):
        """Compute-dominated dryrun: T(m) tracks work·(1 + (S−1)/m).

        A small vocabulary keeps the last stage's LM-head work from
        unbalancing the pipeline (with v=51200 the head roughly doubles the
        last stage's load and becomes the bottleneck — a real effect, but
        not the one under test here).
        """
        cfg = ModelConfig(vocab_size=512, hidden_size=1024, num_heads=16,
                          num_layers=4, seq_len=128)
        params = init_transformer_params(cfg, backend="shape", dtype="float32")
        times = {}
        for m in (1, 4, 16):
            sim = Simulator.for_flat(p=4, backend="shape")
            pm = PipelineModel(sim, cfg, params, num_micro_batches=m)
            ids = ShapeArray((16, cfg.seq_len), "int64")
            pm.forward_backward(ids, ids)
            times[m] = sim.elapsed()
        assert times[16] < times[4] < times[1]
        assert times[1] / times[16] > 1.5  # m=1 is mostly bubble for S=4

    def test_validation(self, deep_cfg, deep_setup):
        params, ids, labels = deep_setup
        sim = Simulator.for_flat(p=2)
        with pytest.raises(ValueError):
            PipelineModel(sim, deep_cfg, params, schedule="zigzag")
        with pytest.raises(ValueError):
            PipelineModel(sim, deep_cfg, params, num_stages=3)
        pm = PipelineModel(sim, deep_cfg, params, num_micro_batches=3)
        with pytest.raises(ValueError):
            pm.forward_backward(ids, labels)  # 8 % 3 != 0
        cfg1 = tiny_config(num_layers=1)
        with pytest.raises(ValueError):
            PipelineModel(
                Simulator.for_flat(p=2), cfg1,
                init_transformer_params(cfg1, seed=0), num_stages=2,
            )

    def test_dryrun_execution(self, deep_cfg):
        params = init_transformer_params(deep_cfg, backend="shape", dtype="float32")
        sim = Simulator.for_flat(p=2, backend="shape")
        pm = PipelineModel(sim, deep_cfg, params, num_micro_batches=2)
        ids = ShapeArray((8, deep_cfg.seq_len), "int64")
        loss = pm.forward_backward(ids, ids)
        assert loss.shape == ()
        assert sim.elapsed() > 0
        assert sim.tracer is not None
