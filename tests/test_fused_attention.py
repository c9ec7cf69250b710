"""Operation fusion for attention (paper §6): chunked online-softmax
attention must be numerically identical to the materialized version while
never allocating the [b, n, s, s] score tensor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.shape_array import ShapeArray
from repro.core.model import OptimusModel
from repro.megatron.model import MegatronModel
from repro.mesh.partition import assemble_any
from repro.nn.init import init_transformer_params
from repro.reference.attention import (
    attention_bwd,
    attention_fwd,
    fused_attention_bwd,
    fused_attention_flops,
    fused_attention_fwd,
)
from repro.runtime.simulator import Simulator
from tests.conftest import make_mesh


def _qkv(rng, b=2, n=3, s=16, d=4):
    return tuple(rng.normal(size=(b, n, s, d)) for _ in range(3))


class TestFusedKernels:
    @pytest.mark.parametrize("chunk", [1, 3, 5, 16, 64])
    def test_forward_matches_unfused(self, rng, chunk):
        q, k, v = _qkv(rng)
        out, _ = attention_fwd(q, k, v)
        fout, _, _ = fused_attention_fwd(q, k, v, chunk=chunk)
        np.testing.assert_allclose(fout, out, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("chunk", [1, 5, 7, 16])
    def test_backward_matches_unfused(self, rng, chunk):
        q, k, v = _qkv(rng)
        d_out = rng.normal(size=q.shape)
        out, probs = attention_fwd(q, k, v)
        dq, dk, dv = attention_bwd(q, k, v, probs, d_out)
        fout, m, l = fused_attention_fwd(q, k, v, chunk=chunk)
        fdq, fdk, fdv = fused_attention_bwd(q, k, v, fout, m, l, d_out, chunk=chunk)
        np.testing.assert_allclose(fdq, dq, rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(fdk, dk, rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(fdv, dv, rtol=1e-10, atol=1e-13)

    def test_numerically_stable_for_large_scores(self, rng):
        q, k, v = (x * 40 for x in _qkv(rng))
        fout, _, _ = fused_attention_fwd(q, k, v, chunk=4)
        assert np.isfinite(np.asarray(fout)).all()
        out, _ = attention_fwd(q, k, v)
        np.testing.assert_allclose(fout, out, rtol=1e-10)

    def test_dryrun(self):
        s = ShapeArray((2, 3, 16, 4), "float32")
        fout, m, l = fused_attention_fwd(s, s, s, chunk=4)
        assert fout.shape == (2, 3, 16, 4)
        assert m.shape == (2, 3, 16, 1)
        grads = fused_attention_bwd(s, s, s, fout, m, l, s, chunk=4)
        assert all(g.shape == (2, 3, 16, 4) for g in grads)

    def test_flops_model(self):
        assert fused_attention_flops(2, 3, 16, 4, backward=False) == pytest.approx(
            2 * 2.0 * 2 * 3 * 16 * 16 * 4
        )
        assert fused_attention_flops(2, 3, 16, 4, backward=True) == pytest.approx(
            5 * 2.0 * 2 * 3 * 16 * 16 * 4
        )

    @given(st.integers(1, 20), st.integers(1, 4), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_any_chunk_size_property(self, chunk, n, seed):
        rng = np.random.default_rng(seed)
        q, k, v = tuple(rng.normal(size=(1, n, 9, 3)) for _ in range(3))
        out, _ = attention_fwd(q, k, v)
        fout, _, _ = fused_attention_fwd(q, k, v, chunk=chunk)
        np.testing.assert_allclose(fout, out, rtol=1e-10, atol=1e-13)


class TestFusedInModels:
    def _assemble(self, p):
        return assemble_any(p.grad)

    def test_optimus_fused_equals_unfused(self, cfg, batch):
        ids, labels = batch
        results = {}
        for fused in (False, True):
            params = init_transformer_params(cfg, seed=1)
            model = OptimusModel(
                make_mesh(2), cfg, params, fused_attention=fused, attention_chunk=4
            )
            loss = model.forward(ids, labels)
            model.backward()
            results[fused] = (loss, {p.name: self._assemble(p) for p in model.parameters()})
        assert results[True][0] == pytest.approx(results[False][0], abs=1e-12)
        for name, g in results[True][1].items():
            np.testing.assert_allclose(g, results[False][1][name], rtol=1e-9, atol=1e-12)

    def test_megatron_fused_equals_unfused(self, cfg, batch):
        ids, labels = batch
        losses = {}
        for fused in (False, True):
            params = init_transformer_params(cfg, seed=1)
            model = MegatronModel(
                Simulator.for_flat(p=2), cfg, params,
                fused_attention=fused, attention_chunk=4,
            )
            losses[fused] = model.forward(ids, labels)
            model.backward()
        assert losses[True] == pytest.approx(losses[False], abs=1e-12)

    def test_fusion_reduces_attention_memory(self):
        """The §6 claim: no [b, n, s, s] allocation at score-heavy shapes."""
        from repro.config import ModelConfig

        cfg = ModelConfig(
            vocab_size=51200, hidden_size=256, num_heads=16, num_layers=2,
            seq_len=512,  # s ≫ h/n: scores dominate activations
        )
        peaks = {}
        for fused in (False, True):
            sim = Simulator.for_mesh(q=2, backend="shape")
            from repro.mesh.mesh import Mesh

            params = init_transformer_params(
                cfg, backend="shape", dtype="float32", include_embedding=False
            )
            model = OptimusModel(
                Mesh(sim, 2), cfg, params, stem_only=True,
                fused_attention=fused, attention_chunk=64,
            )
            model.stem_forward(16)
            model.stem_backward()
            peaks[fused] = sim.peak_memory()
        assert peaks[True] < 0.6 * peaks[False]

    def test_fusion_costs_one_extra_recompute_gemm(self, cfg, batch):
        ids, labels = batch
        flops = {}
        for fused in (False, True):
            params = init_transformer_params(cfg, seed=1)
            model = OptimusModel(
                make_mesh(2), cfg, params, fused_attention=fused, attention_chunk=4
            )
            model.forward(ids, labels)
            model.backward()
            flops[fused] = model.mesh.sim.device(0).flops_gemm
        assert flops[True] > flops[False]  # the recompute GEMMs
