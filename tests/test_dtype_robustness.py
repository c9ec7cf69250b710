"""Precision robustness: the distributed numerics at float32, and the
stability constructions (max-subtracted softmax/CE) under extreme inputs."""

import numpy as np
import pytest

from repro.core.model import OptimusModel
from repro.megatron.model import MegatronModel
from repro.mesh.partition import assemble_any, distribute_blocked_2d, distribute_row_blocked
from repro.nn.init import init_transformer_params
from repro.reference.model import ReferenceTransformer
from repro.runtime.simulator import Simulator
from tests.conftest import make_mesh


class TestFloat32Training:
    def test_optimus_float32_matches_reference_float32(self, cfg, batch):
        ids, labels = batch
        params32 = init_transformer_params(cfg, seed=1, dtype="float32")
        ref_loss = float(ReferenceTransformer(cfg, params32).forward(ids, labels))
        model = OptimusModel(make_mesh(2), cfg, params32)
        loss = model.forward(ids, labels)
        # float32: distributed reduction order may differ in the last ulps
        assert loss == pytest.approx(ref_loss, rel=1e-5)
        model.backward()
        for p in model.parameters():
            g = np.asarray(assemble_any(p.grad))
            assert np.isfinite(g).all(), p.name
            assert g.dtype == np.float32, p.name

    def test_float32_close_to_float64(self, cfg, batch):
        """Same seed: the two precisions agree to float32 resolution."""
        ids, labels = batch
        losses = {}
        for dtype in ("float32", "float64"):
            params = init_transformer_params(cfg, seed=1, dtype=dtype)
            losses[dtype] = float(ReferenceTransformer(cfg, params).forward(ids, labels))
        assert losses["float32"] == pytest.approx(losses["float64"], rel=1e-4)

    def test_megatron_float32(self, cfg, batch):
        ids, labels = batch
        params32 = init_transformer_params(cfg, seed=1, dtype="float32")
        model = MegatronModel(Simulator.for_flat(p=3), cfg, params32)
        loss = model.forward(ids, labels)
        assert np.isfinite(loss)
        model.backward()


class TestNumericalStability:
    def test_distributed_ce_with_huge_logits(self, cfg, rng):
        """The row-all-reduced max subtraction must keep CE finite even when
        raw logits would overflow exp()."""
        from repro.core.embedding import Embedding2D, LMHead2D
        from repro.core.loss import CrossEntropy2D

        mesh = make_mesh(2)
        table = rng.normal(size=(cfg.vocab_size, cfg.hidden_size)) * 60.0
        emb = Embedding2D(mesh, cfg, table)
        head = LMHead2D(mesh, emb)
        ce = CrossEntropy2D(mesh)
        b = 4
        x = rng.normal(size=(b * cfg.seq_len, cfg.hidden_size)) * 60.0
        logits = head.forward(distribute_blocked_2d(mesh, x))
        labels = rng.integers(0, cfg.vocab_size, size=(b, cfg.seq_len))
        loss = ce.forward(logits, distribute_row_blocked(mesh, labels))
        assert np.isfinite(loss)
        dlogits = ce.backward()
        assert np.isfinite(np.asarray(assemble_any(dlogits))).all()

    def test_layernorm_near_constant_input(self, cfg, rng):
        """Var ≈ 0 inputs: eps keeps inv_std finite in the 2D layer too."""
        from repro.core.layers import LayerNorm2D

        mesh = make_mesh(2)
        h = cfg.hidden_size
        ln = LayerNorm2D(mesh, "ln", np.ones(h), np.zeros(h), eps=1e-5)
        x = np.full((8, h), 3.0) + rng.normal(size=(8, h)) * 1e-12
        out = ln.forward(distribute_blocked_2d(mesh, x))
        vals = np.asarray(assemble_any(out))
        assert np.isfinite(vals).all()
        dx = ln.backward(distribute_blocked_2d(mesh, rng.normal(size=(8, h))))
        assert np.isfinite(np.asarray(assemble_any(dx))).all()

    def test_gelu_extreme_inputs(self):
        from repro.reference import functional as F

        x = np.array([-1e4, -50.0, 0.0, 50.0, 1e4])
        y = F.gelu(x)
        g = F.gelu_grad(x)
        assert np.isfinite(y).all() and np.isfinite(g).all()
        np.testing.assert_allclose(y[-1], x[-1])
        np.testing.assert_allclose(y[0], 0.0, atol=1e-12)
