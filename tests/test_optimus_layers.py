"""Optimus layer modules vs the serial reference, layer by layer."""

import numpy as np
import pytest

from repro.config import tiny_config
from repro.core.embedding import Embedding2D, LMHead2D
from repro.core.layers import MLP2D, LayerNorm2D, Linear2D, SelfAttention2D
from repro.core.loss import CrossEntropy2D
from repro.mesh.partition import (
    assemble_blocked_2d,
    assemble_row0_cols,
    distribute_blocked_2d,
    distribute_row_blocked,
)
from repro.reference import functional as F
from tests.conftest import make_mesh


def _blocked(mesh, a):
    return distribute_blocked_2d(mesh, a)


@pytest.mark.parametrize("q", [1, 2, 3])
class TestLinear2D:
    def test_forward_backward(self, q, rng):
        mesh = make_mesh(q)
        T, fin, fout = 6 * q, 4 * q, 8 * q
        w = rng.normal(size=(fin, fout))
        bias = rng.normal(size=fout)
        x = rng.normal(size=(T, fin))
        dy = rng.normal(size=(T, fout))

        lin = Linear2D(mesh, "lin", w, bias)
        y = lin.forward(_blocked(mesh, x))
        np.testing.assert_allclose(assemble_blocked_2d(y), x @ w + bias, rtol=1e-12)

        dx = lin.backward(_blocked(mesh, dy))
        np.testing.assert_allclose(assemble_blocked_2d(dx), dy @ w.T, rtol=1e-12)
        np.testing.assert_allclose(
            assemble_blocked_2d(lin.weight.grad), x.T @ dy, rtol=1e-12
        )
        np.testing.assert_allclose(
            assemble_row0_cols(lin.bias.grad), dy.sum(axis=0), rtol=1e-12
        )

    def test_no_bias(self, q, rng):
        mesh = make_mesh(q)
        w = rng.normal(size=(2 * q, 2 * q))
        lin = Linear2D(mesh, "lin", w)
        x = rng.normal(size=(4 * q, 2 * q))
        y = lin.forward(_blocked(mesh, x))
        np.testing.assert_allclose(assemble_blocked_2d(y), x @ w, rtol=1e-12)
        assert lin.bias is None

    def test_grad_accumulates(self, q, rng):
        mesh = make_mesh(q)
        w = rng.normal(size=(2 * q, 2 * q))
        lin = Linear2D(mesh, "lin", w)
        x = rng.normal(size=(2 * q, 2 * q))
        dy = rng.normal(size=(2 * q, 2 * q))
        for _ in range(2):
            lin.forward(_blocked(mesh, x))
            lin.backward(_blocked(mesh, dy))
        np.testing.assert_allclose(
            assemble_blocked_2d(lin.weight.grad), 2 * (x.T @ dy), rtol=1e-12
        )

    def test_backward_before_forward(self, q, rng):
        mesh = make_mesh(q)
        lin = Linear2D(mesh, "lin", rng.normal(size=(q, q)))
        with pytest.raises(RuntimeError):
            lin.backward(_blocked(mesh, rng.normal(size=(q, q))))


@pytest.mark.parametrize("q", [1, 2, 3])
class TestLayerNorm2D:
    def test_matches_reference(self, q, rng):
        mesh = make_mesh(q)
        T, h = 4 * q, 6 * q
        gamma, beta = rng.normal(size=h), rng.normal(size=h)
        x = rng.normal(size=(T, h)) * 2 + 1
        dy = rng.normal(size=(T, h))

        ln = LayerNorm2D(mesh, "ln", gamma, beta, eps=1e-5)
        out = ln.forward(_blocked(mesh, x))
        ref_out, x_hat, inv_std = F.layernorm_fwd(x, gamma, beta, 1e-5)
        np.testing.assert_allclose(assemble_blocked_2d(out), ref_out, rtol=1e-10)

        dx = ln.backward(_blocked(mesh, dy))
        ref_dx, ref_dg, ref_db = F.layernorm_bwd(dy, x_hat, inv_std, gamma)
        np.testing.assert_allclose(assemble_blocked_2d(dx), ref_dx, rtol=1e-9)
        np.testing.assert_allclose(assemble_row0_cols(ln.gamma.grad), ref_dg, rtol=1e-9)
        np.testing.assert_allclose(assemble_row0_cols(ln.beta.grad), ref_db, rtol=1e-9)


@pytest.mark.parametrize("q", [1, 2, 3])
class TestSelfAttention2D:
    def test_matches_reference_attention(self, q, rng):
        """Full attention sub-block vs an inline serial computation."""
        cfg = tiny_config()
        mesh = make_mesh(q)
        b, s, h, n, d = 6, cfg.seq_len, cfg.hidden_size, cfg.num_heads, cfg.head_dim
        wqkv = rng.normal(size=(h, 3 * h))
        bqkv = rng.normal(size=3 * h)
        wo = rng.normal(size=(h, h))
        bo = rng.normal(size=h)
        x = rng.normal(size=(b * s, h))

        attn = SelfAttention2D(mesh, cfg, "attn", wqkv, bqkv, wo, bo)
        out = attn.forward(_blocked(mesh, x), b)

        # serial computation with the same head-major layout
        qkv = (x @ wqkv + bqkv).reshape(b, s, n, 3, d)
        qh, kh, vh = (qkv[:, :, :, k, :].transpose(0, 2, 1, 3) for k in range(3))
        probs = F.softmax((qh @ kh.transpose(0, 1, 3, 2)) / np.sqrt(d))
        ctx = (probs @ vh).transpose(0, 2, 1, 3).reshape(b * s, h)
        expected = ctx @ wo + bo
        np.testing.assert_allclose(assemble_blocked_2d(out), expected, rtol=1e-10)

    def test_backward_shapes_and_grads(self, q, rng):
        cfg = tiny_config()
        mesh = make_mesh(q)
        b, s, h = 6, cfg.seq_len, cfg.hidden_size
        attn = SelfAttention2D(
            mesh, cfg, "attn",
            rng.normal(size=(h, 3 * h)), rng.normal(size=3 * h),
            rng.normal(size=(h, h)), rng.normal(size=h),
        )
        x = rng.normal(size=(b * s, h))
        attn.forward(_blocked(mesh, x), b)
        dx = attn.backward(_blocked(mesh, rng.normal(size=(b * s, h))))
        assert dx.global_shape == (b * s, h)
        for p in attn.parameters():
            assert p.grad is not None, p.name


@pytest.mark.parametrize("q", [1, 2])
class TestMLP2D:
    def test_matches_serial(self, q, rng):
        mesh = make_mesh(q)
        T, h = 4 * q, 4 * q
        w1, b1 = rng.normal(size=(h, 4 * h)), rng.normal(size=4 * h)
        w2, b2 = rng.normal(size=(4 * h, h)), rng.normal(size=h)
        x = rng.normal(size=(T, h))
        dy = rng.normal(size=(T, h))

        mlp = MLP2D(mesh, "mlp", w1, b1, w2, b2)
        out = mlp.forward(_blocked(mesh, x))
        expected = F.gelu(x @ w1 + b1) @ w2 + b2
        np.testing.assert_allclose(assemble_blocked_2d(out), expected, rtol=1e-10)

        dx = mlp.backward(_blocked(mesh, dy))
        pre = x @ w1 + b1
        d_act = dy @ w2.T
        d_pre = F.gelu_bwd(pre, d_act)
        np.testing.assert_allclose(assemble_blocked_2d(dx), d_pre @ w1.T, rtol=1e-9)


@pytest.mark.parametrize("q", [1, 2, 3])
class TestEmbedding2D:
    def test_lookup(self, q, rng):
        cfg = tiny_config()
        mesh = make_mesh(q)
        table = rng.normal(size=(cfg.vocab_size, cfg.hidden_size))
        emb = Embedding2D(mesh, cfg, table)
        b = 6
        ids = rng.integers(0, cfg.vocab_size, size=(b, cfg.seq_len))
        out = emb.forward(distribute_row_blocked(mesh, ids))
        np.testing.assert_allclose(
            assemble_blocked_2d(out), table[ids.reshape(-1)], rtol=1e-12
        )

    def test_backward_scatter(self, q, rng):
        cfg = tiny_config()
        mesh = make_mesh(q)
        table = rng.normal(size=(cfg.vocab_size, cfg.hidden_size))
        emb = Embedding2D(mesh, cfg, table)
        b = 6
        ids = rng.integers(0, cfg.vocab_size, size=(b, cfg.seq_len))
        emb.forward(distribute_row_blocked(mesh, ids))
        d_out = rng.normal(size=(b * cfg.seq_len, cfg.hidden_size))
        emb.backward(_blocked(mesh, d_out))
        expected = np.zeros_like(table)
        np.add.at(expected, ids.reshape(-1), d_out)
        np.testing.assert_allclose(
            assemble_blocked_2d(emb.table.grad), expected, rtol=1e-12
        )


@pytest.mark.parametrize("q", [1, 2, 3])
class TestLMHeadAndLoss2D:
    def test_logits_and_ce(self, q, rng):
        cfg = tiny_config()
        mesh = make_mesh(q)
        table = rng.normal(size=(cfg.vocab_size, cfg.hidden_size))
        emb = Embedding2D(mesh, cfg, table)
        head = LMHead2D(mesh, emb)
        ce = CrossEntropy2D(mesh)
        b = 6
        T = b * cfg.seq_len
        x = rng.normal(size=(T, cfg.hidden_size))
        labels = rng.integers(0, cfg.vocab_size, size=(b, cfg.seq_len))

        logits = head.forward(_blocked(mesh, x))
        np.testing.assert_allclose(assemble_blocked_2d(logits), x @ table.T, rtol=1e-10)

        loss = ce.forward(logits, distribute_row_blocked(mesh, labels))
        ref_loss, ref_probs = F.cross_entropy_fwd(x @ table.T, labels.reshape(-1))
        assert loss == pytest.approx(float(ref_loss.mean()), rel=1e-10)

        dlogits = ce.backward()
        ref_dl = F.cross_entropy_bwd(ref_probs, labels.reshape(-1), np.full(T, 1.0 / T))
        np.testing.assert_allclose(assemble_blocked_2d(dlogits), ref_dl, rtol=1e-9)

        dx = head.backward(dlogits)
        np.testing.assert_allclose(assemble_blocked_2d(dx), ref_dl @ table, rtol=1e-9)
        np.testing.assert_allclose(
            assemble_blocked_2d(emb.table.grad), ref_dl.T @ x, rtol=1e-9
        )
