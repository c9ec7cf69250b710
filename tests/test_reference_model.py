"""The serial reference transformer: values, gradients, dryrun execution."""

import numpy as np
import pytest

from repro.backend.shape_array import ShapeArray
from repro.config import tiny_config
from repro.nn.init import init_transformer_params
from repro.reference.model import ReferenceTransformer
from repro.reference.stack import LayerStack


@pytest.fixture
def model(cfg, params):
    return ReferenceTransformer(cfg, params)


class TestForward:
    def test_loss_is_finite_scalar(self, model, batch):
        ids, labels = batch
        loss = model.forward(ids, labels)
        assert np.isfinite(loss)
        assert float(loss) > 0

    def test_loss_near_log_v_at_init(self, cfg, params, batch):
        """Random init ⇒ near-uniform predictions ⇒ loss ≈ ln(v)."""
        ids, labels = batch
        loss = float(ReferenceTransformer(cfg, params).forward(ids, labels))
        assert abs(loss - np.log(cfg.vocab_size)) < 1.0

    def test_logits_shape(self, model, batch):
        ids, _ = batch
        logits = model.forward(ids)
        assert logits.shape == (ids.size, model.cfg.vocab_size)

    def test_deterministic(self, cfg, params, batch):
        ids, labels = batch
        l1 = ReferenceTransformer(cfg, params).forward(ids, labels)
        l2 = ReferenceTransformer(cfg, params).forward(ids, labels)
        assert float(l1) == float(l2)

    def test_batch_permutation_invariance(self, model, batch, rng):
        """Mean token loss is invariant under permuting the batch."""
        ids, labels = batch
        perm = rng.permutation(ids.shape[0])
        l1 = float(model.forward(ids, labels))
        l2 = float(model.forward(ids[perm], labels[perm]))
        assert l1 == pytest.approx(l2, rel=1e-12)


class TestBackward:
    def test_requires_forward_with_labels(self, model, batch):
        ids, _ = batch
        model.forward(ids)
        with pytest.raises(RuntimeError):
            model.backward()

    def test_all_params_get_grads(self, model, batch):
        ids, labels = batch
        model.forward(ids, labels)
        grads = model.backward()
        assert set(grads) == set(model.params)
        for name, g in grads.items():
            assert g.shape == model.params[name].shape, name
            assert np.isfinite(np.asarray(g)).all(), name

    @pytest.mark.parametrize(
        "name",
        [
            "embedding.table",
            "layer0.attn.wqkv",
            "layer0.attn.bqkv",
            "layer0.attn.wo",
            "layer0.attn.bo",
            "layer0.ln1.gamma",
            "layer0.ln2.beta",
            "layer1.mlp.w1",
            "layer1.mlp.b1",
            "layer1.mlp.w2",
            "layer1.mlp.b2",
            "final_ln.gamma",
            "final_ln.beta",
        ],
    )
    def test_gradients_match_finite_differences(self, cfg, params, batch, rng, name):
        ids, labels = batch
        model = ReferenceTransformer(cfg, params)
        model.forward(ids, labels)
        grads = model.backward()
        g = np.asarray(grads[name])
        x = params[name]
        eps = 1e-6
        # spot-check 4 random entries (full finite diff would be too slow)
        for _ in range(4):
            idx = tuple(rng.integers(0, d) for d in x.shape)
            old = x[idx]
            x[idx] = old + eps
            fp = float(ReferenceTransformer(cfg, params).forward(ids, labels))
            x[idx] = old - eps
            fm = float(ReferenceTransformer(cfg, params).forward(ids, labels))
            x[idx] = old
            num = (fp - fm) / (2 * eps)
            assert abs(num - g[idx]) < 1e-5 * max(1.0, abs(num)), (name, idx)

    def test_loss_and_grads_helper(self, model, batch):
        ids, labels = batch
        loss, grads = model.loss_and_grads(ids, labels)
        assert np.isfinite(loss)
        assert "embedding.table" in grads

    def test_zero_grads(self, model, batch):
        ids, labels = batch
        model.loss_and_grads(ids, labels)
        model.zero_grads()
        assert model.grads == {}


class TestLayerStackIsTheLayerMath:
    """The reference owns no layer math: its layer gradients are a
    stand-alone LayerStack's, bit for bit."""

    @pytest.mark.parametrize("branch", ["lm", "classification"])
    @pytest.mark.parametrize("seq_len", [8, 5])  # cfg.seq_len and not
    def test_layer_grads_equal_standalone_stack(self, cfg, rng, branch, seq_len):
        params = init_transformer_params(cfg, seed=1, num_classes=3)
        model = ReferenceTransformer(cfg, params)
        b = 4
        ids = rng.integers(0, cfg.vocab_size, size=(b, seq_len))
        seen = {}
        stack_backward = model.stack.backward

        def spy(dy):
            seen["dy"] = dy
            return stack_backward(dy)

        model.stack.backward = spy
        for _ in range(2):  # the second iteration must assign, not accumulate
            if branch == "lm":
                model.forward(ids, rng.integers(0, cfg.vocab_size, size=(b, seq_len)))
                grads = model.backward()
            else:
                model.forward_classification(ids, rng.integers(0, 3, size=(b,)))
                grads = model.backward_classification()

            alone = LayerStack(cfg, params)
            alone.forward(params["embedding.table"][ids.reshape(-1)], b, seq_len)
            alone.backward(seen["dy"])
            assert set(alone.grads) == {k for k in grads if k.startswith("layer")}
            for name, g in alone.grads.items():
                np.testing.assert_array_equal(grads[name], g, err_msg=name)


class TestDryrun:
    def test_shape_mode_runs_end_to_end(self, cfg):
        params = init_transformer_params(cfg, backend="shape")
        model = ReferenceTransformer(cfg, params)
        ids = ShapeArray((4, cfg.seq_len), "int64")
        labels = ShapeArray((4, cfg.seq_len), "int64")
        loss = model.forward(ids, labels)
        assert loss.shape == ()
        grads = model.backward()
        for name, g in grads.items():
            assert tuple(g.shape) == tuple(params[name].shape), name


class TestArchitectureVariants:
    def test_single_layer(self, rng):
        cfg = tiny_config(num_layers=1)
        params = init_transformer_params(cfg, seed=3)
        ids = rng.integers(0, cfg.vocab_size, size=(2, cfg.seq_len))
        labels = rng.integers(0, cfg.vocab_size, size=(2, cfg.seq_len))
        loss, grads = ReferenceTransformer(cfg, params).loss_and_grads(ids, labels)
        assert np.isfinite(loss)
        assert "layer0.mlp.w1" in grads

    def test_wrong_hidden_head_combo_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(hidden_size=25, num_heads=6)
