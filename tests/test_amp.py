"""Dynamic loss scaling: protocol correctness and training equivalence."""

import numpy as np
import pytest

from repro.core.model import OptimusModel
from repro.mesh.partition import assemble_any
from repro.nn.init import init_transformer_params
from repro.training.amp import DynamicLossScaler, grads_finite, scale_grads
from repro.training.optim import SGD
from tests.conftest import make_mesh


def _model_and_opt(cfg, lr=0.1, seed=1):
    params = init_transformer_params(cfg, seed=seed)
    model = OptimusModel(make_mesh(2), cfg, params)
    return model, SGD(model.parameters(), lr=lr)


class TestGradUtilities:
    def test_grads_finite_detects_nan_and_inf(self, cfg, batch):
        ids, labels = batch
        model, _ = _model_and_opt(cfg)
        model.forward(ids, labels)
        model.backward()
        assert grads_finite(model.parameters())
        p = model.named_parameters()["layer0.mlp.w1"]
        shard = p.grad.shards[next(iter(p.grad.shards))]
        shard[0, 0] = np.nan
        assert not grads_finite(model.parameters())
        shard[0, 0] = np.inf
        assert not grads_finite(model.parameters())

    def test_scale_grads(self, cfg, batch):
        ids, labels = batch
        model, _ = _model_and_opt(cfg)
        model.forward(ids, labels)
        model.backward()
        before = assemble_any(model.named_parameters()["layer0.mlp.w1"].grad)
        scale_grads(model.parameters(), 4.0)
        after = assemble_any(model.named_parameters()["layer0.mlp.w1"].grad)
        np.testing.assert_allclose(after, 4.0 * before)


class TestDynamicLossScaler:
    def test_scaled_training_equals_unscaled(self, cfg, batch):
        """Scale → backward → unscale → step must be bit-equal to plain
        training when no overflow occurs."""
        ids, labels = batch
        plain_model, plain_opt = _model_and_opt(cfg)
        amp_model, amp_opt = _model_and_opt(cfg)
        scaler = DynamicLossScaler(amp_opt, init_scale=2.0**8, growth_interval=100)
        for _ in range(3):
            plain_opt.zero_grad()
            plain_model.forward(ids, labels)
            plain_model.backward()
            plain_opt.step()

            amp_opt.zero_grad()
            amp_model.forward(ids, labels)
            amp_model.backward()
            scale_grads(amp_model.parameters(), scaler.scale)  # "scaled loss"
            assert scaler.step()
        w_plain = assemble_any(plain_model.named_parameters()["layer1.attn.wo"].data)
        w_amp = assemble_any(amp_model.named_parameters()["layer1.attn.wo"].data)
        np.testing.assert_allclose(w_amp, w_plain, rtol=1e-12)

    def test_overflow_skips_step_and_backs_off(self, cfg, batch):
        ids, labels = batch
        model, opt = _model_and_opt(cfg)
        scaler = DynamicLossScaler(opt, init_scale=1024.0)
        model.forward(ids, labels)
        model.backward()
        w_before = assemble_any(model.named_parameters()["layer0.mlp.w1"].data).copy()
        p = model.named_parameters()["layer0.mlp.w1"]
        p.grad.shards[next(iter(p.grad.shards))][0, 0] = np.inf
        assert not scaler.step()
        assert scaler.scale == 512.0
        assert scaler.num_overflows == 1
        # parameters untouched, gradients cleared
        np.testing.assert_array_equal(
            assemble_any(model.named_parameters()["layer0.mlp.w1"].data), w_before
        )
        assert all(q.grad is None for q in model.parameters())

    def test_scale_grows_after_clean_interval(self, cfg, batch):
        ids, labels = batch
        model, opt = _model_and_opt(cfg)
        scaler = DynamicLossScaler(opt, init_scale=2.0, growth_interval=2)
        for _ in range(4):
            opt.zero_grad()
            model.forward(ids, labels)
            model.backward()
            scale_grads(model.parameters(), scaler.scale)
            assert scaler.step()
        assert scaler.scale == 8.0  # doubled twice (every 2 good steps)

    def test_scale_floor(self, cfg, batch):
        ids, labels = batch
        model, opt = _model_and_opt(cfg)
        scaler = DynamicLossScaler(opt, init_scale=2.0, min_scale=1.0)
        for _ in range(5):
            model.forward(ids, labels)
            model.backward()
            p = model.parameters()[0]
            p.grad.shards[next(iter(p.grad.shards))][0] = np.nan
            scaler.step()
        assert scaler.scale == 1.0
        assert scaler.state()["num_overflows"] == 5

    def test_scale_ceiling(self, cfg, batch):
        """Regression: growth used to double without bound, eventually
        reaching float inf and permanently overflowing every step."""
        ids, labels = batch
        model, opt = _model_and_opt(cfg)
        scaler = DynamicLossScaler(
            opt, init_scale=2.0**23, growth_interval=1, max_scale=2.0**24
        )
        for _ in range(3):
            opt.zero_grad()
            model.forward(ids, labels)
            model.backward()
            scale_grads(model.parameters(), scaler.scale)
            assert scaler.step()
        assert scaler.scale == 2.0**24  # clamped, not 2**26
        assert np.isfinite(scaler.scale)

    def test_default_ceiling(self, cfg, batch):
        _, opt = _model_and_opt(cfg)
        assert DynamicLossScaler(opt).max_scale == 2.0**24

    def test_bad_hyperparameters(self, cfg, batch):
        _, opt = _model_and_opt(cfg)
        with pytest.raises(ValueError):
            DynamicLossScaler(opt, init_scale=0)
        with pytest.raises(ValueError):
            DynamicLossScaler(opt, growth_factor=1.0)
        with pytest.raises(ValueError):
            DynamicLossScaler(opt, backoff_factor=1.5)
        with pytest.raises(ValueError):
            DynamicLossScaler(opt, init_scale=2.0**30)  # above max_scale
        with pytest.raises(ValueError):
            DynamicLossScaler(opt, init_scale=2.0, min_scale=4.0)
