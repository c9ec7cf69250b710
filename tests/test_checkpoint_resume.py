"""Full-state checkpoint round-trips: save mid-run, restore into a fresh
trainer, and continue — bit-identically for a same-shape restore, and
losslessly (same global state, deterministic continuation) across device
counts, where float summation order legitimately differs in the last ulp."""

from __future__ import annotations

import numpy as np

from repro.config import tiny_config
from repro.core.model import OptimusModel
from repro.megatron.model import MegatronModel
from repro.nn.init import init_transformer_params
from repro.runtime.simulator import Simulator
from repro.serialization import gather_parameters, load_training_checkpoint
from repro.training.amp import DynamicLossScaler
from repro.training.data import BatchStream
from repro.training.optim import Adam
from repro.training.schedule import warmup_cosine
from repro.training.trainer import Trainer, make_serial_trainer
from tests.conftest import make_mesh

_SEED = 11
_BATCH = 4


def _optimus_trainer(cfg, with_scaler=False):
    model = OptimusModel(make_mesh(2), cfg, init_transformer_params(cfg, seed=1))
    optimizer = Adam(model.parameters(), lr=1e-2)
    kw = {}
    if with_scaler:
        kw["scaler"] = DynamicLossScaler(optimizer)
        kw["rng"] = np.random.default_rng(5)
    return Trainer(
        model,
        optimizer,
        BatchStream.copy_task(cfg, _BATCH, seed=_SEED),
        lr_schedule=warmup_cosine(1e-2, warmup_steps=3, total_steps=20),
        **kw,
    )


def _megatron_trainer(cfg, p=2):
    model = MegatronModel(
        Simulator.for_flat(p=p), cfg, init_transformer_params(cfg, seed=1)
    )
    return Trainer(
        model,
        Adam(model.parameters(), lr=1e-2),
        BatchStream.copy_task(cfg, _BATCH, seed=_SEED),
    )


def _serial_trainer(cfg):
    return make_serial_trainer(
        cfg, BatchStream.copy_task(cfg, _BATCH, seed=_SEED), seed=1
    )


def _interrupted(make, cfg, tmp_path, total=6, at=3, **kw):
    """(uninterrupted losses, resumed-continuation losses) for a trainer
    factory; the resumed run restores into a *fresh* trainer."""
    full = make(cfg, **kw).train_steps(total).losses

    first = make(cfg, **kw)
    first.train_steps(at)
    path = first.save(tmp_path / "mid")

    resumed = make(cfg, **kw)
    assert resumed.resume(path) == at
    cont = resumed.train_steps(total - at).losses
    return full, cont, resumed


class TestSameShapeResume:
    def test_serial_bit_exact(self, cfg, tmp_path):
        full, cont, _ = _interrupted(lambda c: _serial_trainer(c), cfg, tmp_path)
        assert cont == full[3:]  # bit-exact, not approx

    def test_optimus_bit_exact(self, cfg, tmp_path):
        full, cont, _ = _interrupted(_optimus_trainer, cfg, tmp_path)
        assert cont == full[3:]

    def test_optimus_with_scaler_rng_and_schedule(self, cfg, tmp_path):
        full, cont, resumed = _interrupted(
            _optimus_trainer, cfg, tmp_path, with_scaler=True
        )
        assert cont == full[3:]
        # the restored trainer carried the AMP scale and RNG stream along
        reference = _optimus_trainer(cfg, with_scaler=True)
        reference.train_steps(6)
        assert resumed.scaler.state() == reference.scaler.state()
        assert resumed.rng.integers(1 << 30) == reference.rng.integers(1 << 30)

    def test_megatron_bit_exact(self, cfg, tmp_path):
        full, cont, _ = _interrupted(_megatron_trainer, cfg, tmp_path)
        assert cont == full[3:]

    def test_resume_rewinds_a_run_that_went_past(self, cfg, tmp_path):
        trainer = _optimus_trainer(cfg)
        losses = list(trainer.train_steps(3).losses)
        path = trainer.save(tmp_path / "rewind")
        trainer.train_steps(3)  # overshoot, then roll back
        assert trainer.resume(path) == 3
        assert trainer.log.losses == losses  # log truncated to the restore
        trainer.train_steps(1)
        fresh = _optimus_trainer(cfg)
        assert trainer.log.losses == fresh.train_steps(4).losses


class TestCrossDeviceCountResume:
    """A checkpoint is a *global* state: restoring into a different device
    count is lossless, though the continued trajectory may differ in the
    last ulp (float summation order)."""

    def test_megatron_p2_checkpoint_restores_into_p3(self, tmp_path):
        cfg = tiny_config(num_layers=2)  # heads=6: p in {1, 2, 3, 6} valid
        source = _megatron_trainer(cfg, p=2)
        source.train_steps(3)
        path = source.save(tmp_path / "p2")
        cont2 = list(source.train_steps(3).losses)[3:]

        state = load_training_checkpoint(path)
        resumed = _megatron_trainer(cfg, p=3)
        resumed.resume(state)

        # lossless: the re-gathered global parameters are bit-identical
        restored = gather_parameters(resumed.model)
        for name, arr in state.params.items():
            np.testing.assert_array_equal(restored[name], arr)
        assert resumed.step == 3
        assert resumed.optimizer.t == source.optimizer.t - 3

        cont3 = resumed.train_steps(3).losses
        np.testing.assert_allclose(cont3, cont2, rtol=0, atol=1e-9)

        # and the p=3 continuation is itself deterministic
        again = _megatron_trainer(cfg, p=3)
        again.resume(load_training_checkpoint(path))
        assert again.train_steps(3).losses == cont3
