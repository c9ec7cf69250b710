"""Checkpoint save/load: gather across every layout, cross-scheme restore,
atomic writes, and corruption detection."""

import os

import numpy as np
import pytest

from repro.config import tiny_config
from repro.core.model import OptimusModel
from repro.megatron.model import MegatronModel
from repro.nn.init import init_transformer_params
from repro.pipeline.engine import PipelineModel
from repro.reference.model import ReferenceTransformer
from repro.runtime.simulator import Simulator
from repro.serialization import (
    CheckpointCorruptError,
    gather_parameters,
    load_checkpoint,
    save_checkpoint,
)
from repro.training.optim import SGD
from tests.conftest import make_mesh


class TestGather:
    def test_gather_optimus_roundtrips_init(self, cfg, params, batch):
        model = OptimusModel(make_mesh(2), cfg, params)
        gathered = gather_parameters(model)
        assert set(gathered) == set(params)
        for name in params:
            np.testing.assert_array_equal(gathered[name], params[name])

    def test_gather_megatron(self, cfg, params):
        model = MegatronModel(Simulator.for_flat(p=3), cfg, params)
        gathered = gather_parameters(model)
        for name in params:
            np.testing.assert_array_equal(gathered[name], params[name])

    def test_gather_with_classifier_and_rank0_layout(self, cfg):
        params = init_transformer_params(cfg, seed=1, num_classes=2)
        model = OptimusModel(make_mesh(2), cfg, params)
        gathered = gather_parameters(model)
        np.testing.assert_array_equal(gathered["cls_head.weight"], params["cls_head.weight"])
        np.testing.assert_array_equal(gathered["cls_head.bias"], params["cls_head.bias"])

    def test_gather_reference_and_dict(self, cfg, params):
        ref = ReferenceTransformer(cfg, params)
        assert set(gather_parameters(ref)) == set(params)
        assert set(gather_parameters(params)) == set(params)

    def test_gather_rejects_garbage(self):
        with pytest.raises(TypeError):
            gather_parameters(42)


class TestSaveLoad:
    def test_roundtrip_with_metadata(self, cfg, params, tmp_path):
        model = OptimusModel(make_mesh(2), cfg, params)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, step=17, extra={"note": "hello"})
        loaded, meta = load_checkpoint(path)
        assert meta["step"] == 17
        assert meta["extra"]["note"] == "hello"
        assert meta["config"] == cfg
        for name in params:
            np.testing.assert_array_equal(loaded[name], params[name])

    def test_trained_weights_survive(self, cfg, batch, tmp_path):
        ids, labels = batch
        params = init_transformer_params(cfg, seed=1)
        model = OptimusModel(make_mesh(2), cfg, params)
        opt = SGD(model.parameters(), lr=0.1)
        for _ in range(2):
            opt.zero_grad()
            model.forward(ids, labels)
            model.backward()
            opt.step()
        loss_trained = model.forward(ids, labels)

        path = tmp_path / "trained.npz"
        save_checkpoint(path, model, step=2)
        loaded, meta = load_checkpoint(path)

        # restore into a *different* scheme at a different device count
        restored = MegatronModel(Simulator.for_flat(p=3), meta["config"], loaded)
        assert restored.forward(ids, labels) == pytest.approx(loss_trained, abs=1e-10)

    def test_restore_into_pipeline(self, tmp_path, rng):
        cfg = tiny_config(num_layers=4)
        params = init_transformer_params(cfg, seed=2)
        ids = rng.integers(0, cfg.vocab_size, size=(4, cfg.seq_len))
        labels = rng.integers(0, cfg.vocab_size, size=(4, cfg.seq_len))
        ref_loss = float(ReferenceTransformer(cfg, params).forward(ids, labels))

        path = tmp_path / "p.npz"
        save_checkpoint(path, params, config=cfg)
        loaded, meta = load_checkpoint(path)
        pm = PipelineModel(
            Simulator.for_flat(p=2), meta["config"], loaded, num_micro_batches=2
        )
        assert pm.forward_backward(ids, labels) == pytest.approx(ref_loss, abs=1e-10)

    def test_checkpoint_without_config(self, params, tmp_path):
        path = tmp_path / "bare.npz"
        save_checkpoint(path, params)
        loaded, meta = load_checkpoint(path)
        assert "config" not in meta
        assert set(loaded) == set(params)


class TestDurability:
    def test_save_normalizes_suffix_and_leaves_no_temp_files(self, params, tmp_path):
        written = save_checkpoint(tmp_path / "bare", params)
        assert written.endswith("bare.npz") and os.path.exists(written)
        # atomic write: the .ckpt-* staging file was renamed away
        assert os.listdir(tmp_path) == ["bare.npz"]

    def test_truncated_file_raises(self, params, tmp_path):
        path = save_checkpoint(tmp_path / "t.npz", params)
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) // 2])
        with pytest.raises(CheckpointCorruptError, match="truncated or corrupt"):
            load_checkpoint(path)

    def test_flipped_byte_raises(self, params, tmp_path):
        path = save_checkpoint(tmp_path / "f.npz", params)
        data = bytearray(open(path, "rb").read())
        data[len(data) // 3] ^= 0x40
        open(path, "wb").write(bytes(data))
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_doctored_array_fails_digest(self, params, tmp_path):
        # rewrite one array with valid zip framing but stale digest: only
        # the sha256 check can notice
        path = save_checkpoint(tmp_path / "d.npz", params)
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        name = next(k for k in arrays if not k.startswith("__"))
        arrays[name] = arrays[name] + 1.0
        np.savez(path, **arrays)
        with pytest.raises(CheckpointCorruptError, match="sha256"):
            load_checkpoint(path)
