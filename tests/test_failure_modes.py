"""Failure injection and misuse: the library must fail loudly and leave
diagnosable state, never compute silently wrong results."""

import numpy as np
import pytest

from repro.backend.shape_array import ShapeArray
from repro.config import tiny_config
from repro.core.model import OptimusModel
from repro.core.summa import summa_ab
from repro.megatron.model import MegatronModel
from repro.mesh.mesh import Mesh
from repro.mesh.partition import distribute_blocked_2d
from repro.nn.init import init_transformer_params
from repro.runtime.memory import OutOfDeviceMemory
from repro.runtime.simulator import Simulator
from tests.conftest import make_mesh


class TestOutOfMemoryInjection:
    def test_oom_raised_mid_model_run(self, cfg, batch):
        """Strict capacity: a too-large run dies with a diagnosable OOM."""
        ids, labels = batch
        sim = Simulator.for_mesh(q=2, strict_memory=True)
        # shrink the budget far below what the model needs
        for d in sim.devices:
            d.memory.capacity = 64 * 1024
        params = init_transformer_params(cfg, seed=1)
        with pytest.raises(OutOfDeviceMemory) as ei:
            model = OptimusModel(Mesh(sim, 2), cfg, params)
            model.forward(ids, labels)
        err = ei.value
        assert 0 <= err.rank < 4
        assert err.requested > 0
        assert err.capacity == 64 * 1024
        assert "OOM" in str(err)

    def test_oom_identifies_the_binding_rank(self):
        sim = Simulator.for_flat(p=3, strict_memory=True)
        sim.device(1).memory.capacity = 10
        sim.device(1).memory.alloc(5)
        with pytest.raises(OutOfDeviceMemory) as ei:
            sim.device(1).memory.alloc(6)
        assert ei.value.rank == 1
        assert ei.value.current == 5

    def test_larger_batch_ooms_first(self, cfg):
        """The Fig. 9 mechanism, observed through the exception path."""
        budget = 256 * 1024
        outcomes = {}
        for b in (4, 32):
            sim = Simulator.for_mesh(q=2, strict_memory=True)
            for d in sim.devices:
                d.memory.capacity = budget
            params = init_transformer_params(cfg, seed=1)
            model = OptimusModel(Mesh(sim, 2), cfg, params)
            ids = np.zeros((b, cfg.seq_len), dtype=np.int64)
            try:
                model.forward(ids, ids)
                model.backward()
                outcomes[b] = "ok"
            except OutOfDeviceMemory:
                outcomes[b] = "oom"
        assert outcomes[4] == "ok"
        assert outcomes[32] == "oom"


class TestShapeAndLayoutMisuse:
    def test_summa_rejects_mismatched_global_dims(self, rng):
        mesh = make_mesh(2)
        a = distribute_blocked_2d(mesh, rng.normal(size=(4, 6)))
        b = distribute_blocked_2d(mesh, rng.normal(size=(8, 4)))
        with pytest.raises(ValueError, match="inner dims"):
            summa_ab(mesh, a, b)

    def test_dryrun_catches_invalid_config_shapes(self):
        """Shape propagation makes a dryrun a real validity check."""
        cfg = tiny_config()
        mesh = make_mesh(2, backend="shape")
        params = init_transformer_params(cfg, backend="shape")
        model = OptimusModel(mesh, cfg, params)
        bad_ids = ShapeArray((4, cfg.seq_len + 1), "int64")
        with pytest.raises(ValueError):
            model.forward(bad_ids, bad_ids)

    def test_double_backward_rejected(self, cfg, params, batch):
        ids, labels = batch
        model = OptimusModel(make_mesh(2), cfg, params)
        model.forward(ids, labels)
        model.backward()
        with pytest.raises(RuntimeError):
            model.backward()

    def test_megatron_heads_constraint_fails_fast(self, params, batch):
        """The §5.2 divisibility pain, surfaced as a construction-time error
        message naming the offending quantity."""
        cfg = tiny_config()  # 6 heads
        ids, labels = batch
        sim = Simulator.for_flat(p=4)
        model = MegatronModel(sim, cfg, params)
        with pytest.raises(ValueError, match="heads 6 % p=4"):
            model.forward(ids, labels)

    def test_grad_layout_mismatch_rejected(self, cfg, params, rng):
        from repro.core.param import DistParam
        from repro.mesh.partition import distribute_replicated

        mesh = make_mesh(2)
        p = DistParam("w", distribute_blocked_2d(mesh, rng.normal(size=(4, 4))))
        wrong = distribute_replicated(mesh, rng.normal(size=(4, 4)))
        with pytest.raises(ValueError, match="layout"):
            p.add_grad(wrong)


class TestStateAfterFailure:
    def test_allocator_state_survives_oom(self):
        """After an OOM the meter still balances — no corrupted accounting."""
        sim = Simulator.for_flat(p=1, strict_memory=True)
        m = sim.device(0).memory
        m.capacity = 100
        m.alloc(80, "a")
        with pytest.raises(OutOfDeviceMemory):
            m.alloc(30, "b")
        assert m.current == 80
        assert m.by_tag.get("b", 0) == 0
        m.free(80, "a")
        assert m.current == 0

    def test_model_reusable_after_validation_error(self, cfg, params, batch):
        ids, labels = batch
        model = OptimusModel(make_mesh(2), cfg, params)
        with pytest.raises(ValueError):
            model.forward(ids[:3], labels[:3])  # b=3 not divisible by q=2
        # a correct call afterwards still works
        assert np.isfinite(model.forward(ids, labels))
