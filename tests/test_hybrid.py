"""Hybrid data × tensor parallelism: exact equivalence with full-batch
training, replica consistency over optimizer steps, mesh offsets."""

import numpy as np
import pytest

from repro.backend.shape_array import ShapeArray
from repro.config import tiny_config
from repro.core.model import OptimusModel
from repro.hardware.specs import frontera_rtx
from repro.hybrid.data_parallel import DataParallel
from repro.mesh.mesh import Mesh
from repro.mesh.partition import assemble_any, assemble_blocked_2d, distribute_blocked_2d
from repro.nn.init import init_transformer_params
from repro.reference.model import ReferenceTransformer
from repro.runtime.simulator import Simulator
from repro.training.optim import SGD


def _sim(total_ranks, backend="numpy"):
    nodes = -(-total_ranks // 4)
    return Simulator(frontera_rtx(nodes), num_ranks=total_ranks, backend=backend)


class TestMeshOffsets:
    def test_offset_mesh_coordinates(self):
        sim = _sim(8)
        mesh = Mesh(sim, 2, rank_offset=4)
        assert list(mesh.ranks) == [4, 5, 6, 7]
        assert mesh.rank(1, 1) == 7
        assert mesh.coords(5) == (0, 1)
        with pytest.raises(ValueError):
            mesh.coords(3)

    def test_offset_mesh_out_of_range(self):
        sim = _sim(4)
        with pytest.raises(ValueError):
            Mesh(sim, 2, rank_offset=2)

    def test_offset_model_matches_reference(self, cfg, params, batch):
        """A full Optimus model on ranks [4, 8) — nothing may assume rank 0."""
        ids, labels = batch
        ref_loss = float(ReferenceTransformer(cfg, params).forward(ids, labels))
        sim = _sim(8)
        model = OptimusModel(Mesh(sim, 2, rank_offset=4), cfg, params)
        assert model.forward(ids, labels) == pytest.approx(ref_loss, abs=1e-10)
        model.backward()
        # ranks 0–3 untouched
        assert sim.device(0).flops == 0
        assert sim.device(5).flops > 0

    def test_offset_blocked_partition(self, rng):
        sim = _sim(8)
        mesh = Mesh(sim, 2, rank_offset=4)
        a = rng.normal(size=(4, 4))
        dt = distribute_blocked_2d(mesh, a)
        assert set(dt.shards) == {4, 5, 6, 7}
        np.testing.assert_array_equal(assemble_blocked_2d(dt), a)


class TestDataParallelEquivalence:
    @pytest.mark.parametrize("R,q", [(2, 1), (2, 2), (3, 1)])
    def test_loss_and_grads_match_full_batch(self, cfg, rng, R, q):
        b = 2 * R * max(q, 1)  # divisible by R replicas and by q per replica
        ids = rng.integers(0, cfg.vocab_size, size=(b, cfg.seq_len))
        labels = rng.integers(0, cfg.vocab_size, size=(b, cfg.seq_len))
        params = init_transformer_params(cfg, seed=1)
        ref = ReferenceTransformer(cfg, params)
        ref_loss = float(ref.forward(ids, labels))
        ref_grads = ref.backward()

        dp = DataParallel(_sim(R * q * q), cfg,
                          init_transformer_params(cfg, seed=1), R, q)
        loss = dp.forward_backward(ids, labels)
        assert loss == pytest.approx(ref_loss, abs=1e-10)
        for r in range(R):
            for p in dp.replica(r).parameters():
                np.testing.assert_allclose(
                    assemble_any(p.grad), ref_grads[p.name],
                    rtol=1e-8, atol=1e-11, err_msg=f"replica {r} {p.name}",
                )

    def test_training_keeps_replicas_identical(self, cfg, rng):
        ids = rng.integers(0, cfg.vocab_size, size=(8, cfg.seq_len))
        labels = rng.integers(0, cfg.vocab_size, size=(8, cfg.seq_len))
        dp = DataParallel(_sim(8), cfg, init_transformer_params(cfg, seed=1), 2, 2)
        opt = SGD(dp.parameters(), lr=0.1)
        for _ in range(3):
            opt.zero_grad()
            dp.forward_backward(ids, labels)
            opt.step()
        w0 = assemble_any(dp.replica(0).named_parameters()["layer0.mlp.w1"].data)
        w1 = assemble_any(dp.replica(1).named_parameters()["layer0.mlp.w1"].data)
        np.testing.assert_array_equal(w0, w1)

    def test_training_matches_serial(self, cfg, rng):
        from repro.training.optim import SerialSGD

        ids = rng.integers(0, cfg.vocab_size, size=(8, cfg.seq_len))
        labels = rng.integers(0, cfg.vocab_size, size=(8, cfg.seq_len))
        params_ref = init_transformer_params(cfg, seed=1)
        ref = ReferenceTransformer(cfg, params_ref)
        sopt = SerialSGD(params_ref, lr=0.1)
        dp = DataParallel(_sim(8), cfg, init_transformer_params(cfg, seed=1), 2, 2)
        dopt = SGD(dp.parameters(), lr=0.1)
        for _ in range(3):
            _, grads = ref.loss_and_grads(ids, labels)
            sopt.step(grads)
            dopt.zero_grad()
            dp.forward_backward(ids, labels)
            dopt.step()
        w = assemble_any(dp.replica(0).named_parameters()["layer1.attn.wo"].data)
        np.testing.assert_allclose(w, params_ref["layer1.attn.wo"], rtol=1e-9)

    def test_single_replica_degenerates_to_plain_optimus(self, cfg, batch):
        ids, labels = batch
        params = init_transformer_params(cfg, seed=1)
        dp = DataParallel(_sim(4), cfg, params, 1, 2)
        plain_loss = OptimusModel(Mesh(_sim(4), 2), cfg,
                                  init_transformer_params(cfg, seed=1)).forward(ids, labels)
        assert dp.forward_backward(ids, labels) == pytest.approx(plain_loss, abs=1e-12)


class TestDataParallelBehaviour:
    def test_validation(self, cfg):
        params = init_transformer_params(cfg, seed=1)
        with pytest.raises(ValueError):
            DataParallel(_sim(4), cfg, params, 2, 2)  # needs 8 ranks
        with pytest.raises(ValueError):
            DataParallel(_sim(4), cfg, params, 0, 2)
        dp = DataParallel(_sim(8), cfg, params, 2, 2)
        ids = np.zeros((5, cfg.seq_len), dtype=np.int64)
        with pytest.raises(ValueError):
            dp.forward_backward(ids, ids)  # 5 % 2 != 0

    def test_grad_sync_traffic_exists(self, cfg, rng):
        """Data parallelism costs an extra all-reduce per parameter shard."""
        ids = rng.integers(0, cfg.vocab_size, size=(8, cfg.seq_len))
        labels = rng.integers(0, cfg.vocab_size, size=(8, cfg.seq_len))
        params = init_transformer_params(cfg, seed=1)
        sim = _sim(8)
        sim.tracer.enabled = True
        dp = DataParallel(sim, cfg, params, 2, 2)
        dp.forward_backward(ids, labels)
        dp_groups = [e for e in sim.tracer.events
                     if e.kind == "all_reduce" and e.label == "dp"]
        assert len(dp_groups) > 0

    def test_build_convenience_and_dryrun(self):
        cfg = tiny_config()
        dp = DataParallel.build(2, 2, cfg, backend="shape")
        ids = ShapeArray((8, cfg.seq_len), "int64")
        loss = dp.forward_backward(ids, ids)
        assert loss.shape == ()
        assert dp.sim.elapsed() > 0
