"""Layout invariant validation and the simulator's strict mode."""

import numpy as np
import pytest

from repro.check.invariants import InvariantViolation, strict_mode, validate_dtensor
from repro.comm.group import ProcessGroup
from repro.core.model import OptimusModel
from repro.megatron.model import MegatronModel
from repro.mesh.dtensor import DTensor
from repro.mesh.layouts import BLOCKED_2D, RANK0, REPLICATED, ROW0_COLS, ROW_BLOCKED, SHARDED_1D
from repro.nn.init import init_transformer_params
from repro.runtime.simulator import Simulator
from tests.conftest import make_mesh


def _blocked(mesh, R, C, rng):
    q = mesh.q
    shards = {
        mesh.rank(i, j): rng.normal(size=(R // q, C // q))
        for i in range(q)
        for j in range(q)
    }
    return DTensor(mesh, BLOCKED_2D, shards, (R, C))


class TestValidLayouts:
    def test_full_models_validate(self, cfg, batch):
        ids, labels = batch
        params = init_transformer_params(cfg, seed=1)
        opt_model = OptimusModel(make_mesh(2), cfg, params)
        opt_model.forward(ids, labels)
        opt_model.backward()
        opt_model.validate_invariants()  # params and grads

        params = init_transformer_params(cfg, seed=1)
        meg_model = MegatronModel(Simulator.for_flat(p=3), cfg, params)
        meg_model.forward(ids, labels)
        meg_model.backward()
        meg_model.validate_invariants()

    def test_blocked_2d(self, mesh2, rng):
        validate_dtensor(_blocked(mesh2, 8, 6, rng))

    def test_blocked_2d_ragged_rows(self, mesh2, rng):
        """MoE routes unequal token counts per mesh row — legal as long as
        the row blocks still tile the global shape exactly."""
        shards = {
            mesh2.rank(0, 0): rng.normal(size=(5, 3)),
            mesh2.rank(0, 1): rng.normal(size=(5, 3)),
            mesh2.rank(1, 0): rng.normal(size=(1, 3)),
            mesh2.rank(1, 1): rng.normal(size=(1, 3)),
        }
        validate_dtensor(DTensor(mesh2, BLOCKED_2D, shards, (6, 6)))

    def test_sharded_1d_negative_axis(self, rng):
        sim = Simulator.for_flat(p=3)
        g = ProcessGroup(sim, range(3), kind="test")
        shards = {r: rng.normal(size=(4, 2)) for r in g.ranks}
        validate_dtensor(DTensor(g, SHARDED_1D(-1), shards, (4, 6)))

    def test_rank0(self, mesh2, rng):
        validate_dtensor(DTensor(mesh2, RANK0, {0: rng.normal(size=(3,))}, (3,)))


class TestViolations:
    def test_wrong_shard_shape(self, mesh2, rng):
        dt = _blocked(mesh2, 8, 6, rng)
        dt.shards[mesh2.rank(1, 1)] = rng.normal(size=(9, 9))
        with pytest.raises(InvariantViolation, match="disagree on shape"):
            validate_dtensor(dt)

    def test_blocks_do_not_tile(self, mesh2, rng):
        shards = {r: rng.normal(size=(3, 3)) for r in mesh2.ranks}
        dt = DTensor.__new__(DTensor)
        dt.owner, dt.layout, dt.shards, dt.global_shape = mesh2, BLOCKED_2D, shards, (8, 6)
        with pytest.raises(InvariantViolation, match="sum to"):
            validate_dtensor(dt)

    def test_replica_divergence(self, mesh2, rng):
        full = rng.normal(size=(4, 4))
        shards = {r: full.copy() for r in mesh2.ranks}
        dt = DTensor(mesh2, REPLICATED, shards, (4, 4))
        dt.shards[3][0, 0] += 1e-9  # tiny but not bit-identical
        with pytest.raises(InvariantViolation, match="bitwise"):
            validate_dtensor(dt)

    def test_row_blocked_replica_divergence(self, mesh2, rng):
        block = rng.normal(size=(2, 4))
        shards = {
            mesh2.rank(i, j): block.copy() + (1.0 if (i, j) == (1, 1) else 0.0)
            for i in range(2)
            for j in range(2)
        }
        dt = DTensor.__new__(DTensor)
        dt.owner, dt.layout, dt.shards, dt.global_shape = mesh2, ROW_BLOCKED, shards, (4, 4)
        with pytest.raises(InvariantViolation, match="not bit-identical"):
            validate_dtensor(dt)

    def test_missing_rank(self, mesh2, rng):
        shards = {mesh2.rank(0, j): rng.normal(size=(2,)) for j in range(2)}
        del shards[mesh2.rank(0, 1)]
        dt = DTensor.__new__(DTensor)
        dt.owner, dt.layout, dt.shards, dt.global_shape = mesh2, ROW0_COLS, shards, (4,)
        with pytest.raises(InvariantViolation, match="rank set"):
            validate_dtensor(dt)

    def test_dtype_mismatch(self, mesh2, rng):
        dt = _blocked(mesh2, 8, 6, rng)
        r = mesh2.rank(0, 0)
        dt.shards[r] = dt.shards[r].astype(np.float32)
        with pytest.raises(InvariantViolation, match="dtype"):
            validate_dtensor(dt)

    def _misfit(self, mesh2, rng, split):
        from repro.mesh.layouts import Layout

        dt = DTensor.__new__(DTensor)
        dt.owner, dt.layout, dt.shards, dt.global_shape = (
            mesh2, Layout("diagonal", split), {0: rng.normal(size=(2,))}, (2,),
        )
        with pytest.raises(InvariantViolation, match="cannot carry"):
            validate_dtensor(dt)

    def test_unknown_layout(self, mesh2, rng):
        """A layout the owner cannot carry: a split onto a mesh axis the
        owner lacks (a flat one-axis layout on a 2-axis mesh)."""
        self._misfit(mesh2, rng, (0,))

    def test_layout_dim_past_the_rank(self, mesh2, rng):
        """A split onto a tensor dim past the global rank."""
        self._misfit(mesh2, rng, (None, 1))


class TestStrictMode:
    def test_strict_sim_catches_corrupt_shard_at_construction(self, rng):
        """The acceptance negative test: a deliberately corrupted shard must
        be caught the moment the DTensor is built on a strict simulator."""
        mesh = make_mesh(2, strict_invariants=True)
        shards = {r: rng.normal(size=(4, 3)) for r in mesh.ranks}
        shards[3] = rng.normal(size=(4, 4))  # corrupt one block
        with pytest.raises(InvariantViolation):
            DTensor(mesh, BLOCKED_2D, shards, (8, 6))

    def test_strict_sim_accepts_valid_model(self, cfg, batch):
        ids, labels = batch
        params = init_transformer_params(cfg, seed=1)
        model = OptimusModel(make_mesh(2, strict_invariants=True), cfg, params)
        model.forward(ids, labels)
        model.backward()

    def test_strict_and_contract_checks_accept_shared_replicas(self, cfg, batch):
        """Megatron's replicated math hands every rank one read-only ``(1,)``
        stack entry: replication by construction for the validator.  The
        contract checker closes the stacked path's gate, so under it every
        rank owns its buffers and no shared entry is a collective *output*."""
        from repro.check.contracts import contract_checks
        from repro.megatron.model import MegatronModel
        from repro.runtime.simulator import Simulator

        ids, labels = batch
        params = init_transformer_params(cfg, seed=1)
        model = MegatronModel(Simulator.for_flat(p=2, strict_invariants=True), cfg, params)
        model.forward(ids, labels)
        model.backward()
        gamma = model.final_ln.gamma.grad
        assert gamma.local(0) is gamma.local(1) and len(gamma.blocks) == 1
        validate_dtensor(gamma)
        model.zero_grads()
        with contract_checks() as checker:
            model.forward(ids, labels)
            model.backward()
        assert checker.calls["all_reduce"] > 0
        gamma = model.final_ln.gamma.grad
        assert gamma.blocks is None and gamma.local(0) is not gamma.local(1)
        validate_dtensor(gamma)

    def test_replica_compare_is_kept_for_distinct_buffers(self, rng):
        from repro.comm.group import ProcessGroup
        from repro.mesh.layouts import REPLICATED_1D
        from repro.runtime.simulator import Simulator

        group = ProcessGroup(Simulator.for_flat(p=2), (0, 1))
        a = rng.normal(size=(3,))
        validate_dtensor(DTensor(group, REPLICATED_1D, {0: a, 1: a}, (3,)))
        validate_dtensor(DTensor(group, REPLICATED_1D, {0: a, 1: a.copy()}, (3,)))
        with pytest.raises(InvariantViolation, match="differ bitwise"):
            validate_dtensor(DTensor(group, REPLICATED_1D, {0: a, 1: a + 1.0}, (3,)))

    def test_disabled_by_default_and_togglable(self, rng):
        mesh = make_mesh(2, strict_invariants=False)
        shards = {r: rng.normal(size=(4, 3)) for r in mesh.ranks}
        shards[3] = rng.normal(size=(4, 4))
        DTensor(mesh, BLOCKED_2D, shards, (8, 6))  # off: not validated
        mesh.enable_strict_invariants()
        with pytest.raises(InvariantViolation):
            DTensor(mesh, BLOCKED_2D, shards, (8, 6))
        mesh.disable_strict_invariants()
        DTensor(mesh, BLOCKED_2D, shards, (8, 6))

    def test_strict_mode_context_manager(self, rng):
        mesh = make_mesh(2, strict_invariants=False)
        shards = {r: rng.normal(size=(4, 3)) for r in mesh.ranks}
        shards[0] = rng.normal(size=(1, 1))
        with strict_mode(mesh.sim):
            with pytest.raises(InvariantViolation):
                DTensor(mesh, BLOCKED_2D, shards, (8, 6))
        assert not mesh.sim.strict_invariants

    def test_env_var_enables_strict(self, monkeypatch):
        monkeypatch.setenv("REPRO_STRICT_INVARIANTS", "1")
        assert Simulator.for_flat(p=2).strict_invariants
        monkeypatch.setenv("REPRO_STRICT_INVARIANTS", "0")
        assert not Simulator.for_flat(p=2).strict_invariants

    def test_dryrun_checks_shapes_only(self):
        from repro.backend.shape_array import ShapeArray

        mesh = make_mesh(2, backend="shape", strict_invariants=True)
        shards = {r: ShapeArray((4, 3), "float32") for r in mesh.ranks}
        DTensor(mesh, BLOCKED_2D, shards, (8, 6))  # valid shapes pass
        shards[3] = ShapeArray((4, 4), "float32")
        with pytest.raises(InvariantViolation):
            DTensor(mesh, BLOCKED_2D, shards, (8, 6))
