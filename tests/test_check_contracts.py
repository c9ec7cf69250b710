"""The collective contract checker: oracle semantics, conservation, edges."""

import numpy as np
import pytest

from repro.check.contracts import CollectiveContractChecker, ContractViolation, contract_checks
from repro.comm import collectives as coll
from repro.comm.group import ProcessGroup
from repro.core.model import OptimusModel
from repro.mesh.mesh import Mesh
from repro.nn.init import init_transformer_params
from repro.runtime.simulator import Simulator


def _group(p=4, **kw):
    sim = Simulator.for_flat(p=p, **kw)
    return ProcessGroup(sim, range(p), kind="test")


class TestCleanRuns:
    def test_full_model_step_passes_all_contracts(self, cfg, batch):
        ids, labels = batch
        params = init_transformer_params(cfg, seed=1)
        sim = Simulator.for_mesh(q=2, trace=True)
        model = OptimusModel(Mesh(sim, 2), cfg, params)
        with contract_checks() as checker:
            model.forward(ids, labels)
            model.backward()
        assert checker.calls["broadcast"] > 0
        assert checker.calls["all_reduce"] > 0

    def test_every_collective_validates(self, rng):
        g = _group(trace=True)
        sh = {r: rng.normal(size=(8, 4)) for r in g.ranks}
        with contract_checks() as checker:
            coll.broadcast(g, rng.normal(size=(3, 3)), root=1)
            coll.reduce(g, {r: v.copy() for r, v in sh.items()}, root=2)
            coll.all_reduce(g, {r: v.copy() for r, v in sh.items()})
            coll.all_gather(g, sh, axis=1)
            coll.reduce_scatter(g, {r: v.copy() for r, v in sh.items()}, axis=0)
            pieces = coll.scatter(g, rng.normal(size=(8, 4)), root=0, axis=0)
            coll.gather(g, pieces, root=3, axis=0)
        assert sum(checker.calls.values()) == 7

    def test_max_op_through_checker(self, rng):
        g = _group()
        sh = {r: rng.normal(size=(5,)) for r in g.ranks}
        with contract_checks():
            out = coll.all_reduce(g, sh, op="max")
            out2 = coll.reduce(g, sh, root=1, op="max")
        np.testing.assert_array_equal(out[0], np.maximum.reduce(list(sh.values())))
        np.testing.assert_array_equal(out2[1], out[0])

    def test_negative_axis_through_checker(self, rng):
        g = _group()
        sh = {r: rng.normal(size=(4, 8)) for r in g.ranks}
        with contract_checks():
            coll.all_gather(g, sh, axis=-1)
            coll.reduce_scatter(g, {r: v.copy() for r, v in sh.items()}, axis=-1)
            coll.scatter(g, rng.normal(size=(4, 8)), root=0, axis=-1)

    def test_single_rank_group_charged_nothing(self, rng):
        g = _group(p=1)
        with contract_checks():
            coll.all_reduce(g, {0: rng.normal(size=(3,))})
            coll.broadcast(g, rng.normal(size=(3,)), root=0)
        assert g.sim.elapsed() == 0.0
        assert g.sim.total_bytes_comm() == 0.0

    def test_indivisible_split_still_raises_value_error(self, rng):
        g = _group()
        with contract_checks():
            with pytest.raises(ValueError):
                coll.reduce_scatter(g, {r: rng.normal(size=(7, 3)) for r in g.ranks})
            with pytest.raises(ValueError):
                coll.scatter(g, rng.normal(size=(7, 3)), root=0)

    def test_dryrun_degrades_to_conservation_only(self):
        from repro.backend.shape_array import ShapeArray

        g = _group(backend="shape")
        sh = {r: ShapeArray((4, 4), "float32") for r in g.ranks}
        with contract_checks() as checker:
            out = coll.all_reduce(g, sh)
        assert out[0].shape == (4, 4)
        assert checker.calls["all_reduce"] == 1


class TestViolationDetection:
    def test_corrupted_payload_is_caught(self, rng, monkeypatch):
        """A broadcast that delivers wrong data must trip the oracle."""
        real = coll.broadcast

        def buggy_broadcast(group, src, root):
            out = real(group, src, root=root)
            out[group.ranks[-1]] = out[group.ranks[-1]] + 1e-12  # bit flip
            return out

        monkeypatch.setattr(coll, "broadcast", buggy_broadcast)
        g = _group()
        with contract_checks():
            with pytest.raises(ContractViolation, match="serial oracle"):
                coll.broadcast(g, rng.normal(size=(3,)), root=0)

    def test_aliasing_outputs_are_caught(self, rng, monkeypatch):
        real = coll.all_reduce

        def leaky_all_reduce(group, shards, op="sum"):
            out = real(group, shards, op=op)
            out[1] = out[0]  # two ranks share one buffer
            return out

        monkeypatch.setattr(coll, "all_reduce", leaky_all_reduce)
        g = _group()
        with contract_checks():
            with pytest.raises(ContractViolation, match="aliasing"):
                coll.all_reduce(g, {r: rng.normal(size=(3,)) for r in g.ranks})

    def test_unequal_charging_is_caught(self, rng, monkeypatch):
        real = coll.broadcast

        def miser_broadcast(group, src, root):
            out = real(group, src, root=root)
            group.sim.device(root).bytes_comm += 17  # root over-charged
            return out

        monkeypatch.setattr(coll, "broadcast", miser_broadcast)
        g = _group()
        with contract_checks():
            with pytest.raises(ContractViolation, match="unequal bytes"):
                coll.broadcast(g, rng.normal(size=(3,)), root=0)

    def test_matrix_reconciliation_catches_drift(self, rng):
        """Bytes charged to devices but absent from the trace (or vice
        versa) break the comm-matrix row-sum reconciliation."""
        g = _group(trace=True)
        with contract_checks():
            coll.all_reduce(g, {r: rng.normal(size=(3,)) for r in g.ranks})
            g.sim.device(0).bytes_comm += 1000.0  # phantom traffic
            with pytest.raises(ContractViolation, match="not conserved"):
                coll.broadcast(g, rng.normal(size=(3,)), root=0)

    def test_desynchronized_clocks_are_caught(self, rng, monkeypatch):
        real = coll.all_reduce

        def skewed_all_reduce(group, shards, op="sum"):
            out = real(group, shards, op=op)
            group.sim.device(group.ranks[0]).clock += 1.0
            return out

        monkeypatch.setattr(coll, "all_reduce", skewed_all_reduce)
        g = _group()
        with contract_checks():
            with pytest.raises(ContractViolation, match="not synchronized"):
                coll.all_reduce(g, {r: rng.normal(size=(3,)) for r in g.ranks})


class TestInstallation:
    def test_install_is_exclusive_and_reversible(self):
        original = coll.broadcast
        checker = CollectiveContractChecker()
        checker.install()
        try:
            assert coll.broadcast is not original
            with pytest.raises(RuntimeError):
                CollectiveContractChecker().install()
            with pytest.raises(RuntimeError):
                checker.install()
        finally:
            checker.uninstall()
        assert coll.broadcast is original
        checker.uninstall()  # idempotent
