"""Mesh coordinates, DTensor algebra, and partition/assemble round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.shape_array import ShapeArray
from repro.comm.group import ProcessGroup
from repro.mesh.layouts import BLOCKED_2D, REPLICATED, ROW_BLOCKED, SHARDED_1D
from repro.mesh.mesh import Mesh
from repro.mesh.partition import (
    assemble_blocked_2d,
    assemble_row0_cols,
    assemble_row_blocked,
    assemble_sharded_1d,
    block_slice,
    distribute_blocked_2d,
    distribute_replicated,
    distribute_replicated_1d,
    distribute_row0_cols,
    distribute_row_blocked,
    distribute_sharded_1d,
)
from repro.runtime.simulator import Simulator
from tests.conftest import make_mesh


class TestMesh:
    def test_coords_rank_roundtrip(self):
        mesh = make_mesh(3)
        for rank in mesh.ranks:
            i, j = mesh.coords(rank)
            assert mesh.rank(i, j) == rank

    def test_groups(self):
        mesh = make_mesh(3)
        assert mesh.row_group(1).ranks == (3, 4, 5)
        assert mesh.col_group(1).ranks == (1, 4, 7)
        assert mesh.world.size == 9

    def test_rows_and_cols_intersect_once(self):
        mesh = make_mesh(3)
        for i in range(3):
            for j in range(3):
                common = set(mesh.row_group(i).ranks) & set(mesh.col_group(j).ranks)
                assert common == {mesh.rank(i, j)}

    def test_bad_construction(self):
        sim = Simulator.for_flat(p=3)
        with pytest.raises(ValueError):
            Mesh(sim, 2)  # needs 4 ranks
        with pytest.raises(ValueError):
            Mesh(sim, 0)

    def test_bounds(self):
        mesh = make_mesh(2)
        with pytest.raises(ValueError):
            mesh.rank(2, 0)
        with pytest.raises(ValueError):
            mesh.coords(4)


class TestBlocked2D:
    def test_roundtrip(self, rng):
        mesh = make_mesh(3)
        a = rng.normal(size=(6, 9))
        dt = distribute_blocked_2d(mesh, a)
        assert dt.layout == BLOCKED_2D
        assert dt.local(mesh.rank(1, 2)).shape == (2, 3)
        np.testing.assert_array_equal(assemble_blocked_2d(dt), a)

    def test_block_contents(self, rng):
        mesh = make_mesh(2)
        a = rng.normal(size=(4, 4))
        dt = distribute_blocked_2d(mesh, a)
        np.testing.assert_array_equal(dt.local(mesh.rank(1, 0)), a[2:4, 0:2])

    def test_indivisible(self, rng):
        mesh = make_mesh(2)
        with pytest.raises(ValueError):
            distribute_blocked_2d(mesh, rng.normal(size=(5, 4)))

    def test_requires_2d(self, rng):
        mesh = make_mesh(2)
        with pytest.raises(ValueError):
            distribute_blocked_2d(mesh, rng.normal(size=(4, 4, 4)))

    def test_dryrun(self):
        mesh = make_mesh(2, backend="shape")
        dt = distribute_blocked_2d(mesh, ShapeArray((8, 8)))
        assert dt.local(0).shape == (4, 4)
        assert assemble_blocked_2d(dt).shape == (8, 8)

    def test_dryrun_blocks_are_one_placeholder_in_mesh_order(self):
        mesh = make_mesh(3, backend="shape")
        dt = distribute_blocked_2d(mesh, ShapeArray((12, 6), "float16"))
        block = ShapeArray((4, 2), "float16")
        want = [(mesh.rank(i, j), id(block)) for i in range(3) for j in range(3)]
        assert [(r, id(s)) for r, s in dt.shards.items()] == want
        assert assemble_blocked_2d(dt).shape == (12, 6)


class TestRowBlockedAndReplicated:
    def test_row_blocked(self, rng):
        mesh = make_mesh(2)
        ids = rng.integers(0, 10, size=(4, 3))
        dt = distribute_row_blocked(mesh, ids)
        assert dt.layout == ROW_BLOCKED
        # replicated within a row
        np.testing.assert_array_equal(dt.local(mesh.rank(0, 0)), dt.local(mesh.rank(0, 1)))
        np.testing.assert_array_equal(dt.local(mesh.rank(1, 0)), ids[2:4])
        np.testing.assert_array_equal(assemble_row_blocked(dt), ids)

    def test_replicated(self, rng):
        mesh = make_mesh(2)
        a = rng.normal(size=(3, 3))
        dt = distribute_replicated(mesh, a)
        assert dt.layout == REPLICATED
        for r in mesh.ranks:
            np.testing.assert_array_equal(dt.local(r), a)

    def test_row0_cols(self, rng):
        mesh = make_mesh(2)
        v = rng.normal(size=(8,))
        dt = distribute_row0_cols(mesh, v)
        assert set(dt.shards) == {mesh.rank(0, 0), mesh.rank(0, 1)}
        np.testing.assert_array_equal(dt.local(mesh.rank(0, 1)), v[4:])
        np.testing.assert_array_equal(assemble_row0_cols(dt), v)
        with pytest.raises(ValueError):
            distribute_row0_cols(mesh, rng.normal(size=(4, 4)))


class TestSharded1D:
    def _group(self, p=3):
        sim = Simulator.for_flat(p=p)
        return ProcessGroup(sim, range(p))

    def test_roundtrip_axis0(self, rng):
        g = self._group()
        a = rng.normal(size=(6, 4))
        dt = distribute_sharded_1d(g, a, axis=0)
        assert dt.layout == SHARDED_1D(0)
        np.testing.assert_array_equal(assemble_sharded_1d(dt), a)

    def test_roundtrip_axis1(self, rng):
        g = self._group()
        a = rng.normal(size=(4, 6))
        dt = distribute_sharded_1d(g, a, axis=1)
        assert dt.local(1).shape == (4, 2)
        np.testing.assert_array_equal(assemble_sharded_1d(dt), a)

    def test_replicated_1d(self, rng):
        g = self._group()
        a = rng.normal(size=(2, 2))
        dt = distribute_replicated_1d(g, a)
        for r in g.ranks:
            np.testing.assert_array_equal(dt.local(r), a)
        # replicas are independent buffers
        dt.local(1)[0, 0] = 99.0
        assert dt.local(0)[0, 0] != 99.0


class TestDTensorAlgebra:
    def test_map_zipmap(self, rng):
        mesh = make_mesh(2)
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        da, db = distribute_blocked_2d(mesh, a), distribute_blocked_2d(mesh, b)
        np.testing.assert_allclose(assemble_blocked_2d(da + db), a + b)
        np.testing.assert_allclose(assemble_blocked_2d(da - db), a - b)
        np.testing.assert_allclose(assemble_blocked_2d(da * 2.0), 2 * a)
        np.testing.assert_allclose(assemble_blocked_2d(da * db), a * b)
        np.testing.assert_allclose(assemble_blocked_2d(da.map(np.exp)), np.exp(a))

    def test_layout_mismatch_rejected(self, rng):
        mesh = make_mesh(2)
        da = distribute_blocked_2d(mesh, rng.normal(size=(4, 4)))
        dr = distribute_replicated(mesh, rng.normal(size=(4, 4)))
        with pytest.raises(ValueError):
            _ = da + dr

    def test_copy_zeros_like(self, rng):
        mesh = make_mesh(2)
        da = distribute_blocked_2d(mesh, rng.normal(size=(4, 4)))
        c = da.copy()
        c.local(0)[0, 0] = 77.0
        assert da.local(0)[0, 0] != 77.0
        z = da.zeros_like()
        assert not assemble_blocked_2d(z).any()

    def test_dtype_and_nbytes(self, rng):
        mesh = make_mesh(2)
        da = distribute_blocked_2d(mesh, rng.normal(size=(4, 4)).astype(np.float32))
        assert da.shard_nbytes() == 4 * 4  # 2x2 block of float32


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_blocked2d_roundtrip_property(q, mb, nb):
    """distribute∘assemble is the identity for any divisible shape."""
    rng = np.random.default_rng(q * 1000 + mb * 10 + nb)
    mesh = make_mesh(q)
    a = rng.normal(size=(q * mb, q * nb))
    np.testing.assert_array_equal(assemble_blocked_2d(distribute_blocked_2d(mesh, a)), a)


def test_block_slice():
    assert block_slice(12, 3, 1) == slice(4, 8)
    with pytest.raises(ValueError):
        block_slice(10, 3, 0)
