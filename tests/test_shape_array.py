"""ShapeArray: numpy-compatible shape/dtype propagation without data."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.dtypes import bool_, float32, float64, int64
from repro.backend.shape_array import ShapeArray
from repro.mesh.partition import distribute_blocked_2d
from tests.conftest import make_mesh


class TestConstruction:
    def test_basic(self):
        a = ShapeArray((2, 3), "float32")
        assert a.shape == (2, 3)
        assert a.dtype == float32
        assert a.size == 6
        assert a.nbytes == 24
        assert a.ndim == 2

    def test_scalar_shape(self):
        a = ShapeArray((), "float64")
        assert a.size == 1
        assert a.nbytes == 8

    def test_negative_dim_rejected(self):
        with pytest.raises(ValueError):
            ShapeArray((2, -1))

    def test_default_dtype(self):
        assert ShapeArray((1,)).dtype == float32


class TestInterning:
    """A placeholder is immutable, so one ``(shape, dtype)`` is one object."""

    def test_one_object_per_signature(self):
        a = ShapeArray((2, 3), "float32")
        assert ShapeArray((2, 3), "float32") is a
        assert ShapeArray([2, 3], float32) is a
        assert ShapeArray((np.int64(2), 3), np.float32) is a
        assert ShapeArray((2, 3)) is a  # the default dtype
        assert ShapeArray((2, 3), "float64") is not a
        assert ShapeArray((3, 2), "float32") is not a
        assert ShapeArray((2, 3, 1), "float32") is not a

    def test_negative_dims_still_raise(self):
        ShapeArray((2, 1))
        for shape in [(2, -1), (-2,), (0, -1)]:
            with pytest.raises(ValueError, match="negative dimension"):
                ShapeArray(shape)

    @pytest.mark.parametrize(
        "copier",
        [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_the_interned_object(self, copier):
        for a in (ShapeArray((4, 5), "float16"), ShapeArray((), "int64")):
            assert copier(a) is a
        pair = (ShapeArray((1,)), [ShapeArray((1,))])
        got = copier(pair)
        assert got[0] is pair[0] and got[1][0] is pair[0]

    def test_a_dryrun_dtensor_deep_copies(self):
        mesh = make_mesh(2, backend="shape")
        dt = distribute_blocked_2d(mesh, ShapeArray((4, 6), "float32"))
        got = copy.deepcopy(dt)
        assert got is not dt and got.global_shape == (4, 6)
        assert list(got.shards) == list(dt.shards)
        assert all(got.shards[r] is ShapeArray((2, 3), "float32") for r in mesh.ranks)


class TestArithmetic:
    def test_add_same_shape(self):
        a = ShapeArray((4, 5))
        assert (a + a).shape == (4, 5)

    def test_broadcast(self):
        a = ShapeArray((4, 5))
        b = ShapeArray((5,))
        assert (a + b).shape == (4, 5)
        assert (a * b).shape == (4, 5)

    def test_broadcast_keepdims(self):
        a = ShapeArray((4, 5))
        m = ShapeArray((4, 1))
        assert (a - m).shape == (4, 5)

    def test_scalar_ops(self):
        a = ShapeArray((3, 3), "float32")
        assert (a * 2.0).shape == (3, 3)
        assert (2.0 * a).dtype == float32
        assert (a / 3).shape == (3, 3)
        assert (-a).shape == (3, 3)

    def test_incompatible_broadcast_raises(self):
        with pytest.raises(ValueError):
            _ = ShapeArray((3, 4)) + ShapeArray((2, 4))

    def test_dtype_promotion(self):
        a = ShapeArray((2,), "float32")
        b = ShapeArray((2,), "float64")
        assert (a + b).dtype == float64

    def test_with_numpy_operand(self):
        a = ShapeArray((3, 4), "float32")
        n = np.zeros((4,), dtype=np.float64)
        assert (a + n).shape == (3, 4)
        assert (a + n).dtype == float64

    def test_comparison_yields_bool(self):
        a = ShapeArray((2, 2))
        assert (a > 0).dtype == bool_
        assert (a == a).dtype == bool_

    def test_boolean_ops(self):
        a = ShapeArray((2, 2), "bool")
        assert (a & a).dtype == bool_
        assert (~a).shape == (2, 2)


class TestMatmul:
    def test_2d(self):
        c = ShapeArray((3, 4)) @ ShapeArray((4, 5))
        assert c.shape == (3, 5)

    def test_batched(self):
        c = ShapeArray((2, 6, 3, 4)) @ ShapeArray((2, 6, 4, 5))
        assert c.shape == (2, 6, 3, 5)

    def test_batch_broadcast(self):
        c = ShapeArray((7, 3, 4)) @ ShapeArray((4, 5))
        assert c.shape == (7, 3, 5)

    def test_inner_mismatch(self):
        with pytest.raises(ValueError):
            _ = ShapeArray((3, 4)) @ ShapeArray((5, 6))

    # the promoted axis of a 1-D operand is dropped, as numpy drops it
    @pytest.mark.parametrize(
        "sa, sb",
        [((4, 5), (5,)), ((5,), (5, 3)), ((5,), (5,)), ((5,), (2, 5, 3)),
         ((2, 4, 5), (5,)), ((3, 1, 4, 5), (2, 5, 6)), ((4, 5), (5, 3)), ((1,), (1,))],
    )
    @pytest.mark.parametrize("dtypes", [("float32", "float32"), ("float32", "float64")])
    def test_matches_numpy(self, sa, sb, dtypes):
        da, db = dtypes
        want = np.zeros(sa, da) @ np.zeros(sb, db)
        for got in (
            ShapeArray(sa, da) @ ShapeArray(sb, db),
            ShapeArray(sa, da) @ np.zeros(sb, db),
            np.zeros(sa, da) @ ShapeArray(sb, db),
        ):
            assert (got.shape, got.dtype.name) == (want.shape, want.dtype.name)

    @pytest.mark.parametrize("sa, sb", [((4, 5), (4,)), ((5,), (4, 3)), ((5,), (4,))])
    def test_1d_mismatch_raises_like_numpy(self, sa, sb):
        with pytest.raises(ValueError):
            np.zeros(sa) @ np.zeros(sb)
        with pytest.raises(ValueError, match="inner dims mismatch"):
            ShapeArray(sa) @ ShapeArray(sb)

    def test_matmul_with_ndarray(self):
        c = ShapeArray((3, 4)) @ np.zeros((4, 2))
        assert c.shape == (3, 2)
        c = np.zeros((2, 3)) @ ShapeArray((3, 7))
        assert c.shape == (2, 7)


class TestShapeManipulation:
    def test_reshape(self):
        a = ShapeArray((4, 6))
        assert a.reshape((2, 12)).shape == (2, 12)
        assert a.reshape(24).shape == (24,)
        assert a.reshape((2, -1)).shape == (2, 12)

    def test_reshape_bad_size(self):
        with pytest.raises(ValueError):
            ShapeArray((4, 6)).reshape((5, 5))

    def test_reshape_two_unknowns(self):
        with pytest.raises(ValueError):
            ShapeArray((4, 6)).reshape((-1, -1))

    def test_transpose(self):
        a = ShapeArray((2, 3, 4))
        assert a.transpose().shape == (4, 3, 2)
        assert a.transpose(0, 2, 1).shape == (2, 4, 3)
        assert a.T.shape == (4, 3, 2)

    def test_transpose_bad_axes(self):
        with pytest.raises(ValueError):
            ShapeArray((2, 3)).transpose(0, 0)

    def test_swapaxes_ravel(self):
        a = ShapeArray((2, 3, 4))
        assert a.swapaxes(0, 2).shape == (4, 3, 2)
        assert a.ravel().shape == (24,)
        assert a.flatten().shape == (24,)

    def test_astype_copy(self):
        a = ShapeArray((2, 2), "float32")
        assert a.astype("float64").dtype == float64
        assert a.copy().shape == (2, 2)


class TestIndexing:
    def test_int_index_removes_dim(self):
        a = ShapeArray((4, 5, 6))
        assert a[1].shape == (5, 6)
        assert a[1, 2].shape == (6,)

    @pytest.mark.parametrize(
        "key",
        [np.int64(1), (np.int64(1), 2), (1, np.int32(-1)), (slice(None), np.int64(0)),
         (np.int64(-4), Ellipsis), (None, np.int16(3))],
    )
    def test_numpy_integer_index_matches_numpy(self, key):
        want = np.zeros((4, 5, 6))[key]
        assert ShapeArray((4, 5, 6))[key].shape == want.shape

    def test_numpy_integer_out_of_range(self):
        with pytest.raises(IndexError):
            _ = ShapeArray((3,))[np.int64(3)]

    def test_slices(self):
        a = ShapeArray((10, 8))
        assert a[2:5].shape == (3, 8)
        assert a[:, 1:3].shape == (10, 2)
        assert a[::2].shape == (5, 8)

    def test_ellipsis_and_none(self):
        a = ShapeArray((4, 5, 6))
        assert a[..., 0].shape == (4, 5)
        assert a[None].shape == (1, 4, 5, 6)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            _ = ShapeArray((3,))[5]

    def test_fancy_index(self):
        table = ShapeArray((100, 16))
        idx = ShapeArray((7,), "int64")
        assert table[idx].shape == (7, 16)
        idx2 = np.array([1, 2, 3])
        assert table[idx2].shape == (3, 16)

    def test_bool_mask_rejected(self):
        with pytest.raises(TypeError):
            _ = ShapeArray((3, 4))[ShapeArray((3,), "bool")]

    def test_setitem_is_noop(self):
        a = ShapeArray((3, 4))
        a[0] = 1.0  # must not raise


class TestReductions:
    def test_sum_all(self):
        assert ShapeArray((3, 4)).sum().shape == ()

    def test_sum_axis(self):
        a = ShapeArray((3, 4, 5))
        assert a.sum(axis=1).shape == (3, 5)
        assert a.sum(axis=-1, keepdims=True).shape == (3, 4, 1)
        assert a.sum(axis=(0, 2)).shape == (4,)

    def test_max_min_mean_var(self):
        a = ShapeArray((3, 4))
        assert a.max(axis=1, keepdims=True).shape == (3, 1)
        assert a.min(axis=0).shape == (4,)
        assert a.mean(axis=-1).shape == (3,)
        assert a.var().shape == ()

    def test_argmax_dtype(self):
        assert ShapeArray((3, 4)).argmax(axis=1).dtype == int64

    def test_item(self):
        import math

        assert math.isnan(ShapeArray(()).item())
        with pytest.raises(ValueError):
            ShapeArray((2,)).item()


@st.composite
def _shapes(draw, max_ndim=4, max_dim=6):
    ndim = draw(st.integers(0, max_ndim))
    return tuple(draw(st.integers(1, max_dim)) for _ in range(ndim))


class TestPropertyVsNumpy:
    """ShapeArray must propagate shapes exactly as numpy does."""

    @given(_shapes(), _shapes())
    @settings(max_examples=100, deadline=None)
    def test_broadcast_matches_numpy(self, sa, sb):
        try:
            expected = np.broadcast_shapes(sa, sb)
        except ValueError:
            with pytest.raises(ValueError):
                _ = ShapeArray(sa) + ShapeArray(sb)
            return
        assert (ShapeArray(sa) + ShapeArray(sb)).shape == expected

    @given(_shapes(max_ndim=3), st.permutations(list(range(3))))
    @settings(max_examples=50, deadline=None)
    def test_transpose_matches_numpy(self, shape, perm):
        if len(shape) != 3:
            return
        expected = np.empty(shape).transpose(perm).shape
        assert ShapeArray(shape).transpose(*perm).shape == expected

    @given(_shapes(max_ndim=3, max_dim=5), st.integers(-3, 2), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_reductions_match_numpy(self, shape, axis, keepdims):
        if not shape:
            return
        axis = axis % len(shape)
        expected = np.zeros(shape).sum(axis=axis, keepdims=keepdims).shape
        assert ShapeArray(shape).sum(axis=axis, keepdims=keepdims).shape == expected
