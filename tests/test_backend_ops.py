"""The ops dispatch layer: numpy execution and dryrun shape propagation."""

import numpy as np
import pytest

from repro.backend import ops
from repro.backend.dtypes import (
    as_dtype,
    dtype_size,
    float32,
    float64,
    int64,
    result_float,
)
from repro.backend.shape_array import ShapeArray


class TestDtypes:
    def test_roundtrip(self):
        assert as_dtype("float32") is float32
        assert as_dtype(np.float64) is float64
        assert as_dtype(float32) is float32

    def test_sizes(self):
        assert dtype_size("float32") == 4
        assert dtype_size("float64") == 8
        assert dtype_size("int64") == 8
        assert dtype_size("bool") == 1

    def test_unknown(self):
        with pytest.raises(ValueError):
            as_dtype("float99")
        with pytest.raises(ValueError):
            as_dtype(np.complex128)

    def test_promotion(self):
        assert result_float(float32, float64) is float64
        assert result_float(float32, int64) is float32
        assert result_float(int64, int64) is float64


class TestCreation:
    def test_zeros_numpy(self):
        z = ops.zeros((2, 3), "float32")
        assert isinstance(z, np.ndarray)
        assert z.dtype == np.float32
        assert not z.any()

    def test_zeros_shape_backend(self):
        z = ops.zeros((2, 3), "float32", backend=ops.SHAPE)
        assert isinstance(z, ShapeArray)
        assert z.shape == (2, 3)

    def test_like_helpers(self):
        assert isinstance(ops.zeros_like(ShapeArray((2,))), ShapeArray)
        assert isinstance(ops.ones_like(np.zeros(2)), np.ndarray)
        assert ops.ones_like(np.zeros(2)).sum() == 2

    def test_arange_full(self):
        assert list(ops.arange(3)) == [0, 1, 2]
        assert ops.arange(3, backend=ops.SHAPE).shape == (3,)
        assert ops.full((2,), 7.0)[0] == 7.0
        assert ops.full((2,), 7.0, backend=ops.SHAPE).shape == (2,)

    def test_backend_of(self):
        assert ops.backend_of(np.zeros(1)) == ops.NUMPY
        assert ops.backend_of(ShapeArray((1,))) == ops.SHAPE


class TestElementwise:
    def test_numeric_values(self, rng):
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(ops.exp(x), np.exp(x))
        np.testing.assert_allclose(ops.log(np.abs(x) + 1), np.log(np.abs(x) + 1))
        np.testing.assert_allclose(ops.tanh(x), np.tanh(x))
        np.testing.assert_allclose(ops.sqrt(np.abs(x)), np.sqrt(np.abs(x)))
        np.testing.assert_allclose(ops.square(x), x * x)

    def test_erf(self):
        from scipy.special import erf

        for dtype in (np.float64, np.float32):
            tiny = np.finfo(dtype).smallest_subnormal
            edges = np.array([1.0, 8.0], dtype)
            x = np.concatenate([
                np.array([np.nan, np.inf, 0.0, tiny, 2 * tiny, 0.5, 2.0], dtype),
                edges, np.nextafter(edges, dtype(0)), np.nextafter(edges, dtype(np.inf)),
                np.linspace(-4, 4, 33, dtype=dtype),
            ])
            x = np.concatenate([x, -x])  # -0.0, -inf and the negative edges
            got = ops.erf(x)
            assert got.dtype == dtype
            assert got.tobytes() == erf(x).tobytes()

    def test_dryrun_shapes(self):
        s = ShapeArray((3, 4), "float32")
        for fn in (ops.exp, ops.log, ops.tanh, ops.erf, ops.sqrt, ops.abs, ops.sign):
            out = fn(s)
            assert isinstance(out, ShapeArray)
            assert out.shape == (3, 4)

    def test_maximum_where_clip(self, rng):
        a, b = rng.normal(size=(4,)), rng.normal(size=(4,))
        np.testing.assert_allclose(ops.maximum(a, b), np.maximum(a, b))
        np.testing.assert_allclose(ops.minimum(a, b), np.minimum(a, b))
        np.testing.assert_allclose(ops.where(a > 0, a, b), np.where(a > 0, a, b))
        np.testing.assert_allclose(ops.clip(a, -0.5, 0.5), np.clip(a, -0.5, 0.5))
        assert ops.maximum(ShapeArray((4,)), 0.0).shape == (4,)
        assert ops.where(ShapeArray((4,), "bool"), ShapeArray((4,)), 0.0).shape == (4,)
        assert ops.clip(ShapeArray((4,)), 0, 1).shape == (4,)


class TestLinalgAndShape:
    def test_matmul_dispatch(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
        np.testing.assert_allclose(ops.matmul(a, b), a @ b)
        assert ops.matmul(ShapeArray((3, 4)), ShapeArray((4, 5))).shape == (3, 5)

    def test_transpose_reshape(self, rng):
        a = rng.normal(size=(2, 3, 4))
        np.testing.assert_allclose(ops.transpose(a, (0, 2, 1)), a.transpose(0, 2, 1))
        assert ops.reshape(ShapeArray((6, 4)), (3, 8)).shape == (3, 8)

    def test_concatenate(self, rng):
        xs = [rng.normal(size=(2, 3)) for _ in range(3)]
        np.testing.assert_allclose(ops.concatenate(xs, axis=0), np.concatenate(xs))
        out = ops.concatenate([ShapeArray((2, 3)), ShapeArray((5, 3))], axis=0)
        assert out.shape == (7, 3)
        with pytest.raises(ValueError):
            ops.concatenate([ShapeArray((2, 3)), ShapeArray((5, 4))], axis=0)

    def test_split(self, rng):
        a = rng.normal(size=(6, 4))
        parts = ops.split(a, 3, axis=0)
        assert len(parts) == 3 and parts[0].shape == (2, 4)
        sparts = ops.split(ShapeArray((6, 4)), 2, axis=1)
        assert sparts[0].shape == (6, 2)
        with pytest.raises(ValueError):
            ops.split(ShapeArray((5, 4)), 2, axis=0)

    def test_stack(self, rng):
        xs = [rng.normal(size=(2, 3)) for _ in range(4)]
        assert ops.stack(xs, axis=1).shape == (2, 4, 3)
        assert ops.stack([ShapeArray((2, 3))] * 4, axis=1).shape == (2, 4, 3)

    @pytest.mark.parametrize(
        "fn, shapes, axis",
        [
            (ops.stack, [(2, 3), (2, 4)], 0),
            (ops.stack, [(2, 3), (2, 3, 1)], 1),
            (ops.concatenate, [(2, 3), (2, 3, 1)], 0),
            (ops.concatenate, [(2, 3), (6,)], 1),
            (ops.concatenate, [(2, 3), (6,)], -1),
        ],
    )
    def test_placeholder_shape_errors_are_numpys(self, fn, shapes, axis):
        """One placeholder evaluation stands for every rank that shares its
        signature, so a shape error numpy would raise must not slip by."""
        with pytest.raises(ValueError):
            fn([np.zeros(s) for s in shapes], axis=axis)
        with pytest.raises(ValueError):
            fn([ShapeArray(s) for s in shapes], axis=axis)
        with pytest.raises(ValueError):  # a real array among the placeholders
            fn([ShapeArray(shapes[0]), np.zeros(shapes[1])], axis=axis)


class TestGatherScatter:
    def test_take_rows(self, rng):
        table = rng.normal(size=(10, 4))
        idx = np.array([1, 3, 3])
        np.testing.assert_allclose(ops.take_rows(table, idx), table[idx])
        assert ops.take_rows(ShapeArray((10, 4)), ShapeArray((3,), "int64")).shape == (3, 4)

    def test_take_along_rows(self, rng):
        x = rng.normal(size=(4, 6))
        idx = np.array([0, 5, 2, 2])
        np.testing.assert_allclose(ops.take_along_rows(x, idx), x[np.arange(4), idx])
        assert ops.take_along_rows(ShapeArray((4, 6)), ShapeArray((4,), "int64")).shape == (4,)

    def test_put_along_rows_add(self):
        x = np.zeros((3, 4))
        ops.put_along_rows_add(x, np.array([1, 1, 0]), np.array([2.0, 3.0, 4.0]))
        assert x[0, 1] == 2.0 and x[1, 1] == 3.0 and x[2, 0] == 4.0
        s = ShapeArray((3, 4))
        assert ops.put_along_rows_add(s, ShapeArray((3,), "int64"), s) is s

    def test_index_add_accumulates_duplicates(self):
        t = np.zeros((4, 2))
        ops.index_add(t, np.array([1, 1, 3]), np.ones((3, 2)))
        assert t[1, 0] == 2.0 and t[3, 0] == 1.0
        s = ShapeArray((4, 2))
        assert ops.index_add(s, ShapeArray((3,), "int64"), ShapeArray((3, 2))) is s


class TestUtilities:
    def test_nbytes(self):
        assert ops.nbytes(np.zeros((2, 3), dtype=np.float32)) == 24
        assert ops.nbytes(ShapeArray((2, 3), "float64")) == 48

    def test_allclose(self):
        assert ops.allclose(np.ones(3), np.ones(3))
        assert not ops.allclose(np.ones(3), np.zeros(3))
        assert ops.allclose(ShapeArray((3,)), ShapeArray((3,)))
        assert not ops.allclose(ShapeArray((3,)), ShapeArray((4,)))

    def test_asarray_astype(self):
        a = ops.asarray([1, 2, 3], dtype="float64")
        assert a.dtype == np.float64
        s = ops.asarray(ShapeArray((3,)), dtype="float64")
        assert s.dtype.name == "float64"
        assert ops.astype(np.zeros(2), "float32").dtype == np.float32
