"""Backend-dispatching array operations.

Every local (on-device) computation in the distributed model code goes
through this module instead of calling numpy directly, so the same module
code runs in *numeric* mode (real :class:`numpy.ndarray` data) and in
*dryrun* mode (:class:`~repro.backend.shape_array.ShapeArray` placeholders).

The dispatch rule is simple: if any operand is a ``ShapeArray``, the result
is a ``ShapeArray`` with numpy-compatible shape/dtype propagation; otherwise
numpy executes the real computation.
"""

from __future__ import annotations

import builtins

import numpy as np

from repro.backend.dtypes import as_dtype, result_float
from repro.backend.shape_array import ShapeArray, is_shape_array

NUMPY = "numpy"
SHAPE = "shape"


def backend_of(x) -> str:
    """Return the backend name ("numpy" or "shape") an array belongs to."""
    return SHAPE if is_shape_array(x) else NUMPY


def _any_shape(*xs) -> bool:
    return any(is_shape_array(x) for x in xs)


# ----------------------------------------------------------------------
# creation
# ----------------------------------------------------------------------
def zeros(shape, dtype="float32", backend=NUMPY):
    """Allocate a zero array on the requested backend."""
    if backend == SHAPE:
        return ShapeArray(shape, dtype)
    return np.zeros(shape, dtype=as_dtype(dtype).np_dtype)


def ones(shape, dtype="float32", backend=NUMPY):
    if backend == SHAPE:
        return ShapeArray(shape, dtype)
    return np.ones(shape, dtype=as_dtype(dtype).np_dtype)


def full(shape, value, dtype="float32", backend=NUMPY):
    if backend == SHAPE:
        return ShapeArray(shape, dtype)
    return np.full(shape, value, dtype=as_dtype(dtype).np_dtype)


def zeros_like(x):
    if is_shape_array(x):
        return ShapeArray(x.shape, x.dtype)
    return np.zeros_like(x)


def ones_like(x):
    if is_shape_array(x):
        return ShapeArray(x.shape, x.dtype)
    return np.ones_like(x)


def arange(n, dtype="int64", backend=NUMPY):
    if backend == SHAPE:
        return ShapeArray((int(n),), dtype)
    return np.arange(int(n), dtype=as_dtype(dtype).np_dtype)


def asarray(x, dtype=None):
    """Pass ShapeArrays through; coerce everything else to ndarray."""
    if is_shape_array(x):
        return x if dtype is None else x.astype(dtype)
    a = np.asarray(x)
    return a if dtype is None else a.astype(as_dtype(dtype).np_dtype)


# ----------------------------------------------------------------------
# elementwise
# ----------------------------------------------------------------------
def _unary(x, np_fn, float_result=True):
    if is_shape_array(x):
        dt = result_float(x.dtype) if float_result else x.dtype
        return ShapeArray(x.shape, dt)
    return np_fn(x)


def exp(x):
    return _unary(x, np.exp)


def log(x):
    return _unary(x, np.log)


def tanh(x):
    return _unary(x, np.tanh)


#: the scipy extension that defines the ``erf`` ufunc (older releases have none)
_ERF_EXTENSION = "scipy.special._special_ufuncs"


def _scipy_erf():
    """``scipy.special.erf``, loaded without running ``scipy.special``'s
    ``__init__``: that import costs about 0.3 s and 24 MiB (its array-API
    backends pull in ``numpy.testing``, ``numpy.f2py``, ``email``…) to reach
    one ufunc.  The extension is registered under its own name, so a later
    ``import scipy.special`` reuses it and its ``erf`` is this object.  A
    scipy without the extension takes the package import."""
    import sys
    from importlib.machinery import PathFinder
    from importlib.util import module_from_spec

    import scipy

    module = sys.modules.get(_ERF_EXTENSION)
    if module is None:
        path = [f"{p}/special" for p in scipy.__path__]
        spec = PathFinder.find_spec(_ERF_EXTENSION, path)
        if spec is not None:
            module = module_from_spec(spec)
            sys.modules[_ERF_EXTENSION] = module
            try:
                spec.loader.exec_module(module)
            except BaseException:
                del sys.modules[_ERF_EXTENSION]
                raise
    erf = getattr(module, "erf", None)
    if erf is None:
        from scipy.special import erf
    return erf


def _sp_erf(x):
    # only real arrays need scipy: the first numeric erf loads its ufunc and
    # rebinds this name, so later calls pass it straight to _unary
    global _sp_erf
    _sp_erf = _scipy_erf()
    return _sp_erf(x)


def erf(x):
    return _unary(x, _sp_erf)


def sqrt(x):
    return _unary(x, np.sqrt)


def abs(x):  # noqa: A001 - mirrors numpy namespace
    return _unary(x, np.abs, float_result=False)


def sign(x):
    return _unary(x, np.sign, float_result=False)


def square(x):
    return _unary(x, np.square, float_result=False)


def maximum(a, b):
    if _any_shape(a, b):
        sa = a.shape if hasattr(a, "shape") else ()
        sb = b.shape if hasattr(b, "shape") else ()
        dt = result_float(
            a.dtype if hasattr(a, "dtype") else "float64",
            b.dtype if hasattr(b, "dtype") else "float64",
        )
        return ShapeArray(np.broadcast_shapes(sa, sb), dt)
    return np.maximum(a, b)


def minimum(a, b):
    if _any_shape(a, b):
        return maximum(a, b)
    return np.minimum(a, b)


def where(cond, a, b):
    if _any_shape(cond, a, b):
        shapes = [x.shape for x in (cond, a, b) if hasattr(x, "shape")]
        dts = [x.dtype for x in (a, b) if hasattr(x, "dtype")]
        return ShapeArray(np.broadcast_shapes(*shapes), dts[0] if dts else "float32")
    return np.where(cond, a, b)


def clip(x, lo, hi):
    if is_shape_array(x):
        return ShapeArray(x.shape, x.dtype)
    return np.clip(x, lo, hi)


# ----------------------------------------------------------------------
# linear algebra & reshaping
# ----------------------------------------------------------------------
def matmul(a, b):
    """Matrix product; works for both backends via ``__matmul__``."""
    return a @ b


def transpose(x, axes=None):
    if axes is None:
        return x.T if x.ndim == 2 else x.transpose()
    return x.transpose(*axes)


def reshape(x, shape):
    return x.reshape(shape)


def concatenate(xs, axis=0):
    if any(is_shape_array(x) for x in xs):
        ndim = xs[0].ndim
        if any(x.ndim != ndim for x in xs):
            raise ValueError(
                f"concatenate inputs must share a number of dimensions, got "
                f"{[tuple(x.shape) for x in xs]}"
            )
        axis = axis % ndim
        base = list(xs[0].shape)
        base[axis] = builtins.sum(x.shape[axis] for x in xs)
        for x in xs:
            s = list(x.shape)
            s[axis] = base[axis]
            if tuple(s) != tuple(base):
                raise ValueError("concatenate shape mismatch")
        return ShapeArray(tuple(base), xs[0].dtype)
    return np.concatenate(xs, axis=axis)


def split(x, sections, axis=0):
    """Split into ``sections`` equal parts along ``axis``."""
    if is_shape_array(x):
        axis = axis % x.ndim
        if x.shape[axis] % sections != 0:
            raise ValueError(f"cannot split axis of size {x.shape[axis]} into {sections}")
        s = list(x.shape)
        s[axis] //= sections
        return [ShapeArray(tuple(s), x.dtype) for _ in range(sections)]
    return np.split(x, sections, axis=axis)


def stack(xs, axis=0):
    if any(is_shape_array(x) for x in xs):
        shape = tuple(xs[0].shape)
        if any(tuple(x.shape) != shape for x in xs):
            raise ValueError(
                f"stack inputs must share a shape, got {[tuple(x.shape) for x in xs]}"
            )
        s = list(shape)
        s.insert(axis % (len(shape) + 1), len(xs))
        return ShapeArray(tuple(s), xs[0].dtype)
    return np.stack(xs, axis=axis)


# ----------------------------------------------------------------------
# batched-mesh stage
# ----------------------------------------------------------------------
def fold_stack_sum(part, axis, out=None):
    """Sum a stacked axis of ``part`` by copy-then-in-place-add in index
    order — the exact fold of ``collectives._combine`` (copy the first
    shard, then ``np.add(acc, b, out=acc)`` in group-rank order), so each
    output slice is bit-identical to the per-rank reduce.  The sum goes to
    ``out`` when given (any view of the right shape), else a new array."""
    lead = (slice(None),) * axis
    if out is None:
        out = part[lead + (0,)].copy()
    else:
        np.copyto(out, part[lead + (0,)])
    for t in range(1, part.shape[axis]):
        np.add(out, part[lead + (t,)], out=out)
    return out


# ----------------------------------------------------------------------
# reductions
# ----------------------------------------------------------------------
def sum(x, axis=None, keepdims=False):  # noqa: A001 - mirrors numpy namespace
    return x.sum(axis=axis, keepdims=keepdims)


def max(x, axis=None, keepdims=False):  # noqa: A001
    return x.max(axis=axis, keepdims=keepdims)


def mean(x, axis=None, keepdims=False):
    return x.mean(axis=axis, keepdims=keepdims)


def var(x, axis=None, keepdims=False):
    return x.var(axis=axis, keepdims=keepdims)


# ----------------------------------------------------------------------
# gather / scatter
# ----------------------------------------------------------------------
def take_rows(table, idx):
    """``table[idx]`` — gather rows of a 2-D table by an integer index array."""
    return table[idx]


def take_along_rows(x, idx):
    """For 2-D ``x`` [T, C] and 1-D integer ``idx`` [T], return ``x[t, idx[t]]``."""
    if is_shape_array(x) or is_shape_array(idx):
        return ShapeArray(tuple(idx.shape), x.dtype)
    return x[np.arange(x.shape[0]), idx]


def put_along_rows_add(x, idx, values):
    """In-place ``x[t, idx[t]] += values[t]`` for 2-D ``x``. No-op in dryrun."""
    if is_shape_array(x) or is_shape_array(idx):
        return x
    np.add.at(x, (np.arange(x.shape[0]), np.asarray(idx)), values)
    return x


def index_add(target, idx, updates):
    """In-place ``target[idx[t]] += updates[t]`` (scatter-add on axis 0)."""
    if is_shape_array(target) or is_shape_array(idx):
        return target
    np.add.at(target, np.asarray(idx), updates)
    return target


# ----------------------------------------------------------------------
# utilities
# ----------------------------------------------------------------------
def nbytes(x) -> int:
    """Byte size of an array on either backend."""
    return int(x.nbytes)


def copy(x):
    return x.copy()


def astype(x, dtype):
    if is_shape_array(x):
        return x.astype(dtype)
    return x.astype(as_dtype(dtype).np_dtype)


def allclose(a, b, rtol=1e-6, atol=1e-9) -> bool:
    """Numeric comparison; dryrun arrays compare by shape/dtype only."""
    if _any_shape(a, b):
        return tuple(a.shape) == tuple(b.shape)
    return bool(np.allclose(a, b, rtol=rtol, atol=atol))
