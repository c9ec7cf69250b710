"""Shape-only placeholder arrays for dryrun (performance-model) execution.

A :class:`ShapeArray` carries a shape and a dtype but no data.  It implements
enough of the :class:`numpy.ndarray` surface (arithmetic with broadcasting,
``@``, reshape/transpose, slicing, reductions) that the distributed model
code in :mod:`repro.core` and :mod:`repro.megatron` runs unmodified at paper
scale, with all memory/FLOP/byte accounting intact, while never allocating
the underlying gigabytes.

Shape and dtype propagation follow numpy semantics exactly; any shape error a
real run would raise (mismatched matmul inner dims, bad broadcast) is raised
here too, so a dryrun is a meaningful validity check for a configuration.
"""

from __future__ import annotations

from math import prod
from typing import Tuple

import numpy as np

from repro.backend.dtypes import DType, as_dtype, bool_, result_float


def _normalize_axis(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


# np.broadcast_shapes is surprisingly expensive (it builds dummy views); the
# dryrun backend resolves the same few shape pairs millions of times, so a
# plain dict memo pays for itself immediately.
_BCAST_CACHE: dict = {}


#: every placeholder, by ``(shape, dtype name)``; unbounded like
#: ``_BCAST_CACHE`` (a run makes a few thousand distinct signatures at most)
_INTERNED: dict = {}


def _broadcast_shapes(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    if a == b:
        return a
    key = (a, b)
    out = _BCAST_CACHE.get(key)
    if out is None:
        out = _BCAST_CACHE[key] = np.broadcast_shapes(a, b)
    return out


class ShapeArray:
    """An array placeholder carrying only ``shape`` and ``dtype``.

    Immutable after construction, and relied on to be: every operation
    returns a placeholder, writes (``__setitem__`` and the scatter ops of
    :mod:`repro.backend.ops`) are no-ops, and nothing in ``src/`` assigns
    ``shape`` or ``dtype`` afterwards.  So placeholders are *interned*:
    ``ShapeArray(shape, dtype)`` returns the one object of that ``(shape,
    dtype)``, and an equal signature means the same object.  That is what
    lets the collectives pass placeholders through un-copied, and
    :func:`repro.mesh.dtensor.rank_map` recognise ranks that share one
    evaluation by identity alone.  ``copy.copy``, ``copy.deepcopy`` and
    pickle return the interned object too.
    """

    __slots__ = ("shape", "dtype")
    __array_priority__ = 100.0  # make numpy defer to our reflected operators

    def __new__(cls, shape, dtype=None):
        # fast path: shapes almost always arrive as tuples of plain ints
        # (propagated from an existing ShapeArray)
        if type(shape) is tuple:
            for s in shape:
                if type(s) is not int:
                    shape = tuple(int(x) for x in shape)
                    break
        else:
            shape = tuple(int(s) for s in shape)
        if type(dtype) is not DType:
            dtype = as_dtype(dtype if dtype is not None else "float32")
        key = (shape, dtype.name)
        self = _INTERNED.get(key)
        if self is None:
            if any(s < 0 for s in shape):
                raise ValueError(f"negative dimension in shape {shape}")
            self = object.__new__(cls)
            self.shape: Tuple[int, ...] = shape
            self.dtype: DType = dtype
            _INTERNED[key] = self
        return self

    def __init__(self, shape, dtype=None):
        # construction is __new__'s; a def of its own keeps instrumentation
        # that wraps ``ShapeArray.__init__`` off ``object.__init__``
        pass

    def __reduce__(self):
        return ShapeArray, (self.shape, self.dtype.name)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return prod(self.shape)

    @property
    def nbytes(self) -> int:
        return prod(self.shape) * self.dtype.itemsize

    @property
    def T(self) -> "ShapeArray":
        return ShapeArray(self.shape[::-1], self.dtype)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShapeArray(shape={self.shape}, dtype={self.dtype.name})"

    # ------------------------------------------------------------------
    # arithmetic (shape broadcasting only)
    # ------------------------------------------------------------------
    def _binary(self, other, bool_result=False):
        if isinstance(other, ShapeArray):
            shape = _broadcast_shapes(self.shape, other.shape)
            odtype = other.dtype
        elif isinstance(other, np.ndarray):
            shape = _broadcast_shapes(self.shape, other.shape)
            odtype = as_dtype(other.dtype)
        elif isinstance(other, (int, float, bool, np.generic)):
            shape, odtype = self.shape, self.dtype
        else:
            return NotImplemented
        dtype = bool_ if bool_result else result_float(self.dtype, odtype)
        return ShapeArray(shape, dtype)

    __add__ = __radd__ = __sub__ = __rsub__ = lambda self, other: self._binary(other)
    __mul__ = __rmul__ = __truediv__ = __rtruediv__ = lambda self, other: self._binary(other)
    __pow__ = __rpow__ = lambda self, other: self._binary(other)
    __mod__ = __floordiv__ = lambda self, other: self._binary(other)

    def __neg__(self):
        return ShapeArray(self.shape, self.dtype)

    def __lt__(self, other):
        return self._binary(other, bool_result=True)

    __le__ = __gt__ = __ge__ = __lt__

    def __eq__(self, other):  # elementwise, numpy-style
        return self._binary(other, bool_result=True)

    def __ne__(self, other):
        return self._binary(other, bool_result=True)

    def __and__(self, other):
        return self._binary(other, bool_result=True)

    __or__ = __xor__ = __rand__ = __ror__ = __and__

    def __invert__(self):
        return ShapeArray(self.shape, bool_)

    def __hash__(self):  # identity hash despite custom __eq__
        return id(self)

    # ------------------------------------------------------------------
    # matmul
    # ------------------------------------------------------------------
    def __matmul__(self, other):
        if not isinstance(other, (ShapeArray, np.ndarray)):
            return NotImplemented
        a, b = self.shape, tuple(other.shape)
        if len(a) < 1 or len(b) < 1:
            raise ValueError("matmul operands must be at least 1-D")
        # a 1-D operand is promoted to a matrix and the promoted axis dropped
        # from the result, as numpy does
        vec_a, vec_b = len(a) == 1, len(b) == 1
        if vec_a:
            a = (1,) + a
        if vec_b:
            b = b + (1,)
        if a[-1] != b[-2]:
            raise ValueError(f"matmul inner dims mismatch: {self.shape} @ {tuple(other.shape)}")
        shape = _broadcast_shapes(a[:-2], b[:-2])
        if not vec_a:
            shape += (a[-2],)
        if not vec_b:
            shape += (b[-1],)
        odt = other.dtype if isinstance(other, ShapeArray) else as_dtype(other.dtype)
        return ShapeArray(shape, result_float(self.dtype, odt))

    def __rmatmul__(self, other):
        return ShapeArray(other.shape, as_dtype(other.dtype)).__matmul__(self)

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        shape = tuple(int(s) for s in shape)
        if shape.count(-1) > 1:
            raise ValueError("can only specify one unknown dimension")
        if -1 in shape:
            known = prod(s for s in shape if s != -1) or 1
            if known == 0 or self.size % known != 0:
                raise ValueError(f"cannot reshape {self.shape} into {shape}")
            shape = tuple(self.size // known if s == -1 else s for s in shape)
        if prod(shape) != self.size:
            raise ValueError(f"cannot reshape array of size {self.size} into shape {shape}")
        return ShapeArray(shape, self.dtype)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(range(self.ndim))[::-1]
        if sorted(a % self.ndim for a in axes) != list(range(self.ndim)):
            raise ValueError(f"invalid transpose axes {axes} for ndim {self.ndim}")
        return ShapeArray(tuple(self.shape[a % self.ndim] for a in axes), self.dtype)

    def swapaxes(self, a, b):
        axes = list(range(self.ndim))
        axes[a % self.ndim], axes[b % self.ndim] = axes[b % self.ndim], axes[a % self.ndim]
        return self.transpose(*axes)

    def astype(self, dtype):
        return ShapeArray(self.shape, as_dtype(dtype))

    def copy(self):
        return ShapeArray(self.shape, self.dtype)

    def ravel(self):
        return ShapeArray((self.size,), self.dtype)

    def flatten(self):
        return self.ravel()

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------
    def __getitem__(self, key):
        if not isinstance(key, tuple):
            key = (key,)
        # integer (fancy) indexing with an index array on the leading axis
        if len(key) == 1 and isinstance(key[0], (ShapeArray, np.ndarray)):
            idx = key[0]
            kind = idx.dtype.np_dtype.kind if isinstance(idx, ShapeArray) else idx.dtype.kind
            if kind == "b":
                raise TypeError("boolean mask indexing is data-dependent; use ops.where")
            return ShapeArray(tuple(idx.shape) + self.shape[1:], self.dtype)
        out = []
        dims = iter(self.shape)
        n_explicit = sum(k is not None and k is not Ellipsis for k in key)
        expanded = []
        for k in key:
            if k is Ellipsis:
                expanded.extend([slice(None)] * (self.ndim - n_explicit))
            else:
                expanded.append(k)
        key = expanded
        for k in key:
            if k is None:
                out.append(1)
                continue
            d = next(dims)
            if isinstance(k, (int, np.integer)):
                if not -d <= k < d:
                    raise IndexError(f"index {k} out of range for axis of size {d}")
                continue  # dimension removed
            if isinstance(k, slice):
                out.append(len(range(*k.indices(d))))
            else:
                raise TypeError(f"unsupported dryrun index {k!r}")
        out.extend(dims)
        return ShapeArray(tuple(out), self.dtype)

    def __setitem__(self, key, value):
        # dryrun writes are no-ops; shape compatibility is not enforced here
        # because numpy's assignment broadcasting is permissive.
        return None

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def _reduce(self, axis=None, keepdims=False, dtype=None):
        axes = _normalize_axis(axis, self.ndim)
        if axes is None:
            shape = (1,) * self.ndim if keepdims else ()
        elif keepdims:
            shape = tuple(1 if i in axes else s for i, s in enumerate(self.shape))
        else:
            shape = tuple(s for i, s in enumerate(self.shape) if i not in axes)
        return ShapeArray(shape, as_dtype(dtype) if dtype is not None else self.dtype)

    def sum(self, axis=None, keepdims=False, dtype=None):
        return self._reduce(axis, keepdims, dtype)

    def max(self, axis=None, keepdims=False):
        return self._reduce(axis, keepdims)

    def min(self, axis=None, keepdims=False):
        return self._reduce(axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return self._reduce(axis, keepdims, result_float(self.dtype))

    def var(self, axis=None, keepdims=False):
        return self._reduce(axis, keepdims, result_float(self.dtype))

    def argmax(self, axis=None):
        out = self._reduce(axis, keepdims=False)
        return ShapeArray(out.shape, "int64")

    def item(self) -> float:
        if self.size != 1:
            raise ValueError("item() on non-scalar ShapeArray")
        return float("nan")  # dryrun carries no values


def is_shape_array(x) -> bool:
    """True when ``x`` is a dryrun placeholder array."""
    return isinstance(x, ShapeArray)
