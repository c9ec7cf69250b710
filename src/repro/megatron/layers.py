"""Megatron 1-D parallel layers over a flat p-rank process group.

Naming of the f/g conjugate operators follows the Megatron-LM paper: ``f``
is identity in forward / all-reduce in backward (placed before column-
parallel weights); ``g`` is all-reduce in forward / identity in backward
(after row-parallel weights).
"""

from __future__ import annotations

from functools import partial
from operator import add, matmul
from typing import Optional

from repro.backend import ops
from repro.comm import stacked
from repro.comm.group import ProcessGroup
from repro.core.buffers import BufferManager
from repro.core.param import DistModule, DistParam, charge_param_memory
from repro.mesh.dtensor import DTensor, block_map
from repro.mesh.layouts import PARTIAL_1D, REPLICATED_1D, SHARDED_1D
from repro.mesh.partition import distribute_replicated_1d, distribute_sharded_1d
from repro.nn.transformer import (
    MLP,
    SelfAttention,
    TransformerLayer,
    charge_elementwise,
    hold,
)
from repro.reference import functional as F


# rank-local bodies, trailing axes only: each serves a shard and a stack
def _affine(x, w, b):
    return x @ w + b[..., None, :]


def atb(a, b):
    """``aᵀ·b``."""
    return a.swapaxes(-1, -2) @ b


def abt(a, b):
    """``a·bᵀ``."""
    return a @ b.swapaxes(-1, -2)


def _column_sums(dy):
    return ops.sum(dy, axis=-2)


def _charge_matmul(group: ProcessGroup, x: DTensor, weight: DTensor) -> None:
    """Charge every rank its local ``x @ W`` product.  1-D shards are
    equal-sized (``distribute_sharded_1d`` rejects a non-divisible axis), so
    the first rank's shapes are every rank's."""
    rank = group.ranks[0]
    xl = x.local(rank)
    group.sim.charge_compute(
        group.ranks,
        ((2.0 * xl.shape[0] * xl.shape[1] * weight.local(rank).shape[1], "gemm"),),
    )


def require_replicated(name: str, what: str, x: DTensor) -> None:
    """Replicated math is evaluated on one replica (:func:`block_map`), so
    the layout is checked, not assumed."""
    if x.layout != REPLICATED_1D:
        raise ValueError(f"{name}: {what} must be replicated, got {x.layout}")


def _local_grads(group: ProcessGroup, x: DTensor, dy: DTensor, weight: DTensor, bias, dx_layout):
    """A parallel linear's rank-local backward products, charged per rank:
    ``(dW = xᵀ·dy, db = Σ dy (None without a bias), dy·Wᵀ)``, the last of
    ``dx_layout``; the charge is sized from the first rank like
    :func:`_charge_matmul`'s.  A replicated ``dy`` (row-parallel) has one
    ``db`` for all ranks."""
    dw = block_map(atb, group, x, dy, layout=weight.layout)
    db = None
    if bias is not None:
        db = block_map(_column_sums, group, dy, layout=bias.data.layout)
    dx = block_map(abt, group, dy, weight, layout=dx_layout)
    ranks = group.ranks
    xl, dyl = x.local(ranks[0]), dy.local(ranks[0])
    group.sim.charge_compute(
        ranks,
        (
            (2.0 * xl.shape[1] * xl.shape[0] * dyl.shape[1], "gemm"),  # dW
            (2.0 * dyl.shape[0] * dyl.shape[1] * xl.shape[1], "gemm"),  # dx
        ),
    )
    return dw, db, dx


# ======================================================================
class _ParallelLinear(DistModule):
    """A linear with W split along ``weight_axis`` over the flat group; the
    bias is placed by ``distribute_bias``."""

    _cache_attrs = ("_x",)

    def __init__(
        self,
        group: ProcessGroup,
        name: str,
        weight_global,
        bias_global=None,
        buffers: Optional[BufferManager] = None,
        weight_name: Optional[str] = None,
        bias_name: Optional[str] = None,
    ):
        super().__init__()
        self.group = group
        self.name = name
        self.buffers = buffers
        self.weight = self.register_param(
            DistParam(
                weight_name or f"{name}.weight",
                distribute_sharded_1d(group, weight_global, axis=self.weight_axis),
            )
        )
        charge_param_memory(self.weight, group.sim)
        self.bias: Optional[DistParam] = None
        if bias_global is not None:
            self.bias = self.register_param(
                DistParam(bias_name or f"{name}.bias", self.distribute_bias(group, bias_global))
            )
            charge_param_memory(self.bias, group.sim)
        self._x: Optional[DTensor] = None


class ColumnParallelLinear(_ParallelLinear):
    """W split along columns; input replicated, output column-sharded."""

    weight_axis = 1
    distribute_bias = staticmethod(partial(distribute_sharded_1d, axis=0))

    def forward(self, x: DTensor) -> DTensor:
        require_replicated(self.name, "input", x)
        self._x = x
        weight = self.weight.data
        if self.bias is None:
            out = block_map(matmul, self.group, x, weight, layout=weight.layout)
        else:
            out = block_map(_affine, self.group, x, weight, self.bias.data, layout=weight.layout)
        _charge_matmul(self.group, x, weight)
        hold(self.buffers, "forward", out)
        return out

    def backward(self, dy: DTensor) -> DTensor:
        if self._x is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        dw, db, dx_partial = _local_grads(
            self.group, self._x, dy, self.weight.data, self.bias, PARTIAL_1D
        )
        # f operator: all-reduce the input gradient
        dx = stacked.all_reduce(self.group, dx_partial)
        hold(self.buffers, "param_grad", dw)
        self.weight.add_grad(dw)
        if self.bias is not None:
            self.bias.add_grad(db)
        hold(self.buffers, "backward", dx)
        self._x = None
        return dx


# ======================================================================
class RowParallelLinear(_ParallelLinear):
    """W split along rows; input column-sharded, output replicated (g op)."""

    weight_axis = 0
    # the bias is added after the all-reduce, replicated on every device
    distribute_bias = staticmethod(distribute_replicated_1d)

    def forward(self, x: DTensor) -> DTensor:
        if x.layout != SHARDED_1D(1):
            raise ValueError(f"{self.name}: input must be column-sharded, got {x.layout}")
        self._x = x
        weight = self.weight.data
        partials = block_map(matmul, self.group, x, weight, layout=PARTIAL_1D)
        _charge_matmul(self.group, x, weight)
        out = stacked.all_reduce(self.group, partials)  # g operator
        if self.bias is not None:
            out = block_map(add, self.group, out, self.bias.data)
        hold(self.buffers, "forward", out)
        return out

    def backward(self, dy: DTensor) -> DTensor:
        if self._x is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        require_replicated(self.name, "output gradient", dy)
        dw, db, dx = _local_grads(
            self.group, self._x, dy, self.weight.data, self.bias, self._x.layout
        )
        hold(self.buffers, "param_grad", dw)
        self.weight.add_grad(dw)
        if self.bias is not None:
            self.bias.add_grad(db)
        hold(self.buffers, "backward", dx)
        self._x = None
        return dx


# ======================================================================
class LayerNorm1D(DistModule):
    """Layer norm on replicated activations — purely local, replicated params."""

    _cache_attrs = ("_saved",)

    def __init__(
        self,
        group: ProcessGroup,
        name: str,
        gamma_global,
        beta_global,
        eps: float = 1e-5,
        buffers: Optional[BufferManager] = None,
    ):
        super().__init__()
        self.group = group
        self.name = name
        self.eps = eps
        self.buffers = buffers
        self.gamma = self.register_param(
            DistParam(f"{name}.gamma", distribute_replicated_1d(group, gamma_global))
        )
        self.beta = self.register_param(
            DistParam(f"{name}.beta", distribute_replicated_1d(group, beta_global))
        )
        charge_param_memory(self.gamma, group.sim)
        charge_param_memory(self.beta, group.sim)
        self._saved = None

    def forward(self, x: DTensor) -> DTensor:
        require_replicated(self.name, "input", x)
        out, x_hat, inv_std = block_map(
            partial(F.layernorm_fwd, eps=self.eps),
            self.group, x, self.gamma.data, self.beta.data,
        )
        charge_elementwise(out, "layernorm")
        self._saved = (x_hat, inv_std)
        hold(self.buffers, "forward", out)
        return out

    def backward(self, dy: DTensor) -> DTensor:
        if self._saved is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        require_replicated(self.name, "output gradient", dy)
        x_hat, inv_std = self._saved
        dx, dg, db = block_map(F.layernorm_bwd, self.group, dy, x_hat, inv_std, self.gamma.data)
        self.gamma.add_grad(dg)
        self.beta.add_grad(db)
        charge_elementwise(dx, "layernorm")
        self._saved = None
        return dx


# ======================================================================
# the shared stack (repro.nn.transformer) over the 1-D leaves.  hostbench
# patches forward/backward on the class that *defines* them, so each class
# below keeps both in its own namespace.
# ======================================================================
class SelfAttention1D(SelfAttention):
    """Megatron self-attention: heads split p ways, b and s replicated."""

    qkv_cls, out_cls = ColumnParallelLinear, RowParallelLinear
    layout = SHARDED_1D(1)

    def forward(self, x: DTensor, batch_size: int) -> DTensor:
        return self._forward(x, batch_size, self.cfg.num_heads // self.owner.size)

    backward = SelfAttention.backward


class MLP1D(MLP):
    """Column-parallel fc1 → local GELU → row-parallel fc2."""

    fc1_cls, fc2_cls = ColumnParallelLinear, RowParallelLinear
    forward = MLP.forward
    backward = MLP.backward


class TransformerLayer1D(TransformerLayer):
    """Pre-LN Megatron layer, mirroring :class:`TransformerLayer2D`."""

    norm_cls, attn_cls, mlp_cls = LayerNorm1D, SelfAttention1D, MLP1D
    forward = TransformerLayer.forward
    backward = TransformerLayer.backward
