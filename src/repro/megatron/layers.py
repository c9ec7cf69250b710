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
from repro.comm import collectives as coll
from repro.comm.group import ProcessGroup
from repro.core.buffers import BufferManager
from repro.core.param import DistModule, DistParam, charge_param_memory
from repro.mesh.dtensor import DTensor, rank_map, replica_map
from repro.mesh.layouts import REPLICATED_1D, SHARDED_1D
from repro.mesh.partition import distribute_replicated_1d, distribute_sharded_1d
from repro.nn.transformer import (
    MLP,
    SelfAttention,
    TransformerLayer,
    charge_elementwise,
    hold,
)
from repro.reference import functional as F


def _affine(x, w, b):
    return x @ w + b


def _charge_matmul(group: ProcessGroup, x: DTensor, out_shards: dict) -> None:
    """Charge every rank its local ``x @ W`` product.  1-D shards are
    equal-sized (``distribute_sharded_1d`` rejects a non-divisible axis), so
    the first rank's shapes are every rank's."""
    rank = group.ranks[0]
    xl = x.local(rank)
    group.sim.charge_compute(
        group.ranks,
        ((2.0 * xl.shape[0] * xl.shape[1] * out_shards[rank].shape[1], "gemm"),),
    )


def require_replicated(name: str, what: str, x: DTensor) -> None:
    """Replicated math is evaluated on one replica (:func:`replica_map`), so
    the layout is checked, not assumed."""
    if x.layout != REPLICATED_1D:
        raise ValueError(f"{name}: {what} must be replicated, got {x.layout}")


def _column_sums(dyl):
    return ops.sum(dyl, axis=0)


def _local_grads(group: ProcessGroup, x: DTensor, dy: DTensor, weight: DTensor, bias):
    """A parallel linear's rank-local backward products, charged per rank:
    ``(dW = xᵀ·dy, db = Σ dy ({} without a bias), dy·Wᵀ)``; the charge is
    sized from the first rank like :func:`_charge_matmul`'s.  A replicated
    ``dy`` (row-parallel) has one ``db`` for all ranks."""
    ranks = group.ranks
    dw = rank_map(lambda xl, dyl: ops.transpose(xl) @ dyl, ranks, x.shards, dy.shards)
    db = {}
    if bias is not None:
        if dy.layout == REPLICATED_1D:
            db = replica_map(_column_sums, group, dy.shards)
        else:
            db = rank_map(_column_sums, ranks, dy.shards)
    dx = rank_map(lambda dyl, w: dyl @ ops.transpose(w), ranks, dy.shards, weight.shards)
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
class ColumnParallelLinear(DistModule):
    """W split along columns; input replicated, output column-sharded."""

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
                distribute_sharded_1d(group, weight_global, axis=1),
            )
        )
        charge_param_memory(self.weight, group.sim)
        self.bias: Optional[DistParam] = None
        if bias_global is not None:
            self.bias = self.register_param(
                DistParam(
                    bias_name or f"{name}.bias",
                    distribute_sharded_1d(group, bias_global, axis=0),
                )
            )
            charge_param_memory(self.bias, group.sim)
        self._x: Optional[DTensor] = None

    def forward(self, x: DTensor) -> DTensor:
        require_replicated(self.name, "input", x)
        self._x = x
        ranks = self.group.ranks
        weights = self.weight.data.shards
        if self.bias is None:
            shards = rank_map(matmul, ranks, x.shards, weights)
        else:
            shards = rank_map(_affine, ranks, x.shards, weights, self.bias.data.shards)
        _charge_matmul(self.group, x, shards)
        out_shape = (x.global_shape[0], self.weight.data.global_shape[1])
        out = DTensor(self.group, SHARDED_1D(1), shards, out_shape)
        hold(self.buffers, "forward", out)
        return out

    def backward(self, dy: DTensor) -> DTensor:
        if self._x is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        dw, db, dx_partial = _local_grads(
            self.group, self._x, dy, self.weight.data, self.bias
        )
        # f operator: all-reduce the input gradient
        dx_shards = coll.all_reduce(self.group, dx_partial)
        dw_dt = DTensor(self.group, SHARDED_1D(1), dw, self.weight.data.global_shape)
        hold(self.buffers, "param_grad", dw_dt)
        self.weight.add_grad(dw_dt)
        if self.bias is not None:
            self.bias.add_grad(
                DTensor(self.group, SHARDED_1D(0), db, self.bias.data.global_shape)
            )
        dx = DTensor(self.group, REPLICATED_1D, dx_shards, self._x.global_shape)
        hold(self.buffers, "backward", dx)
        self._x = None
        return dx


# ======================================================================
class RowParallelLinear(DistModule):
    """W split along rows; input column-sharded, output replicated (g op)."""

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
                distribute_sharded_1d(group, weight_global, axis=0),
            )
        )
        charge_param_memory(self.weight, group.sim)
        self.bias: Optional[DistParam] = None
        if bias_global is not None:
            # bias is added after the all-reduce, replicated on every device
            self.bias = self.register_param(
                DistParam(
                    bias_name or f"{name}.bias",
                    distribute_replicated_1d(group, bias_global),
                )
            )
            charge_param_memory(self.bias, group.sim)
        self._x: Optional[DTensor] = None

    def forward(self, x: DTensor) -> DTensor:
        if x.layout.kind != "sharded_1d" or x.layout.axis != 1:
            raise ValueError(f"{self.name}: input must be column-sharded, got {x.layout}")
        self._x = x
        ranks = self.group.ranks
        partial = rank_map(matmul, ranks, x.shards, self.weight.data.shards)
        _charge_matmul(self.group, x, partial)
        shards = coll.all_reduce(self.group, partial)  # g operator
        if self.bias is not None:
            shards = replica_map(add, self.group, shards, self.bias.data.shards)
        out_shape = (x.global_shape[0], self.weight.data.global_shape[1])
        out = DTensor(self.group, REPLICATED_1D, shards, out_shape)
        hold(self.buffers, "forward", out)
        return out

    def backward(self, dy: DTensor) -> DTensor:
        if self._x is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        require_replicated(self.name, "output gradient", dy)
        dw, db, dx_shards = _local_grads(
            self.group, self._x, dy, self.weight.data, self.bias
        )
        dw_dt = DTensor(self.group, SHARDED_1D(0), dw, self.weight.data.global_shape)
        hold(self.buffers, "param_grad", dw_dt)
        self.weight.add_grad(dw_dt)
        if self.bias is not None:
            self.bias.add_grad(
                DTensor(self.group, REPLICATED_1D, db, self.bias.data.global_shape)
            )
        dx = DTensor(self.group, SHARDED_1D(1), dx_shards, self._x.global_shape)
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
        normed = replica_map(
            partial(F.layernorm_fwd, eps=self.eps),
            self.group, x.shards, self.gamma.data.shards, self.beta.data.shards,
        )
        shards, xhat, inv = {}, {}, {}
        for rank, (out, x_hat, inv_std) in normed.items():
            shards[rank], xhat[rank], inv[rank] = out, x_hat, inv_std
        out_dt = DTensor(self.group, REPLICATED_1D, shards, x.global_shape)
        charge_elementwise(out_dt, "layernorm")
        self._saved = (xhat, inv)
        hold(self.buffers, "forward", out_dt)
        return out_dt

    def backward(self, dy: DTensor) -> DTensor:
        if self._saved is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        require_replicated(self.name, "output gradient", dy)
        xhat, inv = self._saved
        grads = replica_map(
            F.layernorm_bwd, self.group, dy.shards, xhat, inv, self.gamma.data.shards
        )
        dx, dg, db = {}, {}, {}
        for rank, (dxl, dgl, dbl) in grads.items():
            dx[rank], dg[rank], db[rank] = dxl, dgl, dbl
        self.gamma.add_grad(
            DTensor(self.group, REPLICATED_1D, dg, self.gamma.data.global_shape)
        )
        self.beta.add_grad(
            DTensor(self.group, REPLICATED_1D, db, self.beta.data.global_shape)
        )
        out = DTensor(self.group, REPLICATED_1D, dx, dy.global_shape)
        charge_elementwise(out, "layernorm")
        self._saved = None
        return out


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
