"""Megatron 1-D parallel layers over a flat p-rank process group.

Naming of the f/g conjugate operators follows the Megatron-LM paper: ``f``
is identity in forward / all-reduce in backward (placed before column-
parallel weights); ``g`` is all-reduce in forward / identity in backward
(after row-parallel weights).  The leaf bodies are :mod:`repro.nn.leaves`';
the classes here declare the layouts and supply the products.
"""

from __future__ import annotations

from functools import partial
from operator import add, matmul

from repro.backend import ops
from repro.comm import stacked
from repro.comm.group import ProcessGroup
from repro.mesh.dtensor import DTensor, block_map
from repro.mesh.layouts import PARTIAL_1D, REPLICATED_1D, SHARDED_1D
from repro.nn.leaves import LayerNorm, Linear
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


# the two parallel linears' shared cells
def _parallel_bias_backward(self, dy: DTensor) -> None:
    """``db = Σ dy``, local and uncharged; a replicated ``dy``
    (row-parallel) has one ``db`` for all ranks."""
    self.bias.add_grad(block_map(_column_sums, self.owner, dy, layout=self.bias_layout))


def _parallel_backward(self, x: DTensor, dy: DTensor):
    """``dW = xᵀ·dy`` and ``dx = dy·Wᵀ``, each charged per rank, sized from
    the first rank like :func:`_charge_matmul`'s.  A column-parallel weight
    reads a replicated ``x``, so each rank's ``dx`` is an addend, which the
    f operator all-reduces."""
    group, weight = self.owner, self.weight.data
    partial_dx = x.layout.replicated
    dw = block_map(atb, group, x, dy, layout=weight.layout)
    dx = block_map(abt, group, dy, weight, layout=PARTIAL_1D if partial_dx else x.layout)
    ranks = group.ranks
    xl, dyl = x.local(ranks[0]), dy.local(ranks[0])
    group.sim.charge_compute(
        ranks,
        (
            (2.0 * xl.shape[1] * xl.shape[0] * dyl.shape[1], "gemm"),  # dW
            (2.0 * dyl.shape[0] * dyl.shape[1] * xl.shape[1], "gemm"),  # dx
        ),
    )
    if partial_dx:
        dx = stacked.all_reduce(group, dx)  # f operator
    hold(self.buffers, "param_grad", dw)
    hold(self.buffers, "backward", dx)
    return dx, dw


# ======================================================================
class ColumnParallelLinear(Linear):
    """W split along columns; input replicated, output column-sharded."""

    weight_layout = y_layout = SHARDED_1D(1)
    bias_layout = SHARDED_1D(0)
    x_layout = REPLICATED_1D
    # hostbench patches these on the class that defines them
    forward = Linear.forward
    backward = Linear.backward
    _bias_backward = _parallel_bias_backward
    _backward = _parallel_backward

    def _forward(self, x: DTensor) -> DTensor:
        group, weight = self.owner, self.weight.data
        if self.bias is None:
            out = block_map(matmul, group, x, weight, layout=weight.layout)
        else:  # the bias add fused into the product, uncharged
            out = block_map(_affine, group, x, weight, self.bias.data, layout=weight.layout)
        _charge_matmul(group, x, weight)
        hold(self.buffers, "forward", out)
        return out


# ======================================================================
class RowParallelLinear(Linear):
    """W split along rows; input column-sharded, output replicated (g op)."""

    weight_layout = SHARDED_1D(0)
    x_layout = SHARDED_1D(1)
    # the bias is added after the all-reduce, replicated on every device
    bias_layout = y_layout = REPLICATED_1D
    # hostbench patches these on the class that defines them
    forward = Linear.forward
    backward = Linear.backward
    _bias_backward = _parallel_bias_backward
    _backward = _parallel_backward

    def _forward(self, x: DTensor) -> DTensor:
        group, weight = self.owner, self.weight.data
        partials = block_map(matmul, group, x, weight, layout=PARTIAL_1D)
        _charge_matmul(group, x, weight)
        out = stacked.all_reduce(group, partials)  # g operator
        if self.bias is not None:
            out = block_map(add, group, out, self.bias.data)
        hold(self.buffers, "forward", out)
        return out


# ======================================================================
class LayerNorm1D(LayerNorm):
    """Layer norm on replicated activations — purely local, replicated params."""

    param_layout = x_layout = REPLICATED_1D
    # hostbench patches these on the class that defines them
    forward = LayerNorm.forward
    backward = LayerNorm.backward

    def _forward(self, x: DTensor):
        out, x_hat, inv_std = block_map(
            partial(F.layernorm_fwd, eps=self.eps),
            self.owner, x, self.gamma.data, self.beta.data,
        )
        charge_elementwise(out, "layernorm")
        hold(self.buffers, "forward", out)
        return out, (x_hat, inv_std)

    def _backward(self, saved, dy: DTensor):
        x_hat, inv_std = saved
        dx, dg, db = block_map(F.layernorm_bwd, self.owner, dy, x_hat, inv_std, self.gamma.data)
        charge_elementwise(dx, "layernorm")
        return dx, dg, db


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
