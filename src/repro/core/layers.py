"""Optimus transformer layers on a q×q mesh (paper §3.2, Fig. 4).

Every activation DTensor here is ``BLOCKED_2D`` with global shape
``[T, h'] = [b·s, h']``: mesh row i owns the tokens of batch block i (b/q
whole sequences, since T/q = (b/q)·s), mesh column j owns feature block j.
Parameters of SUMMA-style matmuls are ``BLOCKED_2D``; vector parameters
(biases, LN affine) live on mesh row 0 in ``ROW0_COLS`` layout and move via
column broadcasts / reductions (Fig. 5), which with the row all-reduces
are :mod:`repro.comm.stacked`'s.  The leaf bodies are :mod:`repro.nn.leaves`';
the classes here declare the layouts and supply those products.
"""

from __future__ import annotations

from repro.backend import ops
from repro.comm.stacked import all_reduce_rows, broadcast_down_columns, reduce_up_columns
from repro.core.summa import grads_of_ab, summa_ab
from repro.mesh.dtensor import DTensor, block_map
from repro.mesh.layouts import BLOCKED_2D, ROW0_COLS
from repro.nn.leaves import LayerNorm, Linear
from repro.nn.transformer import (
    MLP,
    SelfAttention,
    TransformerLayer,
    charge_elementwise,
    hold,
)


def _column_sums(dy):
    return ops.sum(dy, axis=-2, keepdims=True)


def _add_bias(bias, y):
    return y + bias[..., None, :]


# ======================================================================
# Linear2D — SUMMA matmul + row-0-hosted bias
# ======================================================================
class Linear2D(Linear):
    """``y = x·W + bias`` with W 2-D blocked and bias on mesh row 0."""

    weight_layout = x_layout = y_layout = BLOCKED_2D
    bias_layout = ROW0_COLS
    # hostbench patches these on the class that defines them
    forward = Linear.forward
    backward = Linear.backward

    def _forward(self, x: DTensor) -> DTensor:
        buffers = self.buffers
        y = summa_ab(self.owner, x, self.weight.data, buffers)
        if self.bias is not None:
            y = self._bias_add(y)
        # §3.2.3 option 3: a matmul's output is never needed for its own
        # backward, so during checkpoint recomputation it need not be
        # re-buffered (downstream ops that do need their inputs — GELU,
        # LayerNorm, attention — hold their own copies).
        if not (buffers is not None and buffers.skip_matmul_outputs and buffers.in_recompute):
            hold(buffers, "forward", y)
        return y

    def _bias_add(self, y: DTensor) -> DTensor:
        """Broadcast each bias block down its column and add (Fig. 5a); the
        sum is keyed like the broadcast, column by column."""
        mesh = self.owner
        bias = broadcast_down_columns(mesh, self.bias)
        out = block_map(_add_bias, mesh, bias, y, layout=BLOCKED_2D)
        charge_elementwise(out, "add")
        return out

    def _bias_backward(self, dy: DTensor) -> None:
        """Column-reduce the local bias gradients to row 0 (Fig. 5b)."""
        mesh = self.owner
        partials = block_map(_column_sums, mesh, dy)
        (grad,) = reduce_up_columns(mesh, partials, self.bias.data.global_shape)
        self.bias.add_grad(grad)

    def _backward(self, x: DTensor, dy: DTensor):
        dx, dw = grads_of_ab(self.owner, x, self.weight.data, dy, self.buffers)
        hold(self.buffers, "backward", dx)
        hold(self.buffers, "param_grad", dw)
        return dx, dw


# ======================================================================
# LayerNorm2D — paper §3.2.2
# ======================================================================
class LayerNorm2D(LayerNorm):
    """Layer normalization over the feature axis split across mesh columns.

    Forward: Σx and Σx² are computed locally and all-reduced along each mesh
    row (one fused buffer), then x̂ is formed locally; γ and β are broadcast
    down columns from row 0.  Backward follows the paper's formula with two
    more row all-reduces (Σ dŷ and Σ x̂·dŷ) and a column reduction for
    dγ/dβ.
    """

    param_layout = ROW0_COLS
    x_layout = BLOCKED_2D
    # hostbench patches these on the class that defines them
    forward = LayerNorm.forward
    backward = LayerNorm.backward

    def _forward(self, x: DTensor):
        mesh = self.owner
        h = x.global_shape[1]
        eps = self.eps

        # trailing axes only: the same bodies serve one block and a stack
        def row_sums(xl):
            s1 = ops.sum(xl, axis=-1, keepdims=True)
            s2 = ops.sum(xl * xl, axis=-1, keepdims=True)
            return ops.concatenate([s1, s2], axis=-1)  # [T_loc, 2]

        def normalize(xl, st, gamma, beta):
            mean = st[..., 0:1] / h
            var = st[..., 1:2] / h - mean * mean
            inv_std = 1.0 / ops.sqrt(var + eps)
            x_hat = (xl - mean) * inv_std
            return x_hat * gamma[..., None, :] + beta[..., None, :], x_hat, inv_std

        # fused [Σx, Σx²] row all-reduce
        stats = all_reduce_rows(mesh, block_map(row_sums, mesh, x))
        gamma = broadcast_down_columns(mesh, self.gamma)
        beta = broadcast_down_columns(mesh, self.beta)
        out, x_hat, inv_std = block_map(normalize, mesh, x, stats, gamma, beta)
        charge_elementwise(out, "layernorm")
        hold(self.buffers, "forward", x_hat)
        hold(self.buffers, "forward", out)
        # the saved γ may be the parameter's own memory: no optimizer step
        # falls between a layer's forward and its backward (immediate
        # updates and checkpoint recompute included)
        return out, (x_hat, inv_std, gamma)

    def _backward(self, saved, dy: DTensor):
        mesh = self.owner
        x_hat, inv_std, gamma = saved
        h = dy.global_shape[1]

        # trailing axes only, as in forward; ``x_hat`` leads each call so every
        # result is keyed in its (the layer input's, mesh) order
        def row_sums(x_hat, dyl, gamma):
            d = dyl * gamma[..., None, :]
            t1 = ops.sum(d, axis=-1, keepdims=True)
            t2 = ops.sum(d * x_hat, axis=-1, keepdims=True)
            return d, ops.concatenate([t1, t2], axis=-1)

        def input_grad(x_hat, inv_std, d, st):
            return inv_std * (d - st[..., 0:1] / h - x_hat * (st[..., 1:2] / h))

        def param_grads(x_hat, dyl):
            dg = ops.sum(dyl * x_hat, axis=-2, keepdims=True)
            db = ops.sum(dyl, axis=-2, keepdims=True)
            return ops.concatenate([dg, db], axis=-2)  # [2, h/q]

        # Σ dŷ and Σ x̂·dŷ: one fused row all-reduce
        dy_hat, sums = block_map(row_sums, mesh, x_hat, dy, gamma)
        sums = all_reduce_rows(mesh, sums)
        dx = block_map(input_grad, mesh, x_hat, inv_std, dy_hat, sums)
        charge_elementwise(dx, "layernorm")
        hold(self.buffers, "backward", dx)

        # dγ, dβ: fuse into one [2, h/q] column reduction to row 0
        partials = block_map(param_grads, mesh, x_hat, dy)
        dg, db = reduce_up_columns(mesh, partials, self.gamma.data.global_shape)
        return dx, dg, db


# ======================================================================
# the shared stack (repro.nn.transformer) over the 2-D leaves.  hostbench
# patches forward/backward on the class that *defines* them, so each class
# below keeps both in its own namespace.
# ======================================================================
class SelfAttention2D(SelfAttention):
    """Self-attention with b and h partitioned (paper §3.2.1): each device
    owns b/q sequences × n/q heads, so the quadratic ``softmax(QKᵀ)V`` is
    fully local (s is never partitioned — the paper's key design choice
    avoiding the O(b·n·s²) communication of the s/h partition it first
    considers)."""

    qkv_cls = out_cls = Linear2D
    layout = BLOCKED_2D
    holds_dqkv = True

    def forward(self, x: DTensor, batch_size: int) -> DTensor:
        q = self.owner.q
        return self._forward(x, batch_size // q, self.cfg.num_heads // q)

    backward = SelfAttention.backward


class MLP2D(MLP):
    """``h → 4h → h`` perceptron; both matmuls are SUMMA, GELU is local."""

    fc1_cls = fc2_cls = Linear2D
    forward = MLP.forward
    backward = MLP.backward


class TransformerLayer2D(TransformerLayer):
    """Pre-LN transformer layer on the mesh (Fig. 4)."""

    norm_cls, attn_cls, mlp_cls = LayerNorm2D, SelfAttention2D, MLP2D
    forward = TransformerLayer.forward
    backward = TransformerLayer.backward
