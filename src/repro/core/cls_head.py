"""Sequence-classification head (the paper's Fig. 1 right branch) in 2D.

"The other branch selects the embedding at certain token position, and
predicts a binary label for each input sequence."  With Optimus layouts:

* the per-sequence embedding ``x₀`` (token position 0) is a strided row
  selection of the BLOCKED_2D activations — row block i holds its own b/q
  sequences, column block j its h/q features, so the selection is local;
* the tiny classifier weight ``[h, C]`` is hosted by mesh row 0, split
  along h across columns (the Fig. 5 pattern for non-SUMMA parameters) and
  broadcast down columns in forward;
* each device forms a partial ``x₀·W`` and a row all-reduce completes the
  contraction over h, leaving class logits replicated within each row —
  exactly where that row's sequence labels live (ROW_BLOCKED).

Cross-entropy over the C classes is then local per row, with one scalar
column all-reduce for the batch mean.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backend import ops
from repro.backend.shape_array import ShapeArray, is_shape_array
from repro.comm import collectives as coll
from repro.comm.stacked import broadcast_down_columns, per_line
from repro.config import ModelConfig
from repro.core.buffers import BufferManager
from repro.core.param import DistModule, DistParam, charge_param_memory
from repro.mesh.dtensor import DTensor
from repro.mesh.layouts import BLOCKED_2D, RANK0, ROW0_BLOCKROWS, ROW_BLOCKED
from repro.mesh.mesh import Mesh
from repro.mesh.partition import distribute_row0_blockrows
from repro.nn.transformer import hold
from repro.reference import functional as F


class ClassificationHead2D(DistModule):
    """token-0 pooling → dense [h, C] → softmax cross-entropy."""

    _cache_attrs = ("_saved",)

    def __init__(
        self,
        mesh: Mesh,
        cfg: ModelConfig,
        weight_global,
        bias_global,
        buffers: Optional[BufferManager] = None,
    ):
        super().__init__()
        self.mesh = mesh
        self.cfg = cfg
        self.buffers = buffers
        self.num_classes = weight_global.shape[1]
        self.weight = self.register_param(
            DistParam("cls_head.weight", distribute_row0_blockrows(mesh, weight_global))
        )
        self.bias = self.register_param(
            DistParam(
                "cls_head.bias",
                DTensor(mesh, RANK0, {mesh.rank(0, 0): bias_global}, bias_global.shape),
            )
        )
        charge_param_memory(self.weight, mesh.sim)
        charge_param_memory(self.bias, mesh.sim)
        self._saved = None

    # ------------------------------------------------------------------
    def forward(self, ln_out: DTensor, cls_labels: Optional[DTensor] = None):
        """ln_out BLOCKED_2D [b·s, h]; cls_labels ROW_BLOCKED [b] or None."""
        mesh, s, C = self.mesh, self.cfg.seq_len, self.num_classes

        # broadcast W_j down each column (Fig. 5a) and the bias to everyone
        w_local = broadcast_down_columns(mesh, self.weight).shards
        root00 = mesh.rank(0, 0)
        bias_local = coll.broadcast(mesh.world, self.bias.data.local(root00), root00)

        x0, partial = {}, {}
        for rank in mesh.ranks:
            x0[rank] = ln_out.local(rank)[::s]  # [b/q, h/q], alike on every rank
            partial[rank] = x0[rank] @ w_local[rank]
        rows, cols = x0[root00].shape
        mesh.sim.charge_compute(mesh.ranks, ((2.0 * rows * cols * C, "gemm"),))
        logits = per_line(mesh.row_groups, "all_reduce", partial)
        for rank in mesh.ranks:
            logits[rank] = logits[rank] + bias_local[rank]

        if cls_labels is None:
            self._saved = None
            b = ln_out.global_shape[0] // s
            return DTensor(mesh, ROW_BLOCKED, logits, (b, C))

        if cls_labels.layout != ROW_BLOCKED:
            raise ValueError(f"cls labels must be ROW_BLOCKED, got {cls_labels.layout}")
        b = cls_labels.global_shape[0]
        probs, part = {}, {}
        for rank in mesh.ranks:
            loss_seq, probs[rank] = F.cross_entropy_fwd(logits[rank], cls_labels.local(rank))
            part[rank] = ops.sum(loss_seq, keepdims=True).reshape((1,))
        hold(self.buffers, "forward", DTensor(mesh, ROW_BLOCKED, probs, (b, C)))
        total = per_line(mesh.col_groups, "all_reduce", part)[root00]
        self._saved = (x0, w_local, probs, cls_labels, b, ln_out)
        if is_shape_array(total):
            return ShapeArray((), total.dtype)
        return float(np.asarray(total)[0]) / b

    # ------------------------------------------------------------------
    def backward(self) -> DTensor:
        """Returns d(ln_out) as a BLOCKED_2D DTensor."""
        if self._saved is None:
            raise RuntimeError("classification backward before forward with labels")
        mesh, s, C = self.mesh, self.cfg.seq_len, self.num_classes
        x0, w_local, probs, cls_labels, b, ln_out = self._saved
        scale = 1.0 / b
        root00 = mesh.rank(0, 0)

        dlogits = {}
        for rank in mesh.ranks:
            p, lab = probs[rank], cls_labels.local(rank)
            dl = ops.full((lab.shape[0],), scale, dtype=p.dtype, backend=ops.backend_of(p))
            dlogits[rank] = F.cross_entropy_bwd(p, lab, dl)

        # dW: partial per device, column-reduce to row 0 (Fig. 5b)
        partials = {r: ops.transpose(x0[r]) @ dlogits[r] for r in mesh.ranks}
        rows, cols = x0[root00].shape
        mesh.sim.charge_compute(mesh.ranks, ((2.0 * cols * rows * C, "gemm"),))
        dw = per_line(mesh.col_groups, "reduce", partials)
        self.weight.add_grad(DTensor(mesh, ROW0_BLOCKROWS, dw, self.weight.data.global_shape))

        # dbias: sum over each row's sequences, then over rows (column 0)
        db_partials = {
            r: ops.sum(dlogits[r], axis=0) for r in mesh.col_group(0).ranks
        }
        db = coll.reduce(mesh.col_group(0), db_partials, root00)
        self.bias.add_grad(
            DTensor(mesh, RANK0, {root00: db[root00]}, self.bias.data.global_shape)
        )

        # d(ln_out): scatter dx0 back into token position 0 of each sequence
        out_shards = {}
        for rank in mesh.ranks:
            dx0 = dlogits[rank] @ ops.transpose(w_local[rank])
            d_out = ops.zeros_like(ln_out.local(rank))
            d_out[::s] = dx0
            out_shards[rank] = d_out
        mesh.sim.charge_compute(mesh.ranks, ((2.0 * dx0.shape[0] * C * dx0.shape[1], "gemm"),))
        d_ln = DTensor(mesh, BLOCKED_2D, out_shards, ln_out.global_shape)
        hold(self.buffers, "backward", d_ln)
        self._saved = None
        return d_ln
