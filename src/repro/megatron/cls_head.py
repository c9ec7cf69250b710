"""Sequence-classification head for the Megatron baseline.

The classifier weight ``[h, C]`` is tiny (C is 2 in the paper's Fig. 1), so
Megatron-LM keeps it replicated and computes the head redundantly on every
device — activations are already replicated, so no communication is needed
at all; gradients come out identical on every rank.
"""

from __future__ import annotations

from typing import Optional

from repro.backend import ops
from repro.backend.shape_array import ShapeArray, is_shape_array
from repro.comm.group import ProcessGroup
from repro.config import ModelConfig
from repro.core.buffers import BufferManager
from repro.core.param import DistModule, DistParam, charge_param_memory
from repro.mesh.dtensor import DTensor, block_map
from repro.mesh.layouts import REPLICATED_1D
from repro.mesh.partition import distribute_replicated_1d
from repro.nn.leaves import require
from repro.nn.transformer import hold
from repro.reference import functional as F


class ClassificationHead1D(DistModule):
    """token-0 pooling → replicated dense [h, C] → cross-entropy."""

    _cache_attrs = ("_saved",)

    def __init__(
        self,
        group: ProcessGroup,
        cfg: ModelConfig,
        weight_global,
        bias_global,
        buffers: Optional[BufferManager] = None,
    ):
        super().__init__()
        self.group = group
        self.cfg = cfg
        self.buffers = buffers
        self.num_classes = weight_global.shape[1]
        self.weight = self.register_param(
            DistParam("cls_head.weight", distribute_replicated_1d(group, weight_global))
        )
        self.bias = self.register_param(
            DistParam("cls_head.bias", distribute_replicated_1d(group, bias_global))
        )
        charge_param_memory(self.weight, group.sim)
        charge_param_memory(self.bias, group.sim)
        self._saved = None

    def forward(self, ln_out: DTensor, cls_labels: Optional[DTensor] = None):
        require("cls_head", "input", ln_out, REPLICATED_1D)
        if cls_labels is not None:
            require("cls_head", "labels", cls_labels, REPLICATED_1D)
        group, s = self.group, self.cfg.seq_len
        b, h = ln_out.global_shape[0] // s, ln_out.global_shape[1]

        def pooled_logits(x, w, bias):
            x0l = x[::s]  # [b, h]
            return x0l, x0l @ w + bias

        x0, logits = block_map(pooled_logits, group, ln_out, self.weight.data, self.bias.data)
        group.sim.charge_compute(group.ranks, ((2.0 * b * h * self.num_classes, "gemm"),))
        if cls_labels is None:
            self._saved = None
            return logits
        losses, probs = block_map(F.cross_entropy_fwd, group, logits, cls_labels)
        loss_val = ops.sum(losses.local(group.ranks[0]))
        hold(self.buffers, "forward", probs)
        self._saved = (x0, probs, cls_labels, b, ln_out)
        if is_shape_array(loss_val):
            return ShapeArray((), loss_val.dtype)
        return float(loss_val) / b

    def backward(self) -> DTensor:
        if self._saved is None:
            raise RuntimeError("classification backward before forward with labels")
        group, s = self.group, self.cfg.seq_len
        x0, probs, cls_labels, b, ln_out = self._saved
        h = ln_out.global_shape[1]
        scale = 1.0 / b

        def grads(p, lab, x0l, w, xl):
            dl = ops.full(
                (lab.shape[0],), scale, dtype=p.dtype, backend=ops.backend_of(p)
            )
            dlogits = F.cross_entropy_bwd(p, lab, dl)
            d_out = ops.zeros_like(xl)
            d_out[::s] = dlogits @ ops.transpose(w)
            return ops.transpose(x0l) @ dlogits, ops.sum(dlogits, axis=0), d_out

        dw, db, d_out = block_map(grads, group, probs, cls_labels, x0, self.weight.data, ln_out)
        gemm = (2.0 * h * b * self.num_classes, "gemm")  # dW and dx0 cost the same
        group.sim.charge_compute(group.ranks, (gemm, gemm))
        self.weight.add_grad(dw)
        self.bias.add_grad(db)
        self._saved = None
        return d_out
