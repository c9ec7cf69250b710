"""A contiguous stack of serial transformer layers with explicit backward.

The one copy of the ground-truth layer math (pre-LN attention + MLP,
analytic backward).  :class:`~repro.reference.model.ReferenceTransformer`
is embedding + one stack over all N layers + head; pipeline-parallel stages
each own a stack over a contiguous slice of layers (paper §1's other
parallelism family, implemented in :mod:`repro.pipeline`).

Parameters are read from a shared global dict by absolute layer index, so a
stack over layers [2, 5) of a 12-layer model uses ``layer2.* … layer4.*``
and writes gradients under the same names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.backend import ops
from repro.config import ModelConfig
from repro.reference import functional as F


@dataclass
class _LayerCache:
    ln1: tuple = None
    attn_ln_out: object = None
    q: object = None
    k: object = None
    v: object = None
    attn_probs: object = None
    ctx_flat: object = None
    ln2: tuple = None
    ln2_out: object = None
    mlp_pre: object = None
    mlp_act: object = None


class LayerStack:
    """Serial pre-LN transformer layers ``[start, stop)`` of a model."""

    def __init__(
        self,
        cfg: ModelConfig,
        params: Dict[str, object],
        layer_indices: Optional[Sequence[int]] = None,
    ):
        self.cfg = cfg
        self.params = params
        self.layer_indices: List[int] = (
            list(layer_indices)
            if layer_indices is not None
            else list(range(cfg.num_layers))
        )
        self.grads: Dict[str, object] = {}
        self._caches: List[_LayerCache] = []
        self._seq_len = cfg.seq_len

    # ------------------------------------------------------------------
    def forward(self, x, batch_size: int, seq_len: Optional[int] = None):
        """x [b·s, h] → activations after every layer in the slice; ``s``
        is ``cfg.seq_len`` unless given, and is remembered for backward."""
        self._caches = []
        self._seq_len = s = seq_len if seq_len is not None else self.cfg.seq_len
        for l in self.layer_indices:
            x = self._layer_forward(l, x, batch_size, s)
        return x

    def backward(self, dy):
        """dy for the slice output → dx for the slice input.

        Parameter gradients *accumulate* into ``self.grads`` (callers doing
        micro-batching rely on the accumulation).
        """
        if len(self._caches) != len(self.layer_indices):
            raise RuntimeError("backward before forward (or forward incomplete)")
        s = self._seq_len
        b = dy.shape[0] // s
        for pos in reversed(range(len(self.layer_indices))):
            dy = self._layer_backward(pos, dy, b, s)
        self._caches = []
        return dy

    def zero_grads(self) -> None:
        self.grads = {}

    # cache export/import lets a pipeline engine keep several micro-batches'
    # activations in flight through one LayerStack instance
    def export_caches(self) -> list:
        caches, self._caches = self._caches, []
        return caches

    def import_caches(self, caches: list) -> None:
        self._caches = caches

    def _acc(self, name: str, g) -> None:
        if name in self.grads:
            self.grads[name] = self.grads[name] + g
        else:
            self.grads[name] = g

    # ------------------------------------------------------------------
    def _layer_forward(self, l: int, x, b: int, s: int):
        cfg, P = self.cfg, self.params
        n, d, h = cfg.num_heads, cfg.head_dim, cfg.hidden_size
        T = b * s
        c = _LayerCache()

        out1, xh1, inv1 = F.layernorm_fwd(
            x, P[f"layer{l}.ln1.gamma"], P[f"layer{l}.ln1.beta"], cfg.ln_eps
        )
        c.ln1 = (xh1, inv1)
        c.attn_ln_out = out1

        qkv = out1 @ P[f"layer{l}.attn.wqkv"] + P[f"layer{l}.attn.bqkv"]
        qkv_r = qkv.reshape((b, s, n, 3, d))
        q = qkv_r[:, :, :, 0, :].transpose(0, 2, 1, 3)
        k = qkv_r[:, :, :, 1, :].transpose(0, 2, 1, 3)
        v = qkv_r[:, :, :, 2, :].transpose(0, 2, 1, 3)
        c.q, c.k, c.v = q, k, v
        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(d))
        probs = F.softmax(scores)
        c.attn_probs = probs
        ctx_flat = (probs @ v).transpose(0, 2, 1, 3).reshape((T, h))
        c.ctx_flat = ctx_flat
        attn_out = ctx_flat @ P[f"layer{l}.attn.wo"] + P[f"layer{l}.attn.bo"]
        x_mid = x + attn_out

        out2, xh2, inv2 = F.layernorm_fwd(
            x_mid, P[f"layer{l}.ln2.gamma"], P[f"layer{l}.ln2.beta"], cfg.ln_eps
        )
        c.ln2 = (xh2, inv2)
        c.ln2_out = out2
        pre = out2 @ P[f"layer{l}.mlp.w1"] + P[f"layer{l}.mlp.b1"]
        act = F.gelu(pre)
        c.mlp_pre, c.mlp_act = pre, act
        mlp_out = act @ P[f"layer{l}.mlp.w2"] + P[f"layer{l}.mlp.b2"]
        self._caches.append(c)
        return x_mid + mlp_out

    def _layer_backward(self, pos: int, dy, b: int, s: int):
        cfg, P = self.cfg, self.params
        l = self.layer_indices[pos]
        c = self._caches[pos]
        n, d, h = cfg.num_heads, cfg.head_dim, cfg.hidden_size
        T = b * s

        d_act = dy @ ops.transpose(P[f"layer{l}.mlp.w2"])
        self._acc(f"layer{l}.mlp.w2", ops.transpose(c.mlp_act) @ dy)
        self._acc(f"layer{l}.mlp.b2", ops.sum(dy, axis=0))
        d_pre = F.gelu_bwd(c.mlp_pre, d_act)
        d_out2 = d_pre @ ops.transpose(P[f"layer{l}.mlp.w1"])
        self._acc(f"layer{l}.mlp.w1", ops.transpose(c.ln2_out) @ d_pre)
        self._acc(f"layer{l}.mlp.b1", ops.sum(d_pre, axis=0))

        xh2, inv2 = c.ln2
        d_xmid_ln, dg2, db2 = F.layernorm_bwd(d_out2, xh2, inv2, P[f"layer{l}.ln2.gamma"])
        self._acc(f"layer{l}.ln2.gamma", dg2)
        self._acc(f"layer{l}.ln2.beta", db2)
        d_xmid = dy + d_xmid_ln

        d_ctx_flat = d_xmid @ ops.transpose(P[f"layer{l}.attn.wo"])
        self._acc(f"layer{l}.attn.wo", ops.transpose(c.ctx_flat) @ d_xmid)
        self._acc(f"layer{l}.attn.bo", ops.sum(d_xmid, axis=0))

        d_ctx = d_ctx_flat.reshape((b, s, n, d)).transpose(0, 2, 1, 3)
        d_probs = d_ctx @ c.v.transpose(0, 1, 3, 2)
        d_v = c.attn_probs.transpose(0, 1, 3, 2) @ d_ctx
        d_scores = F.softmax_bwd(c.attn_probs, d_probs) * (1.0 / math.sqrt(d))
        d_q = d_scores @ c.k
        d_k = d_scores.transpose(0, 1, 3, 2) @ c.q

        def _undo(t):
            return t.transpose(0, 2, 1, 3)

        d_qkv = ops.stack([_undo(d_q), _undo(d_k), _undo(d_v)], axis=3).reshape(
            (T, 3 * h)
        )
        d_out1 = d_qkv @ ops.transpose(P[f"layer{l}.attn.wqkv"])
        self._acc(f"layer{l}.attn.wqkv", ops.transpose(c.attn_ln_out) @ d_qkv)
        self._acc(f"layer{l}.attn.bqkv", ops.sum(d_qkv, axis=0))

        xh1, inv1 = c.ln1
        d_xin_ln, dg1, db1 = F.layernorm_bwd(d_out1, xh1, inv1, P[f"layer{l}.ln1.gamma"])
        self._acc(f"layer{l}.ln1.gamma", dg1)
        self._acc(f"layer{l}.ln1.beta", db1)
        return d_xmid + d_xin_ln

    # ------------------------------------------------------------------
    def flops_forward(self, batch_size: int) -> float:
        """GEMM FLOPs of one forward through the slice (for cost charging)."""
        from repro.perfmodel.costs import layer_macs_forward

        cfg = self.cfg
        return 2.0 * len(self.layer_indices) * layer_macs_forward(
            batch_size, cfg.seq_len, cfg.hidden_size
        )

    def activation_bytes(self, batch_size: int, elem_size: int = 8) -> int:
        """Approximate bytes of one micro-batch's saved activations."""
        cfg = self.cfg
        T = batch_size * cfg.seq_len
        per_layer = (
            12.0 * T * cfg.hidden_size  # the flat tensors cached per layer
            + batch_size * cfg.num_heads * cfg.seq_len * cfg.seq_len
        )
        return int(per_layer * len(self.layer_indices) * elem_size)
