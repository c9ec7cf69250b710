"""Fused (chunked, online-softmax) attention — the paper's §6 extension.

The paper's conclusion points out that the attention scores occupy a
``[b, n, s, s]`` tensor — at the Table 3 scaling, 8× the memory of the
``[b, s, h]`` activations — while costing only ``bs²h`` MACs, and proposes
*operation fusion* to avoid materializing them.  This module implements that
proposal: attention computed over key/value chunks with an online softmax
(the FlashAttention recurrence), so the live intermediate is
``[b, n, s, chunk]`` instead of ``[b, n, s, s]``.

Both the unfused helpers (materialized probabilities) and the fused ones
share this file; the distributed layers pick via their ``fused`` flag.
They run on the dispatching backend, so dryrun memory accounting sees the
reduction too.  The serving decode kernel (:func:`decode_attention_fwd`) is
NumPy only: a KV cache always holds real arrays.

Forward saves only O(b·n·s) softmax statistics (running max ``m`` and
normalizer ``l``); backward recomputes each chunk's probabilities from Q, K
and the saved statistics — the standard recompute trade, mirroring in
miniature what activation checkpointing does at layer granularity.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.backend import ops
from repro.reference.functional import softmax, softmax_bwd


# ----------------------------------------------------------------------
# unfused (materialized probabilities)
# ----------------------------------------------------------------------
def attention_fwd(q, k, v):
    """Plain attention on [b, n, s, d] operands; returns (out, probs)."""
    d = q.shape[-1]
    scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(d))
    probs = softmax(scores)
    return probs @ v, probs


def attention_bwd(q, k, v, probs, d_out):
    """Backward of :func:`attention_fwd` given the saved probabilities."""
    d = q.shape[-1]
    inv = 1.0 / math.sqrt(d)
    d_probs = d_out @ v.transpose(0, 1, 3, 2)
    d_v = probs.transpose(0, 1, 3, 2) @ d_out
    d_scores = softmax_bwd(probs, d_probs) * inv
    d_q = d_scores @ k
    d_k = d_scores.transpose(0, 1, 3, 2) @ q
    return d_q, d_k, d_v


def decode_attention_fwd(q, k_slab, v_slab, block_table, mask):
    """Paged single-token attention for a batch of lanes (the serving decode step).

    ``q`` is each lane's new query ``[W, n, d]``.  A lane's cached positions
    live in fixed-size blocks of the ``[blocks, n, bs, d]`` slabs, addressed
    through its row of ``block_table`` ``[W, nb]`` (a shorter table is padded
    with any valid block id).  ``mask`` ``[W, nb·bs]`` is True at the
    positions the lane holds, the new token's own K/V already written — a
    token only ever sees positions ``≤`` its own, so the step is causal by
    construction.  What the other positions contain (a previous owner's K/V,
    NaN) never reaches the output.  One lane over one block of ``ℓ``
    positions is the ``W = nb = 1`` case.  Returns the contexts ``[W, n, d]``.
    """
    lanes, nb = block_table.shape
    _, n, bs, d = k_slab.shape
    flat = (lanes, n, nb * bs, d)
    k = k_slab.take(block_table, axis=0).transpose(0, 2, 1, 3, 4).reshape(flat)
    v = v_slab.take(block_table, axis=0).transpose(0, 2, 1, 3, 4).reshape(flat)
    live = mask[:, None, :]
    scores = np.where(live, (k @ q[:, :, :, None])[:, :, :, 0] * (1.0 / math.sqrt(d)), -np.inf)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    return (probs[:, :, None, :] @ np.where(live[:, :, :, None], v, 0.0))[:, :, 0, :]


# ----------------------------------------------------------------------
# fused (chunked online softmax)
# ----------------------------------------------------------------------
def _chunks(s: int, chunk: int):
    for lo in range(0, s, chunk):
        yield lo, min(lo + chunk, s)


def fused_attention_fwd(q, k, v, chunk: int = 64) -> Tuple[object, object, object]:
    """Chunked attention; returns (out, m, l) with m/l of shape [b,n,s,1].

    The [s, s] score matrix never exists: each iteration touches a
    [s, chunk] slab and folds it into the running (max, normalizer, output)
    triple.
    """
    b = q  # alias for readability of shapes below
    d = q.shape[-1]
    s = q.shape[-2]
    inv = 1.0 / math.sqrt(d)
    m = ops.full(q.shape[:-1] + (1,), -1e30, dtype=q.dtype, backend=ops.backend_of(q))
    l = ops.zeros(q.shape[:-1] + (1,), dtype=q.dtype, backend=ops.backend_of(q))
    acc = ops.zeros(q.shape, dtype=q.dtype, backend=ops.backend_of(q))
    for lo, hi in _chunks(s, chunk):
        k_c = k[:, :, lo:hi, :]
        v_c = v[:, :, lo:hi, :]
        scores = (q @ k_c.transpose(0, 1, 3, 2)) * inv  # [b, n, s, c]
        m_new = ops.maximum(m, ops.max(scores, axis=-1, keepdims=True))
        scale = ops.exp(m - m_new)
        p = ops.exp(scores - m_new)
        l = l * scale + ops.sum(p, axis=-1, keepdims=True)
        acc = acc * scale + p @ v_c
        m = m_new
    out = acc / l
    return out, m, l


def fused_attention_bwd(q, k, v, out, m, l, d_out, chunk: int = 64):
    """Backward pass recomputing each chunk's probabilities from (m, l).

    Uses the identity dS = P ∘ (dP − D) with D = rowsum(dO ∘ O), which
    avoids ever holding the full probability or score matrix.
    """
    d = q.shape[-1]
    s = q.shape[-2]
    inv = 1.0 / math.sqrt(d)
    delta = ops.sum(d_out * out, axis=-1, keepdims=True)  # [b, n, s, 1]
    d_q = ops.zeros(q.shape, dtype=q.dtype, backend=ops.backend_of(q))
    d_k = ops.zeros(k.shape, dtype=k.dtype, backend=ops.backend_of(k))
    d_v = ops.zeros(v.shape, dtype=v.dtype, backend=ops.backend_of(v))
    for lo, hi in _chunks(s, chunk):
        k_c = k[:, :, lo:hi, :]
        v_c = v[:, :, lo:hi, :]
        scores = (q @ k_c.transpose(0, 1, 3, 2)) * inv
        p = ops.exp(scores - m) / l  # exact probabilities, recomputed
        d_p = d_out @ v_c.transpose(0, 1, 3, 2)
        d_scores = p * (d_p - delta) * inv
        d_q = d_q + d_scores @ k_c
        d_k[:, :, lo:hi, :] = _slice_add(d_k, lo, hi, d_scores.transpose(0, 1, 3, 2) @ q)
        d_v[:, :, lo:hi, :] = _slice_add(d_v, lo, hi, p.transpose(0, 1, 3, 2) @ d_out)
    return d_q, d_k, d_v


def _slice_add(target, lo, hi, update):
    """Return target[:, :, lo:hi, :] + update (works on both backends)."""
    from repro.backend.shape_array import is_shape_array

    if is_shape_array(target):
        return update
    return target[:, :, lo:hi, :] + update


def fused_attention_flops(b: int, n: int, s: int, d: int, backward: bool) -> float:
    """GEMM FLOPs of the fused path (per full attention block).

    Forward: QKᵀ and PV (2 × 2bns²d).  Backward: score recompute + the four
    gradient products — 5 × 2bns²d — one recompute GEMM more than the
    unfused backward, the price of not storing probabilities.
    """
    unit = 2.0 * b * n * s * s * d
    return 5.0 * unit if backward else 2.0 * unit
