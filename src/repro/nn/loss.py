"""Vocabulary-striped softmax cross-entropy (paper §3.2.2), written once.

Logits ``[T, v]`` arrive with the vocabulary axis striped over the ranks of
a *row* (a process group): rank k of a row holds columns
``[k·v_loc, (k+1)·v_loc)`` of that row's tokens.  Per the paper, ``Σᵢ eˣⁱ``
is summed locally then all-reduced along the row; we add the standard
max-subtraction (one extra row all-reduce of [T_loc, 1]) for float stability
— it changes no values, only conditioning.  The picked logit ``x_l`` lives in
exactly one stripe per token, so a masked gather + row all-reduce recovers it
everywhere.  Rows hold different tokens, so the token mean is finished by an
all-reduce of each rank's 1-element sum along every group of ``cols``.
The embeddings gather and scatter their vocabulary stripes with the same
stripe test (:func:`stripe_lookup`, :func:`stripe_scatter`).

A scheme names its groups and layout: Optimus has the q mesh rows and
combines them down the q mesh columns; Megatron's flat group is the one-row
case with nothing to combine.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.backend import ops
from repro.backend.shape_array import ShapeArray, is_shape_array
from repro.comm.group import ProcessGroup
from repro.comm.stacked import per_line
from repro.core.buffers import BufferManager
from repro.core.param import DistModule
from repro.mesh.dtensor import DTensor, on_stacks
from repro.nn.transformer import hold


def _stripe_hits(lab, lo: int, v_loc: int):
    """Index arrays (token, stripe column) of the labels that fall in the
    stripe ``[lo, lo + v_loc)``."""
    ids = np.asarray(lab).reshape(-1)
    rows = np.nonzero((ids >= lo) & (ids < lo + v_loc))[0]
    return rows, ids[rows] - lo


def stripe_lookup(out, table, ids, lo: int, v_loc: int) -> None:
    """``out[t] += table[ids[t] − lo]``, in place, for the tokens whose id
    falls in the stripe ``[lo, lo + v_loc)`` — an embedding's gather of one
    vocabulary stripe (nothing to do on placeholders)."""
    if is_shape_array(out):
        return
    rows, cols = _stripe_hits(ids, lo, v_loc)
    if rows.size:
        out[rows] += np.asarray(table)[cols]


def stripe_scatter(grad, d, ids, lo: int, v_loc: int) -> None:
    """``grad[ids[t] − lo] += d[t]``, in place, for the tokens whose id
    falls in the stripe — :func:`stripe_lookup`'s backward (repeated ids
    accumulate)."""
    if is_shape_array(grad):
        return
    rows, cols = _stripe_hits(ids, lo, v_loc)
    if rows.size:
        np.add.at(grad, cols, np.asarray(d)[rows])


def stripe_pick(z, lab, lo: int, v_loc: int):
    """Per-token ``z[t, lab[t] − lo]`` where the label falls in this stripe,
    zero elsewhere."""
    if is_shape_array(z):
        return ShapeArray((z.shape[0],), z.dtype)
    zl = np.asarray(z)
    rows, cols = _stripe_hits(lab, lo, v_loc)
    out = np.zeros(zl.shape[0], dtype=zl.dtype)
    out[rows] = zl[rows, cols]
    return out


def stripe_subtract(g, lab, lo: int, v_loc: int, scale: float):
    """``g[t, lab[t] − lo] -= scale``, in place, where the label falls in
    this stripe."""
    if is_shape_array(g):
        return g
    g = np.asarray(g)
    g[_stripe_hits(lab, lo, v_loc)] -= scale
    return g


class VocabStripedCrossEntropy(DistModule):
    """Mean-token cross-entropy over vocabulary-striped logits."""

    layout = None  #: layout of the logits and of their gradient
    holds_dlogits = False  #: account the dlogits shards in the ``backward`` region

    _cache_attrs = ("_saved",)

    def __init__(
        self,
        owner,
        rows: Sequence[ProcessGroup],
        cols: Sequence[ProcessGroup],
        buffers: Optional[BufferManager] = None,
    ):
        super().__init__()
        self.owner = owner
        self.rows = rows
        self.cols = cols
        self.buffers = buffers
        self._saved = None

    # ------------------------------------------------------------------
    def forward(self, logits: DTensor, labels: DTensor):
        """Returns the scalar mean loss (float in numeric mode)."""
        if logits.layout != self.layout:
            raise ValueError(f"logits must be {self.layout}, got {logits.layout}")
        ranks = self.owner.ranks
        T, v = logits.global_shape
        v_loc = v // self.rows[0].size

        # 1) stabilizing max along each row
        mx = per_line(
            self.rows, "all_reduce",
            {r: ops.max(logits.local(r), axis=1, keepdims=True) for r in ranks},
            op="max",
        )

        # 2) exp, row-sum, and the label logit picked from its owning stripe
        e, ssum, picked = {}, {}, {}
        for row in self.rows:
            for k, rank in enumerate(row.ranks):
                z = logits.local(rank) - mx[rank]
                ez = ops.exp(z)
                e[rank] = ez
                ssum[rank] = ops.sum(ez, axis=1, keepdims=True)
                lab = labels.local(rank).reshape((z.shape[0],))
                picked[rank] = stripe_pick(z, lab, k * v_loc, v_loc)
        # every rank's block has ``ez``'s shape
        self.owner.sim.charge_compute(ranks, ((8.0 * ez.size, "elementwise"),))
        ssum = per_line(self.rows, "all_reduce", ssum)
        picked = per_line(self.rows, "all_reduce", picked)

        # 3) per-token loss, summed over each rank's tokens
        probs, part = {}, {}
        for rank in ranks:
            probs[rank] = e[rank] / ssum[rank]
            loss_tok = ops.log(ssum[rank]).reshape((e[rank].shape[0],)) - picked[rank]
            part[rank] = ops.sum(loss_tok, keepdims=True).reshape((1,))
        hold(self.buffers, "forward", DTensor(self.owner, self.layout, probs, (T, v)))

        # 4) the global mean: combine the rows' sums
        part.update(per_line(self.cols, "all_reduce", part))

        # the logits' stack shape when dlogits is to be one
        stack = logits.blocks.shape if on_stacks(self.owner, logits) else None
        self._saved = (probs, labels, T, v_loc, stack)
        total = part[ranks[0]]
        if is_shape_array(total):
            return ShapeArray((), total.dtype)
        return float(np.asarray(total)[0]) / T

    def backward(self) -> DTensor:
        """d logits of the mean loss: (qⱼ − 1[j = label]) / T per token."""
        if self._saved is None:
            raise RuntimeError("cross-entropy backward before forward")
        probs, labels, T, v_loc, stack = self._saved
        scale = 1.0 / T
        if stack is not None:  # each rank writes its slot of one stack
            stack = np.empty(stack, next(iter(probs.values())).dtype)
            # rows × members: the (q, q) mesh stack, a (p,) group stack as (1, p)
            slots = stack.reshape((len(self.rows), -1) + stack.shape[-2:])
        shards = {}
        for i, row in enumerate(self.rows):
            for k, rank in enumerate(row.ranks):
                p = probs[rank]
                g = p * scale if stack is None else np.multiply(p, scale, out=slots[i, k])
                shards[rank] = stripe_subtract(
                    g, labels.local(rank), k * v_loc, v_loc, scale
                )
        self.owner.sim.charge_compute(shards, ((2.0 * g.size, "elementwise"),))
        self._saved = None
        shape = (T, v_loc * self.rows[0].size)
        if stack is None:
            dlogits = DTensor(self.owner, self.layout, shards, shape)
        else:
            dlogits = DTensor.from_blocks(self.owner, self.layout, stack, shape, list(shards))
        if self.holds_dlogits:
            hold(self.buffers, "backward", dlogits)
        return dlogits
