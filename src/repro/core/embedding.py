"""2-D-partitioned embedding layer and weight-tied LM head (paper §3.2.1).

The embedding table ``[v, h]`` is ``BLOCKED_2D`` like every other SUMMA
operand.  Token indices ``[b, s]`` are ``ROW_BLOCKED``: row i's devices all
hold the b/q sequences of batch block i.  The lookup is the paper's
"one-hot × table" product executed in SUMMA pattern — at step l the table
block ``E_{l,j}`` is broadcast down column j and each device gathers the
rows whose token ids fall in vocabulary stripe l.  The LM head reuses the
same table via Algorithm 2 (``logits = X·Eᵀ``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backend import ops
from repro.comm import collectives as coll
from repro.comm.stacked import precosts
from repro.config import ModelConfig
from repro.core.buffers import BufferManager
from repro.core.param import DistModule, DistParam, charge_param_memory
from repro.core.summa import summa_ab, summa_abt, summa_atb
from repro.mesh.dtensor import DTensor, on_stacks
from repro.mesh.layouts import BLOCKED_2D, ROW_BLOCKED
from repro.mesh.mesh import Mesh
from repro.mesh.partition import distribute_blocked_2d, zeros_stacked
from repro.nn.loss import stripe_lookup, stripe_scatter
from repro.nn.transformer import hold


class Embedding2D(DistModule):
    """Token embedding with a 2-D blocked table."""

    _cache_attrs = ("_ids",)

    def __init__(
        self,
        mesh: Mesh,
        cfg: ModelConfig,
        table_global,
        buffers: Optional[BufferManager] = None,
    ):
        super().__init__()
        self.mesh = mesh
        self.cfg = cfg
        self.buffers = buffers
        self.table = self.register_param(
            DistParam("embedding.table", distribute_blocked_2d(mesh, table_global))
        )
        charge_param_memory(self.table, mesh.sim)
        self._ids: Optional[DTensor] = None

    # ------------------------------------------------------------------
    def forward(self, ids: DTensor) -> DTensor:
        """ids ROW_BLOCKED [b, s] → activations BLOCKED_2D [b·s, h]."""
        if ids.layout != ROW_BLOCKED:
            raise ValueError(f"ids must be ROW_BLOCKED, got {ids.layout}")
        mesh, q = self.mesh, self.mesh.q
        v, h = self.table.data.global_shape
        b, s = ids.global_shape
        v_loc, h_loc = v // q, h // q
        T_loc = (b // q) * s
        self._ids = ids

        table = self.table.data
        out = zeros_stacked(mesh, BLOCKED_2D, (T_loc, h_loc), table.dtype, (b * s, h))
        charge_compute = mesh.sim.charge_compute
        stripe = ((T_loc * h_loc, "elementwise"),)
        if on_stacks(mesh, table, out):
            # every rank's stripe gathers at once: row i's tokens, each from
            # the table block of its stripe l in every column j — an add onto
            # the zeros, as stripe_lookup's (a copy would keep a -0.0)
            rows = np.stack([ids.local(mesh.rank(i, 0)) for i in range(q)]).reshape((q, T_loc))
            i, t = np.nonzero((rows >= 0) & (rows < q * v_loc))
            l, c = np.divmod(rows[i, t], v_loc)
            out.blocks[i, :, t] += table.blocks[l, :, c]
            # the per-rank loop's charges: stripe l's broadcast down column
            # j, then that column's gather
            columns = precosts(mesh, "col_groups", "broadcast", table.shard_nbytes())
            for _ in range(q):
                for line in columns:
                    coll.charge_only("broadcast", (line,))
                    charge_compute(line[0].ranks, stripe)
        else:
            for l in range(q):
                lo = l * v_loc
                for j in range(q):
                    root = mesh.rank(l, j)
                    bcast = coll.broadcast(mesh.col_group(j), table.local(root), root)
                    ranks = [mesh.rank(i, j) for i in range(q)]
                    for rank in ranks:
                        idvec = ids.local(rank).reshape((T_loc,))
                        stripe_lookup(out.local(rank), bcast[rank], idvec, lo, v_loc)
                    charge_compute(ranks, stripe)
        hold(self.buffers, "forward", out)
        return out

    # ------------------------------------------------------------------
    def backward(self, d_out: DTensor) -> None:
        """Scatter-add token gradients into the table (column reductions)."""
        if self._ids is None:
            raise RuntimeError("embedding backward before forward")
        mesh, q = self.mesh, self.mesh.q
        v, h = self.table.data.global_shape
        b, s = self._ids.global_shape
        v_loc, h_loc = v // q, h // q
        T_loc = (b // q) * s
        charge_compute = mesh.sim.charge_compute
        stripe = ((T_loc * h_loc, "elementwise"),)
        grad_shards = {}
        for l in range(q):
            lo = l * v_loc
            for j in range(q):
                ranks = [mesh.rank(i, j) for i in range(q)]
                partials = {}
                for rank in ranks:
                    d = d_out.local(rank)
                    idvec = self._ids.local(rank).reshape((T_loc,))
                    partials[rank] = ops.zeros((v_loc, h_loc), dtype=d.dtype, backend=mesh.backend)
                    stripe_scatter(partials[rank], d, idvec, lo, v_loc)
                charge_compute(ranks, stripe)
                root = mesh.rank(l, j)
                reduced = coll.reduce(mesh.col_group(j), partials, root)
                grad_shards[root] = reduced[root]
        self.table.add_grad(DTensor(mesh, BLOCKED_2D, grad_shards, (v, h)))
        self._ids = None


class LMHead2D(DistModule):
    """Weight-tied language-model head: ``logits = X·Eᵀ`` (Algorithm 2)."""

    _cache_attrs = ("_x",)

    def __init__(
        self,
        mesh: Mesh,
        embedding: Embedding2D,
        buffers: Optional[BufferManager] = None,
    ):
        super().__init__()
        self.mesh = mesh
        self.embedding = embedding  # not registered: the table is shared
        self.buffers = buffers
        self._x: Optional[DTensor] = None

    def forward(self, x: DTensor) -> DTensor:
        self._x = x
        logits = summa_abt(self.mesh, x, self.embedding.table.data, self.buffers)
        hold(self.buffers, "forward", logits)
        return logits

    def backward(self, dlogits: DTensor) -> DTensor:
        if self._x is None:
            raise RuntimeError("lm-head backward before forward")
        # C = A·Bᵀ (Eq. 3): dA = dC·B, dB = dCᵀ·A
        dx = summa_ab(self.mesh, dlogits, self.embedding.table.data, self.buffers)
        d_table = summa_atb(self.mesh, dlogits, self._x, self.buffers)
        self.embedding.table.add_grad(d_table)
        hold(self.buffers, "backward", dx)
        self._x = None
        return dx
