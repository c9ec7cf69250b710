"""2-D-partitioned embedding layer and weight-tied LM head (paper §3.2.1).

The embedding table ``[v, h]`` is ``BLOCKED_2D`` like every other SUMMA
operand.  Token indices ``[b, s]`` are ``ROW_BLOCKED``: row i's devices all
hold the b/q sequences of batch block i.  The lookup is the paper's
"one-hot × table" product executed in SUMMA pattern — at step l the table
block ``E_{l,j}`` is broadcast down column j and each device gathers the
rows whose token ids fall in vocabulary stripe l.  The LM head reuses the
same table via Algorithm 2 (``logits = X·Eᵀ``).  The bodies are
:mod:`repro.nn.leaves`'; these classes supply the products.
"""

from __future__ import annotations

import numpy as np

from repro.backend import ops
from repro.comm import collectives as coll
from repro.comm.stacked import precosts
from repro.core.summa import summa_ab, summa_abt, summa_atb
from repro.mesh.dtensor import DTensor, on_stacks
from repro.mesh.layouts import BLOCKED_2D, ROW_BLOCKED
from repro.mesh.partition import zeros_stacked
from repro.nn.leaves import Embedding, LMHead
from repro.nn.loss import stripe_lookup, stripe_scatter
from repro.nn.transformer import hold


class Embedding2D(Embedding):
    """Token embedding with a 2-D blocked table: ids ROW_BLOCKED ``[b, s]``
    → activations BLOCKED_2D ``[b·s, h]``."""

    table_layout = BLOCKED_2D
    ids_layout = ROW_BLOCKED
    # hostbench patches these on the class that defines them
    forward = Embedding.forward
    backward = Embedding.backward

    def _lookup(self, ids: DTensor) -> DTensor:
        mesh, q = self.owner, self.owner.q
        table = self.table.data
        v, h = table.global_shape
        b, s = ids.global_shape
        v_loc, h_loc = v // q, h // q
        T_loc = (b // q) * s

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
        return out

    def _scatter(self, ids: DTensor, d_out: DTensor) -> DTensor:
        """Scatter-add token gradients into the table (column reductions)."""
        mesh, q = self.owner, self.owner.q
        v, h = self.table.data.global_shape
        b, s = ids.global_shape
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
                    idvec = ids.local(rank).reshape((T_loc,))
                    partials[rank] = ops.zeros((v_loc, h_loc), dtype=d.dtype, backend=mesh.backend)
                    stripe_scatter(partials[rank], d, idvec, lo, v_loc)
                charge_compute(ranks, stripe)
                root = mesh.rank(l, j)
                reduced = coll.reduce(mesh.col_group(j), partials, root)
                grad_shards[root] = reduced[root]
        return DTensor(mesh, BLOCKED_2D, grad_shards, (v, h))


class LMHead2D(LMHead):
    """Weight-tied language-model head: ``logits = X·Eᵀ`` (Algorithm 2)."""

    x_layout = BLOCKED_2D
    # hostbench patches these on the class that defines them
    forward = LMHead.forward
    backward = LMHead.backward

    def _logits(self, x: DTensor) -> DTensor:
        return summa_abt(self.owner, x, self.embedding.table.data, self.buffers)

    def _backward(self, x: DTensor, dlogits: DTensor):
        # C = A·Bᵀ (Eq. 3): dA = dC·B, dB = dCᵀ·A
        mesh, table = self.owner, self.embedding.table.data
        dx = summa_ab(mesh, dlogits, table, self.buffers)
        d_table = summa_atb(mesh, dlogits, x, self.buffers)
        hold(self.buffers, "backward", dx)
        return dx, d_table
