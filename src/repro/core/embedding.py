"""2-D-partitioned embedding layer and weight-tied LM head (paper §3.2.1).

The embedding table ``[v, h]`` is ``BLOCKED_2D`` like every other SUMMA
operand.  Token indices ``[b, s]`` are ``ROW_BLOCKED``: row i's devices all
hold the b/q sequences of batch block i.  The lookup is the paper's
"one-hot × table" product executed in SUMMA pattern — at step l the table
block ``E_{l,j}`` is broadcast down column j and each device gathers the
rows whose token ids fall in vocabulary stripe l.  The LM head reuses the
same table via Algorithm 2 (``logits = X·Eᵀ``).

The classification head (Fig. 1) pools token 0 of each sequence, a strided
row selection of the ``BLOCKED_2D`` activations that stays local: row block
i holds its own b/q sequences, column block j its h/q features.  Its
``[h, C]`` weight is hosted by mesh row 0, split along h across columns
(the Fig. 5 pattern for non-SUMMA parameters) and broadcast down columns in
forward; each device forms a partial ``x₀·W`` and a row all-reduce completes
the contraction over h, leaving the class logits replicated within each
row, where that row's labels live (``ROW_BLOCKED``).  Cross-entropy is then
local per row, with one scalar column all-reduce for the batch sum.

The bodies are :mod:`repro.nn.leaves`'; these classes supply the products.
"""

from __future__ import annotations

import numpy as np

from repro.backend import ops
from repro.comm import collectives as coll
from repro.comm.stacked import broadcast_down_columns, per_line, precosts
from repro.core.summa import summa_ab, summa_abt, summa_atb
from repro.mesh.dtensor import DTensor, on_stacks
from repro.mesh.layouts import BLOCKED_2D, RANK0, ROW0_BLOCKROWS, ROW_BLOCKED
from repro.mesh.partition import zeros_stacked
from repro.nn.leaves import ClassificationHead, Embedding, LMHead
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


class ClassificationHead2D(ClassificationHead):
    """Token-0 pooling → dense [h, C] hosted by mesh row 0 → cross-entropy
    per mesh row."""

    weight_layout, bias_layout = ROW0_BLOCKROWS, RANK0
    x_layout, labels_layout = BLOCKED_2D, ROW_BLOCKED

    def _logits(self, x: DTensor):
        mesh, s, C = self.owner, self.cfg.seq_len, self.num_classes
        # broadcast W_j down each column (Fig. 5a) and the bias to everyone
        w_local = broadcast_down_columns(mesh, self.weight).shards
        root00 = mesh.rank(0, 0)
        bias_local = coll.broadcast(mesh.world, self.bias.data.local(root00), root00)

        x0, partial = {}, {}
        for rank in mesh.ranks:
            x0[rank] = x.local(rank)[::s]  # [b/q, h/q], alike on every rank
            partial[rank] = x0[rank] @ w_local[rank]
        rows, cols = x0[root00].shape
        mesh.sim.charge_compute(mesh.ranks, ((2.0 * rows * cols * C, "gemm"),))
        summed = per_line(mesh.row_groups, "all_reduce", partial)
        logits = {rank: summed[rank] + bias_local[rank] for rank in mesh.ranks}
        b = x.global_shape[0] // s
        return DTensor(mesh, ROW_BLOCKED, logits, (b, C)), (x0, w_local)

    def _loss_sum(self, losses: DTensor):
        mesh = self.owner
        part = {
            rank: ops.sum(losses.local(rank), keepdims=True).reshape((1,))
            for rank in mesh.ranks
        }
        return per_line(mesh.col_groups, "all_reduce", part)[mesh.rank(0, 0)][0]

    def _backward(self, pooled, dlogits: DTensor, x: DTensor):
        mesh, s, C = self.owner, self.cfg.seq_len, self.num_classes
        x0, w_local = pooled
        d = dlogits.shards
        root00 = mesh.rank(0, 0)

        # dW: partial per device, column-reduce to row 0 (Fig. 5b)
        partials = {r: ops.transpose(x0[r]) @ d[r] for r in mesh.ranks}
        rows, cols = x0[root00].shape
        mesh.sim.charge_compute(mesh.ranks, ((2.0 * cols * rows * C, "gemm"),))
        dw = per_line(mesh.col_groups, "reduce", partials)

        # dbias: sum over each row's sequences, then over rows (column 0)
        db_partials = {r: ops.sum(d[r], axis=0) for r in mesh.col_group(0).ranks}
        db = coll.reduce(mesh.col_group(0), db_partials, root00)

        # d(x): scatter dx0 back into token position 0 of each sequence
        out_shards = {}
        for rank in mesh.ranks:
            dx0 = d[rank] @ ops.transpose(w_local[rank])
            d_out = ops.zeros_like(x.local(rank))
            d_out[::s] = dx0
            out_shards[rank] = d_out
        mesh.sim.charge_compute(mesh.ranks, ((2.0 * dx0.shape[0] * C * dx0.shape[1], "gemm"),))
        dx = DTensor(mesh, BLOCKED_2D, out_shards, x.global_shape)
        hold(self.buffers, "backward", dx)
        return (
            dx,
            DTensor(mesh, ROW0_BLOCKROWS, dw, self.weight.data.global_shape),
            DTensor(mesh, RANK0, {root00: db[root00]}, self.bias.data.global_shape),
        )
