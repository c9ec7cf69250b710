"""Vocab-parallel embedding and tied LM head for the Megatron baseline.

The table ``[v, h]`` is sharded along the vocabulary axis.  Forward gathers
each device's stripe locally (zeros elsewhere) and all-reduces the partial
embeddings into the replicated activation — Megatron-LM's standard scheme.
The tied head produces column-sharded logits ``[T, v/p]`` that feed the
vocab-parallel cross-entropy without any gather of the full logits.

The classification head's weight ``[h, C]`` is tiny (C is 2 in the paper's
Fig. 1), so Megatron-LM keeps it replicated and computes the head
redundantly on every device: the activations are already replicated, so it
communicates nothing, and its gradients come out identical on every rank.

The bodies are :mod:`repro.nn.leaves`'; these classes supply the products.
"""

from __future__ import annotations

from operator import matmul

import numpy as np

from repro.backend import ops
from repro.comm import stacked
from repro.megatron.layers import abt, atb
from repro.mesh.dtensor import DTensor, block_map, on_stacks
from repro.mesh.layouts import PARTIAL_1D, REPLICATED_1D, SHARDED_1D
from repro.mesh.partition import zeros_stacked
from repro.nn.leaves import ClassificationHead, Embedding, LMHead
from repro.nn.loss import stripe_lookup, stripe_scatter


class VocabParallelEmbedding(Embedding):
    """Embedding with the table sharded over the vocabulary axis: ids
    REPLICATED_1D ``[b, s]`` → replicated activations ``[b·s, h]``."""

    table_layout = SHARDED_1D(0)
    ids_layout = REPLICATED_1D
    # hostbench patches these on the class that defines them
    forward = Embedding.forward
    backward = Embedding.backward

    def _lookup(self, ids: DTensor) -> DTensor:
        """Each rank gathers its stripe into its slot of the partial sums,
        which an all-reduce adds up."""
        group = self.owner
        table = self.table.data
        v, h = table.global_shape
        v_loc = v // group.size
        b, s = ids.global_shape
        T = b * s

        partials = zeros_stacked(group, PARTIAL_1D, (T, h), table.dtype, (T, h))
        if on_stacks(group, table, partials):
            # every rank's stripe at once: each token from the stripe k that
            # holds it, an add onto the zeros as stripe_lookup's
            idvec = ids.local(group.ranks[0]).reshape((T,))
            (t,) = np.nonzero((idvec >= 0) & (idvec < group.size * v_loc))
            k, c = np.divmod(idvec[t], v_loc)
            partials.blocks[k, t] += table.blocks[k, c]
        else:
            for k, rank in enumerate(group.ranks):
                idvec = ids.local(rank).reshape((T,))
                stripe_lookup(partials.local(rank), table.local(rank), idvec, k * v_loc, v_loc)
        group.sim.charge_compute(group.ranks, ((T * h, "elementwise"),))
        return stacked.all_reduce(group, partials)

    def _scatter(self, ids: DTensor, d_out: DTensor) -> DTensor:
        """Each device scatter-adds only its own vocabulary stripe (no comm)."""
        group = self.owner
        v, h = self.table.data.global_shape
        v_loc = v // group.size
        T = d_out.global_shape[0]
        grads = zeros_stacked(group, SHARDED_1D(0), (v_loc, h), d_out.dtype, (v, h))
        for k, rank in enumerate(group.ranks):
            idvec = ids.local(rank).reshape((T,))
            stripe_scatter(grads.local(rank), d_out.local(rank), idvec, k * v_loc, v_loc)
        group.sim.charge_compute(group.ranks, ((T * h, "elementwise"),))
        return grads


class LMHead1D(LMHead):
    """Tied head: ``logits_k = X·E_kᵀ`` — output stays vocabulary-sharded."""

    x_layout = REPLICATED_1D
    # hostbench patches these on the class that defines them
    forward = LMHead.forward
    backward = LMHead.backward

    def _logits(self, x: DTensor) -> DTensor:
        group = self.owner
        table = self.embedding.table.data
        h = table.global_shape[1]
        out = block_map(abt, group, x, table, layout=SHARDED_1D(1))
        xl, tl = x.local(group.ranks[0]), table.local(group.ranks[0])
        group.sim.charge_compute(group.ranks, ((2.0 * xl.shape[0] * h * tl.shape[0], "gemm"),))
        return out

    def _backward(self, x: DTensor, dlogits: DTensor):
        group = self.owner
        table = self.embedding.table.data
        dx_partials = block_map(matmul, group, dlogits, table, layout=PARTIAL_1D)
        d_table = block_map(atb, group, dlogits, x, layout=table.layout)
        rank = group.ranks[0]
        dl, tl, xl = dlogits.local(rank), table.local(rank), x.local(rank)
        group.sim.charge_compute(
            group.ranks,
            (
                (2.0 * dl.shape[0] * dl.shape[1] * tl.shape[1], "gemm"),
                (2.0 * dl.shape[1] * dl.shape[0] * xl.shape[1], "gemm"),
            ),
        )
        return stacked.all_reduce(group, dx_partials), d_table


class ClassificationHead1D(ClassificationHead):
    """Token-0 pooling → replicated dense [h, C] → cross-entropy, all
    computed alike on every rank."""

    weight_layout = bias_layout = x_layout = labels_layout = REPLICATED_1D

    def _logits(self, x: DTensor):
        group, s = self.owner, self.cfg.seq_len
        b, h = x.global_shape[0] // s, x.global_shape[1]

        def pooled_logits(xl, w, bias):
            x0l = xl[::s]  # [b, h]
            return x0l, x0l @ w + bias

        x0, logits = block_map(pooled_logits, group, x, self.weight.data, self.bias.data)
        group.sim.charge_compute(group.ranks, ((2.0 * b * h * self.num_classes, "gemm"),))
        return logits, x0

    def _loss_sum(self, losses: DTensor):
        return ops.sum(losses.local(self.owner.ranks[0]))

    def _backward(self, x0: DTensor, dlogits: DTensor, x: DTensor):
        group, s = self.owner, self.cfg.seq_len
        b, h = dlogits.global_shape[0], x.global_shape[1]

        def grads(dl, x0l, w, xl):
            d_out = ops.zeros_like(xl)
            d_out[::s] = dl @ ops.transpose(w)
            return d_out, ops.transpose(x0l) @ dl, ops.sum(dl, axis=0)

        dx, dw, db = block_map(grads, group, dlogits, x0, self.weight.data, x)
        gemm = (2.0 * h * b * self.num_classes, "gemm")  # dW and dx0 cost the same
        group.sim.charge_compute(group.ranks, (gemm, gemm))
        return dx, dw, db
