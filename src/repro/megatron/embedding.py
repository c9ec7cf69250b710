"""Vocab-parallel embedding and tied LM head for the Megatron baseline.

The table ``[v, h]`` is sharded along the vocabulary axis.  Forward gathers
each device's stripe locally (zeros elsewhere) and all-reduces the partial
embeddings into the replicated activation — Megatron-LM's standard scheme.
The tied head produces column-sharded logits ``[T, v/p]`` that feed the
vocab-parallel cross-entropy without any gather of the full logits.
"""

from __future__ import annotations

from operator import matmul
from typing import Optional

import numpy as np

from repro.comm import stacked
from repro.comm.group import ProcessGroup
from repro.config import ModelConfig
from repro.core.buffers import BufferManager
from repro.core.param import DistModule, DistParam, charge_param_memory
from repro.megatron.layers import abt, atb
from repro.mesh.dtensor import DTensor, block_map, on_stacks
from repro.mesh.layouts import PARTIAL_1D, SHARDED_1D
from repro.mesh.partition import distribute_sharded_1d, zeros_stacked
from repro.nn.loss import stripe_lookup, stripe_scatter
from repro.nn.transformer import hold


class VocabParallelEmbedding(DistModule):
    """Embedding with the table sharded over the vocabulary axis."""

    _cache_attrs = ("_ids",)

    def __init__(
        self,
        group: ProcessGroup,
        cfg: ModelConfig,
        table_global,
        buffers: Optional[BufferManager] = None,
    ):
        super().__init__()
        self.group = group
        self.cfg = cfg
        self.buffers = buffers
        self.table = self.register_param(
            DistParam(
                "embedding.table", distribute_sharded_1d(group, table_global, axis=0)
            )
        )
        charge_param_memory(self.table, group.sim)
        self._ids: Optional[DTensor] = None

    def forward(self, ids: DTensor) -> DTensor:
        """ids REPLICATED_1D [b, s] → replicated activations [b·s, h]: each
        rank gathers its stripe into its slot of the partial sums, which an
        all-reduce adds up."""
        group = self.group
        table = self.table.data
        v, h = table.global_shape
        v_loc = v // group.size
        b, s = ids.global_shape
        T = b * s
        self._ids = ids

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
        out = stacked.all_reduce(group, partials)
        hold(self.buffers, "forward", out)
        return out

    def backward(self, d_out: DTensor) -> None:
        """Each device scatter-adds only its own vocabulary stripe (no comm)."""
        if self._ids is None:
            raise RuntimeError("embedding backward before forward")
        group = self.group
        v, h = self.table.data.global_shape
        v_loc = v // group.size
        T = d_out.global_shape[0]
        grads = zeros_stacked(group, SHARDED_1D(0), (v_loc, h), d_out.dtype, (v, h))
        for k, rank in enumerate(group.ranks):
            idvec = self._ids.local(rank).reshape((T,))
            stripe_scatter(grads.local(rank), d_out.local(rank), idvec, k * v_loc, v_loc)
        group.sim.charge_compute(group.ranks, ((T * h, "elementwise"),))
        self.table.add_grad(grads)
        self._ids = None


class LMHead1D(DistModule):
    """Tied head: ``logits_k = X·E_kᵀ`` — output stays vocabulary-sharded."""

    _cache_attrs = ("_x",)

    def __init__(
        self,
        group: ProcessGroup,
        embedding: VocabParallelEmbedding,
        buffers: Optional[BufferManager] = None,
    ):
        super().__init__()
        self.group = group
        self.embedding = embedding  # shared table, not re-registered
        self.buffers = buffers
        self._x: Optional[DTensor] = None

    def forward(self, x: DTensor) -> DTensor:
        group = self.group
        self._x = x
        table = self.embedding.table.data
        h = table.global_shape[1]
        out = block_map(abt, group, x, table, layout=SHARDED_1D(1))
        xl, tl = x.local(group.ranks[0]), table.local(group.ranks[0])
        group.sim.charge_compute(group.ranks, ((2.0 * xl.shape[0] * h * tl.shape[0], "gemm"),))
        hold(self.buffers, "forward", out)
        return out

    def backward(self, dlogits: DTensor) -> DTensor:
        if self._x is None:
            raise RuntimeError("lm-head backward before forward")
        group = self.group
        table = self.embedding.table.data
        dx_partials = block_map(matmul, group, dlogits, table, layout=PARTIAL_1D)
        d_table = block_map(atb, group, dlogits, self._x, layout=table.layout)
        rank = group.ranks[0]
        dl, tl, xl = dlogits.local(rank), table.local(rank), self._x.local(rank)
        group.sim.charge_compute(
            group.ranks,
            (
                (2.0 * dl.shape[0] * dl.shape[1] * tl.shape[1], "gemm"),
                (2.0 * dl.shape[1] * dl.shape[0] * xl.shape[1], "gemm"),
            ),
        )
        dx = stacked.all_reduce(group, dx_partials)
        self.embedding.table.add_grad(d_table)
        self._x = None
        return dx
