"""The full Megatron baseline model.

The same :class:`repro.nn.transformer.TransformerModel` stack as
:class:`repro.core.model.OptimusModel`, over the 1-D leaves, so the two
schemes are compared on identical architectures and identical global
parameters.

Activation checkpointing supports two layouts:

* ``distributed`` (default, the paper's §3.1.1 assumption): each device
  keeps a 1/p slice (along tokens) of every layer input, so checkpoint
  memory is ``N·bsh/p`` per device; the recompute in backward must first
  all-gather the slice back into the replicated input (an extra
  ``(p−1)/p·bsh`` of traffic per layer that the paper's Table 1 does not
  count — we document the delta in EXPERIMENTS.md);
* ``replicated``: vanilla Megatron-LM behaviour — full ``bsh`` input kept
  per device, no gather needed.

Either way, the *working* activations inside a layer are replicated and of
size O(bsh) per device — the memory wall of Fig. 9.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.backend import ops
from repro.backend.shape_array import ShapeArray
from repro.comm import stacked
from repro.comm.group import ProcessGroup
from repro.config import ModelConfig
from repro.megatron.embedding import ClassificationHead1D, LMHead1D, VocabParallelEmbedding
from repro.megatron.layers import LayerNorm1D, TransformerLayer1D
from repro.megatron.loss import VocabParallelCrossEntropy
from repro.mesh.dtensor import DTensor, one_placeholder, shard_runs
from repro.mesh.layouts import REPLICATED_1D
from repro.mesh.partition import distribute_replicated_1d
from repro.nn.transformer import TransformerModel
from repro.runtime.simulator import Simulator


class MegatronModel(TransformerModel):
    """1-D tensor-parallel transformer over a flat group of p devices; the
    keyword arguments are :class:`~repro.nn.transformer.TransformerModel`'s."""

    scheme = "megatron"
    layer_cls, norm_cls = TransformerLayer1D, LayerNorm1D
    embedding_cls, lm_head_cls = VocabParallelEmbedding, LMHead1D
    loss_cls, cls_head_cls = VocabParallelCrossEntropy, ClassificationHead1D

    # hostbench patches these on the class that defines them
    forward = TransformerModel.forward
    backward = TransformerModel.backward
    stem_forward = TransformerModel.stem_forward
    stem_backward = TransformerModel.stem_backward

    def __init__(
        self,
        sim: Simulator,
        cfg: ModelConfig,
        params_global: Dict[str, object],
        checkpoint_activations: bool = True,
        checkpoint_layout: str = "distributed",
        **kwargs,
    ):
        if checkpoint_layout not in ("distributed", "replicated"):
            raise ValueError(f"unknown checkpoint layout {checkpoint_layout!r}")
        self.group = ProcessGroup(sim, sim.ranks, kind="megatron")
        self.checkpoint_layout = checkpoint_layout
        super().__init__(self.group, cfg, params_global, checkpoint_activations, **kwargs)

    def _validate(self, batch_size: int, include_vocab: bool) -> None:
        self.cfg.validate_for_megatron(self.group.size, batch_size, include_vocab)

    def distribute_tokens(self, ids) -> DTensor:
        """Replicate a global integer array (or ShapeArray) on every rank."""
        return distribute_replicated_1d(self.group, ids)

    def _synthetic_activation(self, batch_size: int) -> DTensor:
        """A replicated [b·s, h] activation on the simulator's backend."""
        cfg = self.cfg
        T, h = batch_size * cfg.seq_len, cfg.hidden_size
        if self.sim.backend == "shape":
            shards = {rank: ShapeArray((T, h), "float32") for rank in self.group.ranks}
            return DTensor(self.group, REPLICATED_1D, shards, (T, h))
        return distribute_replicated_1d(self.group, np.random.default_rng(0).normal(size=(T, h)))

    # ------------------------------------------------------------------
    # checkpoint storage
    # ------------------------------------------------------------------
    def _store_checkpoint(self, x: DTensor):
        if self.checkpoint_layout == "replicated":
            return super()._store_checkpoint(x)
        # distributed: rank k keeps a ~T/p row slice (uneven when p ∤ T):
        # the first ``extra`` ranks base + 1 rows, the rest base rows
        group = self.group
        T = x.global_shape[0]
        base, extra = divmod(T, group.size)
        ph = one_placeholder(group, x)
        if ph is not None:
            # a dry run: the two slice sizes as two runs (one when they
            # agree), as the per-rank slices measure
            ranks = list(group.ranks)
            row = ph.nbytes // T if T else 0
            if extra and row:
                runs = [(ranks[:extra], ((base + 1) * row,)), (ranks[extra:], (base * row,))]
            else:
                runs = [(ranks, (base * row,))]
            self.buffers.hold_many("checkpoint", runs)
            return x, None
        slices = {}
        start = 0
        for k, rank in enumerate(group.ranks):
            count = base + (1 if k < extra else 0)
            slices[rank] = x.local(rank)[start : start + count]
            start += count
        self.buffers.hold_many(
            "checkpoint",
            [(ranks, (nbytes,)) for nbytes, ranks in shard_runs(slices, ops.nbytes)],
        )
        # the slices are views of x: keeping x holds no more host memory, and
        # tells the gather whether x was on a stack
        return x, slices

    def _restore_checkpoint(self, entry) -> DTensor:
        if self.checkpoint_layout == "replicated":
            return entry
        return stacked.all_gather(self.group, *entry)
