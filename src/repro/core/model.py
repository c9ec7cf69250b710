"""The full Optimus model: embedding → N 2-D transformer layers → final LN
→ tied LM head → vocabulary-2D cross-entropy, with distributed activation
checkpointing and the Fig. 6 buffer schedule.

The stack and its checkpointed loops are
:class:`repro.nn.transformer.TransformerModel`; this file names the 2-D
leaves and the buffer rules only Optimus has.  Each checkpointed layer input
is a ``BLOCKED_2D`` shard (bsh/p bytes per device per layer), and because
communication happens inside SUMMA ops the re-forward re-pays it — the 3×
backward communication ratio unique to Optimus (Table 1 discussion in §4).
Between layers the activation gradient is cloned into the conjunction region
so forward/backward buffers can be reset (Fig. 6).
"""

from __future__ import annotations

import numpy as np

from repro.backend.shape_array import ShapeArray
from repro.core.embedding import ClassificationHead2D, Embedding2D, LMHead2D
from repro.core.layers import LayerNorm2D, TransformerLayer2D
from repro.core.loss import CrossEntropy2D
from repro.mesh.dtensor import DTensor
from repro.mesh.layouts import BLOCKED_2D
from repro.mesh.mesh import Mesh
from repro.mesh.partition import distribute_row_blocked
from repro.nn.transformer import TransformerModel, hold


class OptimusModel(TransformerModel):
    """Paper's 2-D tensor-parallel transformer on a q×q mesh; the arguments
    after ``mesh`` are :class:`~repro.nn.transformer.TransformerModel`'s."""

    scheme = "optimus"
    layer_cls, norm_cls = TransformerLayer2D, LayerNorm2D
    embedding_cls, lm_head_cls = Embedding2D, LMHead2D
    loss_cls, cls_head_cls = CrossEntropy2D, ClassificationHead2D

    # hostbench patches these on the class that defines them
    forward = TransformerModel.forward
    backward = TransformerModel.backward
    stem_forward = TransformerModel.stem_forward
    stem_backward = TransformerModel.stem_backward

    def __init__(self, mesh: Mesh, *args, **kwargs):
        self.mesh = mesh
        super().__init__(mesh, *args, **kwargs)

    def _validate(self, batch_size: int, include_vocab: bool) -> None:
        self.cfg.validate_for_optimus(self.mesh.q, batch_size, include_vocab)

    def distribute_tokens(self, ids) -> DTensor:
        """Partition a global [b, s] integer array (or ShapeArray) row-wise."""
        return distribute_row_blocked(self.mesh, ids)

    def _synthetic_activation(self, batch_size: int) -> DTensor:
        """A BLOCKED_2D [b·s, h] activation on the simulator's backend."""
        mesh, cfg = self.mesh, self.cfg
        T, h = batch_size * cfg.seq_len, cfg.hidden_size
        shape = (T // mesh.q, h // mesh.q)
        if mesh.backend == "shape":
            shards = dict.fromkeys(mesh.ranks, ShapeArray(shape, "float32"))
        else:
            rng = np.random.default_rng(0)
            shards = {rank: rng.normal(size=shape) for rank in mesh.ranks}
        return DTensor(mesh, BLOCKED_2D, shards, (T, h))

    # ------------------------------------------------------------------
    # memory-region rules (Fig. 6, §3.2.3)
    # ------------------------------------------------------------------
    def _before_backward(self) -> None:
        if self.checkpoint and self.buffers.skip_matmul_outputs:
            # option 3: re-size the forward buffer for the leaner recompute
            self.buffers.reset_region("forward")
            self.buffers.trim_region("forward")

    def _between_layers(self, dx: DTensor) -> DTensor:
        """Clone the inter-layer gradient into the conjunction region (Fig 6).

        The region holds exactly one inter-layer gradient at a time — the
        previous layer's copy is dropped when the next one is cloned in.
        """
        self.buffers.reset_region("conjunction")
        hold(self.buffers, "conjunction", dx)
        return dx

    def _release_checkpoints(self) -> None:
        self.buffers.reset_region("checkpoint")
        self.buffers.reset_region("conjunction")
