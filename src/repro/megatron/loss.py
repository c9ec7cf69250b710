"""Vocab-parallel softmax cross-entropy (Megatron-LM scheme).

Logits are column-sharded ``[T, v/p]``; labels are replicated.  The one-row
case of :class:`repro.nn.loss.VocabStripedCrossEntropy`: three all-reduces
over the flat group (max, Σe, picked logit) produce identical per-token
losses on every device, there are no other rows to combine with, and
backward is purely local.
"""

from __future__ import annotations

from typing import Optional

from repro.comm.group import ProcessGroup
from repro.core.buffers import BufferManager
from repro.mesh.layouts import SHARDED_1D
from repro.nn.loss import VocabStripedCrossEntropy


class VocabParallelCrossEntropy(VocabStripedCrossEntropy):
    """Mean-token cross-entropy over vocabulary-sharded logits."""

    layout = SHARDED_1D(1)

    def __init__(self, group: ProcessGroup, buffers: Optional[BufferManager] = None):
        super().__init__(group, [group], [], buffers)

    # hostbench patches these on the class that defines them
    forward = VocabStripedCrossEntropy.forward
    backward = VocabStripedCrossEntropy.backward
