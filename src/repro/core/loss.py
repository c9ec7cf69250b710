"""Vocabulary-2D softmax cross-entropy (paper §3.2.2).

Logits arrive ``BLOCKED_2D`` with global shape ``[T, v]``: each mesh row
holds a token block, each mesh column a vocabulary stripe.  The body is
:class:`repro.nn.loss.VocabStripedCrossEntropy`; this file names the groups:
the three softmax all-reduces run along each SUMMA row, and the rows' sums
are combined with a single column all-reduce of a 1-element buffer.
"""

from __future__ import annotations

from typing import Optional

from repro.core.buffers import BufferManager
from repro.mesh.dtensor import DTensor
from repro.mesh.layouts import BLOCKED_2D, ROW_BLOCKED
from repro.mesh.mesh import Mesh
from repro.nn.loss import VocabStripedCrossEntropy


class CrossEntropy2D(VocabStripedCrossEntropy):
    """Mean-token cross-entropy over 2-D-partitioned logits."""

    layout = BLOCKED_2D
    holds_dlogits = True

    def __init__(self, mesh: Mesh, buffers: Optional[BufferManager] = None):
        super().__init__(mesh, mesh.row_groups, mesh.col_groups, buffers)

    def forward(self, logits: DTensor, labels: DTensor):
        if labels.layout != ROW_BLOCKED:
            raise ValueError(f"labels must be ROW_BLOCKED, got {labels.layout}")
        return super().forward(logits, labels)

    # hostbench patches these on the class that defines them
    backward = VocabStripedCrossEntropy.backward
