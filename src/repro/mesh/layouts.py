"""Layout descriptors for distributed tensors.

A layout names *how* a logical global tensor is spread over ranks:

* ``BLOCKED_2D`` — a 2-D matrix split into ``q × q`` blocks; mesh coordinate
  (i, j) holds block (i, j).  Used for all SUMMA operands: activations
  ``[bs, h]``, parameters ``[h, h']``, the embedding table ``[v, h]``.
* ``ROW_BLOCKED`` — axis 0 split into q blocks by mesh *row*; every device in
  a row holds an identical copy (paper §3.2.1: token indices and labels).
* ``COL_BLOCKED`` — axis 0 split by mesh *column*, replicated within columns
  (used for per-row reduction scratch; rarely needed but symmetric).
* ``REPLICATED`` — full copy everywhere (Megatron activations, loss scalars).
* ``SHARDED_1D`` / ``REPLICATED_1D`` — flat-group layouts for the Megatron
  baseline: split along one axis over all p ranks, or fully replicated.
* ``PARTIAL_1D`` — p same-shaped addends of one flat-group tensor (a
  row-parallel product before Megatron's all-reduce makes it replicated).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Layout:
    kind: str
    axis: Optional[int] = None  # for SHARDED_1D: which axis is split

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.axis is None:
            return f"Layout({self.kind})"
        return f"Layout({self.kind}, axis={self.axis})"


BLOCKED_2D = Layout("blocked_2d")
ROW_BLOCKED = Layout("row_blocked")
COL_BLOCKED = Layout("col_blocked")
REPLICATED = Layout("replicated")
REPLICATED_1D = Layout("replicated_1d")
PARTIAL_1D = Layout("partial_1d")

# Vector parameters of non-SUMMA ops (bias, LN affine): hosted *only* by the
# q devices of mesh row 0, split into q column blocks (paper Fig. 5).  They
# are broadcast down columns in forward and their gradients reduced back to
# row 0 in backward.
ROW0_COLS = Layout("row0_cols")

# 2-D parameters of non-SUMMA heads (classifier/gate [h, C]): hosted by mesh
# row 0, split along axis 0 over the columns (same Fig. 5 movement pattern).
ROW0_BLOCKROWS = Layout("row0_blockrows")

# A parameter hosted by rank 0 alone (tiny vectors like a classifier bias).
RANK0 = Layout("rank0")


def SHARDED_1D(axis: int) -> Layout:
    """Flat-group layout: the tensor is split along ``axis`` over all ranks."""
    return Layout("sharded_1d", axis=axis)
