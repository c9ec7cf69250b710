"""Megatron-LM 1-D tensor parallelism — the paper's baseline (§2.2).

Parameters of each matmul pair are split column-wise then row-wise over a
flat group of p devices; *activations are replicated* on every device, which
is exactly the memory bottleneck Optimus removes (§3.1.1).  Forward of each
transformer layer costs two ring all-reduces of ``bsh`` (one after
attention, one after the MLP); backward costs two more (at the column-
parallel inputs), and activation recomputation under checkpointing doubles
it again — the ``4(p−1)/p·bsh`` vs ``8(p−1)/p·bsh`` rows of Table 1.
The leaves are :mod:`repro.nn.leaves`' bodies over 1-D layouts, with local
GEMMs and the f / g line all-reduces as their product cells.
"""

from repro.megatron.embedding import LMHead1D, VocabParallelEmbedding
from repro.megatron.layers import (
    MLP1D,
    ColumnParallelLinear,
    LayerNorm1D,
    RowParallelLinear,
    SelfAttention1D,
    TransformerLayer1D,
)
from repro.megatron.loss import VocabParallelCrossEntropy
from repro.megatron.model import MegatronModel

__all__ = [
    "ColumnParallelLinear",
    "RowParallelLinear",
    "LayerNorm1D",
    "SelfAttention1D",
    "MLP1D",
    "TransformerLayer1D",
    "VocabParallelEmbedding",
    "LMHead1D",
    "VocabParallelCrossEntropy",
    "MegatronModel",
]
