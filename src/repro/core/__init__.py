"""Optimus: the paper's 2D tensor-parallel transformer.

Everything here operates on ``q × q`` meshes of simulated devices:

* :mod:`repro.core.summa` — Algorithms 1–3 (``C=AB``, ``C=ABᵀ``, ``C=AᵀB``)
  with the closed-set backward identities (Eqs. 1–3);
* :mod:`repro.core.buffers` — the §3.2.3 memory-management scheme
  (workspace / forward / backward / parameter-gradient / conjunction
  buffers) with the three ablation options;
* layer modules — ``Linear2D``, ``LayerNorm2D``, ``Embedding2D``,
  ``LMHead2D`` (:mod:`repro.nn.leaves`' bodies over 2-D layouts, with
  SUMMA and the row-0 and row collectives as product cells),
  ``SelfAttention2D``, ``MLP2D``, ``CrossEntropy2D``, ``TransformerLayer2D``;
* :mod:`repro.core.model` — the full :class:`OptimusModel` with distributed
  activation checkpointing.
"""

from repro.core.buffers import BufferManager
from repro.core.cls_head import ClassificationHead2D
from repro.core.embedding import Embedding2D, LMHead2D
from repro.core.layers import MLP2D, LayerNorm2D, Linear2D, SelfAttention2D, TransformerLayer2D
from repro.core.loss import CrossEntropy2D
from repro.core.model import OptimusModel
from repro.core.moe import MoE2D
from repro.core.summa import summa_ab, summa_abt, summa_atb

__all__ = [
    "ClassificationHead2D",
    "MoE2D",
    "BufferManager",
    "summa_ab",
    "summa_abt",
    "summa_atb",
    "Linear2D",
    "LayerNorm2D",
    "SelfAttention2D",
    "MLP2D",
    "TransformerLayer2D",
    "Embedding2D",
    "LMHead2D",
    "CrossEntropy2D",
    "OptimusModel",
]
