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
