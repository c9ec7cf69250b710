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
