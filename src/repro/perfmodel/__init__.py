"""Closed-form performance and memory models (paper §2.5, §3.1, §4, Table 1).

These are the paper's own analytic expressions, kept separate from the
simulator so each can validate the other: the Table 1 benchmark checks that
the simulator's measured per-device communication volumes and GEMM MACs
match these formulas exactly, and the memory model is cross-checked against
the dryrun allocator in the test suite.
"""
