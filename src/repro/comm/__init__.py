"""Collective communication over simulated process groups.

Implements the collectives the paper relies on — tree broadcast and reduce
(used within SUMMA rows/columns, paper Eq. 4), ring all-reduce (Megatron's
primitive, Eq. 5), plus all-gather / reduce-scatter / scatter / gather —
operating on real per-rank numpy shards (or dryrun placeholders) while
charging α–β time, byte counters, and the paper's ``log(g)·B`` /
``2(g−1)B/g`` weighted volumes used by Table 1.
"""
