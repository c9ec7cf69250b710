"""Experiment reproduction: one module per table/figure of the paper.

All timing rows come from dryrun (shape-backend) simulation of the exact
workload the paper measures — the 24-layer transformer stem with
checkpointed backward — on the Frontera-RTX hardware model.  Memory rows
come from strict-capacity dryrun searches.  See EXPERIMENTS.md for
paper-vs-measured values.
"""
