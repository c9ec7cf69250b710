"""Experiment reproduction: one module per table/figure of the paper.

All timing rows come from dryrun (shape-backend) simulation of the exact
workload the paper measures — the 24-layer transformer stem with
checkpointed backward — on the Frontera-RTX hardware model.  Memory rows
come from strict-capacity dryrun searches.  See EXPERIMENTS.md for
paper-vs-measured values.
"""

from repro.experiments import fig7, fig8, fig9, isoefficiency, report, table1, table2, table3
from repro.experiments.runner import StemResult, run_megatron_stem, run_optimus_stem

__all__ = [
    "StemResult",
    "run_optimus_stem",
    "run_megatron_stem",
    "table1",
    "table2",
    "table3",
    "fig7",
    "fig8",
    "fig9",
    "isoefficiency",
    "report",
]
