#!/usr/bin/env python
"""Memory limits (paper Fig. 9): how large a batch fits on 16 GB devices?

For each weak-scaling configuration, bisects the maximum batch size against
the byte-accurate simulated allocator and prints the per-device memory
breakdown at the limit.  Reproduces the paper's §5.3 headline: Optimus
sustains an ~8× larger batch than Megatron on 64 GPUs because activations
are fully distributed instead of replicated.

Run:  python examples/memory_limits.py [--capacity-gb 16] [--optimizer adam]
"""

import argparse

from repro.config import table2_weak_scaling
from repro.experiments import fig9
from repro.perfmodel.memory_model import estimate_peak_bytes, max_batch_size
from repro.utils.tables import format_bytes, format_table


def breakdown_at_limit(capacity: float, optimizer_slots: int) -> str:
    rows = []
    for setting in table2_weak_scaling():
        p = setting["num_devices"]
        for scheme, key in (("megatron", "model_megatron"), ("optimus", "model_optimus")):
            cfg = setting[key]
            limit = max_batch_size(
                scheme, cfg, p, capacity, optimizer_slots=optimizer_slots
            )
            bd = estimate_peak_bytes(
                scheme, cfg, p, max(limit, 1), optimizer_slots=optimizer_slots
            )
            rows.append(
                [
                    p, scheme, limit,
                    format_bytes(bd.params + bd.grads + bd.optimizer),
                    format_bytes(bd.checkpoints),
                    format_bytes(bd.working),
                ]
            )
    return format_table(
        ["p", "scheme", "max b", "params+grads+opt", "checkpoints", "working set"],
        rows,
        title="Per-device memory at the batch-size limit (analytic breakdown)",
    )


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--capacity-gb", type=float, default=16.0)
    ap.add_argument(
        "--optimizer", choices=["none", "sgd", "adam"], default="none",
        help="include optimizer state (sgd: 1 slot, adam: 2 slots)",
    )
    args = ap.parse_args()
    capacity = args.capacity_gb * 1024**3
    slots = {"none": 0, "sgd": 1, "adam": 2}[args.optimizer]

    print("Searching maximum batch sizes on the simulated allocator...\n")
    rows = fig9.run(capacity_bytes=capacity, optimizer_slots=slots)
    print(fig9.render(rows))
    print(
        f"\nOptimus/Megatron ratio at 64 GPUs: {fig9.ratio_at(rows, 64):.2f}x "
        f"(paper: 8x)\n"
    )
    print(breakdown_at_limit(capacity, slots))
    print(
        "\nThe mechanism (paper §3.1.1): every Megatron working-set term is"
        "\nO(b·s·h) per device regardless of p, while Optimus divides"
        "\neverything by p = q² — so growing h with √p squeezes Megatron's"
        "\nbatch while Optimus's limit keeps rising."
    )


if __name__ == "__main__":
    main()
