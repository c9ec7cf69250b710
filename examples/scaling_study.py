#!/usr/bin/env python
"""Scaling study: regenerate the paper's Tables 2–3 and extrapolate beyond.

Uses the shape (dryrun) backend, so the *exact* paper-scale configurations
(h up to 8192, 64 devices, 24 layers) execute in seconds with full cost and
memory accounting but no data.  After the paper's 4–64 GPU range we keep
going to 256 devices — the regime the paper's isoefficiency analysis is
about — and print the analytic isoefficiency curve alongside.

Run:  python examples/scaling_study.py [--extended]
"""

import argparse

from repro.config import ModelConfig
from repro.experiments import table2, table3
from repro.experiments.runner import run_megatron_stem, run_optimus_stem, speedup_at
from repro.perfmodel.isoefficiency import isoefficiency_work
from repro.utils.tables import format_table


def extended_weak_scaling() -> str:
    """Continue Table 2's weak scaling to 256 devices (q = 16)."""
    rows = []
    for p, h, n, b_meg, b_opt in [
        (64, 8192, 128, 30, 384),
        (100, 10240, 160, 24, 480),
        (144, 12288, 192, 24, 576),
        (256, 16384, 256, 16, 1024),
    ]:
        cfg = ModelConfig(
            vocab_size=51200, hidden_size=h, num_heads=n, num_layers=24, seq_len=512
        )
        q = int(round(p**0.5))
        rm = run_megatron_stem(cfg, p, b_meg)
        ro = run_optimus_stem(cfg, q, b_opt)
        rows.append(
            [p, h, rm.throughput, ro.throughput, ro.throughput / rm.throughput]
        )
    return format_table(
        ["p", "h", "Megatron thr", "Optimus thr", "Optimus advantage"],
        rows,
        title="Beyond the paper: weak scaling to 256 devices",
    )


def isoefficiency_table() -> str:
    rows = []
    for p in (16, 64, 256, 1024):
        wm = isoefficiency_work("megatron", p)
        wo = isoefficiency_work("optimus", p)
        rows.append([p, wm, wo, wm / wo])
    return format_table(
        ["p", "W needed (Megatron)", "W needed (Optimus)", "ratio"],
        rows,
        title="Isoefficiency at E=0.8 (paper §3.1.2: W~p³ vs W~(√p·log p)³)",
    )


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--extended", action="store_true",
                    help="also sweep beyond the paper's 64 GPUs")
    args = ap.parse_args()

    print("Regenerating Table 2 (weak scaling)...\n")
    rows2 = table2.run()
    print(table2.render(rows2))
    tr, inf = speedup_at([r.result for r in rows2], 64)
    print(f"\nOptimus speedup at 64 GPUs: {tr:.2f}x training / {inf:.2f}x "
          f"inference   (paper: 1.48x / 1.79x)\n")

    print("Regenerating Table 3 (strong scaling)...\n")
    print(table3.render(table3.run()))
    print()
    print(isoefficiency_table())
    if args.extended:
        print()
        print(extended_weak_scaling())


if __name__ == "__main__":
    main()
