#!/usr/bin/env python3
"""Run the whole benchmark twice on the same code and compare.

    python3 hostbench/check_repeat.py [--seed N] [--seconds S]

Prints, per (metric, workload), both values, the relative difference and
the bound.  End-to-end metrics must agree within their ``BENCHMARK.json``
bound; the simulated metrics, the failed share and ``hostbench.py_calls``
must be exactly equal.  Exit code 1 on any breach - a benchmark that
cannot reproduce itself cannot gate anything.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from hostbench import run as hostbench_run  # noqa: E402
from hostbench.metrics import END_TO_END, WORKLOAD_NAMES  # noqa: E402

EXACT_TRACED = ("hostbench.py_calls", "sim_time_s", "sim_peak_mem_mb", "sim_comm_mb")


def one_set(seed: int, seconds: float) -> dict:
    out = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            print(f"  running {name} trace={trace} ...", file=sys.stderr, flush=True)
            out[name, trace] = hostbench_run.run_workload(name, seed, seconds, trace)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=hostbench_run.DEFAULT_SECONDS)
    args = ap.parse_args(argv)

    try:
        first = one_set(args.seed, args.seconds)
        second = one_set(args.seed, args.seconds)
    except hostbench_run.BenchError as e:
        print(f"check_repeat: {e}", file=sys.stderr)
        return 2

    breaches = 0
    print(f"{'metric':<30}{'workload':<16}{'first':>16}{'second':>16}{'rel diff':>10}{'bound':>8}")

    def row(metric, workload, a, b, bound):
        nonlocal breaches
        rel = (b - a) / a if a else (0.0 if b == a else float("inf"))
        bad = abs(rel) > bound
        breaches += bad
        print(
            f"{metric:<30}{workload:<16}{a:>16.6g}{b:>16.6g}{rel:>+10.2%}"
            f"{bound:>8.2f}{'  BREACH' if bad else ''}"
        )

    for name in WORKLOAD_NAMES:
        a, b = first[name, 0], second[name, 0]
        for metric, _unit, _better, bound in END_TO_END:
            row(metric, name, a["metrics"][metric], b["metrics"][metric], bound)
        for metric, value in a["sim"].items():
            row(metric, name, value, b["sim"][metric], 0.0)
        row("failed_share", name, a["failed"] / a["attempted"], b["failed"] / b["attempted"], 0.0)
        ta, tb = first[name, 1], second[name, 1]
        for metric in EXACT_TRACED:
            row(f"{metric} (traced)", name, ta["metrics"][metric], tb["metrics"][metric], 0.0)
        for doc in (a, b, ta, tb):
            if not doc["correct"]:
                breaches += 1
                print(f"{name}: incorrect outputs: {doc['failures']}")
        if a["digest"] != b["digest"]:
            breaches += 1
            print(f"{name}: digests differ: {a['digest']} != {b['digest']}")
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
