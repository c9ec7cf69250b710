#!/usr/bin/env python3
"""hostbench: where the simulator's *host* time goes.

    python3 hostbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace [0|1]] [--out FILE]

Without ``--workload`` all four workloads run, one after the other.  Each
workload runs as ROUNDS fresh child processes, one at a time, environment
pinned; every metric is printed by name with its unit, and the last line
of standard output per workload is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics (``--trace 0``, the default) or the
per-layer metrics (``--trace 1``) that ``BENCHMARK.json`` declares.  The
exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [ROOT, SRC]

from hostbench.metrics import UNIT_QUANTILE, WORKLOAD_NAMES, per_layer, units  # noqa: E402
from hostbench.stats import NOISY_THRESHOLD, quantile, spread  # noqa: E402

ROUNDS = 3  # fresh child processes per timed run, each timing its own set-up
DEFAULT_SECONDS = 18  # == BENCHMARK.json run_seconds, split over the rounds
CHILD_TIMEOUT_S = 150

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
#: would change what the program does (SUMMA engine selection) or make every
#: Trainer.train_steps append to a ledger file inside the timed region
REMOVED_ENV = (
    "REPRO_SUMMA_BATCHED",
    "REPRO_SUMMA_PLAN_CACHE",
    "REPRO_SUMMA_POOL",
    "REPRO_LEDGER",
    "REPRO_STRICT_INVARIANTS",
)


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to: ran and found failures)."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    for name in REMOVED_ENV:
        env.pop(name, None)
    env.update(PINNED_ENV)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([ROOT, SRC] + ([inherited] if inherited else []))
    return env


def run_child(workload: str, seed: int, extra: List[str]) -> dict:
    """One child process, waited for; its last stdout line is the result."""
    cmd = [
        sys.executable, "-m", "hostbench.child",
        "--workload", workload, "--seed", str(seed),
        "--spawn-ts", repr(time.monotonic()), *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:  # run() has already killed and reaped it
        raise BenchError(f"{workload}: child exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(
            f"{workload}: child exited {proc.returncode}\n{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(child_doc: dict, trace: int, calib: List[float]) -> dict:
    """What a timed and a traced result document share."""
    return {
        "workload": child_doc["workload"],
        "seed": child_doc["seed"],
        "trace": trace,
        "why": child_doc["why"],
        "seed_note": child_doc["seed_note"],
        "environment": child_doc["environment"],
        "sim": child_doc["sim"],
        "digest": child_doc["pass_digests"][0],
        "calib_unit_ms": quantile(calib, 0.25),
        "calib_spread": spread(calib),
        "noisy": spread(calib) > NOISY_THRESHOLD,
    }


# ----------------------------------------------------------------------
# timed run: ROUNDS children, pooled unit samples
# ----------------------------------------------------------------------
def timed_run(workload: str, seed: int, seconds: float) -> dict:
    rounds = [
        run_child(
            workload, seed,
            ["--mode", "timed", "--seconds", repr(seconds / ROUNDS),
             "--verify", "1" if r == 0 else "0"],
        )
        for r in range(ROUNDS)
    ]
    first = rounds[0]
    failures = [m for r in rounds for m in r["failures"]]
    failed = sum(r["failed"] for r in rounds)
    # only round 0 checks outputs against the reference; the others must
    # reproduce round 0 pass for pass (and its simulated metrics exactly)
    for k, r in enumerate(rounds[1:], start=1):
        ops_per_pass = r["attempted"] // len(r["pass_digests"])
        for i, (a, b) in enumerate(zip(first["pass_digests"], r["pass_digests"])):
            if a != b:
                failed += ops_per_pass
                failures.append(f"round {k} pass {i}: digests {b} != round 0 {a}")
        if r["sim"] != first["sim"]:
            failed += ops_per_pass
            failures.append(f"round {k}: simulated metrics {r['sim']} != round 0 {first['sim']}")

    units = []
    for i, name in enumerate(first["unit_names"]):
        samples = [ns / 1e6 for r in rounds for ns in r["unit_samples_ns"][i]]
        units.append({
            "name": name,
            "best_ms": quantile(samples, UNIT_QUANTILE),
            "median_ms": quantile(samples, 0.5),
            "iqr_ms": quantile(samples, 0.75) - quantile(samples, 0.25),
            "samples": len(samples),
            "samples_ms": samples,
        })
    calib = [c for r in rounds for c in r["calib_ms"]]
    attempted = sum(r["attempted"] for r in rounds)
    return {
        **_summary(first, 0, calib),
        "units": units,
        "metrics": {
            "host_wall_s": sum(u["best_ms"] for u in units) / 1e3,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
            "setup_s": quantile([r["setup_s"] for r in rounds], UNIT_QUANTILE),
        },
        "setup_s_rounds": [r["setup_s"] for r in rounds],
        "attempted": attempted,
        "failed": min(failed, attempted),
        "failures": failures[:10],
    }


# ----------------------------------------------------------------------
# traced run: one child, wrappers installed
# ----------------------------------------------------------------------
def traced_run(workload: str, seed: int, trace_out: str) -> dict:
    doc = run_child(workload, seed, ["--mode", "trace", "--trace-out", trace_out])
    names = [n for n, _u, _b in per_layer()]
    missing = [n for n in names if n not in doc["metrics"]]
    if missing:
        raise BenchError(f"{workload}: traced run lacks metrics {missing}")
    return {
        **_summary(doc, 1, doc["calib_ms"]),
        "metrics": {n: doc["metrics"][n] for n in names},
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "failures": doc["failures"],
        "traced_root_ms": doc["traced_root_ms"],
        "untraced_pass_ms": doc["untraced_pass_ms"],
    }


def run_workload(
    workload: str, seed: int = 0, seconds: float = DEFAULT_SECONDS, trace: int = 0,
    trace_out: str = "",
) -> dict:
    """Run one workload; the returned document carries ``metrics`` (exactly
    the BENCHMARK.json set for this mode), ``attempted``/``failed`` and
    ``correct``."""
    if workload not in WORKLOAD_NAMES:
        raise BenchError(f"unknown workload {workload!r} (choose from {WORKLOAD_NAMES})")
    doc = traced_run(workload, seed, trace_out) if trace else timed_run(workload, seed, seconds)
    doc["correct"] = doc["failed"] == 0 and not doc["failures"]
    return doc


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def render(doc: dict) -> str:
    unit_of = units()
    env = doc["environment"]
    out = [
        f"== hostbench {doc['workload']}  seed={doc['seed']}  trace={doc['trace']} ==",
        f"why:  {doc['why']}",
        f"seed: {doc['seed_note']}",
        f"env:  python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  "
        f"summa_flags {env['summa_flags']}  pinned {PINNED_ENV}",
    ]
    if not doc["trace"]:
        best = f"p{int(UNIT_QUANTILE * 100)}_ms" if UNIT_QUANTILE else "min_ms"
        out.append(f"{'unit':<24}{best:>11}{'median_ms':>11}{'iqr_ms':>10}{'samples':>9}")
        for u in doc["units"]:
            out.append(
                f"{u['name']:<24}{u['best_ms']:>11.2f}{u['median_ms']:>11.2f}"
                f"{u['iqr_ms']:>10.2f}{u['samples']:>9d}"
            )
        out.append(
            f"(host_wall_s = sum of the units' {best}; setup_s = the same statistic "
            f"over the rounds' {[round(s, 3) for s in doc['setup_s_rounds']]})"
        )
    else:
        out.append(
            f"traced pass {doc['traced_root_ms']:.1f} ms, untraced pass "
            f"{doc['untraced_pass_ms']:.1f} ms; layer self times sum to the traced pass"
        )
    for name, value in doc["metrics"].items():
        out.append(f"{name:<40}{value:>22.6f} {unit_of[name]}")
    if not doc["trace"]:
        for name, value in doc["sim"].items():
            out.append(f"{name:<40}{value!r:>22} {unit_of[name]} (simulated: repeats exactly)")
    out.append(f"{'ops_attempted':<40}{doc['attempted']:>22d} count")
    out.append(f"{'ops_failed':<40}{doc['failed']:>22d} count")
    out.append(
        f"noise guard: hostbench.calib_unit_ms p25 {doc['calib_unit_ms']:.3f} ms, "
        f"IQR/median {doc['calib_spread']:.3f}, noisy={str(doc['noisy']).lower()}"
    )
    out.append(f"digest: {doc['digest']}")
    for msg in doc["failures"]:
        out.append(f"FAILED: {msg}")
    return "\n".join(out)


def result_line(doc: dict) -> str:
    unit_of = units()
    return json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {
            name: {"value": value, "unit": unit_of[name]}
            for name, value in doc["metrics"].items()
        },
    })


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default=None, help="default: all four, in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="timed seconds of one run, split over the rounds")
    ap.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
                    help="1: per-layer attribution run instead of the timed run")
    ap.add_argument("--out", default="",
                    help="write the full result document here; a traced run also "
                         "writes its spans to trace-<workload>.json beside it")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"hostbench: no simulator source at {SRC}/repro", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    docs = []
    try:
        for name in names:
            trace_out = ""
            if args.out and args.trace:
                trace_out = os.path.join(
                    os.path.dirname(os.path.abspath(args.out)), f"trace-{name}.json"
                )
            doc = run_workload(name, args.seed, args.seconds, args.trace, trace_out)
            docs.append(doc)
            print(render(doc))
            print(result_line(doc), flush=True)
    except BenchError as e:
        print(f"hostbench: {e}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"schema": "hostbench-v1", "workloads": docs}, f, indent=1)
    return 0 if all(d["correct"] for d in docs) else 1


if __name__ == "__main__":
    sys.exit(main())
