"""One round of one workload, in a fresh process (``python -m hostbench.child``).

``run.py`` launches this with a pinned environment, one child at a time.
Two modes:

* ``timed``  - set-up, one warm-up pass, then untraced passes for
  ``--seconds`` seconds (at least ``MIN_PASSES``), a calibration loop
  before and after each; prints the per-unit samples.
* ``trace``  - set-up, warm-up, then three times an untraced pass followed by
  a traced one (wrappers from ``hostbench.boundaries`` installed), one
  profiled pass that counts Python calls; prints every per-layer metric.
  The traced passes must reproduce the untraced ones (flags, simulated
  metrics, digests) or the round fails.

The last line of stdout is one JSON document.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import math
import os
import platform
import resource
import sys
import time
from typing import Dict, List

import numpy
from repro.core import summa

from hostbench.harness import (
    check_repeatable,
    layer_metrics,
    pass_digest,
    run_pass,
    sim_metrics,
    unit_counters,
)
from hostbench.stats import calibrate, quantile
from hostbench.tracer import Tracer
from hostbench.workloads import WORKLOADS

MIN_PASSES = 2
FIXED_PASSES = 3  # untraced/traced pass pairs of a trace round


def _environment() -> dict:
    return {
        "summa_flags": summa.effective_flags(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def _collect_failures(workload, passes, verify: bool) -> List[str]:
    bad = [
        f"{unit.name}: {u.error or 'operation failed'}"
        for p in passes
        for unit, u in zip(workload.units, p.units)
        for _ in range(u.failed)
    ]
    bad.extend(check_repeatable(workload, passes))
    if verify:
        bad.extend(workload.verify([p.units for p in passes]))
    return bad


def _result(workload, passes, failures, **extra) -> dict:
    attempted = sum(u.ops for p in passes for u in p.units)
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": workload.seed,
        "seed_note": workload.seed_note,
        "unit_names": [u.name for u in workload.units],
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "failures": failures[:10],
        "pass_digests": [pass_digest(p) for p in passes],
        # pass 0 starts from fresh counters in every round, so its simulated
        # metrics are exactly comparable across rounds and runs
        "sim": sim_metrics(passes[0]),
        "environment": _environment(),
        **extra,
    }


def timed_round(workload_cls, seed: int, seconds: float, spawn_ts: float, verify: bool) -> dict:
    workload = workload_cls(seed)
    passes = [run_pass(workload)]  # warm-up: plan caches, pools, shape caches
    setup_s = time.monotonic() - spawn_ts
    calib = [calibrate()]
    deadline = time.perf_counter() + seconds
    while len(passes) <= MIN_PASSES or time.perf_counter() < deadline:
        passes.append(run_pass(workload))
        calib.append(calibrate())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = _collect_failures(workload, passes, verify)
    timed = passes[1:]
    return _result(
        workload, passes, failures,
        mode="timed",
        setup_s=setup_s,
        peak_rss_mb=peak_rss_mb,
        unit_samples_ns=[[p.unit_ns[i] for p in timed] for i in range(len(workload.units))],
        calib_ms=calib,
    )


def _same_sim(workload, a: Dict[str, float], b: Dict[str, float]) -> bool:
    if workload.repeatable:
        return a == b
    # training passes are consecutive steps: per-step deltas of a growing
    # clock agree to rounding, not to the bit - and the simulated peak is a
    # running maximum that creeps up every step (README.md, "Findings")
    return all(
        math.isclose(a[k], b[k], rel_tol=1e-9) for k in ("sim_time_s", "sim_comm_mb")
    )


def trace_round(workload_cls, seed: int, trace_out: str) -> dict:
    workload = workload_cls(seed)
    passes = [run_pass(workload)]
    calib = [calibrate()]
    flags_before = _environment()["summa_flags"]
    # untraced and traced passes alternate, so a slow spell of the machine
    # weighs on both sides of the overhead ratio alike
    tracer = Tracer()
    untraced, traced = [], []
    best = None  # (root ns, metrics, spans) of the fastest traced pass
    flags_traced = flags_before
    for _ in range(FIXED_PASSES):
        untraced.append(run_pass(workload))
        calib.append(calibrate())
        with tracer.patched():
            flags_traced = _environment()["summa_flags"]
            p = run_pass(workload, tracer)
            if best is None or tracer.root_ns < best[0]:
                metrics = layer_metrics(tracer, p)
                metrics.update(unit_counters(p))
                best = (tracer.root_ns, metrics, tracer.spans_doc() if trace_out else None)
        traced.append(p)
        calib.append(calibrate())
    profiler = cProfile.Profile()
    profiler.enable()
    profiled = run_pass(workload)
    profiler.disable()
    passes += [p for pair in zip(untraced, traced) for p in pair] + [profiled]

    failures = _collect_failures(workload, passes, verify=True)
    if flags_traced != flags_before:
        failures.append(f"summa flags changed under tracing: {flags_traced} != {flags_before}")
    want = sim_metrics(untraced[0])
    for p in traced:
        if not _same_sim(workload, sim_metrics(p), want):
            failures.append(f"traced simulated metrics {sim_metrics(p)} != untraced {want}")

    root_ns, metrics, spans = best
    untraced_ns = min(p.wall_ns for p in untraced)
    metrics.update(sim_metrics(passes[0]))
    events = metrics["runtime.device.sim_events"]
    metrics["host_us_per_sim_event"] = untraced_ns / 1e3 / events if events else 0.0
    metrics["hostbench.trace_overhead_ratio"] = min(p.wall_ns for p in traced) / untraced_ns
    metrics["hostbench.py_calls"] = sum(e.callcount for e in profiler.getstats())
    metrics["hostbench.calib_unit_ms"] = quantile(calib, 0.25)
    if spans is not None:
        spans["workload"] = workload.name
        spans["seed"] = workload.seed
        spans["unit_names"] = [u.name for u in workload.units]
        with open(trace_out, "w") as f:
            json.dump(spans, f)
    return _result(
        workload, passes, failures,
        mode="trace",
        metrics=metrics,
        traced_root_ms=root_ns / 1e6,
        untraced_pass_ms=untraced_ns / 1e6,
        calib_ms=calib,
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mode", choices=("timed", "trace"), default="timed")
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--spawn-ts", type=float, default=None,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--verify", type=int, default=1)
    ap.add_argument("--trace-out", default="")
    args = ap.parse_args(argv)
    spawn_ts = args.spawn_ts if args.spawn_ts is not None else time.monotonic()

    cls = WORKLOADS[args.workload]
    if args.mode == "timed":
        doc = timed_round(cls, args.seed, args.seconds, spawn_ts, bool(args.verify))
    else:
        doc = trace_round(cls, args.seed, args.trace_out)
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
