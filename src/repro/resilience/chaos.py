"""Seeded chaos campaigns: inject faults, recover, prove nothing was lost.

For each parallelism scheme (Optimus 2×2, Megatron p=2, hybrid 2-replica
data parallel over 2×2 meshes) the campaign runs the same tiny training
job twice:

1. a **fault-free baseline** — plain :class:`Trainer`, no injector
   installed (the zero-overhead path);
2. a **chaos run** — fresh identical model, a seeded
   :class:`~repro.resilience.faults.FaultSchedule` covering the whole
   fault menu (rank crash, message corruption, transient collective
   failure, straggler window, gradient SDC) and a
   :class:`~repro.resilience.trainer.ResilientTrainer` with periodic
   checkpointing.

The campaign passes only if the chaos run's loss trajectory is
**bit-exactly equal** to the baseline's — recovery loses nothing — and
reports retry counts, MTTR and the recovery overhead (extra simulated
seconds) per scheme.  Everything is derived from the campaign seed: two
runs with the same seed produce identical campaign JSON (no wall-clock
times or filesystem paths appear in the report).

A one-step *probe* run first counts the collectives each scheme issues per
step, so the message-corruption fault can deterministically target a
collective in the backward pass (75% through the step's reduces) — where a
flipped exponent bit is guaranteed to reach the gradient guards.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict

import numpy as np

from repro.config import tiny_config
from repro.nn.init import init_transformer_params
from repro.resilience.faults import (
    FaultSchedule,
    GradientSDC,
    MessageCorruption,
    RankCrash,
    Straggler,
    TransientCollectiveFault,
)
from repro.resilience.injector import FaultInjector
from repro.resilience.trainer import ResilientTrainer
from repro.schemes import SCHEMES as SCHEME_TABLE
from repro.training.data import BatchStream
from repro.training.optim import Adam
from repro.training.trainer import Trainer
from repro.utils import UsageError, write_text

SCHEMES = ("optimus", "megatron", "hybrid")

#: the collective kind each scheme's gradient path runs through
_GRAD_KIND = {"optimus": "reduce", "megatron": "all_reduce", "hybrid": "all_reduce"}

_BATCH = 4  # divisible by q=2 (Optimus rows) and by R·q = 4 (hybrid)


def _make_model(scheme: str, cfg, param_seed: int = 1, trace: bool = False):
    if scheme == "hybrid":
        from repro.hybrid.data_parallel import DataParallel

        dp = DataParallel.build(num_replicas=2, q=2, cfg=cfg, seed=param_seed)
        dp.sim.tracer.enabled = trace
        return dp
    if scheme not in SCHEME_TABLE:
        raise ValueError(f"unknown scheme {scheme!r} (choose from {SCHEMES})")
    rec = SCHEME_TABLE[scheme]
    sim = rec.simulator(rec.min_devices, trace=trace)
    return rec.model(sim, cfg, init_transformer_params(cfg, seed=param_seed))


def _make_trainer(scheme, cfg, seed, resilient=False, trace=False, **kw):
    model = _make_model(scheme, cfg, trace=trace)
    optimizer = Adam(model.parameters(), lr=1e-2)
    batches = BatchStream.copy_task(cfg, _BATCH, seed=seed)
    cls = ResilientTrainer if resilient else Trainer
    return cls(model, optimizer, batches, **kw)


def _probe_collective_counts(scheme, cfg, seed) -> dict:
    """Collectives issued per kind in one training step (layout-stable)."""
    injector = FaultInjector(FaultSchedule(), seed=seed)
    trainer = _make_trainer(scheme, cfg, seed, resilient=True, injector=injector)
    trainer.train_steps(1)
    return dict(injector._kind_counts)


def default_schedule(
    scheme: str, rng: np.random.Generator, num_steps: int, num_ranks: int,
    collective_counts: dict,
) -> FaultSchedule:
    """One of everything, at seeded distinct steps inside the run."""
    kind = _GRAD_KIND[scheme]
    steps = rng.choice(np.arange(1, num_steps), size=4, replace=False)
    crash_step, corrupt_step, transient_step, sdc_step = (int(s) for s in steps)
    # 75% through the step's grad-kind collectives lands in the backward
    # pass, so the flipped bit reaches a gradient and trips the SDC guard
    corrupt_index = int(0.75 * collective_counts.get(kind, 1))
    return FaultSchedule.of(
        RankCrash(step=crash_step, rank=int(rng.integers(num_ranks))),
        MessageCorruption(step=corrupt_step, index=corrupt_index, kind=kind),
        TransientCollectiveFault(
            step=transient_step, index=1, kind=kind, fails=2,
            mode="flaky" if int(rng.integers(2)) else "timeout",
        ),
        Straggler(
            rank=int(rng.integers(num_ranks)),
            start_step=max(1, num_steps - 2), num_steps=2, factor=3.0,
        ),
        GradientSDC(step=sdc_step),
    )


def run_scheme(
    scheme: str,
    seed: int,
    num_steps: int,
    checkpoint_every: int,
    ckpt_dir: str,
    trace: bool = False,
):
    """One scheme's baseline + chaos pair; returns (result dict, chaos sim)."""
    cfg = tiny_config(num_layers=2)
    counts = _probe_collective_counts(scheme, cfg, seed)

    baseline = _make_trainer(scheme, cfg, seed)
    base_log = baseline.train_steps(num_steps)
    base_elapsed = baseline.sim.elapsed()

    rng = np.random.default_rng([seed, SCHEMES.index(scheme)])
    num_ranks = baseline.sim.num_ranks
    schedule = default_schedule(scheme, rng, num_steps, num_ranks, counts)
    injector = FaultInjector(schedule, seed=seed)
    chaos = _make_trainer(
        scheme, cfg, seed, resilient=True, trace=trace,
        injector=injector,
        checkpoint_every=checkpoint_every,
        checkpoint_path=os.path.join(ckpt_dir, f"{scheme}-ckpt"),
    )
    chaos_log = chaos.train_steps(num_steps)
    chaos_elapsed = chaos.sim.elapsed()

    loss_match = chaos_log.losses == base_log.losses
    faults_fired = (
        injector.stats["crashes"] >= 1
        and injector.stats["corruptions"] >= 1
        and injector.stats["retries"] >= 1
        and injector.stats["sdc_injected"] >= 1
    )
    result = {
        "scheme": scheme,
        "steps": num_steps,
        "ok": bool(loss_match and faults_fired),
        "loss_match": bool(loss_match),
        "faults_fired": bool(faults_fired),
        "final_loss": chaos_log.losses[-1],
        "baseline_elapsed_s": base_elapsed,
        "chaos_elapsed_s": chaos_elapsed,
        "recovery_overhead_s": chaos_elapsed - base_elapsed,
        "stats": dict(injector.stats),
        "recoveries": list(chaos.recoveries),
        "mttr_s": [r["mttr_s"] for r in chaos.recoveries],
        "collectives_per_step": counts,
        "faults": [
            {"type": type(f).__name__, **asdict(f)} for f in schedule.all_faults()
        ],
    }
    return result, chaos.sim


def run_campaign(
    seed: int = 0,
    quick: bool = False,
    steps=None,
    schemes=None,
    trace_out=None,
    ledger=None,
) -> dict:
    """Run the full campaign; returns the (JSON-serializable) report."""
    num_steps = steps or (6 if quick else 10)
    if num_steps < 5:
        raise UsageError("chaos campaigns need at least 5 steps")
    checkpoint_every = 2 if quick else 3
    schemes = tuple(schemes) if schemes else SCHEMES
    for s in schemes:
        if s not in SCHEMES:
            raise UsageError(f"unknown chaos scheme {s!r} (choose from {SCHEMES})")
    results = []
    ckpt_dir = tempfile.mkdtemp(prefix="repro-chaos-")
    try:
        for scheme in schemes:
            result, sim = run_scheme(
                scheme, seed, num_steps, checkpoint_every, ckpt_dir,
                trace=trace_out is not None,
            )
            results.append(result)
            if ledger is not None:
                from repro.obs.ledger import json_safe, record_from_sim

                ledger.append(
                    record_from_sim(
                        "chaos",
                        sim,
                        label=f"chaos-{scheme}",
                        scheme=scheme,
                        seed=seed,
                        config=tiny_config(num_layers=2),
                        extra=json_safe(result),
                    )
                )
            if trace_out is not None:
                from repro.obs.perfetto import write_chrome_trace

                root, ext = os.path.splitext(trace_out)
                write_chrome_trace(sim, f"{root}-{scheme}{ext or '.json'}")
    finally:
        for name in os.listdir(ckpt_dir):
            os.unlink(os.path.join(ckpt_dir, name))
        os.rmdir(ckpt_dir)
    return {
        "version": "repro-chaos-v1",
        "seed": seed,
        "quick": bool(quick),
        "steps": num_steps,
        "checkpoint_every": checkpoint_every,
        "schemes": results,
        "ok": all(r["ok"] for r in results),
    }


def render(report: dict) -> str:
    lines = [
        f"chaos campaign  seed={report['seed']}  steps={report['steps']}  "
        f"checkpoint_every={report['checkpoint_every']}",
        f"{'scheme':<10} {'ok':<5} {'losses':<10} {'crash':>5} {'retry':>5} "
        f"{'corrupt':>7} {'sdc':>4} {'overhead_s':>11}",
    ]
    for r in report["schemes"]:
        s = r["stats"]
        lines.append(
            f"{r['scheme']:<10} {'PASS' if r['ok'] else 'FAIL':<5} "
            f"{'bit-exact' if r['loss_match'] else 'DIVERGED':<10} "
            f"{s['crashes']:>5} {s['retries']:>5} {s['corruptions']:>7} "
            f"{s['sdc_injected']:>4} {r['recovery_overhead_s']:>11.3f}"
        )
    lines.append(
        "OK: every scheme recovered to a bit-exact trajectory"
        if report["ok"]
        else "FAIL: recovery equivalence violated"
    )
    return "\n".join(lines)


def main(
    seed: int = 0,
    quick: bool = False,
    steps=None,
    schemes=None,
    out=None,
    trace_out=None,
    ledger=None,
) -> int:
    if ledger is not None and not hasattr(ledger, "append"):
        from repro.obs.ledger import RunLedger

        ledger = RunLedger(ledger)
    report = run_campaign(
        seed=seed, quick=quick, steps=steps, schemes=schemes,
        trace_out=trace_out, ledger=ledger,
    )
    print(render(report))
    if out:
        write_text(out, json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    return 0 if report["ok"] else 1
