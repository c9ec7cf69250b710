"""Chaos campaigns for the serving engine: decode under injected faults.

One :func:`run_serve_chaos` campaign plays the *same* seeded traffic twice
per scheme — once fault-free, once with a :class:`FaultInjector` armed
inside the decode loop (a rank crash at a step boundary, a flaky link
retried with exponential backoff, a link that times out past the retry
budget, and a straggler window) — and demands that recovery is invisible
to users: the chaos arm must produce **token-identical** output (same
``tokens_sha256``) as the fault-free arm, every request must still
complete, and the report's prefill/decode/padding/idle/recovery
attribution must still telescope to the makespan.

Recovery is step re-execution: a failed decode step committed nothing
(``cache.commit`` runs only after a successful step), fired faults are
consumed, so re-running the step writes the same K/V bytes and samples the
same tokens.  Greedy decode is batching-invariant per lane, which makes
the re-executed step byte-deterministic even though the batch composition
may have shifted while the cluster was recovering.

Everything rides the simulated clock: retries, timeouts, restart charges
and straggler skew all show up in the ``recovery`` phase and in
``serve-chaos`` ledger records, never in host wall-clock.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.obs.ledger import RunLedger
from repro.resilience.faults import (
    FaultSchedule,
    RankCrash,
    Straggler,
    TransientCollectiveFault,
)
from repro.resilience.injector import FaultInjector
from repro.serving.report import DEFAULTS, Harness, write_report

REPORT_SCHEMA = "repro-serve-chaos-v1"

#: injector tuning for serving timescales (decode steps are ~100 µs, not
#: the ~10 ms training steps the PR 4 defaults assume)
INJECTOR_KW = {"max_retries": 3, "timeout_s": 1e-3, "backoff_base_s": 1e-4}

CAMPAIGN = {"requests": 16, "rate_rps": 1000.0, "arrival": "poisson"}
QUICK = {"requests": 8}

TELESCOPE_TOL = 1e-9
#: the per-scheme checks a ``serve-chaos`` ledger record carries
LEDGER_CHECKS = ("token_identical", "crashes", "retries", "recovered_steps", "recovery_s", "ok")


def default_serving_schedule(seed: int, baseline_steps: int) -> FaultSchedule:
    """Crash + flaky link + timeout-past-budget + straggler, placed at
    seed-shifted decode steps well inside the fault-free step count."""
    span = max(baseline_steps - 1, 1)
    off = seed % 3

    def at(step: int) -> int:
        return min(step, span)

    return FaultSchedule.of(
        RankCrash(step=at(2 + off), rank=0),
        # a flap the retry budget absorbs: bytes move, payloads are dropped
        TransientCollectiveFault(step=at(5 + off), index=1, fails=2, mode="flaky"),
        # a link that keeps timing out past the budget: the step is abandoned
        # and re-executed (the recovery path)
        TransientCollectiveFault(
            step=at(8 + off),
            index=0,
            fails=INJECTOR_KW["max_retries"] + 1,
            mode="timeout",
        ),
        Straggler(rank=1, start_step=at(11 + off), num_steps=3, factor=3.0),
    )


def run_serve_chaos(
    seed: int = 0,
    *,
    quick: bool = False,
    schemes: Optional[Sequence[str]] = None,
    ledger: Optional[RunLedger] = None,
) -> dict:
    """Run the fault-free and chaos arms for every scheme (``None``: both);
    returns the campaign document (``ok`` is True only if every check
    passed)."""
    h = Harness(seed, DEFAULTS, schemes, what="serving chaos scheme")
    knobs = dict(CAMPAIGN)
    if quick:
        knobs.update(QUICK)
    arrival = knobs["arrival"]
    gen = h.traffic(arrival, knobs["rate_rps"], knobs["requests"])
    trace = gen.generate()

    arms = []
    checks = {}
    for scheme in h.schemes:
        baseline, _sim = h.arm(scheme, trace, arrival)
        schedule = default_serving_schedule(seed, baseline["steps"])
        injector = FaultInjector(schedule, seed=seed, **INJECTOR_KW)
        # counter_epoch distinguishes the arms for a long-lived scraper:
        # OpenMetrics counter-restart semantics across same-named series
        chaos, sim = h.arm(scheme, trace, arrival, injector=injector, counter_epoch=1)
        for entry, arm in ((baseline, "baseline"), (chaos, "chaos")):
            entry["arm"] = arm
            arms.append(entry)

        lifecycle = chaos["lifecycle"]
        telescope_err = abs(sum(chaos["phases_s"].values()) - chaos["makespan_s"])
        check = {
            "token_identical": chaos["tokens_sha256"] == baseline["tokens_sha256"],
            "all_completed": chaos["completed"] == len(trace),
            "telescope_err": telescope_err,
            "telescopes": telescope_err <= TELESCOPE_TOL,
            "crashes": lifecycle["injector"]["crashes"],
            "retries": lifecycle["injector"]["retries"],
            "recovered_steps": lifecycle["recovered_steps"],
            "recovery_s": chaos["phases_s"]["recovery"],
            "faults_fired": (
                lifecycle["injector"]["crashes"] >= 1
                and lifecycle["injector"]["retries"] >= 1
                and lifecycle["recovered_steps"] >= 2  # crash + timeout escape
            ),
        }
        check["ok"] = bool(
            check["token_identical"]
            and check["all_completed"]
            and check["telescopes"]
            and check["faults_fired"]
        )
        checks[scheme] = check

        if ledger is not None:
            checked = {k: check[k] for k in LEDGER_CHECKS}
            ledger.append(h.record("serve-chaos", sim, chaos, **checked))

    return {
        "report": REPORT_SCHEMA,
        "seed": seed,
        "quick": bool(quick),
        "traffic": gen.describe(),
        "injector": dict(INJECTOR_KW),
        "arms": arms,
        "checks": checks,
        "ok": all(c["ok"] for c in checks.values()),
    }


# ----------------------------------------------------------------------
def render(report: dict) -> str:
    head = (
        f"{'scheme':<10} {'arm':<9} {'steps':>6} {'recovered':>9} "
        f"{'recovery':>10} {'tokens':>18} {'identical':>9}"
    )
    rows = [head, "-" * len(head)]
    for e in report["arms"]:
        lc = e.get("lifecycle") or {}
        rec = e["phases_s"].get("recovery", 0.0)
        ident = ""
        if e["arm"] == "chaos":
            ident = "yes" if report["checks"][e["scheme"]]["token_identical"] else "NO"
        rows.append(
            f"{e['scheme']:<10} {e['arm']:<9} {e['steps']:>6} "
            f"{lc.get('recovered_steps', 0):>9} {rec * 1e3:>8.3f}ms "
            f"{e['tokens_sha256']:>18} {ident:>9}"
        )
    for scheme, c in sorted(report["checks"].items()):
        status = "ok  " if c["ok"] else "FAIL"
        rows.append(
            f"{status} {scheme}: {c['crashes']} crash(es), {c['retries']} "
            f"retries, {c['recovered_steps']} recovered steps, telescope "
            f"err {c['telescope_err']:.2e}"
        )
    return "\n".join(rows)


def main(
    seed: int = 0,
    quick: bool = False,
    schemes: Optional[Sequence[str]] = None,
    out: Optional[str] = None,
    ledger: Optional[str] = None,
) -> int:
    """Driver for ``python -m repro chaos --serve`` (returns exit code)."""
    ledger = RunLedger(ledger) if ledger else None
    report = run_serve_chaos(seed, quick=quick, schemes=schemes, ledger=ledger)
    print(render(report))
    if out:
        write_report(report, out)
    return 0 if report["ok"] else 1
