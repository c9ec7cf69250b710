"""Serving run orchestration and the ``repro-serve-v1`` report.

One :func:`run_serve` call plays a seeded traffic trace through each
requested (scheme × arrival-profile) arm on a fresh simulator and distills
the result into a byte-deterministic JSON document: latency percentiles
(TTFT and end-to-end), goodput, SLO attainment, per-phase time attribution
(prefill / decode / padding / idle) and KV-cache accounting.  Nothing
host-dependent goes in — no wall-clock, no paths, no git state — so two
runs with the same seed produce byte-identical files (CI diffs them).

Every serving campaign — :func:`run_serve` (and :func:`run_sweep` through
it), :func:`run_preempt_ab` and :func:`repro.serving.chaos.run_serve_chaos`
— is the same four steps: a :class:`Harness` (the scheme check, the model,
the engine keywords and the seeded traffic), its arms (:meth:`Harness.arm`,
one :func:`run_arm` each, with :meth:`Harness.record` as the arm's ledger
record), the campaign's report document, then render and
:func:`write_report`.

The same module carries the SLO regression gate
(:func:`compare_reports`, used by ``repro serve --compare``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.config import ModelConfig, tiny_config
from repro.core import summa
from repro.nn.init import init_transformer_params
from repro.obs.ledger import RunLedger, RunRecord, canonical_json, record_from_sim
from repro.schemes import SCHEMES as SCHEME_TABLE
from repro.serving.engine import ServingResult, make_engine
from repro.serving.scheduler import ServingOptions
from repro.serving.traffic import ARRIVAL_PROFILES, Request, TrafficGenerator
from repro.utils import UsageError, write_text

if TYPE_CHECKING:
    from repro.obs.alerts import AlertRule
    from repro.resilience.injector import FaultInjector

REPORT_SCHEMA = "repro-serve-v1"
SWEEP_SCHEMA = "repro-serve-sweep-v1"

#: parameters are drawn once with a *fixed* seed — the model is the same
#: deployed artifact across all arms and seeds; only traffic varies.
PARAM_SEED = 1

SCHEMES = tuple(SCHEME_TABLE)

DEFAULTS = {
    "q": 2,
    "slots": 8,
    "block_size": 8,
    "blocks": 12,  # per optimus row-group; megatron gets blocks*q (equal bytes/device)
    "rate_rps": 1000.0,
    "requests": 32,
    "slo_ttft": 0.005,
    "slo_tpot": 0.0005,
}
QUICK = {"requests": 10}
#: :func:`run_arm`'s engine keywords, each with the type it is read as
ENGINE_KEYS = (
    ("q", int),
    ("slots", int),
    ("block_size", int),
    ("blocks", int),
    ("slo_ttft", float),
    ("slo_tpot", float),
)


# ----------------------------------------------------------------------
# latency statistics (manual interpolation: stable across numpy versions)
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile of ``values`` (p in [0, 100])."""
    if not values:
        raise ValueError("percentile of empty sequence")
    xs = sorted(float(v) for v in values)
    if len(xs) == 1:
        return xs[0]
    rank = (p / 100.0) * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    frac = rank - lo
    return xs[lo] * (1.0 - frac) + xs[hi] * frac


def summarize(values: Sequence[float]) -> dict:
    return {
        "p50": percentile(values, 50.0),
        "p99": percentile(values, 99.0),
        "mean": sum(values) / len(values),
        "max": max(values),
    }


# ----------------------------------------------------------------------
# one (scheme, arrival) arm
# ----------------------------------------------------------------------
def run_arm(
    scheme: str,
    cfg: ModelConfig,
    params: dict,
    requests: List[Request],
    *,
    q: int,
    slots: int,
    block_size: int,
    blocks: int,
    slo_ttft: float,
    slo_tpot: float,
    options: Optional[ServingOptions] = None,
    injector: Optional[FaultInjector] = None,
    alert_rules: Optional[Sequence[AlertRule]] = None,
    metrics_server=None,
    trace: bool = False,
    counter_epoch: int = 0,
) -> Tuple[dict, object]:
    """Run one arm; returns (report entry, simulator) — sim for the ledger.

    ``alert_rules`` arms inline SLO alerting (an ``alerts`` entry section
    appears); ``metrics_server`` gets this arm's live registry attached
    before the run so mid-run scrapes see it move; ``trace`` turns on
    request-lifecycle tracing.  All three are read-only over the
    simulation: the rest of the entry stays byte-identical."""
    # equal per-device KV bytes across schemes: q·blocks blocks split over
    # the scheme's KV pools (q mesh rows, or one group q× thinner per rank)
    blocks_per_group = blocks * q // SCHEME_TABLE[scheme].kv_pools(q * q)
    alerts = None
    if alert_rules:
        from repro.obs.alerts import AlertEngine

        alerts = AlertEngine(alert_rules)
    engine = make_engine(
        scheme,
        cfg,
        params,
        q,
        slots,
        block_size,
        blocks_per_group,
        options=options,
        injector=injector,
        trace=trace,
        slo=(slo_ttft, slo_tpot),
        counter_epoch=counter_epoch,
        alerts=alerts,
    )
    if metrics_server is not None:
        metrics_server.attach_registry(engine.sim.metrics)
    result: ServingResult = engine.run(requests)

    lossy = (options is not None and options.enabled) or injector is not None
    if not lossy and len(result.completed) != len(requests):
        raise RuntimeError(f"{scheme}: {len(result.completed)}/{len(requests)} requests completed")
    by_rid = sorted(result.completed, key=lambda s: s.request.rid)
    ttft = [s.first_token_time - s.request.arrival for s in by_rid]
    e2e = [s.finish_time - s.request.arrival for s in by_rid]
    tpot = [s.tpot for s in by_rid]
    ok = [t <= slo_ttft and tp <= slo_tpot for t, tp in zip(ttft, tpot)]
    makespan = result.clock
    good_tokens = sum(len(s.generated) for s, o in zip(by_rid, ok) if o)
    token_doc = canonical_json({str(s.request.rid): list(s.generated) for s in by_rid})
    checksum = hashlib.sha256(token_doc.encode()).hexdigest()[:16]

    entry = {
        "scheme": scheme,
        "devices": engine.sim.num_ranks,
        "requests": len(requests),
        "completed": len(result.completed),
        "ttft_s": summarize(ttft) if ttft else None,
        "e2e_s": summarize(e2e) if e2e else None,
        "tpot_s": summarize(tpot) if tpot else None,
        "makespan_s": makespan,
        "throughput_tokens_per_s": result.generated_tokens / makespan,
        "goodput_tokens_per_s": good_tokens / makespan,
        # denominator is the *offered* load: identical to the PR 8 value
        # when everything completes, honest under shedding/timeouts
        "slo_attainment": sum(ok) / len(requests),
        "prompt_tokens": result.prompt_tokens,
        "generated_tokens": result.generated_tokens,
        "steps": result.steps,
        "lane_steps": result.lane_steps,
        "padded_lane_steps": result.padded_lane_steps,
        "phases_s": dict(result.attribution),
        "scheduler": result.scheduler_stats,
        "kv_cache": result.cache_stats,
        "tokens_sha256": checksum,
    }
    if result.lifecycle is not None:
        entry["lifecycle"] = result.lifecycle
    if result.alerts is not None:
        entry["alerts"] = result.alerts
    return entry, engine.sim


# ----------------------------------------------------------------------
# the campaign harness
# ----------------------------------------------------------------------
class Harness:
    """One serving campaign's setup: the scheme check, the deployed model
    (parameters drawn at :data:`PARAM_SEED` whatever the traffic seed), the
    engine keywords every arm runs with (read from ``knobs`` by
    :data:`ENGINE_KEYS`) and the seeded traffic.  ``schemes`` are the arms'
    schemes (``None``: all of them); ``what`` names a scheme in the
    unknown-scheme error."""

    def __init__(
        self, seed: int, knobs: dict, schemes: Optional[Sequence[str]], what: str = "scheme"
    ):
        self.schemes = tuple(schemes or SCHEMES)
        for s in self.schemes:
            if s not in SCHEMES:
                raise UsageError(f"unknown {what} {s!r} (choose from {SCHEMES})")
        self.seed = seed
        self.cfg = tiny_config(num_heads=4)
        self.params = init_transformer_params(self.cfg, seed=PARAM_SEED)
        self.engine = {key: cast(knobs[key]) for key, cast in ENGINE_KEYS}
        self.model_doc = {**asdict(self.cfg), "param_seed": PARAM_SEED}

    def traffic(self, arrival: str, rate_rps, requests, **kw) -> TrafficGenerator:
        """The campaign's request stream (``kw``: burst size, deadline)."""
        return TrafficGenerator(
            seed=self.seed,
            vocab_size=self.cfg.vocab_size,
            arrival=arrival,
            rate_rps=float(rate_rps),
            num_requests=int(requests),
            **kw,
        )

    def arm(self, scheme: str, trace: List[Request], arrival: str, **kw) -> Tuple[dict, object]:
        """One :func:`run_arm` on the campaign's model and engine keywords;
        the entry is stamped with its ``arrival``."""
        entry, sim = run_arm(scheme, self.cfg, self.params, trace, **self.engine, **kw)
        entry["arrival"] = arrival
        return entry, sim

    def record(self, kind: str, sim, entry: dict, **extra) -> RunRecord:
        """The ledger record of one arm: what every serving kind carries
        (label, mesh, config, traffic, ``tokens_sha256``, goodput), plus
        ``extra``."""
        scheme, arrival = entry["scheme"], entry["arrival"]
        return record_from_sim(
            kind,
            sim,
            label=f"{kind}/{scheme}/{arrival}",
            scheme=scheme,
            seed=self.seed,
            config=self.cfg,
            mesh=SCHEME_TABLE[scheme].serve_mesh(self.engine["q"] ** 2),
            extra={
                "arrival": arrival,
                "num_requests": entry["requests"],
                "traffic_seed": self.seed,
                "tokens_sha256": entry["tokens_sha256"],
                "goodput_tokens_per_s": entry["goodput_tokens_per_s"],
                **extra,
            },
        )


# ----------------------------------------------------------------------
# value checks: UsageError naming the flag (cmd_serve runs them up front)
# ----------------------------------------------------------------------
def check_slos(slo_ttft, slo_tpot) -> None:
    """SLO bounds given must be positive (``None`` keeps the default)."""
    for flag, value in (("--slo-ttft", slo_ttft), ("--slo-tpot", slo_tpot)):
        if value is not None and value <= 0:
            raise UsageError(f"{flag}: must be positive, got {value}")


#: :func:`run_serve`'s lifecycle keywords, in :func:`lifecycle_options`' order
LIFECYCLE_KEYS = ("policy", "swap_blocks", "swap_gbps", "deadline", "retries", "max_queue_depth")


def lifecycle_options(
    policy, swap_blocks, swap_gbps, deadline, retries, max_queue_depth
) -> ServingOptions:
    """The lifecycle knobs given (``None`` keeps the default), checked."""
    kw = dict(
        policy=policy,
        swap_blocks=swap_blocks,
        swap_gbps=swap_gbps,
        deadline_s=deadline,
        max_retries=retries,
        max_queue_depth=max_queue_depth,
    )
    return ServingOptions(**{k: v for k, v in kw.items() if v is not None})


def sweep_rates(rates: Sequence) -> List[float]:
    """A sweep's offered loads (numbers, or ``--sweep``'s comma-separated
    strings) as floats: at least one, all positive."""
    try:
        rates = [float(r) for r in rates if str(r).strip()]
    except ValueError:
        text = ",".join(map(str, rates))
        raise UsageError(f"--sweep expects comma-separated rates, got {text!r}") from None
    if not rates:
        raise UsageError("--sweep: need at least one rate")
    if any(r <= 0 for r in rates):
        raise UsageError(f"--sweep: rates must be positive, got {rates}")
    return rates


# ----------------------------------------------------------------------
# full report
# ----------------------------------------------------------------------
def run_serve(
    seed: int = 0,
    *,
    quick: bool = False,
    schemes: Optional[Sequence[str]] = None,
    arrivals: Optional[Sequence[str]] = None,
    requests: Optional[int] = None,
    rate_rps: Optional[float] = None,
    q: Optional[int] = None,
    slots: Optional[int] = None,
    block_size: Optional[int] = None,
    blocks: Optional[int] = None,
    slo_ttft: Optional[float] = None,
    slo_tpot: Optional[float] = None,
    policy: Optional[str] = None,
    swap_blocks: Optional[int] = None,
    swap_gbps: Optional[float] = None,
    deadline: Optional[float] = None,
    retries: Optional[int] = None,
    max_queue_depth: Optional[int] = None,
    ledger: Optional[RunLedger] = None,
    alerts: bool = False,
    alert_rules: Optional[Sequence[AlertRule]] = None,
    metrics_server=None,
) -> dict:
    """Run every (scheme × arrival) arm and assemble the report document
    (``schemes`` / ``arrivals`` ``None``: all of them).

    ``alerts=True`` arms the stock SLO rule set (see
    :func:`repro.obs.alerts.default_serving_rules`); ``alert_rules``
    supplies a custom rule list (and implies ``alerts``).  Either adds an
    ``alerts`` section per arm entry and to the serving doc — the default
    path stays byte-identical to PR 8/9.  ``metrics_server`` (a
    :class:`repro.obs.live.MetricsServer`) gets each arm's registry as the
    arm starts; successive arms bump the counter reset epoch so scrapers
    see OpenMetrics counter-restart semantics, not silent resets."""
    knobs = dict(DEFAULTS)
    if quick:
        knobs.update(QUICK)
    # --quick narrows only the default set: an arrival asked for is run
    arrivals = arrivals or (("poisson",) if quick else ARRIVAL_PROFILES)
    overrides = dict(
        requests=requests,
        rate_rps=rate_rps,
        q=q,
        slots=slots,
        block_size=block_size,
        blocks=blocks,
        slo_ttft=slo_ttft,
        slo_tpot=slo_tpot,
    )
    knobs.update((name, val) for name, val in overrides.items() if val is not None)
    h = Harness(seed, knobs, schemes)
    check_slos(knobs["slo_ttft"], knobs["slo_tpot"])
    options = lifecycle_options(policy, swap_blocks, swap_gbps, deadline, retries, max_queue_depth)

    if alert_rules:
        rules: Optional[List[AlertRule]] = list(alert_rules)
    elif alerts:
        from repro.obs.alerts import default_serving_rules

        rules = default_serving_rules(h.engine["slo_ttft"], h.engine["slo_tpot"], h.engine["slots"])
    else:
        rules = None

    traffic_docs = []
    entries = []
    for arrival in arrivals:
        gen = h.traffic(arrival, knobs["rate_rps"], knobs["requests"])
        traffic_docs.append(gen.describe())
        trace = gen.generate()
        for scheme in h.schemes:
            entry, sim = h.arm(
                scheme,
                trace,
                arrival,
                options=options,
                alert_rules=rules,
                metrics_server=metrics_server,
                counter_epoch=len(entries),
            )
            entries.append(entry)
            if ledger is not None:
                extra = {
                    "rate_rps": float(knobs["rate_rps"]),
                    "generated_tokens": entry["generated_tokens"],
                    "slo_attainment": entry["slo_attainment"],
                    "p99_e2e_s": entry["e2e_s"]["p99"],
                }
                if "alerts" in entry:  # only when alerting was armed
                    extra["alerts"] = {
                        "fired": entry["alerts"]["fired_total"],
                        "resolved": entry["alerts"]["resolved_total"],
                        "rules_fired": sorted(
                            {e["rule"] for e in entry["alerts"]["events"] if e["state"] == "firing"}
                        ),
                    }
                ledger.append(h.record("serve", sim, entry, **extra))

    serving_doc = {key: h.engine[key] for key in ("q", "slots", "block_size", "blocks")}
    serving_doc["rate_rps"] = float(knobs["rate_rps"])
    # lifecycle knobs appear only when switched on: default-path reports
    # stay byte-identical to PR 8
    if options.enabled:
        serving_doc["lifecycle"] = asdict(options)
    if rules is not None:  # same conditional-section discipline as lifecycle
        serving_doc["alerts"] = {"rules": [r.to_dict() for r in rules]}
    return {
        "report": REPORT_SCHEMA,
        "seed": seed,
        "quick": bool(quick),
        "model": h.model_doc,
        "serving": serving_doc,
        "slo": {"ttft_s": h.engine["slo_ttft"], "tpot_s": h.engine["slo_tpot"]},
        "summa_flags": summa.effective_flags(),
        "traffic": traffic_docs,
        "schemes": entries,
    }


# ----------------------------------------------------------------------
# latency-vs-load sweep (--sweep)
# ----------------------------------------------------------------------
def run_sweep(
    seed: int = 0,
    *,
    rates: Sequence[float],
    quick: bool = False,
    arrivals: Optional[Sequence[str]] = None,
    **kw,
) -> dict:
    """Replay the seeded traffic generator at each offered load
    (``arrivals`` ``None``: poisson only; ``kw``: :func:`run_serve`'s other
    keywords but ``rate_rps``).

    Each rate point is a full :func:`run_serve` pass (one ``serve`` ledger
    record per arm when a ledger is given — the dashboard groups those by
    (scheme, arrival) across ``rate_rps`` into the latency-vs-load curve),
    distilled here into one row per (rate, scheme, arrival)."""
    rates = sweep_rates(rates)
    points = []
    for rate in rates:
        report = run_serve(
            seed, quick=quick, arrivals=arrivals or ("poisson",), rate_rps=rate, **kw
        )
        for entry in report["schemes"]:
            points.append(
                {
                    "rate_rps": rate,
                    "scheme": entry["scheme"],
                    "arrival": entry["arrival"],
                    "requests": entry["requests"],
                    "completed": entry["completed"],
                    "p99_e2e_s": entry["e2e_s"]["p99"] if entry["e2e_s"] else None,
                    "p50_ttft_s": entry["ttft_s"]["p50"] if entry["ttft_s"] else None,
                    "goodput_tokens_per_s": entry["goodput_tokens_per_s"],
                    "slo_attainment": entry["slo_attainment"],
                    "tokens_sha256": entry["tokens_sha256"],
                }
            )
    return {
        "report": SWEEP_SCHEMA,
        "seed": seed,
        "quick": bool(quick),
        "rates": rates,
        "points": points,
    }


def render_sweep(report: dict) -> str:
    head = (
        f"{'rate':>8} {'scheme':<10} {'arrival':<8} {'done':>5} "
        f"{'p99 e2e':>10} {'goodput':>10} {'SLO':>6}"
    )
    rows = [head, "-" * len(head)]
    for p in report["points"]:
        e2e = f"{p['p99_e2e_s'] * 1e3:>8.3f}ms" if p["p99_e2e_s"] is not None else f"{'—':>10}"
        rows.append(
            f"{p['rate_rps']:>8.0f} {p['scheme']:<10} {p['arrival']:<8} "
            f"{p['completed']:>2}/{p['requests']:<2} {e2e} "
            f"{p['goodput_tokens_per_s']:>10.1f} {p['slo_attainment']:>6.2f}"
        )
    return "\n".join(rows)


# ----------------------------------------------------------------------
# preemption A/B (--preempt-ab): reserve vs preempt under overload
# ----------------------------------------------------------------------
#: an overload profile conservative reservation cannot absorb: long bursts
#: into a small pool, with a deadline that expires queued requests.  The
#: numbers are part of the report contract
#: (benchmarks/preempt_ab_baseline.json is committed).
PREEMPT_AB_PROFILE = {
    "arrival": "bursty",
    "rate_rps": 4000.0,
    "requests": 20,
    "burst_size": 10,
    "slots": 8,
    "block_size": 8,
    "blocks": 5,
    "deadline_s": 0.01,
    "slo_ttft": 0.01,
    "slo_tpot": 0.002,
}


def run_preempt_ab(
    seed: int = 0, quick: bool = False, schemes: Optional[Sequence[str]] = None
) -> dict:
    """Same overload traffic through three scheduler configurations per
    scheme (``None``: both) — conservative ``reserve``, ``preempt`` with
    host swap, and ``preempt`` with the recompute fallback — and gate on
    preemption admitting what reservation rejects, at strictly higher
    goodput."""
    prof = dict(PREEMPT_AB_PROFILE)
    if quick:
        prof["requests"] = 12
    h = Harness(seed, {**DEFAULTS, **prof}, schemes)
    gen = h.traffic(
        prof["arrival"],
        prof["rate_rps"],
        prof["requests"],
        burst_size=prof["burst_size"],
        deadline_s=prof["deadline_s"],
    )
    trace = gen.generate()

    arms = {
        "reserve": ServingOptions(policy="reserve", deadline_s=prof["deadline_s"]),
        "preempt-swap": ServingOptions(
            policy="preempt", swap_blocks=prof["blocks"], deadline_s=prof["deadline_s"]
        ),
        "preempt-recompute": ServingOptions(
            policy="preempt", swap_blocks=0, deadline_s=prof["deadline_s"]
        ),
    }
    entries = []
    gate = {}
    for scheme in h.schemes:
        per_policy = {}
        for name, options in arms.items():
            entry, _sim = h.arm(scheme, trace, prof["arrival"], options=options)
            entry["policy"] = name
            entries.append(entry)
            per_policy[name] = entry
        res = per_policy["reserve"]
        gate[scheme] = {
            "reserve_completed": res["completed"],
            "preempt_swap_completed": per_policy["preempt-swap"]["completed"],
            "preempt_recompute_completed": per_policy["preempt-recompute"]["completed"],
            "reserve_goodput": res["goodput_tokens_per_s"],
            "preempt_swap_goodput": per_policy["preempt-swap"]["goodput_tokens_per_s"],
            "preempt_recompute_goodput": per_policy["preempt-recompute"][
                "goodput_tokens_per_s"
            ],
            "reserve_rejected": prof["requests"] - res["completed"],
            "admits_more": all(
                per_policy[p]["completed"] > res["completed"]
                for p in ("preempt-swap", "preempt-recompute")
            ),
            "goodput_higher": all(
                per_policy[p]["goodput_tokens_per_s"] > res["goodput_tokens_per_s"]
                for p in ("preempt-swap", "preempt-recompute")
            ),
        }
    ok = all(
        g["admits_more"] and g["goodput_higher"] and g["reserve_rejected"] > 0
        for g in gate.values()
    )
    return {
        "report": "repro-serve-preempt-ab-v1",
        "seed": seed,
        "quick": bool(quick),
        "profile": prof,
        "traffic": gen.describe(),
        "model": h.model_doc,
        "arms": entries,
        "gate": gate,
        "ok": ok,
    }


def render_preempt_ab(report: dict) -> str:
    head = (
        f"{'scheme':<10} {'policy':<18} {'done':>5} {'goodput':>10} "
        f"{'preempted':>9} {'timed out':>9}"
    )
    rows = [head, "-" * len(head)]
    for e in report["arms"]:
        lc = e.get("lifecycle", {})
        rows.append(
            f"{e['scheme']:<10} {e['policy']:<18} "
            f"{e['completed']:>3}/{e['requests']:<2} "
            f"{e['goodput_tokens_per_s']:>10.1f} "
            f"{lc.get('preempted', 0):>9} {lc.get('timed_out', 0):>9}"
        )
    if report["ok"]:
        rows.append(
            "ok: preemption admits what reservation rejects, at strictly "
            "higher goodput (both swap and recompute arms)"
        )
    else:
        rows.append(
            "FAIL: preemption did not beat conservative reservation "
            "(see the 'gate' section of the report)"
        )
    return "\n".join(rows)


# ----------------------------------------------------------------------
# SLO regression gate (--compare)
# ----------------------------------------------------------------------
#: the gate's relative regression threshold (``--threshold``'s default)
SLO_THRESHOLD = 0.20


def compare_reports(current: dict, baseline: dict, threshold: float = SLO_THRESHOLD):
    """Gate ``current`` against ``baseline``: per (scheme, arrival) arm,
    p99 end-to-end latency must not grow and goodput must not shrink by
    more than ``threshold`` (relative).  Returns ``(ok, lines)``.

    Both reports come from the same deterministic simulator, so the ratios
    compare like-for-like regardless of host speed."""
    lines: List[str] = []
    ok = True
    base_by_key = {(e["scheme"], e["arrival"]): e for e in baseline["schemes"]}
    cur_by_key = {(e["scheme"], e["arrival"]): e for e in current["schemes"]}
    for key, base in sorted(base_by_key.items()):
        cur = cur_by_key.get(key)
        name = "/".join(key)
        if cur is None:
            ok = False
            lines.append(f"FAIL {name}: arm missing from current report")
            continue
        bp99, cp99 = base["e2e_s"]["p99"], cur["e2e_s"]["p99"]
        bgood, cgood = base["goodput_tokens_per_s"], cur["goodput_tokens_per_s"]
        p99_ratio = cp99 / bp99 if bp99 > 0 else 1.0
        good_ratio = cgood / bgood if bgood > 0 else 1.0
        arm_ok = True
        if p99_ratio > 1.0 + threshold:
            arm_ok = False
            lines.append(
                f"FAIL {name}: p99 e2e {cp99:.6f}s vs baseline {bp99:.6f}s "
                f"({p99_ratio:.2f}x > {1 + threshold:.2f}x)"
            )
        if good_ratio < 1.0 - threshold:
            arm_ok = False
            lines.append(
                f"FAIL {name}: goodput {cgood:.1f} tok/s vs baseline {bgood:.1f} "
                f"({good_ratio:.2f}x < {1 - threshold:.2f}x)"
            )
        if arm_ok:
            lines.append(f"ok   {name}: p99 {p99_ratio:.2f}x, goodput {good_ratio:.2f}x")
        ok = ok and arm_ok
    return ok, lines


# ----------------------------------------------------------------------
# text rendering + CLI driver
# ----------------------------------------------------------------------
def render_text(report: dict) -> str:
    head = (
        f"{'scheme':<10} {'arrival':<8} {'p50 ttft':>10} {'p99 e2e':>10} "
        f"{'goodput':>10} {'SLO':>6} {'steps':>6}"
    )
    rows = [head, "-" * len(head)]
    for e in report["schemes"]:
        ttft = f"{e['ttft_s']['p50'] * 1e3:>8.3f}ms" if e["ttft_s"] else f"{'—':>10}"
        e2e = f"{e['e2e_s']['p99'] * 1e3:>8.3f}ms" if e["e2e_s"] else f"{'—':>10}"
        rows.append(
            f"{e['scheme']:<10} {e['arrival']:<8} "
            f"{ttft} {e2e} "
            f"{e['goodput_tokens_per_s']:>10.1f} {e['slo_attainment']:>6.2f} "
            f"{e['steps']:>6}"
        )
    for e in report["schemes"]:
        alert_doc = e.get("alerts")
        if alert_doc and alert_doc["events"]:
            firing = alert_doc["firing"]
            rows.append(
                f"alerts [{e['scheme']}/{e['arrival']}]: "
                f"{alert_doc['fired_total']} fired, "
                f"{alert_doc['resolved_total']} resolved"
                + (f", still firing: {', '.join(firing)}" if firing else "")
            )
    return "\n".join(rows)


def write_report(report: dict, path: str) -> None:
    """Write a campaign's report document as sorted, indented JSON."""
    write_text(path, json.dumps(report, indent=2, sort_keys=True) + "\n")


def load_baseline(path: str) -> dict:
    """Read an SLO baseline report; UsageError on a missing or corrupt
    file, naming the path and the regeneration command."""
    regen = f"python -m repro serve --seed 0 --out {path}"
    try:
        with open(path) as f:
            baseline = json.load(f)
    except FileNotFoundError:
        raise UsageError(f"serving baseline {path!r} not found — regenerate it with: {regen}")
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"serving baseline {path!r} is not valid JSON ({exc}) — regenerate it with: {regen}"
        )
    if not isinstance(baseline, dict) or "schemes" not in baseline:
        raise UsageError(
            f"serving baseline {path!r} has no 'schemes' section "
            f"(not a {REPORT_SCHEMA} report?) — regenerate it with: {regen}"
        )
    return baseline


def _load_alert_rules(path: str) -> List[AlertRule]:
    """Parse a JSON alert-rule file (a list of AlertRule dicts); UsageError
    naming the path on a missing or malformed file."""
    from repro.obs.alerts import AlertRule

    try:
        with open(path) as f:
            docs = json.load(f)
    except FileNotFoundError:
        raise UsageError(f"alert-rules file {path!r} not found")
    except json.JSONDecodeError as exc:
        raise UsageError(f"alert-rules file {path!r} is not valid JSON ({exc})")
    if not isinstance(docs, list) or not docs:
        raise UsageError(f"alert-rules file {path!r} must be a non-empty JSON list of rules")
    try:
        return [AlertRule.from_dict(d) for d in docs]
    except (TypeError, ValueError) as exc:
        raise UsageError(f"alert-rules file {path!r}: {exc}")


def cmd_preempt_ab(seed, quick, schemes, out) -> int:
    """Driver for ``python -m repro serve --preempt-ab``: a fixed overload
    profile, so it takes no other serve flag."""
    report = run_preempt_ab(seed, quick=quick, schemes=schemes)
    if out:
        write_report(report, out)
    print(render_preempt_ab(report))
    return 0 if report["ok"] else 1


def cmd_serve(
    seed,
    rate_rps,
    out,
    ledger,
    compare,
    threshold,
    metrics_port,
    metrics_hold,
    alert_rules,
    sweep,
    **knobs,
) -> int:
    """Driver for ``python -m repro serve``, called with its flags (argparse
    dests; ``knobs`` are :func:`run_serve`'s keywords of the same names):
    checks every value and reads every input file (a :class:`UsageError`
    before anything runs), runs the serve or ``--sweep`` campaign, then
    prints its rendering, writes its report and returns the exit code
    (1: the ``--compare`` SLO gate failed)."""
    check_slos(knobs["slo_ttft"], knobs["slo_tpot"])
    lifecycle_options(*(knobs[key] for key in LIFECYCLE_KEYS))
    rates = sweep_rates(sweep.split(",")) if sweep else None
    baseline = load_baseline(compare) if compare else None
    knobs["alert_rules"] = _load_alert_rules(alert_rules) if alert_rules else None
    knobs["ledger"] = RunLedger(ledger) if ledger else None

    server = None
    if metrics_port is not None:
        from repro.obs.live import MetricsServer

        server = knobs["metrics_server"] = MetricsServer(port=metrics_port).start()
        print(f"metrics endpoint: http://127.0.0.1:{server.port}/metrics")

    try:
        if sweep:
            report = run_sweep(seed, rates=rates, **knobs)
            ok, text = True, render_sweep(report)
        else:
            report = run_serve(seed, rate_rps=rate_rps, **knobs)
            ok, text = True, render_text(report)
            if baseline is not None:
                threshold = SLO_THRESHOLD if threshold is None else threshold
                ok, gate = compare_reports(report, baseline, threshold=threshold)
                head = f"SLO gate vs {compare} (threshold {threshold:.0%}):"
                text = "\n".join([text, "", head] + ["  " + line for line in gate])
        if out:
            write_report(report, out)
        print(text)
        if ok and metrics_hold:
            server.hold(metrics_hold)
        return 0 if ok else 1
    finally:
        if server is not None:
            server.stop()
