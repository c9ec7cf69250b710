"""Paper-claims scorecard: replay ledger evidence against the perf model.

The paper makes three headline quantitative claims; this module turns each
into a machine-checkable verdict by pairing **measured** numbers (read
back from :mod:`repro.obs.ledger` records of real stem runs) with
**predicted** numbers from :mod:`repro.perfmodel`:

1. **memory scaling** (§3.1–3.2) — every Optimus working-set term carries
   ``1/p`` (the O(bsh/p) claim), so the closed-form
   :func:`~repro.perfmodel.memory_model.estimate_peak_bytes` must match
   the byte-accurate allocator's measured peak.  Verdict: the
   measured/predicted ratio of every Table-2 stem stays inside the band.
2. **isoefficiency** (§4) — Optimus's efficiency function is
   ``W ~ (√p·log p)³`` against Megatron's ``p³``, i.e. Megatron's
   comm-to-compute ratio D must grow *faster* with p.  A direct measured-E
   vs closed-form-E comparison is hopeless (the closed form ignores α
   latency and NIC contention), so the verdict uses the **growth
   advantage**: ``A = (D_meg(64)/D_meg(4)) / (D_opt(64)/D_opt(4))``,
   measured from stem records vs predicted from the Table-1 cost formulas
   (the hardware constant β·MAC cancels in the predicted ratio).  Pass
   needs A > 1 (direction) and measured/predicted inside the band.
3. **speedup** (§5.1, Table 2) — Optimus over Megatron on 64 GPUs:
   1.48× training throughput and 1.78× inference in the paper.  Measured
   from the p=64 stem records; the verdict checks the measured speedup is
   a calibrated fraction of the paper's (the simulator reproduces the
   *shape*, not the exact testbed constants).
4. **strong scaling** (§5.1, Table 3) — with the problem size *fixed*
   (h ≈ 3072, N = 24) Optimus still out-throughputs Megatron at p = 64:
   2.0123 vs 1.8180 seq/s in the paper (1.11×).  Measured from stem
   records at the Table-3 settings.
5. **GPU arrangement** (§5.2, Fig. 8) — on a 4×4 mesh over 4 nodes the
   bunched arrangement beats the naive row-major one because naive
   column broadcasts crowd every node's single NIC.  Measured as the
   end-to-end stem speedup between two otherwise-identical Optimus runs;
   predicted is the α–β model's *per-collective* crowding bound, so the
   measured/predicted ratio is the (calibrated) dilution of that bound
   by compute and row traffic.

Evidence records are stem runs at the paper's Table-2 settings for
p ∈ {4, 64} (both schemes), the Table-3 settings at p = 64, and the
Fig-8 arrangement pair.  :func:`ensure_claim_records` runs any that are
missing (dryrun, ~a minute) and appends them to the ledger, deduplicating
by (scheme, device count, config fingerprint, arrangement) — re-scoring
an unchanged ledger is free.  Evidence stems run traced, so each record
also carries a :func:`repro.obs.critpath.attribution_summary` for the
dashboard's Attribution section.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import table2_weak_scaling, table3_strong_scaling
from repro.obs.ledger import RunLedger, RunRecord, config_fingerprint

CLAIMS_SCHEMA = "repro-claims-v1"

#: device counts the evidence stems run at (the Table-2 end points)
CLAIM_DEVICE_COUNTS = (4, 64)

#: ledger label marking scorecard evidence records
CLAIM_LABEL = "claims-stem"

#: paper's Table-2 speedups of Optimus over Megatron at p=64
PAPER_SPEEDUP_TRAINING = 1.48
PAPER_SPEEDUP_INFERENCE = 1.78

# Calibrated tolerance bands (measured on the seed simulator; see
# tests/test_claims.py).  Memory: the closed form tracks the allocator to
# ~0.01% at p=64 and within ~20% at small p where constant terms matter.
MEMORY_RATIO_BAND = (0.8, 1.25)
# Isoefficiency growth advantage: measured ≈ 2.24 vs predicted ≈ 1.75
# (ratio ≈ 1.28 — α latency and NIC sharing hurt Megatron's all-reduces
# more than the β-only Table-1 formulas predict).
ISOEFFICIENCY_RATIO_BAND = (0.5, 2.0)
# Speedup: measured ≈ 1.35×/1.60× vs paper 1.48×/1.78× (ratio ≈ 0.9).
SPEEDUP_RATIO_BAND = (0.7, 1.4)

# Strong scaling: measured speedup ≈ 1.11× vs paper 1.107× (ratio ≈ 1.00).
STRONG_SCALING_RATIO_BAND = (0.8, 1.25)

#: Fig-8 mesh side (4×4 mesh over 4 nodes × 4 GPUs)
FIG8_Q = 4
#: Fig-8 stem batch size (paper's end-to-end comparison workload)
FIG8_BATCH = 64
# Arrangement: the per-collective α–β bound is ≈ 2.67× but the stem's
# compute and row traffic dilute the end-to-end advantage to ≈ 1.013×
# (ratio ≈ 0.38); the direction check (> 1) carries the claim.
ARRANGEMENT_RATIO_BAND = (0.05, 1.0)


@dataclass
class ClaimVerdict:
    """One scorecard row: a claim, its evidence and the pass/fail call."""

    claim: str  # memory-scaling | isoefficiency | speedup-training | ...
    title: str
    status: str  # pass | fail | no-evidence
    measured: Optional[float] = None
    predicted: Optional[float] = None
    ratio: Optional[float] = None  # measured / predicted
    band: Optional[Tuple[float, float]] = None
    detail: str = ""
    evidence: List[str] = field(default_factory=list)  # ledger run_ids

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _band_status(ratio: float, band: Tuple[float, float]) -> str:
    return "pass" if band[0] <= ratio <= band[1] else "fail"


# ----------------------------------------------------------------------
# evidence
# ----------------------------------------------------------------------
def claim_points() -> List[dict]:
    """The evidence grid: (scheme, p, config, batch) at the Table-2 ends."""
    rows = {r["num_devices"]: r for r in table2_weak_scaling()}
    points = []
    for p in CLAIM_DEVICE_COUNTS:
        row = rows[p]
        points.append(
            {"scheme": "megatron", "p": p,
             "cfg": row["model_megatron"], "batch": row["batch_megatron"]}
        )
        points.append(
            {"scheme": "optimus", "p": p,
             "cfg": row["model_optimus"], "batch": row["batch_optimus"]}
        )
    return points


def strong_scaling_points() -> List[dict]:
    """The Table-3 (fixed problem size) evidence pair at p = 64."""
    row = {r["num_devices"]: r for r in table3_strong_scaling()}[64]
    return [
        {"scheme": "megatron", "p": 64,
         "cfg": row["model_megatron"], "batch": row["batch_megatron"]},
        {"scheme": "optimus", "p": 64,
         "cfg": row["model_optimus"], "batch": row["batch_optimus"]},
    ]


def arrangement_points() -> List[dict]:
    """The Fig-8 pair: identical Optimus stems, naive vs bunched placement."""
    from repro.experiments.fig8 import DEFAULT_CFG

    return [
        {"scheme": "optimus", "p": FIG8_Q * FIG8_Q, "cfg": DEFAULT_CFG,
         "batch": FIG8_BATCH, "arrangement": arr}
        for arr in ("naive", "bunched")
    ]


def find_stem(
    records: List[RunRecord], scheme: str, p: int, cfg,
    arrangement: Optional[str] = None,
) -> Optional[RunRecord]:
    """The newest stem record matching (scheme, device count, config).

    ``arrangement`` additionally matches the mesh placement recorded by
    Optimus stems — the Fig-8 claim needs to tell two otherwise-identical
    runs apart.
    """
    fp = config_fingerprint(cfg)
    found = None
    for r in records:
        if r.kind != "experiment" or r.scheme != scheme:
            continue
        extra = r.extra or {}
        if extra.get("workload") != "stem":
            continue
        result = extra.get("result") or {}
        if result.get("num_devices") != p:
            continue
        if (r.config or {}).get("fingerprint") != fp:
            continue
        if arrangement is not None and (r.mesh or {}).get("arrangement") != arrangement:
            continue
        found = r
    return found


def ensure_claim_records(ledger: RunLedger, printer=None) -> List[str]:
    """Run (and append) any missing evidence stems; returns new run_ids.

    Stems run with ``trace=True`` so every evidence record carries a
    critical-path attribution summary (clocks and bytes are bit-identical
    with tracing on or off).
    """
    from repro.experiments.runner import run_stem

    records = ledger.read()
    appended: List[str] = []
    for pt in claim_points() + strong_scaling_points() + arrangement_points():
        arrangement = pt.get("arrangement")
        if find_stem(records, pt["scheme"], pt["p"], pt["cfg"], arrangement) is not None:
            continue
        if printer:
            arr = f" ({arrangement})" if arrangement else ""
            printer(f"collecting claim evidence: {pt['scheme']} p={pt['p']}{arr} stem")
        run_stem(
            pt["scheme"], pt["cfg"], pt["p"], pt["batch"], arrangement,
            ledger=ledger, run_label=CLAIM_LABEL, trace=True,
        )
        appended.append(ledger.read()[-1].run_id)
    return appended


def _evidence_grid(records: List[RunRecord]) -> Dict[Tuple[str, int], RunRecord]:
    grid: Dict[Tuple[str, int], RunRecord] = {}
    for pt in claim_points():
        rec = find_stem(records, pt["scheme"], pt["p"], pt["cfg"])
        if rec is not None:
            grid[(pt["scheme"], pt["p"])] = rec
    return grid


# ----------------------------------------------------------------------
# the three claims
# ----------------------------------------------------------------------
def memory_scaling_verdicts(records: List[RunRecord]) -> List[ClaimVerdict]:
    """Measured allocator peak vs closed-form O(bsh/p) estimate, per stem."""
    from repro.perfmodel.memory_model import estimate_peak_bytes

    grid = _evidence_grid(records)
    out: List[ClaimVerdict] = []
    for pt in claim_points():
        key = (pt["scheme"], pt["p"])
        title = f"memory model O(bsh/p): {pt['scheme']} p={pt['p']}"
        rec = grid.get(key)
        if rec is None:
            out.append(ClaimVerdict(
                claim=f"memory-scaling/{pt['scheme']}/p{pt['p']}", title=title,
                status="no-evidence", band=MEMORY_RATIO_BAND,
                detail="no matching stem record in the ledger",
            ))
            continue
        measured = float(rec.counters["peak_memory_bytes"])
        predicted = estimate_peak_bytes(
            pt["scheme"], pt["cfg"], pt["p"], pt["batch"]
        ).total
        ratio = measured / predicted
        out.append(ClaimVerdict(
            claim=f"memory-scaling/{pt['scheme']}/p{pt['p']}", title=title,
            status=_band_status(ratio, MEMORY_RATIO_BAND),
            measured=measured, predicted=predicted, ratio=ratio,
            band=MEMORY_RATIO_BAND,
            detail=(f"allocator peak {measured / 2**30:.2f} GiB vs closed-form "
                    f"{predicted / 2**30:.2f} GiB"),
            evidence=[rec.run_id],
        ))
    return out


def _d_ratio(rec: RunRecord) -> float:
    """Comm-to-compute ratio D of the busiest rank, from ledger counters."""
    return float(rec.counters["max_comm_time"]) / float(rec.counters["max_compute_time"])


def _predicted_d(scheme: str, cfg, p: int, batch: int) -> float:
    """Table-1 prediction of D (the hardware constant cancels in ratios)."""
    from repro.hardware.specs import IB_EDR, RTX5000
    from repro.perfmodel.costs import TABLE1

    row = TABLE1[scheme]
    b, s, h = batch, cfg.seq_len, cfg.hidden_size
    comm = row.forward_comm(b, s, h, p) + row.backward_comm(b, s, h, p)
    macs = row.forward_macs(b, s, h, p) + row.backward_macs(b, s, h, p)
    # scalars·β·elem_size seconds of comm per MAC·2/flops seconds of compute
    beta_over_mac = 2.0 * IB_EDR.beta * RTX5000.effective_flops
    return comm / macs * beta_over_mac


def isoefficiency_verdict(records: List[RunRecord]) -> ClaimVerdict:
    """Growth advantage A = (D_meg grows) / (D_opt grows) across p=4→64."""
    grid = _evidence_grid(records)
    title = "isoefficiency: Megatron's comm/compute grows faster (W~p³ vs (√p·log p)³)"
    needed = [(s, p) for s in ("megatron", "optimus") for p in CLAIM_DEVICE_COUNTS]
    if any(k not in grid for k in needed):
        return ClaimVerdict(
            claim="isoefficiency", title=title, status="no-evidence",
            band=ISOEFFICIENCY_RATIO_BAND,
            detail="needs stem records for both schemes at p=4 and p=64",
        )
    lo, hi = CLAIM_DEVICE_COUNTS
    measured = (_d_ratio(grid[("megatron", hi)]) / _d_ratio(grid[("megatron", lo)])) / (
        _d_ratio(grid[("optimus", hi)]) / _d_ratio(grid[("optimus", lo)])
    )
    pts = {(pt["scheme"], pt["p"]): pt for pt in claim_points()}

    def pred(scheme: str, p: int) -> float:
        pt = pts[(scheme, p)]
        return _predicted_d(scheme, pt["cfg"], p, pt["batch"])

    predicted = (pred("megatron", hi) / pred("megatron", lo)) / (
        pred("optimus", hi) / pred("optimus", lo)
    )
    ratio = measured / predicted
    status = _band_status(ratio, ISOEFFICIENCY_RATIO_BAND)
    if measured <= 1.0:  # direction check: the advantage must exist at all
        status = "fail"
    return ClaimVerdict(
        claim="isoefficiency", title=title, status=status,
        measured=measured, predicted=predicted, ratio=ratio,
        band=ISOEFFICIENCY_RATIO_BAND,
        detail=(f"measured growth advantage {measured:.2f}× vs Table-1 "
                f"predicted {predicted:.2f}× (must be > 1)"),
        evidence=[grid[k].run_id for k in needed],
    )


def _stem_throughputs(rec: RunRecord) -> Tuple[float, float]:
    """(training seq/s, inference seq/s) from a stem record's result."""
    result = rec.extra["result"]
    b = float(result["batch_size"])
    fwd, bwd = float(result["forward_time"]), float(result["backward_time"])
    return b / (fwd + bwd), b / fwd


def speedup_verdicts(records: List[RunRecord]) -> List[ClaimVerdict]:
    """Optimus-over-Megatron speedup at p=64 vs the paper's 1.48×/1.78×."""
    grid = _evidence_grid(records)
    p = CLAIM_DEVICE_COUNTS[-1]
    specs = [
        ("speedup-training", "training throughput speedup at p=64",
         PAPER_SPEEDUP_TRAINING, 0),
        ("speedup-inference", "inference throughput speedup at p=64",
         PAPER_SPEEDUP_INFERENCE, 1),
    ]
    meg, opt = grid.get(("megatron", p)), grid.get(("optimus", p))
    out: List[ClaimVerdict] = []
    for claim, title, paper, idx in specs:
        if meg is None or opt is None:
            out.append(ClaimVerdict(
                claim=claim, title=title, status="no-evidence",
                predicted=paper, band=SPEEDUP_RATIO_BAND,
                detail=f"needs both schemes' p={p} stem records",
            ))
            continue
        measured = _stem_throughputs(opt)[idx] / _stem_throughputs(meg)[idx]
        ratio = measured / paper
        out.append(ClaimVerdict(
            claim=claim, title=title,
            status=_band_status(ratio, SPEEDUP_RATIO_BAND),
            measured=measured, predicted=paper, ratio=ratio,
            band=SPEEDUP_RATIO_BAND,
            detail=f"measured {measured:.2f}× vs paper {paper:.2f}×",
            evidence=[opt.run_id, meg.run_id],
        ))
    return out


def strong_scaling_verdict(records: List[RunRecord]) -> ClaimVerdict:
    """Table-3: Optimus out-throughputs Megatron at p=64, fixed problem."""
    from repro.experiments.table3 import PAPER_MEGATRON, PAPER_OPTIMUS

    title = "strong scaling (Table 3): Optimus speedup at p=64, fixed h≈3072"
    pts = {pt["scheme"]: pt for pt in strong_scaling_points()}
    recs = {
        s: find_stem(records, s, pt["p"], pt["cfg"]) for s, pt in pts.items()
    }
    paper = PAPER_OPTIMUS[64][2] / PAPER_MEGATRON[64][2]  # throughputs, seq/s
    if any(r is None for r in recs.values()):
        return ClaimVerdict(
            claim="strong-scaling", title=title, status="no-evidence",
            predicted=paper, band=STRONG_SCALING_RATIO_BAND,
            detail="needs both schemes' Table-3 p=64 stem records",
        )
    measured = (
        _stem_throughputs(recs["optimus"])[0] / _stem_throughputs(recs["megatron"])[0]
    )
    ratio = measured / paper
    status = _band_status(ratio, STRONG_SCALING_RATIO_BAND)
    if measured <= 1.0:  # direction: Optimus must win at all
        status = "fail"
    return ClaimVerdict(
        claim="strong-scaling", title=title, status=status,
        measured=measured, predicted=paper, ratio=ratio,
        band=STRONG_SCALING_RATIO_BAND,
        detail=f"measured {measured:.3f}× vs paper {paper:.3f}× (must be > 1)",
        evidence=[recs["optimus"].run_id, recs["megatron"].run_id],
    )


def arrangement_verdict(records: List[RunRecord]) -> ClaimVerdict:
    """Fig-8: bunched beats naive placement end-to-end on the 4×4 mesh."""
    from repro.experiments.fig8 import broadcast_comparison

    title = "GPU arrangement (Fig 8): bunched beats naive on 4 nodes × 4 GPUs"
    pts = {pt["arrangement"]: pt for pt in arrangement_points()}
    recs = {
        arr: find_stem(records, pt["scheme"], pt["p"], pt["cfg"], arr)
        for arr, pt in pts.items()
    }
    predicted = broadcast_comparison(q=FIG8_Q).speedup
    if any(r is None for r in recs.values()):
        return ClaimVerdict(
            claim="arrangement", title=title, status="no-evidence",
            predicted=predicted, band=ARRANGEMENT_RATIO_BAND,
            detail="needs naive and bunched Fig-8 stem records",
        )

    def iter_time(rec: RunRecord) -> float:
        result = rec.extra["result"]
        return float(result["forward_time"]) + float(result["backward_time"])

    measured = iter_time(recs["naive"]) / iter_time(recs["bunched"])
    ratio = measured / predicted
    status = _band_status(ratio, ARRANGEMENT_RATIO_BAND)
    if measured <= 1.0:  # direction: bunched must win at all
        status = "fail"
    return ClaimVerdict(
        claim="arrangement", title=title, status=status,
        measured=measured, predicted=predicted, ratio=ratio,
        band=ARRANGEMENT_RATIO_BAND,
        detail=(f"end-to-end {measured:.3f}× vs per-collective α–β bound "
                f"{predicted:.2f}× (must be > 1; bound diluted by compute)"),
        evidence=[recs["naive"].run_id, recs["bunched"].run_id],
    )


# ----------------------------------------------------------------------
# the scorecard
# ----------------------------------------------------------------------
def scorecard(records: List[RunRecord]) -> dict:
    """All claim verdicts as one JSON-serializable document."""
    verdicts = (
        memory_scaling_verdicts(records)
        + [isoefficiency_verdict(records)]
        + speedup_verdicts(records)
        + [strong_scaling_verdict(records), arrangement_verdict(records)]
    )
    return {
        "schema": CLAIMS_SCHEMA,
        "claims": [dataclasses.asdict(v) for v in verdicts],
        "num_pass": sum(v.passed for v in verdicts),
        "num_fail": sum(v.status == "fail" for v in verdicts),
        "num_no_evidence": sum(v.status == "no-evidence" for v in verdicts),
        "ok": all(v.status != "fail" for v in verdicts),
    }


def render(card: dict) -> str:
    from repro.utils.tables import format_table

    rows = []
    for c in card["claims"]:
        band = f"[{c['band'][0]:g}, {c['band'][1]:g}]" if c["band"] else ""
        rows.append([
            c["claim"],
            c["status"].upper(),
            "" if c["measured"] is None else f"{c['measured']:.4g}",
            "" if c["predicted"] is None else f"{c['predicted']:.4g}",
            "" if c["ratio"] is None else f"{c['ratio']:.3f}",
            band,
        ])
    out = format_table(
        ["claim", "verdict", "measured", "predicted", "ratio", "band"],
        rows, title="Paper-claims scorecard",
    )
    out += (f"\n{card['num_pass']} pass, {card['num_fail']} fail, "
            f"{card['num_no_evidence']} without evidence")
    return out
