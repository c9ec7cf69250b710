"""Paper-claims scorecard: replay ledger evidence against the perf model.

The scorecard is :data:`CLAIMS`, one :class:`Claim` row per verdict, and
:func:`verdict` scores a row on the :class:`~repro.experiments.runner.StemResult`
of each of its evidence stems, read back from :mod:`repro.obs.ledger`
records of real stem runs.  A **measured** figure is the experiments' own
derivation from those results; a **predicted** one comes from
:mod:`repro.perfmodel` or the paper:

1. **memory scaling** (§3.1–3.2) — every Optimus working-set term carries
   ``1/p`` (the O(bsh/p) claim), so the closed-form
   :func:`~repro.perfmodel.memory_model.estimate_peak_bytes` must match
   the byte-accurate allocator's measured peak: one row per Table-2 stem.
2. **isoefficiency** (§4) — Optimus's efficiency function is
   ``W ~ (√p·log p)³`` against Megatron's ``p³``, i.e. Megatron's
   comm-to-compute ratio D must grow *faster* with p.  A direct measured-E
   vs closed-form-E comparison is hopeless (the closed form ignores α
   latency and NIC contention), so the verdict uses the **growth
   advantage**: ``A = (D_meg(64)/D_meg(4)) / (D_opt(64)/D_opt(4))``,
   measured from stem results vs predicted from the Table-1 cost formulas
   (the hardware constant β·MAC cancels in the predicted ratio).
3. **speedup** (§5.1, Table 2) — Optimus over Megatron on 64 GPUs:
   1.48× training throughput and 1.78× inference in the paper.  The
   measured speedup must be a calibrated fraction of the paper's (the
   simulator reproduces the *shape*, not the exact testbed constants).
4. **strong scaling** (§5.1, Table 3) — with the problem size *fixed*
   (h ≈ 3072, N = 24) Optimus still out-throughputs Megatron at p = 64:
   2.0123 vs 1.8180 seq/s in the paper (1.11×).
5. **GPU arrangement** (§5.2, Fig. 8) — on a 4×4 mesh over 4 nodes the
   bunched arrangement beats the naive row-major one because naive
   column broadcasts crowd every node's single NIC.  Measured as the
   end-to-end stem speedup between two otherwise-identical Optimus runs;
   predicted is the α–β model's *per-collective* crowding bound, so the
   measured/predicted ratio is the (calibrated) dilution of that bound
   by compute and row traffic.

Evidence stems (:data:`POINTS`) run at the paper's Table-2 settings for
p ∈ {4, 64} (both schemes), the Table-3 settings at p = 64, and the Fig-8
arrangement pair.  :func:`ensure_claim_records` runs any that are missing
(dryrun, ~a minute) and appends them to the ledger, deduplicating by
(scheme, device count, config fingerprint, arrangement) — re-scoring an
unchanged ledger is free.  Evidence stems run traced, so each record also
carries a :func:`repro.obs.critpath.attribution_summary` for the
dashboard's Attribution section.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Tuple

from repro.config import ModelConfig, table2_weak_scaling, table3_strong_scaling
from repro.experiments import fig8, table3
from repro.experiments.runner import StemResult, run_stem, speedup_at
from repro.hardware.specs import IB_EDR, RTX5000
from repro.obs.ledger import RunLedger, RunRecord, config_fingerprint
from repro.perfmodel.costs import TABLE1
from repro.perfmodel.memory_model import estimate_peak_bytes

CLAIMS_SCHEMA = "repro-claims-v1"

#: ledger label marking scorecard evidence records
CLAIM_LABEL = "claims-stem"

#: paper's Table-2 speedups of Optimus over Megatron at p=64
PAPER_SPEEDUP_TRAINING = 1.48
PAPER_SPEEDUP_INFERENCE = 1.78

# Calibrated tolerance bands (measured on the seed simulator; see
# tests/test_ledger.py::TestClaims).  Memory: the closed form tracks the
# allocator to ~0.01% at p=64 and within ~20% at small p where constant
# terms matter.
MEMORY_RATIO_BAND = (0.8, 1.25)
# Isoefficiency growth advantage: measured ≈ 2.24 vs predicted ≈ 1.75
# (ratio ≈ 1.28 — α latency and NIC sharing hurt Megatron's all-reduces
# more than the β-only Table-1 formulas predict).
ISOEFFICIENCY_RATIO_BAND = (0.5, 2.0)
# Speedup: measured ≈ 1.35×/1.60× vs paper 1.48×/1.78× (ratio ≈ 0.9).
SPEEDUP_RATIO_BAND = (0.7, 1.4)
# Strong scaling: measured speedup ≈ 1.11× vs paper 1.107× (ratio ≈ 1.00).
STRONG_SCALING_RATIO_BAND = (0.8, 1.25)
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


# ----------------------------------------------------------------------
# evidence
# ----------------------------------------------------------------------
class Point(NamedTuple):
    """One evidence stem: :func:`~repro.experiments.runner.run_stem`'s
    leading arguments."""

    scheme: str
    cfg: ModelConfig
    p: int
    batch: int
    arrangement: Optional[str] = None  # matched only when given (Fig. 8)


def _pair(settings: List[dict], p: int) -> Tuple[Point, ...]:
    """The (Megatron, Optimus) points of a scaling table's row at p."""
    row = {r["num_devices"]: r for r in settings}[p]
    return tuple(Point(s, row[f"model_{s}"], p, row[f"batch_{s}"]) for s in ("megatron", "optimus"))


MEG4, OPT4 = _pair(table2_weak_scaling(), 4)
MEG64, OPT64 = _pair(table2_weak_scaling(), 64)
STRONG_MEG, STRONG_OPT = _pair(table3_strong_scaling(), 64)
NAIVE, BUNCHED = (
    Point("optimus", fig8.DEFAULT_CFG, fig8.Q * fig8.Q, fig8.BATCH_SIZE, arr)
    for arr in ("naive", "bunched")
)
#: every evidence stem, in the order :func:`ensure_claim_records` runs them
POINTS = (MEG4, OPT4, MEG64, OPT64, STRONG_MEG, STRONG_OPT, NAIVE, BUNCHED)


def find_stem(records: List[RunRecord], pt: Point) -> Optional[RunRecord]:
    """The newest stem record matching (scheme, device count, config) and,
    for a point that names one, the mesh placement — the Fig-8 claim tells
    two otherwise-identical runs apart by it."""
    fp = config_fingerprint(pt.cfg)
    found = None
    for r in records:
        extra = r.extra or {}
        if (
            r.kind == "experiment"
            and r.scheme == pt.scheme
            and extra.get("workload") == "stem"
            and (extra.get("result") or {}).get("num_devices") == pt.p
            and (r.config or {}).get("fingerprint") == fp
            and (pt.arrangement is None or (r.mesh or {}).get("arrangement") == pt.arrangement)
        ):
            found = r
    return found


def ensure_claim_records(ledger: RunLedger, printer=None) -> List[str]:
    """Run (and append) any missing evidence stems; returns new run_ids.

    Stems run with ``trace=True`` so every evidence record carries a
    critical-path attribution summary (clocks and bytes are bit-identical
    with tracing on or off).
    """
    records = ledger.read()
    appended: List[str] = []
    for pt in POINTS:
        if find_stem(records, pt) is not None:
            continue
        if printer:
            arr = f" ({pt.arrangement})" if pt.arrangement else ""
            printer(f"collecting claim evidence: {pt.scheme} p={pt.p}{arr} stem")
        run_stem(*pt, ledger=ledger, run_label=CLAIM_LABEL, trace=True)
        appended.append(ledger.read()[-1].run_id)
    return appended


# ----------------------------------------------------------------------
# the claims
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Claim:
    """One scorecard row: its evidence stems and how to score them."""

    id: str
    title: str
    band: Tuple[float, float]  # measured / predicted must land inside
    points: Tuple[Point, ...]  # in the verdict's evidence order
    measured: Callable[..., float]  # of the points' StemResults
    predicted: Callable[..., float]  # of the points themselves
    detail: Callable[[float, float], str]  # of (measured, predicted)
    missing: str  # the detail when a point has no record
    predicted_without_evidence: bool = False
    must_exceed_one: bool = False  # the direction check


def _advantage(meg_lo: float, meg_hi: float, opt_lo: float, opt_hi: float) -> float:
    """How much faster Megatron's D grows than Optimus's from lo to hi p."""
    return (meg_hi / meg_lo) / (opt_hi / opt_lo)


def _predicted_d(pt: Point) -> float:
    """Table-1 prediction of D (the hardware constant cancels in ratios)."""
    row = TABLE1[pt.scheme]
    b, s, h, p = pt.batch, pt.cfg.seq_len, pt.cfg.hidden_size, pt.p
    comm = row.forward_comm(b, s, h, p) + row.backward_comm(b, s, h, p)
    macs = row.forward_macs(b, s, h, p) + row.backward_macs(b, s, h, p)
    # scalars·β·elem_size seconds of comm per MAC·2/flops seconds of compute
    return comm / macs * (2.0 * IB_EDR.beta * RTX5000.effective_flops)


def _speedup(kind: str, paper: float, index: int) -> Claim:
    return Claim(
        f"speedup-{kind}",
        f"{kind} throughput speedup at p=64",
        SPEEDUP_RATIO_BAND,
        (OPT64, MEG64),
        measured=lambda *results: speedup_at(results, 64)[index],
        predicted=lambda *_: paper,
        detail=lambda m, p: f"measured {m:.2f}× vs paper {p:.2f}×",
        missing="needs both schemes' p=64 stem records",
        predicted_without_evidence=True,
    )


CLAIMS: Tuple[Claim, ...] = (
    *(
        Claim(
            f"memory-scaling/{pt.scheme}/p{pt.p}",
            f"memory model O(bsh/p): {pt.scheme} p={pt.p}",
            MEMORY_RATIO_BAND,
            (pt,),
            measured=lambda r: float(r.peak_memory_bytes),
            predicted=lambda pt: estimate_peak_bytes(pt.scheme, pt.cfg, pt.p, pt.batch).total,
            detail=lambda m, p: (
                f"allocator peak {m / 2**30:.2f} GiB vs closed-form {p / 2**30:.2f} GiB"
            ),
            missing="no matching stem record in the ledger",
        )
        for pt in (MEG4, OPT4, MEG64, OPT64)
    ),
    Claim(
        "isoefficiency",
        "isoefficiency: Megatron's comm/compute grows faster (W~p³ vs (√p·log p)³)",
        ISOEFFICIENCY_RATIO_BAND,
        (MEG4, MEG64, OPT4, OPT64),
        measured=lambda *results: _advantage(*(r.comm_time / r.compute_time for r in results)),
        predicted=lambda *points: _advantage(*map(_predicted_d, points)),
        detail=lambda m, p: (
            f"measured growth advantage {m:.2f}× vs Table-1 predicted {p:.2f}× (must be > 1)"
        ),
        missing="needs stem records for both schemes at p=4 and p=64",
        must_exceed_one=True,
    ),
    _speedup("training", PAPER_SPEEDUP_TRAINING, 0),
    _speedup("inference", PAPER_SPEEDUP_INFERENCE, 1),
    Claim(
        "strong-scaling",
        "strong scaling (Table 3): Optimus speedup at p=64, fixed h≈3072",
        STRONG_SCALING_RATIO_BAND,
        (STRONG_OPT, STRONG_MEG),
        measured=lambda *results: speedup_at(results, 64)[0],
        predicted=lambda *_: table3.PAPER_SPEEDUP,
        detail=lambda m, p: f"measured {m:.3f}× vs paper {p:.3f}× (must be > 1)",
        missing="needs both schemes' Table-3 p=64 stem records",
        predicted_without_evidence=True,
        must_exceed_one=True,
    ),
    Claim(
        "arrangement",
        "GPU arrangement (Fig 8): bunched beats naive on 4 nodes × 4 GPUs",
        ARRANGEMENT_RATIO_BAND,
        (NAIVE, BUNCHED),
        measured=lambda naive, bunched: fig8.stem_row(naive, bunched).speedup,
        predicted=lambda *_: fig8.broadcast_comparison().speedup,
        detail=lambda m, p: (
            f"end-to-end {m:.3f}× vs per-collective α–β bound {p:.2f}× "
            "(must be > 1; bound diluted by compute)"
        ),
        missing="needs naive and bunched Fig-8 stem records",
        predicted_without_evidence=True,
        must_exceed_one=True,
    ),
)


def verdict(claim: Claim, records: List[RunRecord]) -> ClaimVerdict:
    """Score one claim on the newest ledger record of each of its points."""
    found = [find_stem(records, pt) for pt in claim.points]
    if any(r is None for r in found):
        predicted = claim.predicted(*claim.points) if claim.predicted_without_evidence else None
        return ClaimVerdict(
            claim.id,
            claim.title,
            "no-evidence",
            predicted=predicted,
            band=claim.band,
            detail=claim.missing,
        )
    measured = claim.measured(*(StemResult(**r.extra["result"]) for r in found))
    predicted = claim.predicted(*claim.points)
    ratio = measured / predicted
    lo, hi = claim.band
    passed = lo <= ratio <= hi and (measured > 1.0 or not claim.must_exceed_one)
    return ClaimVerdict(
        claim.id,
        claim.title,
        "pass" if passed else "fail",
        measured,
        predicted,
        ratio,
        claim.band,
        claim.detail(measured, predicted),
        [r.run_id for r in found],
    )


# ----------------------------------------------------------------------
# the scorecard
# ----------------------------------------------------------------------
def scorecard(records: List[RunRecord]) -> dict:
    """All claim verdicts as one JSON-serializable document."""
    verdicts = [verdict(claim, records) for claim in CLAIMS]
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
        rows.append(
            [
                c["claim"],
                c["status"].upper(),
                "" if c["measured"] is None else f"{c['measured']:.4g}",
                "" if c["predicted"] is None else f"{c['predicted']:.4g}",
                "" if c["ratio"] is None else f"{c['ratio']:.3f}",
                band,
            ]
        )
    out = format_table(
        ["claim", "verdict", "measured", "predicted", "ratio", "band"],
        rows,
        title="Paper-claims scorecard",
    )
    out += (
        f"\n{card['num_pass']} pass, {card['num_fail']} fail, "
        f"{card['num_no_evidence']} without evidence"
    )
    return out
