"""``python -m repro dash`` — a static HTML dashboard over the run ledger.

Reads :mod:`repro.obs.ledger` records and renders one self-contained HTML
file (inline SVG, no JavaScript, light/dark via CSS custom properties)
plus an OpenMetrics text file:

* **paper-claims scorecard** — the :mod:`repro.obs.claims` verdicts with
  measured-vs-predicted ratios (status is icon + label, never color
  alone);
* **attribution** — the :mod:`repro.obs.critpath` summary carried by
  traced ledger records: compute/comm/stall/overhead split per run, the
  exact-conservation verdict and the top critical-path bottleneck;
* **trends** — simulated clock, peak memory and communication volume per
  ledger record in append order, plus per-metric sparklines keyed on git
  revision (newest value per revision);
* **run table** — every ledger record with its content-hash ``run_id``.

Unless ``--no-collect`` is passed, missing evidence is collected first
(a tiny training run, a quick single-scheme chaos campaign, the claim
stems), so a bare ``python -m repro dash`` on a fresh checkout produces a
complete dashboard.
"""

from __future__ import annotations

import html
import os
from collections import Counter
from typing import List, Optional, Sequence, Tuple

from repro.obs.critpath import CATEGORIES
from repro.obs.ledger import RunLedger, RunRecord
from repro.utils import write_text

DEFAULT_HTML = "dash.html"
DEFAULT_OPENMETRICS = "metrics.txt"

_STATUS = {  # icon + label: color never carries a verdict alone
    "pass": ("✓", "PASS", "status-good"),
    "fail": ("✗", "FAIL", "status-critical"),
    "no-evidence": ("○", "NO EVIDENCE", "status-muted"),
    "fired": ("▲", "FIRED", "status-critical"),
    "quiet": ("✓", "QUIET", "status-good"),
}


# ----------------------------------------------------------------------
# evidence collection
# ----------------------------------------------------------------------
def _collect_train(ledger: RunLedger, printer) -> None:
    from repro.config import tiny_config
    from repro.core import OptimusModel
    from repro.mesh import Mesh
    from repro.nn import init_transformer_params
    from repro.runtime import Simulator
    from repro.training.data import BatchStream
    from repro.training.optim import Adam
    from repro.training.trainer import Trainer

    printer("collecting evidence: tiny optimus training run (5 steps)")
    cfg = tiny_config(num_layers=2)
    sim = Simulator.for_mesh(q=2)
    model = OptimusModel(Mesh(sim, 2), cfg, init_transformer_params(cfg, seed=1))
    trainer = Trainer(
        model,
        Adam(model.parameters(), lr=1e-2),
        BatchStream.copy_task(cfg, 4, seed=0),
        ledger=ledger,
        run_label="dash-train",
        seed=0,
    )
    trainer.train_steps(5)


def _collect_chaos(ledger: RunLedger, printer) -> None:
    from repro.resilience.chaos import run_campaign

    printer("collecting evidence: quick chaos campaign (optimus)")
    run_campaign(seed=0, quick=True, schemes=("optimus",), ledger=ledger)


def _collect_pipeline(ledger: RunLedger, printer) -> None:
    from repro.config import tiny_config
    from repro.training.data import BatchStream
    from repro.training.trainer import make_pipeline_trainer

    printer("collecting evidence: pipeline training runs (gpipe + 1f1b, 3 steps)")
    cfg = tiny_config(num_layers=2)
    for schedule in ("gpipe", "1f1b"):
        trainer = make_pipeline_trainer(
            cfg,
            BatchStream.copy_task(cfg, 4, seed=0),
            schedule=schedule,
            num_micro_batches=2,
            num_stages=2,
            seed=0,
            ledger=ledger,
            run_label=f"dash-pipeline-{schedule}",
        )
        trainer.train_steps(3)


def _collect_serve(ledger: RunLedger, printer) -> None:
    from repro.serving.report import run_serve

    printer("collecting evidence: quick serving run (optimus + megatron)")
    run_serve(0, quick=True, ledger=ledger)


def _collect_serve_chaos(ledger: RunLedger, printer) -> None:
    from repro.serving.chaos import run_serve_chaos

    printer("collecting evidence: quick serving chaos campaign (optimus)")
    run_serve_chaos(0, quick=True, schemes=("optimus",), ledger=ledger)


def collect(ledger: RunLedger, printer=print) -> None:
    """Fill evidence gaps so the dashboard has every section populated."""
    from repro.obs.claims import ensure_claim_records

    records = ledger.read()
    kinds = Counter(r.kind for r in records)
    if not kinds.get("train"):
        _collect_train(ledger, printer)
    if not any(r.scheme == "pipeline" for r in records):
        _collect_pipeline(ledger, printer)
    if not kinds.get("chaos"):
        _collect_chaos(ledger, printer)
    if not kinds.get("serve"):
        _collect_serve(ledger, printer)
    if not kinds.get("serve-chaos"):
        _collect_serve_chaos(ledger, printer)
    ensure_claim_records(ledger, printer=printer)


# ----------------------------------------------------------------------
# data shaping
# ----------------------------------------------------------------------
def _fmt_bytes(n: Optional[float]) -> str:
    if not n:
        return "—"
    for unit, scale in (("GiB", 2**30), ("MiB", 2**20), ("KiB", 2**10)):
        if n >= scale:
            return f"{n / scale:.2f} {unit}"
    return f"{n:.0f} B"


def _fmt_secs(t: Optional[float]) -> str:
    return "—" if t is None else f"{t:.3f} s"


def _fmt_ms(t: Optional[float]) -> str:
    return "—" if t is None else f"{t * 1e3:.3f} ms"


def _num(v, spec: str = ".4g") -> str:
    return "—" if v is None else format(v, spec)


def _record_label(r: RunRecord) -> str:
    bits = [r.kind]
    if r.scheme:
        bits.append(r.scheme)
    if r.label and r.label not in ("", r.kind):
        bits.append(r.label)
    return "/".join(bits)


def _trend_values(r: RunRecord) -> dict:
    """The record's trended metrics that have a value: clock / memory / comm."""
    c = r.counters or {}
    values = {
        "clock": r.clock,
        "memory": c.get("peak_memory_bytes") or None,
        "comm": c.get("total_bytes_comm") or None,
    }
    return {name: float(v) for name, v in values.items() if v is not None}


def trend_series(records: Sequence[RunRecord]) -> dict:
    """(label, value) series for the clock / memory / comm trend charts."""
    series: dict = {"clock": [], "memory": [], "comm": []}
    for r in records:
        for name, value in _trend_values(r).items():
            series[name].append((_record_label(r), value))
    return series


def sparkline_series(records: Sequence[RunRecord]) -> dict:
    """Per-metric (git_rev, value) points — newest value per revision.

    Revisions keep first-appearance order, so the sparkline reads left to
    right as the ledger's revision history.
    """
    per_metric: dict = {"clock": {}, "memory": {}, "comm": {}}
    revs: List[str] = []
    for r in records:
        rev = r.git or "unknown"
        if rev not in revs:
            revs.append(rev)
        for name, value in _trend_values(r).items():
            per_metric[name][rev] = value
    return {
        name: [(rev, vals[rev]) for rev in revs if rev in vals]
        for name, vals in per_metric.items()
    }


def attribution_rows(records: Sequence[RunRecord]) -> List[dict]:
    """One row per ledger record that carries a critpath attribution."""
    rows = []
    for r in records:
        a = r.attribution
        if not a or not a.get("per_rank_sum"):
            continue
        top = (a.get("top_bottlenecks") or [{}])[0]
        rows.append({
            "record": _record_label(r),
            "run_id": r.run_id,
            "wall_clock_ns": a.get("wall_clock_ns", 0),
            "split": a["per_rank_sum"],
            "conservation_ok": bool(a.get("conservation_ok")),
            "top_key": top.get("key", "—"),
            "top_ratio": top.get("ratio"),
        })
    return rows


def _arm(r: RunRecord) -> Tuple[str, str]:
    return r.scheme or "?", (r.extra or {}).get("arrival") or "?"


def _newest_by(records: Sequence[RunRecord], kind: Optional[str], key_fn) -> List[Tuple]:
    """``(key, record)`` for the newest record of ``kind`` (``None``: any) per
    ``key_fn(record)``, in key order; a ``None`` key leaves the record out."""
    newest: dict = {}
    for r in records:
        if kind in (None, r.kind):
            key = key_fn(r)
            if key is not None:
                newest[key] = r
    return sorted(newest.items())


def serving_rows(records: Sequence[RunRecord]) -> List[dict]:
    """Newest serve record per (scheme, arrival) arm, in label order."""
    rows = []
    for (scheme, arrival), r in _newest_by(records, "serve", _arm):
        e = r.extra or {}
        rows.append({
            "record": _record_label(r),
            "run_id": r.run_id,
            "scheme": scheme,
            "arrival": arrival,
            "ranks": (r.mesh or {}).get("ranks"),
            "requests": e.get("num_requests"),
            "rate_rps": e.get("rate_rps"),
            "generated_tokens": e.get("generated_tokens"),
            "goodput": e.get("goodput_tokens_per_s"),
            "slo_attainment": e.get("slo_attainment"),
            "p99_e2e_s": e.get("p99_e2e_s"),
            "clock": r.clock,
        })
    return rows


def sweep_series(records: Sequence[RunRecord]) -> dict:
    """Latency/goodput-vs-offered-load curves from serve ledger records.

    Groups serve records by (scheme, arrival) and orders each group by
    offered load (``rate_rps``), keeping the newest record per rate — the
    shape ``repro serve --sweep`` appends, one record per point.  Returns
    ``{"p99_e2e_s": {label: [(rate, v), …]}, "goodput": {…}}``; groups
    with fewer than two distinct rates are dropped (a single point is a
    table row, not a curve).
    """
    def arm_at_rate(r: RunRecord):
        rate = (r.extra or {}).get("rate_rps")
        return None if rate is None else (*_arm(r), float(rate))

    out: dict = {"p99_e2e_s": {}, "goodput": {}}
    for (scheme, arrival, rate), r in _newest_by(records, "serve", arm_at_rate):
        e = r.extra or {}
        label = f"{scheme}/{arrival}"
        if e.get("p99_e2e_s") is not None:
            out["p99_e2e_s"].setdefault(label, []).append((rate, float(e["p99_e2e_s"])))
        if e.get("goodput_tokens_per_s") is not None:
            out["goodput"].setdefault(label, []).append(
                (rate, float(e["goodput_tokens_per_s"]))
            )
    for key in out:
        out[key] = {
            label: pts for label, pts in out[key].items()
            if len({p[0] for p in pts}) >= 2
        }
    return out


def alerts_rows(records: Sequence[RunRecord]) -> List[dict]:
    """Newest serve record per (scheme, arrival) that carries alert totals."""
    rows = []
    for (scheme, arrival), r in _newest_by(
        records, "serve", lambda r: _arm(r) if "alerts" in (r.extra or {}) else None
    ):
        a = r.extra["alerts"]
        rows.append({
            "record": _record_label(r),
            "run_id": r.run_id,
            "scheme": scheme,
            "arrival": arrival,
            "fired": a.get("fired", 0),
            "resolved": a.get("resolved", 0),
            "rules_fired": list(a.get("rules_fired") or []),
        })
    return rows


def serve_chaos_rows(records: Sequence[RunRecord]) -> List[dict]:
    """Newest serve-chaos record per scheme, in scheme order."""
    rows = []
    for scheme, r in _newest_by(records, "serve-chaos", lambda r: r.scheme or "?"):
        e = r.extra or {}
        rows.append({
            "record": _record_label(r),
            "run_id": r.run_id,
            "scheme": scheme,
            "arrival": e.get("arrival"),
            "requests": e.get("num_requests"),
            "token_identical": e.get("token_identical"),
            "crashes": e.get("crashes"),
            "retries": e.get("retries"),
            "recovered_steps": e.get("recovered_steps"),
            "recovery_s": e.get("recovery_s"),
            "goodput": e.get("goodput_tokens_per_s"),
            "ok": e.get("ok"),
            "clock": r.clock,
        })
    return rows


# ----------------------------------------------------------------------
# SVG (no JavaScript; hover via <title>)
# ----------------------------------------------------------------------
def _bar_chart(items: List[Tuple[str, float]], fmt=lambda v: f"{v:.3g}") -> str:
    """A horizontal single-series bar chart (series-1; no legend needed)."""
    if not items:
        return '<p class="muted">no data yet</p>'
    label_w, value_w, bar_max = 190, 90, 420
    row_h, bar_h, pad = 22, 14, 4
    width = label_w + bar_max + value_w
    height = len(items) * row_h + pad
    top = max(v for _, v in items) or 1.0
    rows = []
    for i, (label, value) in enumerate(items):
        y = pad + i * row_h
        w = max(2.0, value / top * (bar_max - 8))
        lab = html.escape(label)
        rows.append(
            f'<g><title>{lab}: {html.escape(fmt(value))}</title>'
            f'<text x="{label_w - 8}" y="{y + bar_h - 3}" text-anchor="end" '
            f'class="tick">{lab}</text>'
            f'<rect x="{label_w}" y="{y}" width="{w:.1f}" height="{bar_h}" '
            f'rx="3" class="bar"/>'
            f'<text x="{label_w + w + 6:.1f}" y="{y + bar_h - 3}" '
            f'class="val">{html.escape(fmt(value))}</text></g>'
        )
    axis_y = height - 1
    return (
        f'<svg viewBox="0 0 {width} {height + 4}" role="img" '
        f'style="max-width:{width}px;width:100%">'
        f'<line x1="{label_w}" y1="{axis_y}" x2="{label_w + bar_max}" '
        f'y2="{axis_y}" class="axis"/>' + "".join(rows) + "</svg>"
    )


def _sparkline(points: List[Tuple[str, float]], fmt=lambda v: f"{v:.3g}") -> str:
    """A tiny inline polyline over per-revision values (hover for detail)."""
    if not points:
        return '<span class="muted">no data</span>'
    w, h, pad = 160, 26, 4
    vals = [v for _, v in points]
    lo, hi = min(vals), max(vals)
    span = (hi - lo) or 1.0
    step = (w - 2 * pad) / max(1, len(points) - 1)
    coords = []
    for i, (_, v) in enumerate(points):
        x = pad + i * step
        y = h - pad - (v - lo) / span * (h - 2 * pad)
        coords.append((x, y))
    title = " → ".join(f"{rev[:9]}: {fmt(v)}" for rev, v in points)
    poly = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
    lx, ly = coords[-1]
    return (
        f'<svg viewBox="0 0 {w} {h}" class="spark" role="img" '
        f'style="width:{w}px;height:{h}px">'
        f"<title>{html.escape(title)}</title>"
        f'<polyline points="{poly}" class="spark-line"/>'
        f'<circle cx="{lx:.1f}" cy="{ly:.1f}" r="2.5" class="spark-dot"/></svg>'
    )


def _line_chart(series: dict, fmt=lambda v: f"{v:.3g}",
                x_fmt=lambda v: f"{v:g}") -> str:
    """A multi-series x/y polyline chart (offered load on x, metric on y).

    ``series`` maps legend label → [(x, y), …]; points are plotted on a
    shared linear scale with per-point hover titles and a text legend
    (series are distinguished by class ``line-N`` color *and* marker
    shape, never color alone).
    """
    series = {k: sorted(v) for k, v in series.items() if v}
    if not series:
        return '<p class="muted">no data yet</p>'
    pad_l, pad_r, pad_t, pad_b = 70, 16, 10, 34
    plot_w, plot_h = 430, 170
    width, height = pad_l + plot_w + pad_r, pad_t + plot_h + pad_b
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x):
        return pad_l + (x - x_lo) / x_span * plot_w

    def sy(y):
        return pad_t + plot_h - (y - y_lo) / y_span * plot_h

    parts = [
        f'<line x1="{pad_l}" y1="{pad_t + plot_h}" x2="{pad_l + plot_w}" '
        f'y2="{pad_t + plot_h}" class="axis"/>',
        f'<line x1="{pad_l}" y1="{pad_t}" x2="{pad_l}" '
        f'y2="{pad_t + plot_h}" class="axis"/>',
        f'<text x="{pad_l - 6}" y="{pad_t + 10}" text-anchor="end" '
        f'class="tick">{html.escape(fmt(y_hi))}</text>',
        f'<text x="{pad_l - 6}" y="{pad_t + plot_h}" text-anchor="end" '
        f'class="tick">{html.escape(fmt(y_lo))}</text>',
        f'<text x="{pad_l}" y="{height - 18}" class="tick">'
        f"{html.escape(x_fmt(x_lo))}</text>",
        f'<text x="{pad_l + plot_w}" y="{height - 18}" text-anchor="end" '
        f'class="tick">{html.escape(x_fmt(x_hi))}</text>',
    ]
    markers = ("circle", "square", "diamond", "triangle")
    legend = []
    for i, (label, pts) in enumerate(sorted(series.items())):
        cls = f"line-{i % 4}"
        marker = markers[i % 4]
        poly = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
        parts.append(f'<polyline points="{poly}" class="curve {cls}"/>')
        for x, y in pts:
            cx, cy = sx(x), sy(y)
            title = (f"<title>{html.escape(label)} @ {html.escape(x_fmt(x))}: "
                     f"{html.escape(fmt(y))}</title>")
            if marker == "circle":
                parts.append(f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="3.5" '
                             f'class="dot {cls}">{title}</circle>')
            elif marker == "square":
                parts.append(f'<rect x="{cx - 3:.1f}" y="{cy - 3:.1f}" '
                             f'width="6" height="6" class="dot {cls}">{title}</rect>')
            elif marker == "diamond":
                parts.append(
                    f'<rect x="{cx - 3:.1f}" y="{cy - 3:.1f}" width="6" height="6" '
                    f'transform="rotate(45 {cx:.1f} {cy:.1f})" '
                    f'class="dot {cls}">{title}</rect>')
            else:
                parts.append(
                    f'<polygon points="{cx:.1f},{cy - 4:.1f} {cx - 4:.1f},'
                    f'{cy + 3:.1f} {cx + 4:.1f},{cy + 3:.1f}" '
                    f'class="dot {cls}">{title}</polygon>')
        legend.append(f'<span class="legend-item {cls}-text">'
                      f"{'●■◆▲'[i % 4]} {html.escape(label)}</span>")
    svg = (
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        f'style="max-width:{width}px;width:100%">' + "".join(parts) + "</svg>"
    )
    return svg + "<p class='muted'>" + " &nbsp; ".join(legend) + "</p>"


def _att_bar(split: dict) -> str:
    """A stacked category bar (percentages live in the adjacent cells)."""
    total = split.get("total_ns") or 1
    w, h = 220, 12
    x, parts = 0.0, []
    for cat in CATEGORIES:
        ns = split.get(f"{cat}_ns", 0)
        wpx = ns / total * w
        if wpx <= 0:
            continue
        parts.append(
            f'<rect x="{x:.1f}" y="0" width="{wpx:.1f}" height="{h}" '
            f'class="att-{cat}"><title>{cat}: {100.0 * ns / total:.1f}%'
            f"</title></rect>"
        )
        x += wpx
    return (
        f'<svg viewBox="0 0 {w} {h}" role="img" '
        f'style="width:{w}px;height:{h}px">' + "".join(parts) + "</svg>"
    )


# ----------------------------------------------------------------------
# HTML
# ----------------------------------------------------------------------
_CSS = """
:root { color-scheme: light dark; }
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e;
  --series-1: #2a78d6; --series-2: #d98a2b;
  --series-3: #0ca30c; --series-4: #8a5fd0;
  --grid: #e5e4e0;
  --status-good: #0ca30c; --status-critical: #d03b3b;
  background: var(--page); color: var(--text-primary);
  font: 14px/1.5 system-ui, sans-serif; margin: 0; padding: 24px;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --series-1: #3987e5; --series-2: #e09a40;
    --series-3: #2ab52a; --series-4: #9b74d8;
    --grid: #383835;
  }
}
.viz-root h1 { font-size: 20px; margin: 0 0 4px; }
.viz-root h2 { font-size: 16px; margin: 28px 0 8px; }
.viz-root .muted, .viz-root .tick { color: var(--text-secondary); }
.viz-root section {
  background: var(--surface-1); border: 1px solid var(--grid);
  border-radius: 8px; padding: 16px 20px; margin: 16px 0;
}
.viz-root table { border-collapse: collapse; width: 100%; }
.viz-root th, .viz-root td {
  text-align: left; padding: 4px 12px 4px 0;
  border-bottom: 1px solid var(--grid); font-variant-numeric: tabular-nums;
}
.viz-root th { color: var(--text-secondary); font-weight: 500; }
.viz-root svg .bar { fill: var(--series-1); }
.viz-root svg .axis { stroke: var(--grid); stroke-width: 1; }
.viz-root svg text { font: 11px system-ui, sans-serif; fill: var(--text-primary); }
.viz-root svg .tick, .viz-root svg .val { fill: var(--text-secondary); }
.viz-root svg .spark-line { fill: none; stroke: var(--series-1); stroke-width: 1.5; }
.viz-root svg .spark-dot { fill: var(--series-1); }
.viz-root svg .curve { fill: none; stroke-width: 2; }
.viz-root svg .curve.line-0, .viz-root svg .dot.line-0 { stroke: var(--series-1); }
.viz-root svg .curve.line-1, .viz-root svg .dot.line-1 { stroke: var(--series-2); }
.viz-root svg .curve.line-2, .viz-root svg .dot.line-2 { stroke: var(--series-3); }
.viz-root svg .curve.line-3, .viz-root svg .dot.line-3 { stroke: var(--series-4); }
.viz-root svg .dot.line-0 { fill: var(--series-1); }
.viz-root svg .dot.line-1 { fill: var(--series-2); }
.viz-root svg .dot.line-2 { fill: var(--series-3); }
.viz-root svg .dot.line-3 { fill: var(--series-4); }
.viz-root .legend-item.line-0-text { color: var(--series-1); }
.viz-root .legend-item.line-1-text { color: var(--series-2); }
.viz-root .legend-item.line-2-text { color: var(--series-3); }
.viz-root .legend-item.line-3-text { color: var(--series-4); }
.viz-root svg.spark { vertical-align: middle; }
.viz-root svg .att-compute { fill: #2a78d6; }
.viz-root svg .att-comm { fill: #d98a2b; }
.viz-root svg .att-stall { fill: #9a9994; }
.viz-root svg .att-overhead { fill: #8a5fd0; }
.viz-root .status-good { color: var(--status-good); }
.viz-root .status-critical { color: var(--status-critical); }
.viz-root .status-muted { color: var(--text-secondary); }
.viz-root code { font-size: 12px; }
"""


def _status_cell(status: str) -> str:
    icon, label, cls = _STATUS.get(status, ("?", status.upper(), "status-muted"))
    return f'<span class="{cls}">{icon}&nbsp;{label}</span>'


def _table_section(title, intro, empty_hint, headers, row_cells, after="") -> str:
    """One dashboard ``<section>``: heading, muted intro, one table, ``after``.

    ``row_cells`` holds one list of cell HTML strings per row (a
    ``(html, css_class)`` pair styles its ``<td>``).  With no rows and an
    ``empty_hint``, the hint stands in for intro and table.
    """
    if not row_cells and empty_hint:
        return f"<section><h2>{title}</h2><p class='muted'>{empty_hint}</p></section>"

    def td(cell) -> str:
        if isinstance(cell, tuple):
            return f"<td class='{cell[1]}'>{cell[0]}</td>"
        return f"<td>{cell}</td>"

    return (
        f"<section><h2>{title}</h2>"
        + (f"<p class='muted'>{intro}</p>" if intro else "")
        + "<table><tr>" + "".join(f"<th>{h}</th>" for h in headers) + "</tr>"
        + "".join("<tr>" + "".join(map(td, cells)) + "</tr>" for cells in row_cells)
        + f"</table>{after}</section>"
    )


def _claims_section(card: dict) -> str:
    return _table_section(
        "Paper-claims scorecard",
        f"{card['num_pass']} pass · {card['num_fail']} fail · "
        f"{card['num_no_evidence']} without evidence",
        None,
        ["claim", "verdict", "measured", "predicted", "measured/predicted", "band",
         "detail"],
        [
            [
                html.escape(c["title"]), _status_cell(c["status"]),
                _num(c["measured"]), _num(c["predicted"]), _num(c["ratio"], ".3f"),
                "" if not c["band"] else f"[{c['band'][0]:g}, {c['band'][1]:g}]",
                (html.escape(c["detail"]), "muted"),
            ]
            for c in card["claims"]
        ],
    )


def _attribution_section(rows: List[dict]) -> str:
    def cells(row: dict) -> list:
        split = row["split"]
        total = split.get("total_ns") or 1
        top = html.escape(row["top_key"])
        if row["top_ratio"] is not None:
            top += f" ({row['top_ratio']:.2f}× predicted)"
        return [
            html.escape(row["record"]), f"{row['wall_clock_ns'] / 1e9:.6f} s",
            *(f"{100.0 * split.get(f'{cat}_ns', 0) / total:.1f}%"
              for cat in CATEGORIES),
            _att_bar(split),
            _status_cell("pass" if row["conservation_ok"] else "fail"),
            f"<code>{top}</code>",
        ]

    return _table_section(
        "Attribution (critical path)",
        "per-rank nanosecond attribution from <code>repro.obs.critpath</code>; "
        "conservation means attributed time equals wall-clock on every rank, exactly",
        "no traced records yet (run <code>repro critpath …</code> or any stem with "
        "tracing to attach attribution summaries to the ledger)",
        ["record", "wall clock", *CATEGORIES, "split", "conservation",
         "top bottleneck"],
        [cells(row) for row in rows],
    )


def _trends_section(series: dict, sparks: dict) -> str:
    spark_rows = "".join(
        f"<tr><td>{label}</td><td>{_sparkline(sparks[key], fmt=fmt)}</td>"
        f"<td>{html.escape(fmt(sparks[key][-1][1])) if sparks[key] else '—'}"
        f"</td><td class='muted'>{len(sparks[key])} revision"
        f"{'s' if len(sparks[key]) != 1 else ''}</td></tr>"
        for key, label, fmt in (
            ("clock", "sim clock", lambda v: f"{v:.3f} s"),
            ("memory", "peak memory", _fmt_bytes),
            ("comm", "comm volume", _fmt_bytes),
        )
    )
    return (
        "<section><h2>Trends across ledger records</h2>"
        "<h3 class='muted'>By git revision (newest value per revision)</h3>"
        "<table><tr><th>metric</th><th>trend</th><th>latest</th>"
        "<th></th></tr>" + spark_rows + "</table>"
        "<h3 class='muted'>Simulated clock (slowest rank, seconds)</h3>"
        + _bar_chart(series["clock"], fmt=lambda v: f"{v:.3f} s")
        + "<h3 class='muted'>Peak device memory</h3>"
        + _bar_chart(series["memory"], fmt=_fmt_bytes)
        + "<h3 class='muted'>Total communication volume</h3>"
        + _bar_chart(series["comm"], fmt=_fmt_bytes)
        + "</section>"
    )


def _serving_section(rows: List[dict]) -> str:
    chart = _bar_chart(
        [
            (f"{row['scheme']}/{row['arrival']}", float(row["goodput"]))
            for row in rows
            if row["goodput"]
        ],
        fmt=lambda v: f"{v:.0f} tok/s",
    )
    return _table_section(
        "Serving",
        "continuous-batching decode over the 2-D and 1-D stacks "
        "(<code>repro serve</code>): SLO-gated goodput per scheme × arrival "
        "profile, newest record per arm",
        "no serve records yet (run <code>repro serve --quick --ledger …</code> to "
        "play a seeded traffic trace through the decode engines)",
        ["scheme", "arrival", "ranks", "requests", "rate (req/s)", "p99 e2e",
         "goodput (tok/s)", "SLO attainment", "run_id"],
        [
            [
                html.escape(row["scheme"]), html.escape(row["arrival"]),
                _num(row["ranks"], ""), _num(row["requests"], "d"),
                _num(row["rate_rps"], ".0f"), _fmt_ms(row["p99_e2e_s"]),
                _num(row["goodput"], ".1f"), _num(row["slo_attainment"], ".2f"),
                f"<code>{row['run_id']}</code>",
            ]
            for row in rows
        ],
        after="<h3 class='muted'>Goodput (SLO-compliant tokens per simulated "
        "second)</h3>" + chart,
    )


def _sweep_section(series: dict) -> str:
    if not series["p99_e2e_s"] and not series["goodput"]:
        body = ("<p class='muted'>no sweep points yet (run <code>repro serve "
                "--sweep RATE1,RATE2,… --ledger …</code> to record one serve "
                "point per offered load)</p>")
        return f"<section><h2>Serving latency vs offered load</h2>{body}</section>"
    return (
        "<section><h2>Serving latency vs offered load</h2>"
        "<p class='muted'>one curve per scheme × arrival profile over the "
        "swept request rates (<code>repro serve --sweep</code>); the p99 "
        "knee localizes each engine's saturation point</p>"
        "<h3 class='muted'>p99 end-to-end latency</h3>"
        + _line_chart(
            series["p99_e2e_s"],
            fmt=lambda v: f"{v * 1e3:.2f} ms",
            x_fmt=lambda v: f"{v:g} req/s",
        )
        + "<h3 class='muted'>Goodput (SLO-compliant tokens per simulated second)</h3>"
        + _line_chart(
            series["goodput"],
            fmt=lambda v: f"{v:.0f} tok/s",
            x_fmt=lambda v: f"{v:g} req/s",
        )
        + "</section>"
    )


def _alerts_section(rows: List[dict]) -> str:
    return _table_section(
        "Alerts",
        "deterministic SLO alerting evaluated inline on the simulated clock "
        "(<code>repro serve --alerts</code>): firing totals per arm, newest "
        "alert-bearing record per scheme × arrival",
        "no alert-bearing serve records yet (run <code>repro serve --alerts "
        "--ledger …</code> to evaluate the stock SLO rules inline)",
        ["scheme", "arrival", "verdict", "fired", "resolved", "rules fired", "run_id"],
        [
            [
                html.escape(row["scheme"]), html.escape(row["arrival"]),
                _status_cell("fired" if row["fired"] else "quiet"),
                row["fired"], row["resolved"],
                f"<code>{html.escape(', '.join(row['rules_fired']) or '—')}</code>",
                f"<code>{row['run_id']}</code>",
            ]
            for row in rows
        ],
    )


def _serve_chaos_section(rows: List[dict]) -> str:
    return _table_section(
        "Serving under chaos",
        "fault-injected decode (<code>repro chaos --serve</code>): rank crashes, "
        "flaky links and stragglers recovered by step re-execution; "
        "token-identical means the chaos arm produced byte-for-byte the same "
        "tokens as a fault-free run of the same seed",
        "no serve-chaos records yet (run <code>repro chaos --serve --quick "
        "--ledger …</code> to replay seeded traffic through a fault-injected "
        "decode loop)",
        ["scheme", "arrival", "requests", "token-identical", "crashes", "retries",
         "recovered steps", "recovery time", "goodput (tok/s)", "verdict", "run_id"],
        [
            [
                html.escape(row["scheme"]), html.escape(row["arrival"] or "—"),
                _num(row["requests"], "d"),
                _status_cell("pass" if row["token_identical"] else "fail"),
                _num(row["crashes"], "d"), _num(row["retries"], "d"),
                _num(row["recovered_steps"], "d"), _fmt_ms(row["recovery_s"]),
                _num(row["goodput"], ".1f"),
                _status_cell("pass" if row["ok"] else "fail"),
                f"<code>{row['run_id']}</code>",
            ]
            for row in rows
        ],
    )


def _runs_section(records: Sequence[RunRecord]) -> str:
    return _table_section(
        "Run ledger", "", None,
        ["run_id", "kind", "scheme", "label", "ranks", "sim clock", "peak mem",
         "comm", "git"],
        [
            [
                f"<code>{r.run_id}</code>", html.escape(r.kind), html.escape(r.scheme or "—"),
                html.escape(r.label or "—"), (r.mesh or {}).get("ranks", "—"),
                _fmt_secs(r.clock),
                _fmt_bytes((r.counters or {}).get("peak_memory_bytes")),
                _fmt_bytes((r.counters or {}).get("total_bytes_comm")),
                f"<code>{html.escape(r.git)}</code>",
            ]
            for r in records
        ],
    )


def render_html(records: Sequence[RunRecord], card: dict) -> str:
    from repro.obs.ledger import git_revision

    kinds = Counter(r.kind for r in records)
    counts = " · ".join(f"{n} {k}" for k, n in sorted(kinds.items())) or "empty"
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        "<meta name='viewport' content='width=device-width, initial-scale=1'>"
        "<title>repro dashboard</title>"
        f"<style>{_CSS}</style></head><body class='viz-root'>"
        "<h1>Optimus reproduction — run dashboard</h1>"
        f"<p class='muted'>{len(records)} ledger records ({counts}) · "
        f"git <code>{html.escape(git_revision())}</code></p>"
        + _claims_section(card)
        + _attribution_section(attribution_rows(records))
        + _serving_section(serving_rows(records))
        + _sweep_section(sweep_series(records))
        + _alerts_section(alerts_rows(records))
        + _serve_chaos_section(serve_chaos_rows(records))
        + _trends_section(trend_series(records), sparkline_series(records))
        + _runs_section(records)
        + "</body></html>"
    )


def render_openmetrics_for_records(records: Sequence[RunRecord]) -> str:
    """OpenMetrics text of the newest record per kind (run_id/kind labels)."""
    from repro.obs.openmetrics import render_export

    # merge all kinds into one exposition; kind/run_id labels keep series distinct
    merged: List[dict] = []
    for _kind, r in _newest_by(records, None, lambda r: r.kind if r.metrics else None):
        for e in r.metrics:
            e = dict(e)
            e["labels"] = dict(e.get("labels") or {})
            e["labels"].update({"kind": r.kind, "run_id": r.run_id})
            merged.append(e)
    return render_export(merged)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(
    ledger: Optional[str] = None,
    out: Optional[str] = None,
    openmetrics_out: Optional[str] = None,
    no_collect: bool = False,
    printer=print,
) -> int:
    led = RunLedger(ledger) if ledger else RunLedger.default()
    if not no_collect:
        collect(led, printer=printer)
    records = led.read()
    if not records:
        printer("ledger is empty and --no-collect was given; nothing to render")
        return 1

    from repro.obs.claims import scorecard
    from repro.obs.openmetrics import validate_openmetrics

    card = scorecard(records)
    ledger_dir = os.path.dirname(led.path) or "."
    out = out or os.path.join(ledger_dir, DEFAULT_HTML)
    openmetrics_out = openmetrics_out or os.path.join(ledger_dir, DEFAULT_OPENMETRICS)

    html_text = render_html(records, card)
    write_text(out, html_text)
    printer(f"dashboard written to {out}")

    om_text = render_openmetrics_for_records(records)
    problems = validate_openmetrics(om_text)
    if problems:
        printer("OpenMetrics validation FAILED: " + "; ".join(problems))
        return 1
    write_text(openmetrics_out, om_text)
    printer(f"OpenMetrics written to {openmetrics_out}")
    printer(f"claims: {card['num_pass']} pass, {card['num_fail']} fail, "
            f"{card['num_no_evidence']} without evidence")
    return 0 if card["ok"] else 1
