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
from typing import List, Optional, Sequence, Tuple

from repro.obs.ledger import RunLedger, RunRecord

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
    kinds: dict = {}
    for r in records:
        kinds[r.kind] = kinds.get(r.kind, 0) + 1
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


def _record_label(r: RunRecord) -> str:
    bits = [r.kind]
    if r.scheme:
        bits.append(r.scheme)
    if r.label and r.label not in ("", r.kind):
        bits.append(r.label)
    return "/".join(bits)


def trend_series(records: Sequence[RunRecord]) -> dict:
    """(label, value) series for the clock / memory / comm trend charts."""
    clock, memory, comm = [], [], []
    for r in records:
        label = _record_label(r)
        if r.clock is not None:
            clock.append((label, float(r.clock)))
        c = r.counters or {}
        if c.get("peak_memory_bytes"):
            memory.append((label, float(c["peak_memory_bytes"])))
        if c.get("total_bytes_comm"):
            comm.append((label, float(c["total_bytes_comm"])))
    return {"clock": clock, "memory": memory, "comm": comm}


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
        if r.clock is not None:
            per_metric["clock"][rev] = float(r.clock)
        c = r.counters or {}
        if c.get("peak_memory_bytes"):
            per_metric["memory"][rev] = float(c["peak_memory_bytes"])
        if c.get("total_bytes_comm"):
            per_metric["comm"][rev] = float(c["total_bytes_comm"])
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


def serving_rows(records: Sequence[RunRecord]) -> List[dict]:
    """Newest serve record per (scheme, arrival) arm, in label order."""
    newest: dict = {}
    for r in records:
        if r.kind != "serve":
            continue
        e = r.extra or {}
        newest[(r.scheme or "?", e.get("arrival") or "?")] = r
    rows = []
    for (scheme, arrival), r in sorted(newest.items()):
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
    newest: dict = {}
    for r in records:
        if r.kind != "serve":
            continue
        e = r.extra or {}
        rate = e.get("rate_rps")
        if rate is None:
            continue
        newest[(r.scheme or "?", e.get("arrival") or "?", float(rate))] = r
    out: dict = {"p99_e2e_s": {}, "goodput": {}}
    for (scheme, arrival, rate) in sorted(newest):
        r = newest[(scheme, arrival, rate)]
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
    newest: dict = {}
    for r in records:
        if r.kind != "serve":
            continue
        e = r.extra or {}
        if "alerts" not in e:
            continue
        newest[(r.scheme or "?", e.get("arrival") or "?")] = r
    rows = []
    for (scheme, arrival), r in sorted(newest.items()):
        e = r.extra or {}
        a = e["alerts"]
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
    newest: dict = {}
    for r in records:
        if r.kind != "serve-chaos":
            continue
        newest[r.scheme or "?"] = r
    rows = []
    for scheme, r in sorted(newest.items()):
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


_ATT_CATEGORIES = ("compute", "comm", "stall", "overhead")


def _att_bar(split: dict) -> str:
    """A stacked category bar (percentages live in the adjacent cells)."""
    total = split.get("total_ns") or 1
    w, h = 220, 12
    x, parts = 0.0, []
    for cat in _ATT_CATEGORIES:
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


def _claims_section(card: dict) -> str:
    def num(v, spec=".4g"):
        return "—" if v is None else format(v, spec)

    rows = []
    for c in card["claims"]:
        band = "" if not c["band"] else f"[{c['band'][0]:g}, {c['band'][1]:g}]"
        rows.append(
            f"<tr><td>{html.escape(c['title'])}</td>"
            f"<td>{_status_cell(c['status'])}</td>"
            f"<td>{num(c['measured'])}</td><td>{num(c['predicted'])}</td>"
            f"<td>{num(c['ratio'], '.3f')}</td>"
            f"<td>{band}</td><td class='muted'>{html.escape(c['detail'])}</td></tr>"
        )
    head = (f"{card['num_pass']} pass · {card['num_fail']} fail · "
            f"{card['num_no_evidence']} without evidence")
    return (
        f"<section><h2>Paper-claims scorecard</h2><p class='muted'>{head}</p>"
        "<table><tr><th>claim</th><th>verdict</th><th>measured</th>"
        "<th>predicted</th><th>measured/predicted</th><th>band</th>"
        "<th>detail</th></tr>" + "".join(rows) + "</table></section>"
    )


def _attribution_section(rows: List[dict]) -> str:
    if not rows:
        body = ("<p class='muted'>no traced records yet (run "
                "<code>repro critpath …</code> or any stem with tracing to "
                "attach attribution summaries to the ledger)</p>")
        return f"<section><h2>Attribution (critical path)</h2>{body}</section>"
    trs = []
    for row in rows:
        split = row["split"]
        total = split.get("total_ns") or 1
        pct = {
            cat: 100.0 * split.get(f"{cat}_ns", 0) / total
            for cat in _ATT_CATEGORIES
        }
        ratio = row["top_ratio"]
        top = html.escape(row["top_key"])
        if ratio is not None:
            top += f" ({ratio:.2f}× predicted)"
        trs.append(
            f"<tr><td>{html.escape(row['record'])}</td>"
            f"<td>{row['wall_clock_ns'] / 1e9:.6f} s</td>"
            f"<td>{pct['compute']:.1f}%</td><td>{pct['comm']:.1f}%</td>"
            f"<td>{pct['stall']:.1f}%</td><td>{pct['overhead']:.1f}%</td>"
            f"<td>{_att_bar(split)}</td>"
            f"<td>{_status_cell('pass' if row['conservation_ok'] else 'fail')}</td>"
            f"<td><code>{top}</code></td></tr>"
        )
    return (
        "<section><h2>Attribution (critical path)</h2>"
        "<p class='muted'>per-rank nanosecond attribution from "
        "<code>repro.obs.critpath</code>; conservation means attributed time "
        "equals wall-clock on every rank, exactly</p>"
        "<table><tr><th>record</th><th>wall clock</th><th>compute</th>"
        "<th>comm</th><th>stall</th><th>overhead</th><th>split</th>"
        "<th>conservation</th><th>top bottleneck</th></tr>"
        + "".join(trs) + "</table></section>"
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
    if not rows:
        body = ("<p class='muted'>no serve records yet (run "
                "<code>repro serve --quick --ledger …</code> to play a seeded "
                "traffic trace through the decode engines)</p>")
        return f"<section><h2>Serving</h2>{body}</section>"

    def num(v, spec=".4g"):
        return "—" if v is None else format(v, spec)

    trs = []
    for row in rows:
        p99 = row["p99_e2e_s"]
        trs.append(
            f"<tr><td>{html.escape(row['scheme'])}</td>"
            f"<td>{html.escape(row['arrival'])}</td>"
            f"<td>{row['ranks'] if row['ranks'] is not None else '—'}</td>"
            f"<td>{num(row['requests'], 'd') if row['requests'] is not None else '—'}</td>"
            f"<td>{num(row['rate_rps'], '.0f')}</td>"
            f"<td>{'—' if p99 is None else f'{p99 * 1e3:.3f} ms'}</td>"
            f"<td>{num(row['goodput'], '.1f')}</td>"
            f"<td>{num(row['slo_attainment'], '.2f')}</td>"
            f"<td><code>{row['run_id']}</code></td></tr>"
        )
    chart = _bar_chart(
        [
            (f"{row['scheme']}/{row['arrival']}", float(row["goodput"]))
            for row in rows
            if row["goodput"]
        ],
        fmt=lambda v: f"{v:.0f} tok/s",
    )
    return (
        "<section><h2>Serving</h2>"
        "<p class='muted'>continuous-batching decode over the 2-D and 1-D "
        "stacks (<code>repro serve</code>): SLO-gated goodput per "
        "scheme × arrival profile, newest record per arm</p>"
        "<table><tr><th>scheme</th><th>arrival</th><th>ranks</th>"
        "<th>requests</th><th>rate (req/s)</th><th>p99 e2e</th>"
        "<th>goodput (tok/s)</th><th>SLO attainment</th><th>run_id</th></tr>"
        + "".join(trs) + "</table>"
        "<h3 class='muted'>Goodput (SLO-compliant tokens per simulated second)</h3>"
        + chart + "</section>"
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
    if not rows:
        body = ("<p class='muted'>no alert-bearing serve records yet (run "
                "<code>repro serve --alerts --ledger …</code> to evaluate the "
                "stock SLO rules inline)</p>")
        return f"<section><h2>Alerts</h2>{body}</section>"
    trs = []
    for row in rows:
        fired = row["fired"]
        rules = ", ".join(row["rules_fired"]) or "—"
        trs.append(
            f"<tr><td>{html.escape(row['scheme'])}</td>"
            f"<td>{html.escape(row['arrival'])}</td>"
            f"<td>{_status_cell('fired' if fired else 'quiet')}</td>"
            f"<td>{fired}</td><td>{row['resolved']}</td>"
            f"<td><code>{html.escape(rules)}</code></td>"
            f"<td><code>{row['run_id']}</code></td></tr>"
        )
    return (
        "<section><h2>Alerts</h2>"
        "<p class='muted'>deterministic SLO alerting evaluated inline on the "
        "simulated clock (<code>repro serve --alerts</code>): firing totals "
        "per arm, newest alert-bearing record per scheme × arrival</p>"
        "<table><tr><th>scheme</th><th>arrival</th><th>verdict</th>"
        "<th>fired</th><th>resolved</th><th>rules fired</th><th>run_id</th>"
        "</tr>" + "".join(trs) + "</table></section>"
    )


def _serve_chaos_section(rows: List[dict]) -> str:
    if not rows:
        body = ("<p class='muted'>no serve-chaos records yet (run "
                "<code>repro chaos --serve --quick --ledger …</code> to replay "
                "seeded traffic through a fault-injected decode loop)</p>")
        return f"<section><h2>Serving under chaos</h2>{body}</section>"

    def num(v, spec=".4g"):
        return "—" if v is None else format(v, spec)

    def count(v):
        return "—" if v is None else format(v, "d")

    trs = []
    for row in rows:
        rec_s = row["recovery_s"]
        ident = row["token_identical"]
        trs.append(
            f"<tr><td>{html.escape(row['scheme'])}</td>"
            f"<td>{html.escape(row['arrival'] or '—')}</td>"
            f"<td>{count(row['requests'])}</td>"
            f"<td>{_status_cell('pass' if ident else 'fail')}</td>"
            f"<td>{count(row['crashes'])}</td>"
            f"<td>{count(row['retries'])}</td>"
            f"<td>{count(row['recovered_steps'])}</td>"
            f"<td>{'—' if rec_s is None else f'{rec_s * 1e3:.3f} ms'}</td>"
            f"<td>{num(row['goodput'], '.1f')}</td>"
            f"<td>{_status_cell('pass' if row['ok'] else 'fail')}</td>"
            f"<td><code>{row['run_id']}</code></td></tr>"
        )
    return (
        "<section><h2>Serving under chaos</h2>"
        "<p class='muted'>fault-injected decode (<code>repro chaos --serve"
        "</code>): rank crashes, flaky links and stragglers recovered by "
        "step re-execution; token-identical means the chaos arm produced "
        "byte-for-byte the same tokens as a fault-free run of the same "
        "seed</p>"
        "<table><tr><th>scheme</th><th>arrival</th><th>requests</th>"
        "<th>token-identical</th><th>crashes</th><th>retries</th>"
        "<th>recovered steps</th><th>recovery time</th>"
        "<th>goodput (tok/s)</th><th>verdict</th><th>run_id</th></tr>"
        + "".join(trs) + "</table></section>"
    )


def _runs_section(records: Sequence[RunRecord]) -> str:
    trs = []
    for r in records:
        c = r.counters or {}
        trs.append(
            f"<tr><td><code>{r.run_id}</code></td><td>{html.escape(r.kind)}</td>"
            f"<td>{html.escape(r.scheme or '—')}</td>"
            f"<td>{html.escape(r.label or '—')}</td>"
            f"<td>{(r.mesh or {}).get('ranks', '—')}</td>"
            f"<td>{_fmt_secs(r.clock)}</td>"
            f"<td>{_fmt_bytes(c.get('peak_memory_bytes'))}</td>"
            f"<td>{_fmt_bytes(c.get('total_bytes_comm'))}</td>"
            f"<td><code>{html.escape(r.git)}</code></td></tr>"
        )
    return (
        "<section><h2>Run ledger</h2>"
        "<table><tr><th>run_id</th><th>kind</th><th>scheme</th><th>label</th>"
        "<th>ranks</th><th>sim clock</th><th>peak mem</th><th>comm</th>"
        "<th>git</th></tr>" + "".join(trs) + "</table></section>"
    )


def render_html(records: Sequence[RunRecord], card: dict) -> str:
    from repro.obs.ledger import git_revision

    kinds: dict = {}
    for r in records:
        kinds[r.kind] = kinds.get(r.kind, 0) + 1
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

    newest: dict = {}
    for r in records:
        if r.metrics:
            newest[r.kind] = r
    # merge all kinds into one exposition; kind/run_id labels keep series distinct
    merged: List[dict] = []
    for kind in sorted(newest):
        r = newest[kind]
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
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "w") as f:
        f.write(html_text)
    printer(f"dashboard written to {out}")

    om_text = render_openmetrics_for_records(records)
    problems = validate_openmetrics(om_text)
    if problems:
        printer("OpenMetrics validation FAILED: " + "; ".join(problems))
        return 1
    os.makedirs(os.path.dirname(openmetrics_out) or ".", exist_ok=True)
    with open(openmetrics_out, "w") as f:
        f.write(om_text)
    printer(f"OpenMetrics written to {openmetrics_out}")
    printer(f"claims: {card['num_pass']} pass, {card['num_fail']} fail, "
            f"{card['num_no_evidence']} without evidence")
    return 0 if card["ok"] else 1
