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
* **serving**, **alerts** and **serving under chaos** — the newest serve /
  alert-bearing serve / serve-chaos record per arm, and the serving
  latency and goodput curves over swept offered loads;
* **trends** — simulated clock, peak memory and communication volume per
  ledger record in append order, plus per-metric sparklines keyed on git
  revision (newest value per revision);
* **run table** — every ledger record with its content-hash ``run_id``.

Each table is one :class:`Section` row of :data:`SECTIONS`.  Unless
``--no-collect`` is passed, missing evidence is collected first (a tiny
training run, two pipeline runs, a quick chaos campaign, a quick serving
run, a quick serving chaos campaign, the claim stems), so a bare
``python -m repro dash`` on a fresh checkout produces a complete
dashboard.
"""

from __future__ import annotations

import html
import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

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
    from repro.core.model import OptimusModel
    from repro.mesh.mesh import Mesh
    from repro.nn.init import init_transformer_params
    from repro.runtime.simulator import Simulator
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


def trend_series(records: Sequence[RunRecord]) -> Tuple[dict, dict]:
    """The clock / memory / comm trends, in one pass over the records.

    Returns ``(bars, sparks)``: per metric, the ``(label, value)`` bars in
    append order, and the sparkline's ``(git_rev, value)`` points, the newest
    value per revision, revisions in first-appearance order (so the sparkline
    reads left to right as the ledger's revision history).
    """
    bars: dict = {"clock": [], "memory": [], "comm": []}
    per_rev: dict = {name: {} for name in bars}
    revs: dict = {}  # first-appearance order
    for r in records:
        rev = r.git or "unknown"
        revs.setdefault(rev)
        c = r.counters or {}
        for name, value in (
            ("clock", r.clock),
            ("memory", c.get("peak_memory_bytes") or None),
            ("comm", c.get("total_bytes_comm") or None),
        ):
            if value is not None:
                bars[name].append((_record_label(r), float(value)))
                per_rev[name][rev] = float(value)
    sparks = {
        name: [(rev, vals[rev]) for rev in revs if rev in vals] for name, vals in per_rev.items()
    }
    return bars, sparks


def _arm(r: RunRecord) -> Tuple[str, str]:
    return r.scheme or "?", (r.extra or {}).get("arrival") or "?"


def _newest_by(records: Sequence[RunRecord], kind: Optional[str], key_fn) -> List[RunRecord]:
    """The newest record of ``kind`` (``None``: any) per ``key_fn(record)``, in
    key order; a ``None`` key leaves the record out."""
    newest: dict = {}
    for r in records:
        if kind in (None, r.kind):
            key = key_fn(r)
            if key is not None:
                newest[key] = r
    return [newest[key] for key in sorted(newest)]


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
    for r in _newest_by(records, "serve", arm_at_rate):
        scheme, arrival, rate = arm_at_rate(r)
        e = r.extra
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


@dataclass(frozen=True)
class Section:
    """One dashboard table.

    ``rows(records, card)`` selects its rows (ledger records; the scorecard's
    claims for the scorecard table); each ``(header, cell)`` column renders
    one ``<td>`` of a row from the row alone, a ``(html, css_class)`` pair
    styling it.  ``intro`` is formatted with the scorecard's fields.  With
    no rows and an ``empty`` hint, the hint stands in for intro and table;
    ``after(rows)`` follows the table.
    """

    title: str
    intro: str
    empty: Optional[str]
    rows: Callable[[Sequence[RunRecord], dict], Sequence]
    columns: Tuple[Tuple[str, Callable], ...]
    after: Callable[[Sequence], str] = lambda rows: ""

    def __call__(self, records: Sequence[RunRecord], card: dict) -> str:
        rows = self.rows(records, card)
        if not rows and self.empty:
            return f"<section><h2>{self.title}</h2><p class='muted'>{self.empty}</p></section>"

        def td(cell) -> str:
            if isinstance(cell, tuple):
                return f"<td class='{cell[1]}'>{cell[0]}</td>"
            return f"<td>{cell}</td>"

        intro = self.intro.format(**card)
        return (
            f"<section><h2>{self.title}</h2>"
            + (f"<p class='muted'>{intro}</p>" if intro else "")
            + "<table><tr>" + "".join(f"<th>{h}</th>" for h, _ in self.columns) + "</tr>"
            + "".join(
                "<tr>" + "".join(td(cell(row)) for _, cell in self.columns) + "</tr>"
                for row in rows
            )
            + f"</table>{self.after(rows)}</section>"
        )


def _newest(kind: str, key_fn):
    """A row selector: the newest ``kind`` record per ``key_fn(record)``."""
    return lambda records, card: _newest_by(records, kind, key_fn)


def _extra(key: str, spec: str):
    """A cell: the record's ``extra[key]``, formatted with ``spec``."""
    return lambda r: _num((r.extra or {}).get(key), spec)


def _verdict(key: str):
    """A cell: PASS when the record's ``extra[key]`` holds, else FAIL."""
    return lambda r: _status_cell("pass" if (r.extra or {}).get(key) else "fail")


def _top_bottleneck(a: dict) -> str:
    top = (a.get("top_bottlenecks") or [{}])[0]
    text = html.escape(top.get("key", "—"))
    if top.get("ratio") is not None:
        text += f" ({top['ratio']:.2f}× predicted)"
    return f"<code>{text}</code>"


def _share(cat: str):
    """A cell: category ``cat``'s share of an attributed record's time."""
    def cell(r: RunRecord) -> str:
        split = r.attribution["per_rank_sum"]
        return f"{100.0 * split.get(f'{cat}_ns', 0) / (split.get('total_ns') or 1):.1f}%"

    return cell


_SCHEME = ("scheme", lambda r: html.escape(_arm(r)[0]))
_ARRIVAL = ("arrival", lambda r: html.escape(_arm(r)[1]))
_RUN_ID = ("run_id", lambda r: f"<code>{r.run_id}</code>")
_GOODPUT = ("goodput (tok/s)", _extra("goodput_tokens_per_s", ".1f"))


def _goodput_chart(rows: Sequence[RunRecord]) -> str:
    bars = [("/".join(_arm(r)), float(r.extra["goodput_tokens_per_s"]))
            for r in rows if (r.extra or {}).get("goodput_tokens_per_s")]
    return ("<h3 class='muted'>Goodput (SLO-compliant tokens per simulated second)</h3>"
            + _bar_chart(bars, fmt=lambda v: f"{v:.0f} tok/s"))


def sweep_section(records: Sequence[RunRecord], card: Optional[dict] = None) -> str:
    """The latency-vs-offered-load curves of :func:`sweep_series`."""
    series = sweep_series(records)
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


def trends_section(records: Sequence[RunRecord], card: Optional[dict] = None) -> str:
    """Sparklines per git revision and bar charts per record of :func:`trend_series`."""
    series, sparks = trend_series(records)
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


#: the page, top to bottom: the tables are ``Section`` rows; the two
#: chart-bearing sections are functions of the same ``(records, card)``
SECTIONS = (
    Section(
        "Paper-claims scorecard",
        "{num_pass} pass · {num_fail} fail · {num_no_evidence} without evidence",
        None,
        lambda records, card: card["claims"],
        (
            ("claim", lambda c: html.escape(c["title"])),
            ("verdict", lambda c: _status_cell(c["status"])),
            ("measured", lambda c: _num(c["measured"])),
            ("predicted", lambda c: _num(c["predicted"])),
            ("measured/predicted", lambda c: _num(c["ratio"], ".3f")),
            ("band", lambda c: f"[{c['band'][0]:g}, {c['band'][1]:g}]" if c["band"] else ""),
            ("detail", lambda c: (html.escape(c["detail"]), "muted")),
        ),
    ),
    Section(
        "Attribution (critical path)",
        "per-rank nanosecond attribution from <code>repro.obs.critpath</code>; "
        "conservation means attributed time equals wall-clock on every rank, exactly",
        "no traced records yet (run <code>repro critpath …</code> or any stem with "
        "tracing to attach attribution summaries to the ledger)",
        lambda records, card: [
            r for r in records if r.attribution and r.attribution.get("per_rank_sum")
        ],
        (
            ("record", lambda r: html.escape(_record_label(r))),
            ("wall clock", lambda r: f"{r.attribution.get('wall_clock_ns', 0) / 1e9:.6f} s"),
            *((cat, _share(cat)) for cat in CATEGORIES),
            ("split", lambda r: _att_bar(r.attribution["per_rank_sum"])),
            (
                "conservation",
                lambda r: _status_cell("pass" if r.attribution.get("conservation_ok") else "fail"),
            ),
            ("top bottleneck", lambda r: _top_bottleneck(r.attribution)),
        ),
    ),
    Section(
        "Serving",
        "continuous-batching decode over the 2-D and 1-D stacks "
        "(<code>repro serve</code>): SLO-gated goodput per scheme × arrival "
        "profile, newest record per arm",
        "no serve records yet (run <code>repro serve --quick --ledger …</code> to "
        "play a seeded traffic trace through the decode engines)",
        _newest("serve", _arm),
        (
            _SCHEME,
            _ARRIVAL,
            ("ranks", lambda r: _num((r.mesh or {}).get("ranks"), "")),
            ("requests", _extra("num_requests", "d")),
            ("rate (req/s)", _extra("rate_rps", ".0f")),
            ("p99 e2e", lambda r: _fmt_ms((r.extra or {}).get("p99_e2e_s"))),
            _GOODPUT,
            ("SLO attainment", _extra("slo_attainment", ".2f")),
            _RUN_ID,
        ),
        after=_goodput_chart,
    ),
    sweep_section,
    Section(
        "Alerts",
        "deterministic SLO alerting evaluated inline on the simulated clock "
        "(<code>repro serve --alerts</code>): firing totals per arm, newest "
        "alert-bearing record per scheme × arrival",
        "no alert-bearing serve records yet (run <code>repro serve --alerts "
        "--ledger …</code> to evaluate the stock SLO rules inline)",
        _newest("serve", lambda r: _arm(r) if "alerts" in (r.extra or {}) else None),
        (
            _SCHEME,
            _ARRIVAL,
            (
                "verdict",
                lambda r: _status_cell("fired" if r.extra["alerts"].get("fired") else "quiet"),
            ),
            ("fired", lambda r: r.extra["alerts"].get("fired", 0)),
            ("resolved", lambda r: r.extra["alerts"].get("resolved", 0)),
            (
                "rules fired",
                lambda r: "<code>{}</code>".format(
                    html.escape(", ".join(r.extra["alerts"].get("rules_fired") or []) or "—")
                ),
            ),
            _RUN_ID,
        ),
    ),
    Section(
        "Serving under chaos",
        "fault-injected decode (<code>repro chaos --serve</code>): rank crashes, "
        "flaky links and stragglers recovered by step re-execution; "
        "token-identical means the chaos arm produced byte-for-byte the same "
        "tokens as a fault-free run of the same seed",
        "no serve-chaos records yet (run <code>repro chaos --serve --quick "
        "--ledger …</code> to replay seeded traffic through a fault-injected "
        "decode loop)",
        _newest("serve-chaos", lambda r: r.scheme or "?"),
        (
            _SCHEME,
            ("arrival", lambda r: html.escape((r.extra or {}).get("arrival") or "—")),
            ("requests", _extra("num_requests", "d")),
            ("token-identical", _verdict("token_identical")),
            ("crashes", _extra("crashes", "d")),
            ("retries", _extra("retries", "d")),
            ("recovered steps", _extra("recovered_steps", "d")),
            ("recovery time", lambda r: _fmt_ms((r.extra or {}).get("recovery_s"))),
            _GOODPUT,
            ("verdict", _verdict("ok")),
            _RUN_ID,
        ),
    ),
    trends_section,
    Section(
        "Run ledger",
        "",
        None,
        lambda records, card: records,
        (
            _RUN_ID,
            ("kind", lambda r: html.escape(r.kind)),
            ("scheme", lambda r: html.escape(r.scheme or "—")),
            ("label", lambda r: html.escape(r.label or "—")),
            ("ranks", lambda r: (r.mesh or {}).get("ranks", "—")),
            ("sim clock", lambda r: _fmt_secs(r.clock)),
            ("peak mem", lambda r: _fmt_bytes((r.counters or {}).get("peak_memory_bytes"))),
            ("comm", lambda r: _fmt_bytes((r.counters or {}).get("total_bytes_comm"))),
            ("git", lambda r: f"<code>{html.escape(r.git)}</code>"),
        ),
    ),
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
        + "".join(section(records, card) for section in SECTIONS)
        + "</body></html>"
    )


def render_openmetrics_for_records(records: Sequence[RunRecord]) -> str:
    """OpenMetrics text of the newest record per kind (run_id/kind labels)."""
    from repro.obs.openmetrics import render_export

    # merge all kinds into one exposition; kind/run_id labels keep series distinct
    merged: List[dict] = []
    for r in _newest_by(records, None, lambda r: r.kind if r.metrics else None):
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
