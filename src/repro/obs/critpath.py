"""Critical-path analysis: attribute every nanosecond of simulated time.

The simulator's counters say *how much* time went to compute vs
communication; this module says *where* and *why*.  From a traced run it
builds, per rank, a contiguous partition of the step window into
:class:`Segment` s — compute kernels, collective participation, the
receiving tail of point-to-point transfers, resilience overhead, and the
gaps in between (barrier/straggler waits) — then walks the cross-rank
dependency DAG backwards to extract the critical path that determines the
step's wall-clock.

Three design decisions worth knowing:

* **integer nanoseconds** — all attribution is quantized to whole
  nanoseconds (``round(t · 1e9)``).  Each rank's window is a contiguous
  integer partition, so the conservation invariant
  ``compute + comm + stall + overhead == wall_clock`` holds *exactly*, in
  integer arithmetic, per rank and per window — not merely to float
  tolerance.  Quantization only affects this report's bookkeeping; the
  simulator's float clocks are never touched.
* **the DAG is implicit** — bulk-synchronous semantics mean a collective's
  start time is the barrier time of its participants, and a p2p receive
  depends on its sender at the recorded send time.  The backward walk
  therefore needs no materialized edge list: at a collective it jumps to
  the participant whose preceding busy segment ends latest (the rank that
  held everyone up, ties broken toward the lowest rank for determinism);
  at a p2p it jumps to the sender; otherwise it steps to the previous
  non-stall segment on the same rank.
* **predicted vs measured** — every op on the path is re-priced with a
  *solo* :class:`~repro.comm.cost.GroupCommModel` (built without sibling
  groups, so NIC crowding is excluded) and compute with the device's
  effective FLOP rate.  A measured/predicted ratio above 1 localizes
  contention (Fig. 8 crowding) or straggler effects to a specific op;
  a ratio far from 1 on an intra-node collective flags a cost-model bug.

Everything here is read-only over the simulator — running the analyzer
cannot change numerics, clocks or byte counters (tested in
``tests/test_critpath.py``).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.runtime.events import COLLECTIVE_KINDS, busy_intervals, to_ns
from repro.utils import write_text

CRITPATH_SCHEMA = "repro-critpath-v1"

#: attribution categories; every nanosecond lands in exactly one
CATEGORIES = ("compute", "comm", "stall", "overhead")


@dataclass(frozen=True)
class Segment:
    """One contiguous slice of one rank's timeline, in integer ns."""

    rank: int
    start_ns: int
    end_ns: int
    category: str  # compute | comm | stall | overhead
    kind: str = ""  # event kind ("compute", "broadcast", …); "" for stalls
    label: str = ""  # kernel kind or process-group kind
    event_index: int = -1  # index into tracer.events, -1 for stalls

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class Attribution:
    """Integer-ns totals per category; sums telescope exactly."""

    compute_ns: int = 0
    comm_ns: int = 0
    stall_ns: int = 0
    overhead_ns: int = 0

    def add(self, category: str, ns: int) -> None:
        setattr(self, category + "_ns", getattr(self, category + "_ns") + ns)

    def merge(self, other: "Attribution") -> None:
        for c in CATEGORIES:
            self.add(c, getattr(other, c + "_ns"))

    @classmethod
    def of(cls, segs: Iterable["Segment"]) -> "Attribution":
        att = cls()
        for s in segs:
            att.add(s.category, s.duration_ns)
        return att

    @property
    def total_ns(self) -> int:
        return self.compute_ns + self.comm_ns + self.stall_ns + self.overhead_ns

    def as_dict(self) -> dict:
        doc = {c + "_ns": getattr(self, c + "_ns") for c in CATEGORIES}
        doc["total_ns"] = self.total_ns
        return doc


@dataclass
class Window:
    """One analysis window (a training step, or the whole run)."""

    label: str
    start_ns: int
    end_ns: int
    timelines: Dict[int, List[Segment]] = field(default_factory=dict)

    @property
    def wall_ns(self) -> int:
        return self.end_ns - self.start_ns


# ----------------------------------------------------------------------
# span containment (layer / op labels for segments)
# ----------------------------------------------------------------------
class _SpanIndex:
    """Per-rank sorted span lists for midpoint-containment lookups."""

    def __init__(self, spans, category: str):
        #: rank -> (starts, ends, outer, spans): the rank's spans sorted by
        #: (start, -end) with their integer-ns bounds, and for each span the
        #: nearest earlier one that ends later — the only earlier candidate
        #: left once the span itself ends before the query point
        self._by_rank: Dict[int, Tuple[List[int], List[int], List[int], List]] = {}
        per_rank: Dict[int, List] = {}
        for s in spans:
            if s.category == category:
                per_rank.setdefault(s.rank, []).append((to_ns(s.t_start), to_ns(s.t_end), s))
        for rank, lst in per_rank.items():
            lst.sort(key=lambda t: (t[0], -t[1]))
            starts, ends, ordered = (list(column) for column in zip(*lst))
            outer: List[int] = []
            later_ending: List[int] = []  # earlier spans, ends strictly decreasing
            for i, end in enumerate(ends):
                while later_ending and ends[later_ending[-1]] <= end:
                    later_ending.pop()
                outer.append(later_ending[-1] if later_ending else -1)
                later_ending.append(i)
            self._by_rank[rank] = (starts, ends, outer, ordered)

    def enclosing(self, rank: int, start_ns: int, end_ns: int):
        """The innermost span on ``rank`` containing the segment midpoint.

        Midpoint containment suffices: busy segments never straddle a span
        boundary of their own rank (collectives and kernels execute inside
        the span that issued them).
        """
        entry = self._by_rank.get(rank)
        if entry is None:
            return None
        starts, ends, outer, spans = entry
        mid = (start_ns + end_ns) // 2
        i = bisect.bisect_right(starts, mid) - 1
        while i >= 0:
            if ends[i] >= mid:
                return spans[i]
            i = outer[i]
        return None


def _layer_name(span) -> str:
    attrs = span.attrs or {}
    idx, phase = attrs.get("index"), attrs.get("phase")
    if idx is None:
        return span.name
    return f"layer{idx}.{phase}" if phase else f"layer{idx}"


class _SpanLabels:
    """The enclosing op / layer of a busy segment, resolved on demand.

    Few consumers need them — the op names only the segments on the critical
    path, the layer only ``by_layer`` and the verbatim segment listing — so
    each category's index is built the first time it is asked for.
    """

    def __init__(self, spans):
        self._spans = spans
        self._indexes: Dict[str, _SpanIndex] = {}

    def _enclosing(self, category: str, seg: Segment):
        if seg.event_index < 0:
            return None  # stalls belong to no span
        index = self._indexes.get(category)
        if index is None:
            index = self._indexes[category] = _SpanIndex(self._spans, category)
        return index.enclosing(seg.rank, seg.start_ns, seg.end_ns)

    def op(self, seg: Segment) -> str:
        """Enclosing op span (``summa_ab``, …), ``""`` when unresolvable."""
        span = self._enclosing("op", seg)
        return span.name if span is not None else ""

    def layer(self, seg: Segment) -> str:
        """Enclosing layer span (``layer3.forward``), ``""`` when unresolvable."""
        span = self._enclosing("layer", seg)
        return _layer_name(span) if span is not None else ""


# ----------------------------------------------------------------------
# timeline construction
# ----------------------------------------------------------------------
def build_windows(sim) -> List[Window]:
    """Partition the traced run into per-rank contiguous segment timelines.

    Windows come from ``"step"`` spans when the workload recorded them
    (training runs); otherwise the whole run is one window (stems).  Within
    a window every rank's segments tile ``[start_ns, end_ns]`` exactly: the
    rank's :func:`~repro.runtime.events.busy_intervals` clipped to the
    window, stall segments filling every gap.
    """
    tracer = sim.tracer
    step_spans = [s for s in tracer.spans if s.category == "step"]
    windows: List[Window] = []
    if step_spans:
        by_sid: Dict[int, List] = {}
        for s in step_spans:
            by_sid.setdefault(s.sid, []).append(s)
        for sid in sorted(by_sid):
            group = by_sid[sid]
            step_no = (group[0].attrs or {}).get("step", len(windows))
            windows.append(Window(
                label=f"step{step_no}",
                start_ns=min(to_ns(s.t_start) for s in group),
                end_ns=max(to_ns(s.t_end) for s in group),
            ))
    else:
        windows.append(Window(label="run", start_ns=0, end_ns=to_ns(sim.elapsed())))

    events = tracer.events
    busy = busy_intervals(events)
    for w in windows:
        for r in range(sim.num_ranks):
            segs: List[Segment] = []
            cursor = w.start_ns
            for a, b, idx in busy.get(r, ()):
                a, b = max(a, w.start_ns), min(b, w.end_ns)
                if b <= a:
                    continue  # outside this window
                if a > cursor:
                    segs.append(Segment(r, cursor, a, "stall"))
                e = events[idx]
                segs.append(Segment(
                    rank=r, start_ns=a, end_ns=b, category=e.category,
                    kind=e.kind, label=e.label, event_index=idx,
                ))
                cursor = b
            if cursor < w.end_ns:
                segs.append(Segment(r, cursor, w.end_ns, "stall"))
            w.timelines[r] = segs
    return windows


# ----------------------------------------------------------------------
# the critical path
# ----------------------------------------------------------------------
def critical_path(w: Window, events) -> List[Segment]:
    """Backward walk from the window's end to its start.

    Returns the chain of segments (oldest first) whose durations bound the
    window's wall-clock: at each collective the walk jumps to the
    participant that arrived last at the barrier; at a p2p receive it jumps
    to the sender; otherwise it continues on the same rank.
    """
    # locate each event's segment per rank, and each segment's list index
    seg_at: Dict[Tuple[int, int], int] = {}  # (event_index, rank) -> seg idx
    for rank, segs in w.timelines.items():
        for i, s in enumerate(segs):
            if s.event_index >= 0:
                seg_at[(s.event_index, rank)] = i

    def prev_busy(rank: int, idx: int) -> Optional[int]:
        """Index of the nearest non-stall segment strictly before ``idx``."""
        segs = w.timelines[rank]
        i = idx - 1
        while i >= 0:
            if segs[i].category != "stall":
                return i
            i -= 1
        return None

    # start on the rank whose last busy segment ends latest (the rank that
    # sets the window's end); ties toward the lowest rank for determinism
    start_rank, start_idx, best_end = -1, None, -1
    for rank in sorted(w.timelines):
        segs = w.timelines[rank]
        i = prev_busy(rank, len(segs))
        if i is not None and segs[i].end_ns > best_end:
            start_rank, start_idx, best_end = rank, i, segs[i].end_ns
    if start_idx is None:
        return []

    path: List[Segment] = []
    rank, idx = start_rank, start_idx
    while idx is not None:
        seg = w.timelines[rank][idx]
        path.append(seg)
        if seg.start_ns <= w.start_ns:
            break
        nxt: Optional[Tuple[int, int]] = None
        e = events[seg.event_index] if seg.event_index >= 0 else None
        if e is not None and seg.kind in COLLECTIVE_KINDS:
            # the collective started when its last participant arrived
            blocker, blocker_idx, blocker_end = None, None, -1
            for p in sorted(e.ranks):
                at = seg_at.get((seg.event_index, p))
                if at is None:
                    continue
                pb = prev_busy(p, at)
                end = w.timelines[p][pb].end_ns if pb is not None else w.start_ns
                if end > blocker_end:
                    blocker, blocker_idx, blocker_end = p, pb, end
            if blocker is not None and blocker_idx is not None:
                nxt = (blocker, blocker_idx)
        elif e is not None and seg.kind == "p2p":
            src = e.ranks[0]
            send_ns = to_ns(e.t_start)
            segs = w.timelines.get(src, [])
            i = len(segs) - 1
            while i >= 0 and (segs[i].category == "stall" or segs[i].end_ns > send_ns):
                i -= 1
            if i >= 0:
                nxt = (src, i)
        if nxt is None:
            pb = prev_busy(rank, idx)
            nxt = (rank, pb) if pb is not None else None
        if nxt is None:
            break
        # every hop lands on a segment ending at or before the current
        # segment's start (BSP barriers and p2p send times guarantee it),
        # so the walk makes strict backward progress and terminates
        rank, idx = nxt
    path.reverse()
    return path


# ----------------------------------------------------------------------
# predicted pricing (the α–β audit)
# ----------------------------------------------------------------------
class CostAuditor:
    """Re-prices traced ops with a solo (crowding-free) cost model."""

    def __init__(self, sim):
        self._sim = sim
        self._models: Dict[Tuple[int, ...], object] = {}

    def _model(self, ranks: Tuple[int, ...]):
        model = self._models.get(ranks)
        if model is None:
            from repro.comm.cost import GroupCommModel

            model = GroupCommModel.build(
                self._sim.topology, self._sim.arrangement, list(ranks)
            )
            self._models[ranks] = model
        return model

    def predicted_s(self, e) -> Optional[float]:
        """Solo α–β prediction of one traced event's duration, in seconds."""
        if e.kind == "compute":
            flops = float((e.attrs or {}).get("flops", 0.0))
            return flops / self._sim.cluster.device.effective_flops
        if e.category != "comm":
            return None
        if e.kind == "p2p":
            arr = self._sim.arrangement
            return self._sim.topology.p2p_time(
                arr.gpu_of(e.ranks[0]), arr.gpu_of(e.ranks[1]), e.nbytes
            )
        return self._model(tuple(sorted(e.ranks))).price(e.kind, e.nbytes)[0]


def merge_bottlenecks(rows: Iterable[dict], by: str = "key") -> List[dict]:
    """Fold bottleneck rows that share ``row[by]``, ranked by measured time.

    The one place counts and nanoseconds of several rows are summed, the
    ranking ``(-measured_ns, row[by])`` is applied and the measured/predicted
    ratio is taken — per window from the path's segments, and across windows
    for the ledger summary, the calibration table and the rendered report.
    """
    merged: Dict[str, dict] = {}
    for row in rows:
        acc = merged.get(row[by])
        if acc is None:  # a copy: the caller's rows (a loaded document's) stay as they are
            acc = merged[row[by]] = {**row, "count": 0, "measured_ns": 0, "predicted_ns": 0}
        for field_ in ("count", "measured_ns", "predicted_ns"):
            acc[field_] += row[field_]
    ranked = sorted(merged.values(), key=lambda r: (-r["measured_ns"], r[by]))
    for row in ranked:
        row["ratio"] = (
            row["measured_ns"] / row["predicted_ns"] if row["predicted_ns"] else None
        )
    return ranked


def rank_bottlenecks(
    path: List[Segment], events, auditor: CostAuditor, labels: _SpanLabels
) -> List[dict]:
    """Aggregate path segments by op key; rank by measured time on the path.

    The key is ``category/kind[/label][@op]``.  Each entry carries the solo
    α–β prediction so the two orderings the report exposes — by measured cost
    and by measured/predicted ratio — come from the same rows.
    """
    rows = []
    for seg in path:
        if seg.category == "stall":
            key = "stall/barrier-wait"
        else:
            bits = [seg.category]
            if seg.kind != seg.category:
                bits.append(seg.kind)
            if seg.label:
                bits.append(seg.label)
            key = "/".join(bits)
            op = labels.op(seg)
            if op:
                key += f"@{op}"
        predicted_ns = 0
        if seg.event_index >= 0:
            e = events[seg.event_index]
            pred = auditor.predicted_s(e)
            if pred is not None:
                # prediction prices the whole event; the segment may be a
                # clipped tail, so scale by the covered fraction
                full = to_ns(e.t_end) - to_ns(e.t_start)
                frac = seg.duration_ns / full if full > 0 else 0.0
                predicted_ns = int(round(pred * 1e9 * frac))
        rows.append({
            "key": key, "category": seg.category, "kind": seg.kind, "count": 1,
            "measured_ns": seg.duration_ns, "predicted_ns": predicted_ns,
        })
    return merge_bottlenecks(rows)


# ----------------------------------------------------------------------
# the analysis, and the documents written from it
# ----------------------------------------------------------------------
@dataclass
class WindowAnalysis:
    """What the analyzer computed for one window, before any document."""

    window: Window
    per_rank: Dict[int, Attribution]
    path: List[Segment]
    path_attribution: Attribution
    bottlenecks: List[dict]

    @property
    def conservation_ok(self) -> bool:
        return all(a.total_ns == self.window.wall_ns for a in self.per_rank.values())


@dataclass
class Analysis:
    """One pass over a traced run; every critpath document is a view of it."""

    num_ranks: int
    wall_clock_ns: int
    windows: List[WindowAnalysis]
    labels: _SpanLabels

    def totals(self) -> dict:
        """Run-level category totals: all ranks summed, and the critical path."""
        per_rank_sum, path_sum = Attribution(), Attribution()
        for w in self.windows:
            for att in w.per_rank.values():
                per_rank_sum.merge(att)
            path_sum.merge(w.path_attribution)
        return {
            "per_rank_sum": per_rank_sum.as_dict(),
            "critical_path": path_sum.as_dict(),
        }

    def bottleneck_rows(self) -> Iterable[dict]:
        return (row for w in self.windows for row in w.bottlenecks)


def analyze(sim) -> Analysis:
    """Windows → per-rank attribution, critical path and bottleneck rows."""
    if not sim.tracer.events:
        raise ValueError(
            "critpath needs a traced run: construct the Simulator with "
            "trace=True (or set sim.tracer.enabled) before executing"
        )
    events = sim.tracer.events
    auditor = CostAuditor(sim)
    labels = _SpanLabels(sim.tracer.spans)
    analyses = []
    for w in build_windows(sim):
        path = critical_path(w, events)
        path_att = Attribution.of(path)
        # the walk's hops are contiguous except for sub-ns rounding and
        # explicit sender idle gaps; fold the remainder into stall so the
        # path attribution conserves the window exactly too
        path_att.stall_ns += w.wall_ns - path_att.total_ns
        analyses.append(WindowAnalysis(
            window=w,
            per_rank={r: Attribution.of(segs) for r, segs in sorted(w.timelines.items())},
            path=path,
            path_attribution=path_att,
            bottlenecks=rank_bottlenecks(path, events, auditor, labels),
        ))
    return Analysis(sim.num_ranks, to_ns(sim.elapsed()), analyses, labels)


def _aggregate_by(segs: List[Segment], key_fn) -> Dict[str, dict]:
    out: Dict[str, Attribution] = {}
    for s in segs:
        key = key_fn(s)
        if key:
            out.setdefault(key, Attribution()).add(s.category, s.duration_ns)
    return {k: v.as_dict() for k, v in sorted(out.items())}


def critpath_report(sim, max_path_segments: int = 512) -> dict:
    """The full deterministic analysis document for a traced simulator run.

    Byte-stable: contains no timestamps, hostnames or git state — two runs
    of the same seeded workload serialize identically under
    :func:`repro.obs.ledger.canonical_json`.  ``max_path_segments`` bounds
    only the verbatim per-segment listing; aggregates always cover the
    whole path, and ``path_truncated`` says when the listing was cut.
    """
    analysis = analyze(sim)
    labels = analysis.labels
    win_docs = []
    for wa in analysis.windows:
        w, path = wa.window, wa.path
        all_segs = [s for segs in w.timelines.values() for s in segs]
        win_docs.append({
            "label": w.label,
            "start_ns": w.start_ns,
            "end_ns": w.end_ns,
            "wall_ns": w.wall_ns,
            "conservation_ok": wa.conservation_ok,
            "per_rank": [
                {"rank": r, **att.as_dict()} for r, att in sorted(wa.per_rank.items())
            ],
            "by_layer": _aggregate_by(all_segs, labels.layer),
            "by_kind": _aggregate_by(all_segs, lambda s: s.kind),
            "critical_path": {
                "num_segments": len(path),
                "path_truncated": len(path) > max_path_segments,
                **wa.path_attribution.as_dict(),
                "segments": [
                    {
                        "rank": s.rank, "start_ns": s.start_ns, "end_ns": s.end_ns,
                        "category": s.category, "kind": s.kind, "label": s.label,
                        "op": labels.op(s), "layer": labels.layer(s),
                    }
                    for s in path[:max_path_segments]
                ],
            },
            "bottlenecks": wa.bottlenecks,
        })
    return {
        "schema": CRITPATH_SCHEMA,
        "num_ranks": analysis.num_ranks,
        "num_windows": len(win_docs),
        "wall_clock_ns": analysis.wall_clock_ns,
        "windows": win_docs,
        "totals": analysis.totals(),
    }


def attribution_summary(sim) -> dict:
    """The compact per-run summary stored in ledger records.

    A strict subset of :func:`critpath_report`: run-level category totals,
    the critical path's split, and the top measured bottlenecks — small
    enough to commit per ledger line, rich enough for the dashboard's
    Attribution section.
    """
    analysis = analyze(sim)
    top = merge_bottlenecks(analysis.bottleneck_rows())[:8]
    for row in top:
        del row["kind"]  # the key already spells it
    return {
        "schema": CRITPATH_SCHEMA,
        "wall_clock_ns": analysis.wall_clock_ns,
        "num_windows": len(analysis.windows),
        "conservation_ok": all(w.conservation_ok for w in analysis.windows),
        **analysis.totals(),
        "top_bottlenecks": top,
    }


# ----------------------------------------------------------------------
# cost-model calibration (measured / predicted feedback)
# ----------------------------------------------------------------------
CALIB_SCHEMA = "repro-calib-v1"


def calibration_suggestion(sim, experiment: str, scheme: str) -> dict:
    """A canonical-JSON α–β adjustment suggestion from one traced run.

    Aggregates the critical-path bottleneck rows by event *kind* and turns
    the measured/predicted ratios into two scalar scale suggestions — one
    for communication kinds, one for compute — weighted by measured time.
    Deliberately advisory: nothing here rewrites the cost model (a single
    run cannot separate α from β; that needs a multi-size regression), it
    just localizes and quantifies the disagreement so a human can act.
    """
    analysis = analyze(sim)
    kinds = merge_bottlenecks(
        # stalls and un-priced kinds carry no signal
        (r for r in analysis.bottleneck_rows() if r["kind"] and r["predicted_ns"]),
        by="kind",
    )
    for row in kinds:
        del row["key"]  # the first of the many keys folded under this kind

    def _weighted_scale(category: str) -> Optional[float]:
        rows = [r for r in kinds if r["category"] == category]
        meas = sum(r["measured_ns"] for r in rows)
        pred = sum(r["predicted_ns"] for r in rows)
        return meas / pred if pred else None

    return {
        "schema": CALIB_SCHEMA,
        "basis": {
            "experiment": experiment,
            "scheme": scheme,
            "num_ranks": analysis.num_ranks,
            "num_windows": len(analysis.windows),
            "wall_clock_ns": analysis.wall_clock_ns,
        },
        "kinds": kinds,
        "suggestion": {
            "comm_scale": _weighted_scale("comm"),
            "compute_scale": _weighted_scale("compute"),
            "note": (
                "advisory only — scales fold contention and stragglers into "
                "β; separating α from β needs a multi-size regression, so "
                "apply by hand after inspecting the per-kind ratios"
            ),
        },
    }


def render_calibration(doc: dict) -> str:
    """Human-readable table for one :func:`calibration_suggestion` doc."""
    from repro.utils.tables import format_table

    rows = [
        [r["kind"], r["category"], r["count"], _fmt_ns(r["measured_ns"]),
         _fmt_ns(r["predicted_ns"]), f"{r['ratio']:.3f}"]
        for r in doc["kinds"]
    ]
    s = doc["suggestion"]
    table = format_table(
        ["kind", "category", "count", "measured", "predicted", "meas/pred"],
        rows,
        title=(f"Cost-model calibration — {doc['basis']['experiment']} "
               f"[{doc['basis']['scheme']}]"),
    )
    lines = [table, ""]
    for label, key in (("comm", "comm_scale"), ("compute", "compute_scale")):
        v = s[key]
        lines.append(
            f"suggested {label} scale: {v:.3f}" if v is not None
            else f"suggested {label} scale: — (no priced {label} on the path)"
        )
    lines.append(f"note: {s['note']}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _fmt_ns(ns: int) -> str:
    if ns >= 1_000_000_000:
        return f"{ns / 1e9:.4f} s"
    if ns >= 1_000_000:
        return f"{ns / 1e6:.3f} ms"
    if ns >= 1_000:
        return f"{ns / 1e3:.3f} µs"
    return f"{ns} ns"


def render_report(doc: dict, top: int = 12) -> str:
    """Human-readable tables for one :func:`critpath_report` document."""
    from repro.utils.tables import format_table

    out = []
    totals = doc["totals"]["per_rank_sum"]
    path = doc["totals"]["critical_path"]
    rows = [
        [c, _fmt_ns(totals[c + "_ns"]),
         f"{totals[c + '_ns'] / totals['total_ns']:.1%}" if totals["total_ns"] else "—",
         _fmt_ns(path[c + "_ns"]),
         f"{path[c + '_ns'] / path['total_ns']:.1%}" if path["total_ns"] else "—"]
        for c in CATEGORIES
    ]
    out.append(format_table(
        ["category", "all ranks", "share", "critical path", "share"],
        rows,
        title=(f"Time attribution — {doc['num_ranks']} ranks, "
               f"{doc['num_windows']} window(s), "
               f"wall {_fmt_ns(doc['wall_clock_ns'])}"),
    ))
    rows = [
        [
            row["key"], row["count"], _fmt_ns(row["measured_ns"]),
            _fmt_ns(row["predicted_ns"]) if row["predicted_ns"] else "—",
            f"{row['ratio']:.2f}" if row["ratio"] is not None else "—",
        ]
        for row in merge_bottlenecks(
            row for w in doc["windows"] for row in w["bottlenecks"]
        )[:top]
    ]
    out.append(format_table(
        ["op (critical path)", "count", "measured", "predicted (solo α–β)",
         "meas/pred"],
        rows, title="Ranked bottlenecks on the critical path",
    ))
    conserved = all(w["conservation_ok"] for w in doc["windows"])
    out.append(
        "conservation: attributed time == wall-clock on every rank, exactly"
        if conserved else "conservation: VIOLATED (this is a bug — please report)"
    )
    return "\n\n".join(out)


def main(
    experiment: str,
    scheme: str = "optimus",
    out: Optional[str] = None,
    folded: Optional[str] = None,
    top: int = 12,
    as_json: bool = False,
    calibrate: bool = False,
    ledger: Optional[str] = None,
    printer=print,
) -> int:
    """``python -m repro critpath`` driver: trace a workload, analyze it."""
    from repro.obs.ledger import canonical_json
    from repro.obs.profile import run_profile

    sim = run_profile(experiment, scheme=scheme)
    doc = critpath_report(sim)
    calib = calibration_suggestion(sim, experiment, scheme) if calibrate else None
    if as_json:
        printer(canonical_json(calib) if calibrate else canonical_json(doc))
    else:
        printer(render_report(doc, top=top))
        if calib is not None:
            printer("")
            printer(render_calibration(calib))
    if calib is not None and ledger:
        from repro.obs.ledger import RunLedger, record_from_sim

        rec = record_from_sim(
            "experiment", sim, label=f"critpath-calibration:{experiment}",
            scheme=scheme, extra={"calibration": calib},
        )
        RunLedger(ledger).append(rec)
        if not as_json:
            printer(f"calibration suggestion appended to ledger {ledger}")
    text = canonical_json(doc)
    if out:
        write_text(out, text + "\n")
        if not as_json:
            printer(f"critpath JSON written to {out}")
    if folded:
        from repro.obs.flamegraph import write_folded

        n = write_folded(sim, folded)
        if not as_json:
            printer(f"folded flamegraph written to {folded} ({n} stacks) — "
                    "open with speedscope or flamegraph.pl")
    return 0
