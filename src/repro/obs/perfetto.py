"""Chrome/Perfetto ``trace_event`` JSON export of a simulator run.

The emitted dict loads directly in https://ui.perfetto.dev or
``chrome://tracing``.  Layout:

* one *process* per rank (``pid = rank``) named ``rank N (gpu G)``;
* ``tid 0`` ("timeline") carries hierarchical spans, compute slices and
  collective slices — nesting falls out of timestamp containment;
* ``tid 1`` ("copy engine") carries point-to-point transfer slices, with
  flow arrows (``ph: s``/``f``) from sender to receiver;
* ``tid 2`` ("requests") carries serving request-lifecycle slices
  (``queued``/``prefill``/``decode``/``preempted``/…); one flow chain per
  request id (``ph: s``/``t``/``f``, id ``req<rid>``) links a request's
  slices across scheduler steps and mesh ranks.  SLO alert transitions
  appear as instant events (``ph: i``).  Only present for serve traces;
* counter events (``ph: C``) carry each rank's memory timeline when
  per-allocation sampling is enabled.

Timestamps are simulated seconds converted to microseconds, as the trace
format expects.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.runtime.events import OVERHEAD_KINDS
from repro.utils import write_text

_US = 1e6  # seconds → trace_event microseconds


def _slice(name: str, cat: str, pid: int, tid: int, timed, args) -> dict:
    """One complete (``ph: X``) slice covering ``timed`` — a span or an event."""
    return {
        "ph": "X", "name": name, "cat": cat, "pid": pid, "tid": tid,
        "ts": timed.t_start * _US, "dur": timed.duration * _US, "args": args,
    }


def chrome_trace(sim) -> Dict[str, object]:
    """Build a ``trace_event`` dict from the simulator's tracer state."""
    events: List[dict] = []
    has_requests = any(e.kind == "request" for e in sim.tracer.events)
    for d in sim.devices:
        gpu = sim.arrangement.gpu_of(d.rank)
        node = sim.arrangement.node_of(d.rank)
        events.append(
            {"ph": "M", "name": "process_name", "pid": d.rank, "tid": 0,
             "args": {"name": f"rank {d.rank} (node {node}, gpu {gpu})"}}
        )
        threads = [(0, "timeline"), (1, "copy engine")]
        if has_requests:
            threads.append((2, "requests"))
        for tid, tname in threads:
            events.append(
                {"ph": "M", "name": "thread_name", "pid": d.rank, "tid": tid,
                 "args": {"name": tname}}
            )

    # hierarchical spans — already one record per participating rank
    for s in sim.tracer.spans:
        args = dict(s.attrs)
        args["sid"] = s.sid
        events.append(_slice(s.name, s.category, s.rank, 0, s, args))

    # flat events: compute, collectives, point-to-point, serving lifecycle
    flow_id = 0
    request_chains: Dict[object, List[tuple]] = {}
    for e in sim.tracer.events:
        if e.kind == "request":
            attrs = dict(e.attrs or {})
            rid = attrs.get("rid")
            name = f"req{rid}:{e.label}" if rid is not None else e.label
            events.extend(_slice(name, "request", pid, 2, e, attrs) for pid in e.ranks)
            if rid is not None:
                request_chains.setdefault(rid, []).append(
                    (e.t_start, e.ranks[0], name)
                )
        elif e.kind == "alert":
            for pid in e.ranks:
                events.append(
                    {
                        "ph": "i",
                        "s": "p",
                        "name": f"alert:{e.label}",
                        "cat": "alert",
                        "pid": pid,
                        "tid": 2,
                        "ts": e.t_start * _US,
                        "args": dict(e.attrs or {}),
                    }
                )
        elif e.kind == "compute":
            name = f"compute:{e.label}" if e.label else "compute"
            events.append(_slice(name, "compute", e.ranks[0], 0, e, dict(e.attrs or {})))
        elif e.kind == "p2p":
            src, dst = e.ranks
            flow_id += 1
            args = {"nbytes": e.nbytes, "src": src, "dst": dst}
            for pid, name in ((src, f"p2p→{dst}"), (dst, f"p2p←{src}")):
                events.append(_slice(name, "p2p", pid, 1, e, args))
            events.append(
                {"ph": "s", "id": flow_id, "name": "p2p", "cat": "p2p",
                 "pid": src, "tid": 1, "ts": e.t_start * _US}
            )
            events.append(
                {"ph": "f", "bp": "e", "id": flow_id, "name": "p2p", "cat": "p2p",
                 "pid": dst, "tid": 1, "ts": e.t_end * _US}
            )
        else:  # grouped event (collective or resilience) — one slice per rank
            cat = "resilience" if e.kind in OVERHEAD_KINDS else "collective"
            name = f"{e.kind}:{e.label}" if cat == "resilience" and e.label else e.kind
            args = {
                "nbytes": e.nbytes,
                "weighted": e.weighted,
                "group": e.label,
                "ranks": list(e.ranks),
            }
            events.extend(_slice(name, cat, pid, 0, e, args) for pid in e.ranks)

    # one flow chain per request id: arrows link the request's slices
    # across scheduler steps (and across ranks after a migration/swap-in)
    for rid in sorted(request_chains, key=str):
        chain = sorted(request_chains[rid], key=lambda it: (it[0], it[2]))
        if len(chain) < 2:
            continue
        fid = f"req{rid}"
        for i, (ts, pid, name) in enumerate(chain):
            ph = "s" if i == 0 else ("f" if i == len(chain) - 1 else "t")
            ev = {"ph": ph, "id": fid, "name": "request", "cat": "request",
                  "pid": pid, "tid": 2, "ts": ts * _US}
            if ph == "f":
                ev["bp"] = "e"
            events.append(ev)

    for rank, samples in sim.memory_timeline().items():
        for s in samples:
            events.append(
                {
                    "ph": "C",
                    "name": "memory",
                    "pid": rank,
                    "tid": 0,
                    "ts": s.t * _US,
                    "args": {"total": s.total},
                }
            )
            events.append(
                {
                    "ph": "C",
                    "name": f"memory:{s.tag}",
                    "pid": rank,
                    "tid": 0,
                    "ts": s.t * _US,
                    "args": {"bytes": s.tag_bytes},
                }
            )

    # stable ordering: metadata first, then by (pid, tid, ts, -dur) so
    # enclosing slices precede their children at equal timestamps
    def sort_key(ev):
        is_meta = 0 if ev["ph"] == "M" else 1
        return (is_meta, ev.get("pid", 0), ev.get("tid", 0),
                ev.get("ts", 0.0), -ev.get("dur", 0.0))

    events.sort(key=sort_key)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(sim, path: str) -> Dict[str, object]:
    """Serialize :func:`chrome_trace` to ``path``; returns the trace dict."""
    trace = chrome_trace(sim)
    write_text(path, json.dumps(trace))
    return trace
