"""OpenMetrics / Prometheus text exposition for the metrics registry.

Two render paths cover the two places metrics live, both through one
family builder (counters and gauges alike):

* :func:`render_registry` serializes a live
  :class:`~repro.obs.metrics.MetricsRegistry` — histograms get real
  cumulative ``_bucket`` lines with a geometric bucket ladder derived from
  the retained samples (the ``+Inf`` bucket always equals the true
  ``_count``, even when sample retention truncated);
* :func:`render_export` serializes the structured
  ``MetricsRegistry.export()`` entries stored in ledger records — those
  keep only summary statistics (no raw samples), so histograms become
  OpenMetrics ``summary`` families with ``quantile`` lines from p50/p99.

Both emit deterministic output: families sorted by name, labels sorted by
key, fixed float formatting, a single ``# EOF`` terminator.
Counters additionally emit a ``_created`` sample carrying the counter's
reset epoch (0 at birth, bumped on every checkpoint restore) — the
OpenMetrics mechanism that lets scrapers tell a counter restart from a
missed increment across :class:`~repro.resilience.trainer.ResilientTrainer`
resumes.

:func:`validate_openmetrics` checks the grammar rules the exporters
promise (TYPE before samples, counter ``_total``/``_created`` suffixes,
cumulative buckets with ``+Inf == _count``, EOF) and is run in tests and
the CI dash smoke job.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Tuple

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$"
)

#: finite bucket bounds per histogram (the ``+Inf`` bucket is always added)
NUM_BUCKETS = 8


def metric_name(name: str, prefix: str = "repro") -> str:
    """Map a registry name (``resilience/step_retries``) onto the
    OpenMetrics charset, with a namespacing prefix."""
    safe = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if prefix:
        safe = f"{prefix}_{safe}"
    if not _NAME_OK.match(safe):
        safe = f"_{safe}"
    return safe


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    """Deterministic sample-value formatting (ints stay integral)."""
    if value != value:
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labelstr(labels: Dict[str, object], extra: Optional[List[Tuple[str, str]]] = None) -> str:
    pairs = [(k, str(v)) for k, v in sorted(labels.items(), key=lambda kv: kv[0])]
    pairs += list(extra or [])
    if not pairs:
        return ""
    return "{" + ",".join(f'{k}="{_escape(v)}"' for k, v in pairs) + "}"


def bucket_bounds(lo: float, hi: float, n: int = NUM_BUCKETS) -> List[float]:
    """A deterministic geometric ladder covering ``[lo, hi]``.

    Falls back to a linear ladder when the data crosses or touches zero
    (a geometric ladder needs a positive span).
    """
    if hi <= lo:
        return [hi]
    if lo > 0:
        ratio = (hi / lo) ** (1.0 / (n - 1))
        bounds = [lo * ratio**i for i in range(n)]
    else:
        step = (hi - lo) / (n - 1)
        bounds = [lo + step * i for i in range(n)]
    bounds[-1] = hi  # close the ladder exactly despite float error
    out = [bounds[0]]
    for b in bounds[1:]:  # collapse float-equal steps: bounds must increase
        if b > out[-1]:
            out.append(b)
    return out


class _Family:
    __slots__ = ("name", "type", "lines")

    def __init__(self, name: str, type_: str):
        self.name = name
        self.type = type_
        self.lines: List[str] = []


def _render(families: List[_Family]) -> str:
    out: List[str] = []
    for fam in sorted(families, key=lambda f: f.name):
        out.append(f"# TYPE {fam.name} {fam.type}")
        out.extend(fam.lines)
    out.append("# EOF")
    return "\n".join(out) + "\n"


def _histogram_family(fam: _Family, labels: dict, entry: dict) -> None:
    """Cumulative ``_bucket`` lines from a live histogram's retained
    ``samples``.

    Retention may have truncated (``count > len(samples)``): finite buckets
    count retained samples only, while ``+Inf`` carries the true count —
    still monotone, since ``count >= len(samples)``.
    """
    ordered = sorted(entry["samples"])
    count = entry["count"]
    if ordered:
        for le in bucket_bounds(ordered[0], ordered[-1]):
            cum = sum(1 for s in ordered if s <= le)
            fam.lines.append(
                f"{fam.name}_bucket{_labelstr(labels, [('le', _fmt(le))])} {cum}"
            )
    fam.lines.append(
        f"{fam.name}_bucket{_labelstr(labels, [('le', '+Inf')])} {count}"
    )
    fam.lines.append(f"{fam.name}_sum{_labelstr(labels)} {_fmt(entry['sum'])}")
    fam.lines.append(f"{fam.name}_count{_labelstr(labels)} {count}")


def _summary_family(fam: _Family, labels: dict, entry: dict) -> None:
    for q, key in (("0.5", "p50"), ("0.99", "p99")):
        fam.lines.append(
            f"{fam.name}{_labelstr(labels, [('quantile', q)])} {_fmt(entry[key])}"
        )
    fam.lines.append(f"{fam.name}_sum{_labelstr(labels)} {_fmt(entry['sum'])}")
    fam.lines.append(f"{fam.name}_count{_labelstr(labels)} {entry['count']}")


def render_registry(registry, prefix: str = "repro") -> str:
    """OpenMetrics text for a live :class:`MetricsRegistry`: its
    ``export()`` entries, each histogram with its retained samples for real
    ``_bucket`` lines."""
    entries = registry.export()
    for entry, (_, m) in zip(entries, registry._sorted_items()):
        if entry["type"] == "histogram":
            entry["samples"] = m.samples
    return _render_entries(entries, prefix, None, ("histogram", _histogram_family))


def render_export(entries: List[dict], prefix: str = "repro",
                  extra_labels: Optional[Dict[str, object]] = None) -> str:
    """OpenMetrics text for ``MetricsRegistry.export()`` entries.

    Export entries keep no raw samples, so histograms render as ``summary``
    families (quantile lines from the stored p50/p99).  ``extra_labels``
    (e.g. ``run_id``/``kind`` from a ledger record) are merged into every
    sample's label set.
    """
    return _render_entries(entries, prefix, extra_labels, ("summary", _summary_family))


def _render_entries(entries: List[dict], prefix: str,
                    extra_labels: Optional[Dict[str, object]], histograms) -> str:
    """The one family builder: counters and gauges alike for both paths;
    ``histograms`` is the ``(family type, line writer)`` of a histogram."""
    hist_type, hist_lines = histograms
    families: Dict[str, _Family] = {}
    for entry in entries:
        labels = dict(entry.get("labels") or {})
        labels.update(extra_labels or {})
        name = metric_name(entry["name"], prefix)
        kind = entry.get("type", "gauge")
        if kind == "histogram":
            fam = families.setdefault(name, _Family(name, hist_type))
            hist_lines(fam, labels, entry)
        elif kind == "counter":
            fam = families.setdefault(name, _Family(name, "counter"))
            fam.lines.append(f"{name}_total{_labelstr(labels)} {_fmt(entry['value'])}")
            if "created" in entry:
                fam.lines.append(
                    f"{name}_created{_labelstr(labels)} {_fmt(entry['created'])}"
                )
        else:
            fam = families.setdefault(name, _Family(name, "gauge"))
            fam.lines.append(f"{name}{_labelstr(labels)} {_fmt(entry['value'])}")
    return _render(list(families.values()))


# ----------------------------------------------------------------------
# grammar validation
# ----------------------------------------------------------------------
_SUFFIXES = ("_total", "_created", "_bucket", "_sum", "_count")


def _family_of(sample_name: str, families: Dict[str, str]) -> Optional[str]:
    if sample_name in families:
        return sample_name
    for suffix in _SUFFIXES:
        if sample_name.endswith(suffix) and sample_name[: -len(suffix)] in families:
            return sample_name[: -len(suffix)]
    return None


def _parse_value(raw: str) -> float:
    if raw == "+Inf":
        return float("inf")
    if raw == "-Inf":
        return float("-inf")
    return float(raw)


def validate_openmetrics(text: str) -> List[str]:
    """Grammar problems in ``text`` (empty list == valid).

    Checks the invariants our exporters promise: every sample belongs to a
    family declared by an earlier ``# TYPE`` line, counter samples use the
    ``_total`` suffix, histogram buckets are cumulative with the ``+Inf``
    bucket equal to ``_count``, and the document ends with ``# EOF``.
    """
    problems: List[str] = []
    lines = text.splitlines()
    if not lines or lines[-1] != "# EOF":
        problems.append("missing '# EOF' terminator on the last line")
    families: Dict[str, str] = {}
    buckets: Dict[str, List[float]] = {}  # series -> cumulative values in order
    bucket_le: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    for lineno, line in enumerate(lines, 1):
        if not line or line == "# EOF":
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                problems.append(f"line {lineno}: malformed TYPE line")
                continue
            _, _, name, type_ = parts
            if name in families:
                problems.append(f"line {lineno}: duplicate TYPE for family {name!r}")
            families[name] = type_
            continue
        if line.startswith("#"):
            continue  # HELP/comment lines are legal and unchecked
        m = _SAMPLE.match(line)
        if not m:
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        sample_name = m.group("name")
        family = _family_of(sample_name, families)
        if family is None:
            problems.append(
                f"line {lineno}: sample {sample_name!r} has no preceding TYPE line"
            )
            continue
        type_ = families[family]
        try:
            value = _parse_value(m.group("value"))
        except ValueError:
            problems.append(f"line {lineno}: bad sample value {m.group('value')!r}")
            continue
        if type_ == "counter":
            if not sample_name.endswith(("_total", "_created")):
                problems.append(
                    f"line {lineno}: counter sample {sample_name!r} must end in "
                    "_total or _created"
                )
            if value < 0:
                problems.append(f"line {lineno}: negative counter value")
        if type_ == "histogram" and sample_name.endswith("_bucket"):
            labels = m.group("labels") or ""
            le_match = re.search(r'le="([^"]*)"', labels)
            if le_match is None:
                problems.append(f"line {lineno}: histogram bucket without le label")
                continue
            series = family + "{" + re.sub(r',?le="[^"]*"', "", labels) + "}"
            buckets.setdefault(series, []).append(value)
            bucket_le.setdefault(series, []).append(_parse_value(le_match.group(1)))
        if type_ == "histogram" and sample_name.endswith("_count"):
            series = family + "{" + (m.group("labels") or "") + "}"
            counts[series] = value
    for series, values in buckets.items():
        les = bucket_le[series]
        if any(cur > nxt for cur, nxt in zip(values, values[1:])):
            problems.append(f"histogram {series}: bucket counts not cumulative")
        if any(cur >= nxt for cur, nxt in zip(les, les[1:])):
            problems.append(f"histogram {series}: bucket bounds not increasing")
        if not les or not math.isinf(les[-1]):
            problems.append(f"histogram {series}: missing +Inf bucket")
        elif series in counts and values[-1] != counts[series]:
            problems.append(
                f"histogram {series}: +Inf bucket {values[-1]} != _count {counts[series]}"
            )
    return problems
