"""A small labeled-metrics registry (counters, gauges, histograms).

Deliberately prometheus-shaped but in-process: the simulator, trainer and
experiment harness publish into a :class:`MetricsRegistry`; tests and the
``repro profile`` CLI read snapshots back out.  A metric instance is keyed
by ``(name, sorted(labels))``, so ``reg.counter("steps", scheme="optimus")``
returns the same :class:`Counter` every call.

This module must stay import-free of the rest of :mod:`repro` — the
:class:`~repro.runtime.simulator.Simulator` owns a registry, so anything
this file imported from the package would cycle.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Tuple

LabelKey = Tuple[str, Tuple[Tuple[str, object], ...]]


class Counter:
    """Monotonically increasing value.

    ``created`` is the counter's *reset epoch*: 0 for a counter born in
    this process, bumped each time its value is restored from a
    checkpoint (see :meth:`MetricsRegistry.restore_counters`).  The
    OpenMetrics exporter publishes it as the ``_created`` sample, which
    is how scrapers distinguish a genuine counter restart from a missed
    increment.
    """

    __slots__ = ("name", "labels", "value", "created")

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.created = 0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a gauge")
        self.value += amount


class Gauge:
    """Last-write-wins value (e.g. a buffer high-water mark)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, amount: float) -> None:
        self.value += amount


class Histogram:
    """Streaming distribution: count/sum/min/max plus retained samples."""

    __slots__ = ("name", "labels", "count", "total", "min", "max", "samples", "max_samples")

    def __init__(self, name: str, labels: dict, max_samples: int = 4096):
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.samples: List[float] = []
        self.max_samples = max_samples

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        if len(self.samples) < self.max_samples:
            self.samples.append(value)

    @property
    def mean(self) -> float:
        if not self.count:
            raise ValueError(
                f"histogram {self.name!r} is empty: mean is undefined "
                "(observe() at least one value first)"
            )
        return self.total / self.count

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over the retained samples (p in [0, 100])."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p} outside [0, 100]")
        if not self.samples:
            raise ValueError(
                f"histogram {self.name!r} is empty: percentile({p:g}) is "
                "undefined (observe() at least one value first)"
            )
        ordered = sorted(self.samples)
        idx = min(len(ordered) - 1, max(0, round(p / 100.0 * (len(ordered) - 1))))
        return ordered[idx]


def _key(name: str, labels: dict) -> LabelKey:
    return (name, tuple(sorted(labels.items())))


class MetricsRegistry:
    """Get-or-create store for labeled metrics.

    A gauge whose value its owner keeps as a plain field (such as a buffer
    arena's capacity at its last growth) is registered as a *view*
    (:meth:`view`) instead of being written on every change: the registry
    renders the view's gauges whenever it is read, so every read sees them
    as if each had been set at each change."""

    def __init__(self):
        self._metrics: Dict[LabelKey, object] = {}
        #: name -> the views rendering gauges of that name (see :meth:`view`)
        self._views: Dict[str, List[Callable[[], Iterable[Tuple[dict, float]]]]] = {}
        #: the keys of view gauges forgotten by :meth:`clear`
        self._cleared: set = set()

    def view(self, name: str, gauges: Callable[[], Iterable[Tuple[dict, float]]]) -> None:
        """Register ``gauges``, a callable yielding ``(labels, value)`` per
        gauge of ``name`` now set: each read of the registry sets those
        gauges first (registering each on its first sight)."""
        self._views.setdefault(name, []).append(gauges)

    def _render(self, name=None) -> None:
        """Set the gauges of every view (of ``name`` only, if given)."""
        for view_name, views in self._views.items():
            if name is not None and view_name != name:
                continue
            for gauges in views:
                for labels, value in gauges():
                    key = _key(view_name, labels)
                    if key in self._cleared:
                        continue
                    m = self._metrics.get(key)
                    if m is None:
                        m = self._metrics[key] = Gauge(view_name, labels)
                    m.value = value

    def _get(self, cls, name: str, labels: dict):
        if name in self._views:
            self._render(name)
        key = _key(name, labels)
        m = self._metrics.get(key)
        if m is None:
            m = cls(name, labels)
            self._metrics[key] = m
        elif not isinstance(m, cls):
            raise TypeError(
                f"metric {name!r}{labels} already registered as {type(m).__name__}"
            )
        return m

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        self._render()
        return len(self._metrics)

    def __iter__(self) -> Iterable[object]:
        self._render()
        return iter(self._metrics.values())

    def find(self, name: str) -> List[object]:
        """All metric instances (any label set) registered under ``name``."""
        self._render(name)
        return [m for (n, _), m in self._metrics.items() if n == name]

    def clear(self) -> None:
        """Forget every metric.  A handle taken before is detached: it still
        takes updates, but the registry no longer lists it; so are the
        gauges a view renders now (a view's gauge first set later is
        listed)."""
        self._render()
        self._cleared.update(key for key, m in self._metrics.items() if key[0] in self._views)
        self._metrics.clear()

    def _sorted_items(self):
        """Metrics in a total order that is stable across label insertion
        orders *and* mixed-type label values (``rank=0`` next to
        ``rank="all"`` must not raise on comparison), so snapshots, ledger
        records and OpenMetrics output are byte-stable."""
        self._render()
        return sorted(
            self._metrics.items(),
            key=lambda kv: (kv[0][0], tuple((k, str(v)) for k, v in kv[0][1])),
        )

    @staticmethod
    def _histogram_summary(m: "Histogram") -> Dict[str, object]:
        if not m.count:
            return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0,
                    "max": 0.0, "p50": 0.0, "p99": 0.0}
        return {
            "count": m.count,
            "sum": m.total,
            "mean": m.mean,
            "min": m.min,
            "max": m.max,
            "p50": m.percentile(50),
            "p99": m.percentile(99),
        }

    def snapshot(self) -> Dict[str, object]:
        """A JSON-serializable dump of every metric (display-oriented keys)."""
        out: Dict[str, object] = {}
        for (name, labels), m in self._sorted_items():
            label_str = ",".join(f"{k}={v}" for k, v in labels)
            full = f"{name}{{{label_str}}}" if label_str else name
            if isinstance(m, Histogram):
                out[full] = self._histogram_summary(m)
            else:
                out[full] = m.value
        return out

    def export(self) -> List[dict]:
        """Structured, machine-readable dump: one entry per metric instance.

        Unlike :meth:`snapshot` (whose keys are rendered strings) each entry
        keeps ``name``/``labels``/``type`` separate, so consumers — the run
        ledger and the OpenMetrics exporter — never have to parse label
        strings back apart.  Ordering matches :meth:`snapshot`.
        """
        out: List[dict] = []
        for (name, labels), m in self._sorted_items():
            entry: dict = {
                "name": name,
                "labels": {k: v for k, v in labels},
                "type": type(m).__name__.lower(),
            }
            if isinstance(m, Histogram):
                entry.update(self._histogram_summary(m))
            else:
                entry["value"] = m.value
                if isinstance(m, Counter):
                    entry["created"] = m.created
            out.append(entry)
        return out

    # ------------------------------------------------------------------
    # checkpoint/restore (counters only)
    # ------------------------------------------------------------------
    def counters_state(self) -> List[dict]:
        """A JSON-serializable snapshot of every counter (for checkpoints).

        Only counters are captured: gauges and histograms describe the
        live process, but counters carry campaign-cumulative totals that
        must survive a :class:`~repro.resilience.trainer.ResilientTrainer`
        restart without appearing to move backwards.
        """
        return [
            {"name": name, "labels": {k: v for k, v in labels},
             "value": m.value, "created": m.created}
            for (name, labels), m in self._sorted_items()
            if isinstance(m, Counter)
        ]

    def restore_counters(self, state: List[dict]) -> None:
        """Merge a :meth:`counters_state` snapshot back in, monotonically.

        OpenMetrics counter-restart semantics: the restored value is
        ``max(live, saved)`` so a series never decreases across a resume,
        and the reset epoch becomes ``saved.created + 1`` so scrapers (and
        tests) can tell a restart happened even when the value is equal.
        """
        for entry in state:
            c = self.counter(entry["name"], **(entry.get("labels") or {}))
            c.value = max(c.value, float(entry["value"]))
            c.created = max(c.created, int(entry.get("created", 0)) + 1)

    def render(self, title: str = "Metrics") -> str:
        from repro.utils.tables import format_table

        rows = []
        for full, value in self.snapshot().items():
            if isinstance(value, dict):
                rows.append(
                    [full, "histogram",
                     f"n={value['count']} mean={value['mean']:.4g} "
                     f"p50={value['p50']:.4g} max={value['max']:.4g}"]
                )
            else:
                rows.append([full, "value", f"{value:.6g}"])
        return format_table(["metric", "type", "value"], rows, title=title)
