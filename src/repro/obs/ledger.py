"""The run ledger: durable, append-only, machine-readable run records.

Every run of the trainer, a chaos campaign, a serving run or an
experiment stem prints its evidence and — before this module — threw it
away.  The ledger turns that signal into comparable artifacts: one JSONL
line per run under ``benchmarks/ledger/``, each a :class:`RunRecord`
capturing the config fingerprint, git revision, scheme, mesh shape,
simulated clock, per-rank byte/FLOP counters, peak-memory watermarks and a
structured metrics snapshot.

Design constraints (tested in ``tests/test_ledger.py``):

* **append-only** — :meth:`RunLedger.append` opens the file in ``"a"``
  mode and never rewrites earlier lines; history is immutable;
* **byte-deterministic** — a record is a pure function of the run's inputs
  (seed, config, code revision).  No wall-clock timestamps, hostnames or
  temp paths appear in the canonical payload, and JSON is serialized with
  sorted keys and fixed separators, so two runs with the same seed/config
  produce byte-identical lines (the ``run_id`` is a content hash);
* **zero drift** — building a record only *reads* simulator counters and
  metrics; losses and simulated clocks are bit-identical with the ledger
  enabled or disabled.

The consumers are :mod:`repro.obs.claims` (the paper-claims scorecard),
:mod:`repro.obs.dash` (the HTML dashboard) and
:mod:`repro.obs.openmetrics` (the Prometheus/OpenMetrics exporter).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import subprocess
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

LEDGER_SCHEMA = "repro-ledger-v1"
DEFAULT_LEDGER_DIR = os.path.join("benchmarks", "ledger")
DEFAULT_LEDGER_FILE = "ledger.jsonl"

RUN_KINDS = ("train", "chaos", "experiment", "serve", "serve-chaos")


def canonical_json(doc) -> str:
    """Byte-stable JSON: sorted keys, fixed separators, no trailing space."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def json_safe(value):
    """Recursively replace non-finite floats with ``None`` (JSON has no NaN;
    serial trainers log NaN step times) and numpy scalars with builtins."""
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        return value if value == value and value not in (float("inf"), float("-inf")) else None
    item = getattr(value, "item", None)  # numpy scalars
    if callable(item):
        return json_safe(item())
    return value


def config_fingerprint(cfg) -> str:
    """A short stable hash of a model config (dataclass or plain dict)."""
    doc = dataclasses.asdict(cfg) if dataclasses.is_dataclass(cfg) else dict(cfg)
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()[:16]


@functools.lru_cache(maxsize=None)
def git_revision(cwd: Optional[str] = None) -> str:
    """The current git commit (short), or ``"unknown"`` outside a repo.

    Resolved once per process per ``cwd``: it is the default of every
    :class:`RunRecord`, and a ``git`` fork per record dominated ledger hooks.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


@dataclass
class RunRecord:
    """One ledger line: everything needed to compare this run to any other."""

    kind: str  # one of RUN_KINDS
    label: str = ""
    scheme: Optional[str] = None
    seed: Optional[int] = None
    mesh: Optional[dict] = None  # {"ranks":…, "nodes":…, "gpus_per_node":…, "q":…}
    config: Optional[dict] = None  # model config asdict + "fingerprint"
    clock: Optional[float] = None  # simulated seconds (slowest rank)
    counters: Optional[dict] = None  # aggregate flops/bytes/peak across ranks
    watermarks: Optional[List[dict]] = None  # per-rank high-water counters
    metrics: Optional[List[dict]] = None  # MetricsRegistry.export() entries
    attribution: Optional[dict] = None  # critpath summary (traced runs only)
    extra: dict = field(default_factory=dict)  # kind-specific payload
    git: str = field(default_factory=git_revision)
    schema: str = LEDGER_SCHEMA

    def __post_init__(self):
        if self.kind not in RUN_KINDS:
            raise ValueError(f"unknown run kind {self.kind!r} (choose from {RUN_KINDS})")

    # ------------------------------------------------------------------
    def payload(self) -> dict:
        """The canonical JSON document, without the content hash."""
        return json_safe(dataclasses.asdict(self))

    @property
    def run_id(self) -> str:
        """Content hash of the canonical payload — identical runs share it."""
        return hashlib.sha256(canonical_json(self.payload()).encode()).hexdigest()[:16]

    def to_line(self) -> str:
        doc = self.payload()
        doc["run_id"] = self.run_id
        return canonical_json(doc)

    @classmethod
    def from_json(cls, doc: dict) -> "RunRecord":
        doc = dict(doc)
        doc.pop("run_id", None)
        if doc.get("schema") != LEDGER_SCHEMA:
            raise ValueError(f"unknown ledger schema {doc.get('schema')!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown ledger record fields {sorted(unknown)}")
        return cls(**doc)


def record_from_sim(
    kind: str,
    sim,
    *,
    label: str = "",
    scheme: Optional[str] = None,
    seed: Optional[int] = None,
    config=None,
    mesh: Optional[dict] = None,
    extra: Optional[dict] = None,
) -> RunRecord:
    """Build a :class:`RunRecord` by *reading* a simulator's counters.

    Pure read-only: nothing here touches clocks, memory meters, traces or
    numerics, which is what keeps ledger-on and ledger-off runs bit-identical.
    Traced runs additionally carry a critical-path attribution summary
    (:func:`repro.obs.critpath.attribution_summary` — also read-only).
    """
    cfg_doc = None
    if config is not None:
        cfg_doc = (
            dataclasses.asdict(config)
            if dataclasses.is_dataclass(config)
            else dict(config)
        )
        cfg_doc["fingerprint"] = config_fingerprint(cfg_doc)
    mesh_doc = {
        "ranks": sim.num_ranks,
        "nodes": sim.cluster.num_nodes,
        "gpus_per_node": sim.cluster.gpus_per_node,
    }
    if mesh:
        mesh_doc.update(mesh)
    attribution = None
    if sim.tracer.enabled and sim.tracer.events:
        from repro.obs.critpath import attribution_summary

        attribution = json_safe(attribution_summary(sim))
    return RunRecord(
        kind=kind,
        label=label,
        scheme=scheme,
        seed=seed,
        mesh=mesh_doc,
        config=cfg_doc,
        clock=sim.elapsed(),
        counters={
            "total_flops": sim.total_flops(),
            "total_bytes_comm": sim.total_bytes_comm(),
            "max_weighted_comm_volume": sim.max_weighted_comm_volume(),
            "peak_memory_bytes": int(sim.peak_memory()),
            "max_compute_time": max(d.compute_time for d in sim.devices),
            "max_comm_time": max(d.comm_time for d in sim.devices),
        },
        watermarks=sim.watermarks(),
        metrics=sim.metrics.export(),
        attribution=attribution,
        extra=dict(extra or {}),
    )


class RunLedger:
    """Append-only JSONL store of :class:`RunRecord` lines."""

    def __init__(self, path: str):
        if os.path.isdir(path) or path.endswith(os.sep):
            path = os.path.join(path, DEFAULT_LEDGER_FILE)
        self.path = path

    @classmethod
    def default(cls, root: str = ".") -> "RunLedger":
        return cls(os.path.join(root, DEFAULT_LEDGER_DIR, DEFAULT_LEDGER_FILE))

    @classmethod
    def from_env(cls, var: str = "REPRO_LEDGER") -> Optional["RunLedger"]:
        """A ledger from the environment, or ``None`` when unset/empty."""
        path = os.environ.get(var, "").strip()
        return cls(path) if path else None

    # ------------------------------------------------------------------
    def append(self, record: RunRecord) -> str:
        """Append one record (append-only by construction); returns run_id."""
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(self.path, "a") as f:
            f.write(record.to_line())
            f.write("\n")
        return record.run_id

    def read(self) -> List[RunRecord]:
        """All records, oldest first (missing file reads as empty)."""
        if not os.path.exists(self.path):
            return []
        out: List[RunRecord] = []
        with open(self.path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    out.append(RunRecord.from_json(json.loads(line)))
                except (json.JSONDecodeError, ValueError, TypeError) as exc:
                    raise ValueError(
                        f"{self.path}:{lineno}: corrupt ledger line ({exc})"
                    ) from exc
        return out

    def __len__(self) -> int:
        return len(self.read())

    def kinds(self) -> dict:
        """Record count by kind."""
        counts: dict = {}
        for r in self.read():
            counts[r.kind] = counts.get(r.kind, 0) + 1
        return counts


def latest(records: Iterable[RunRecord], **match) -> Optional[RunRecord]:
    """The most recent record whose attributes equal every ``match`` kwarg."""
    found = None
    for r in records:
        if all(getattr(r, k, None) == v for k, v in match.items()):
            found = r
    return found


# ----------------------------------------------------------------------
# compaction
# ----------------------------------------------------------------------
def _compact_key(record: RunRecord) -> tuple:
    """The identity a compacted ledger keeps one (latest) record for.

    Centered on (config fingerprint, git revision), widened by the fields
    that legitimately distinguish runs of the same config at the same
    revision: kind, scheme, label, mesh shape and arrangement.
    """
    fingerprint = (record.config or {}).get("fingerprint")
    mesh = record.mesh or {}
    key = (
        record.kind,
        record.scheme,
        record.label,
        fingerprint,
        record.git,
        mesh.get("ranks"),
        mesh.get("q"),
        mesh.get("arrangement"),
    )
    if record.kind in ("serve", "serve-chaos"):
        # serve runs of the same config/revision legitimately differ by
        # traffic: keep the newest per (seed, traffic shape), not one overall
        extra = record.extra or {}
        key += (
            record.seed,
            extra.get("arrival"),
            extra.get("num_requests"),
            extra.get("traffic_seed"),
        )
    return key


def compact(ledger, out: Optional[str] = None) -> dict:
    """Rewrite a ledger keeping only the latest record per compaction key.

    ``ledger`` is a :class:`RunLedger` or a path.  Surviving lines are
    preserved **byte-for-byte** (never re-serialized),
    so content-hash ``run_id`` s are stable across compaction, and the
    rewrite is atomic (temp file + ``os.replace``) so a crash mid-compact
    cannot lose the ledger.  Relative order of survivors is unchanged.
    Returns a summary dict: kept/dropped counts and the output path.
    """
    import tempfile

    if isinstance(ledger, str):
        ledger = RunLedger(ledger)
    lines: List[str] = []
    if os.path.exists(ledger.path):
        with open(ledger.path) as f:
            lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    keep_for: dict = {}
    keyed: List[tuple] = []
    for i, line in enumerate(lines):
        record = RunRecord.from_json(json.loads(line))
        key = _compact_key(record)
        keep_for[key] = i  # later lines win
        keyed.append((i, key, line))
    survivors = [line for i, key, line in keyed if keep_for[key] == i]
    target = out or ledger.path
    parent = os.path.dirname(target) or "."
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=".ledger-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            for line in survivors:
                f.write(line)
                f.write("\n")
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return {
        "path": target,
        "read": len(lines),
        "kept": len(survivors),
        "dropped": len(lines) - len(survivors),
    }


def compact_main(
    ledger: Optional[str] = None,
    out: Optional[str] = None,
    dry_run: bool = False,
    printer=print,
) -> int:
    """``python -m repro ledger compact`` driver."""
    led = RunLedger(ledger) if ledger else RunLedger.default()
    if not os.path.exists(led.path):
        printer(f"no ledger at {led.path}; nothing to compact")
        return 1
    if dry_run:
        records = led.read()
        keep: dict = {}
        for i, r in enumerate(records):
            keep[_compact_key(r)] = i
        dropped = len(records) - len(keep)
        printer(
            f"{led.path}: {len(records)} records, would keep {len(keep)}, "
            f"drop {dropped} (dry run; no changes written)"
        )
        return 0
    summary = compact(led, out=out)
    printer(
        f"{summary['path']}: kept {summary['kept']} of {summary['read']} "
        f"records ({summary['dropped']} superseded)"
    )
    return 0
