"""Run ledger, OpenMetrics exporter, claims scorecard and dashboard.

Covers the PR's hard guarantees: append-only storage, byte-deterministic
records, zero numeric/clock drift with the ledger enabled, OpenMetrics
grammar conformance, claim verdicts with measured-vs-predicted ratios,
and the satellite fixes (empty-histogram errors, byte-stable snapshots,
comm-matrix reconciliation under fault injection with retries).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib

import numpy as np
import pytest

from repro.config import tiny_config
from repro.obs.ledger import (
    RunLedger,
    RunRecord,
    canonical_json,
    config_fingerprint,
    json_safe,
    latest,
    record_from_sim,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.openmetrics import (
    bucket_bounds,
    render_export,
    render_registry,
    validate_openmetrics,
)


def _tiny_trainer(ledger=None, steps_seed=0):
    from repro.core.model import OptimusModel
    from repro.mesh.mesh import Mesh
    from repro.nn.init import init_transformer_params
    from repro.runtime.simulator import Simulator
    from repro.training.data import BatchStream
    from repro.training.optim import Adam
    from repro.training.trainer import Trainer

    cfg = tiny_config(num_layers=2)
    sim = Simulator.for_mesh(q=2)
    model = OptimusModel(Mesh(sim, 2), cfg, init_transformer_params(cfg, seed=1))
    return Trainer(
        model,
        Adam(model.parameters(), lr=1e-2),
        BatchStream.copy_task(cfg, 4, seed=steps_seed),
        ledger=ledger,
        run_label="test-train",
        seed=steps_seed,
    )


@pytest.fixture(scope="module")
def evidence_ledger(tmp_path_factory):
    """One fully-collected ledger shared by the claims/dash tests."""
    from repro.obs.dash import collect

    path = tmp_path_factory.mktemp("ledger") / "ledger.jsonl"
    led = RunLedger(str(path))
    collect(led, printer=lambda _: None)
    return led


# ----------------------------------------------------------------------
# RunRecord
# ----------------------------------------------------------------------
class TestRunRecord:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        lines = []
        for _ in range(2):
            trainer = _tiny_trainer()
            trainer.train_steps(3)
            lines.append(trainer.ledger_record().to_line())
        assert lines[0] == lines[1]

    def test_run_id_is_a_content_hash(self):
        r1 = RunRecord(kind="train", label="a", git="abc")
        r2 = RunRecord(kind="train", label="a", git="abc")
        r3 = RunRecord(kind="train", label="b", git="abc")
        assert r1.run_id == r2.run_id
        assert r1.run_id != r3.run_id
        assert len(r1.run_id) == 16

    def test_git_revision_forks_once_per_process(self, monkeypatch):
        import subprocess

        from repro.obs import ledger

        calls = []
        real = subprocess.run

        def counting_run(*args, **kw):
            calls.append(args)
            return real(*args, **kw)

        ledger.git_revision.cache_clear()
        monkeypatch.setattr(subprocess, "run", counting_run)
        r1 = RunRecord(kind="train")
        r2 = RunRecord(kind="chaos")
        assert len(calls) == 1
        assert r1.git == r2.git

    def test_round_trip(self):
        r = RunRecord(kind="chaos", label="suite", extra={"x": 1})
        doc = json.loads(r.to_line())
        back = RunRecord.from_json(doc)
        assert back == r

    def test_unknown_kind_and_fields_rejected(self):
        for kind in ("nonsense", "bench"):  # "bench" left with the wall-clock gate
            with pytest.raises(ValueError, match="unknown run kind"):
                RunRecord(kind=kind)
        with pytest.raises(ValueError, match="unknown ledger record fields"):
            RunRecord.from_json(
                {"kind": "train", "schema": "repro-ledger-v1", "bogus": 1}
            )
        with pytest.raises(ValueError, match="schema"):
            RunRecord.from_json({"kind": "train", "schema": "other-v9"})

    def test_json_safe_scrubs_nonfinite_and_numpy(self):
        doc = json_safe(
            {
                "nan": float("nan"),
                "inf": float("inf"),
                "np": np.float64(1.5),
                "nested": [np.int64(3), {"x": float("-inf")}],
            }
        )
        assert doc == {"nan": None, "inf": None, "np": 1.5, "nested": [3, {"x": None}]}
        canonical_json(doc)  # must not raise (allow_nan=False)

    def test_config_fingerprint_stable_and_sensitive(self):
        cfg = tiny_config(num_layers=2)
        assert config_fingerprint(cfg) == config_fingerprint(tiny_config(num_layers=2))
        assert config_fingerprint(cfg) != config_fingerprint(tiny_config(num_layers=4))

    def test_record_from_sim_reads_counters(self):
        trainer = _tiny_trainer()
        trainer.train_steps(2)
        rec = record_from_sim("train", trainer.sim, label="x", scheme="optimus")
        assert rec.clock == trainer.sim.elapsed()
        assert rec.counters["peak_memory_bytes"] == int(trainer.sim.peak_memory())
        assert len(rec.watermarks) == trainer.sim.num_ranks
        assert rec.counters["total_bytes_comm"] > 0
        ranks = [w["rank"] for w in rec.watermarks]
        assert ranks == sorted(ranks)


# ----------------------------------------------------------------------
# RunLedger storage
# ----------------------------------------------------------------------
class TestRunLedger:
    def test_append_only(self, tmp_path):
        led = RunLedger(str(tmp_path / "ledger.jsonl"))
        led.append(RunRecord(kind="train", label="first", git="x"))
        before = open(led.path, "rb").read()
        led.append(RunRecord(kind="chaos", label="second", git="x"))
        after = open(led.path, "rb").read()
        assert after.startswith(before)  # earlier lines are never rewritten
        assert len(led) == 2
        assert led.kinds() == {"train": 1, "chaos": 1}

    def test_directory_path_resolves_to_default_file(self, tmp_path):
        led = RunLedger(str(tmp_path) + os.sep)
        assert led.path.endswith("ledger.jsonl")

    def test_corrupt_line_raises_with_location(self, tmp_path):
        led = RunLedger(str(tmp_path / "ledger.jsonl"))
        led.append(RunRecord(kind="train", git="x"))
        with open(led.path, "a") as f:
            f.write("{not json\n")
        with pytest.raises(ValueError, match=r"ledger\.jsonl:2"):
            led.read()

    def test_latest_matches_attributes(self, tmp_path):
        records = [
            RunRecord(kind="train", label="a", git="x"),
            RunRecord(kind="chaos", label="b", git="x"),
            RunRecord(kind="train", label="c", git="x"),
        ]
        found = latest(records, kind="train")
        assert found.label == "c"
        assert latest(records, kind="serve") is None

    def test_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert RunLedger.from_env() is None
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "l.jsonl"))
        assert RunLedger.from_env().path == str(tmp_path / "l.jsonl")


# ----------------------------------------------------------------------
# zero drift: the ledger must be a pure observer
# ----------------------------------------------------------------------
class TestZeroDrift:
    def test_losses_and_clocks_identical_with_ledger_on(self, tmp_path):
        off = _tiny_trainer(ledger=None)
        log_off = off.train_steps(5)

        led = RunLedger(str(tmp_path / "ledger.jsonl"))
        on = _tiny_trainer(ledger=led)
        log_on = on.train_steps(5)

        assert log_on.losses == log_off.losses  # bit-identical, not approx
        assert on.sim.elapsed() == off.sim.elapsed()
        assert log_on.step_times == log_off.step_times
        assert len(led) == 1
        rec = led.read()[0]
        assert rec.kind == "train" and rec.scheme == "optimus"
        assert rec.extra["losses"] == log_off.losses
        assert rec.clock == off.sim.elapsed()

    def test_resilient_trainer_appends_record(self, tmp_path):
        from repro.resilience.chaos import _make_trainer

        led = RunLedger(str(tmp_path / "ledger.jsonl"))
        trainer = _make_trainer(
            "megatron", tiny_config(num_layers=2), 0, resilient=True, ledger=led
        )
        trainer.train_steps(2)
        (rec,) = led.read()
        assert rec.kind == "train" and rec.scheme == "megatron"


# ----------------------------------------------------------------------
# pipeline runs write ledger records like every other scheme
# ----------------------------------------------------------------------
def _pipeline_trainer(ledger=None, schedule="1f1b"):
    from repro.training.data import BatchStream
    from repro.training.trainer import make_pipeline_trainer

    cfg = tiny_config(num_layers=2)
    return make_pipeline_trainer(
        cfg,
        BatchStream.copy_task(cfg, 4, seed=0),
        schedule=schedule,
        num_micro_batches=2,
        num_stages=2,
        seed=1,
        ledger=ledger,
        run_label=f"test-pipeline-{schedule}",
    )


class TestPipelineLedger:
    def test_pipeline_trainer_appends_scheme_tagged_record(self, tmp_path):
        led = RunLedger(str(tmp_path / "ledger.jsonl"))
        trainer = _pipeline_trainer(ledger=led)
        trainer.train_steps(3)
        (rec,) = led.read()
        assert rec.kind == "train" and rec.scheme == "pipeline"
        assert rec.extra["pipeline"] == {
            "schedule": "1f1b",
            "num_stages": 2,
            "num_micro_batches": 2,
        }
        assert rec.clock == trainer.sim.elapsed()
        assert rec.counters["total_bytes_comm"] > 0  # p2p activations charged

    def test_pipeline_records_are_byte_identical(self, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        lines = []
        for _ in range(2):
            trainer = _pipeline_trainer()
            trainer.train_steps(2)
            lines.append(trainer.ledger_record().to_line())
        assert lines[0] == lines[1]

    def test_gpipe_and_1f1b_records_are_distinct(self, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        recs = {}
        for schedule in ("gpipe", "1f1b"):
            trainer = _pipeline_trainer(schedule=schedule)
            trainer.train_steps(2)
            recs[schedule] = trainer.ledger_record()
        assert recs["gpipe"].run_id != recs["1f1b"].run_id
        # identical numerics: the schedules differ only in ordering/memory
        assert recs["gpipe"].extra["losses"] == recs["1f1b"].extra["losses"]

    def test_trainer_honors_repro_ledger_env(self, tmp_path, monkeypatch):
        path = tmp_path / "env-ledger.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(path))
        trainer = _pipeline_trainer()  # no explicit ledger: env wiring
        trainer.train_steps(2)
        (rec,) = RunLedger(str(path)).read()
        assert rec.kind == "train" and rec.scheme == "pipeline"
        assert rec.extra["pipeline"]["schedule"] == "1f1b"

    def test_zero_drift_with_pipeline_ledger_on(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        off = _pipeline_trainer()
        log_off = off.train_steps(3)
        led = RunLedger(str(tmp_path / "ledger.jsonl"))
        on = _pipeline_trainer(ledger=led)
        log_on = on.train_steps(3)
        assert log_on.losses == log_off.losses  # bit-identical, not approx
        assert on.sim.elapsed() == off.sim.elapsed()
        assert len(led) == 1


# ----------------------------------------------------------------------
# producers: chaos / experiments
# ----------------------------------------------------------------------
class TestProducers:
    def test_stem_runner_appends_experiment_record(self, tmp_path):
        from repro.experiments.runner import run_optimus_stem

        led = RunLedger(str(tmp_path / "ledger.jsonl"))
        cfg = tiny_config(num_layers=2)
        res = run_optimus_stem(cfg, 2, 4, ledger=led, run_label="unit")
        (rec,) = led.read()
        assert rec.kind == "experiment" and rec.scheme == "optimus"
        assert rec.extra["workload"] == "stem"
        assert rec.extra["result"]["peak_memory_bytes"] == res.peak_memory_bytes
        assert rec.mesh["q"] == 2
        assert rec.config["fingerprint"] == config_fingerprint(cfg)


# ----------------------------------------------------------------------
# OpenMetrics exporter + validator
# ----------------------------------------------------------------------
class TestOpenMetrics:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("steps", scheme="optimus").inc(5)
        reg.gauge("mem/peak", rank=0).set(2.5e9)
        h = reg.histogram("step_time")
        for i in range(10):
            h.observe(0.01 * (i + 1))
        return reg

    def test_registry_render_is_valid(self):
        text = render_registry(self._registry())
        assert validate_openmetrics(text) == []
        assert "# TYPE repro_steps counter" in text
        assert 'repro_steps_total{scheme="optimus"} 5' in text
        assert 'repro_step_time_bucket{le="+Inf"} 10' in text
        assert text.rstrip().endswith("# EOF")

    def test_truncated_histogram_keeps_true_count_in_inf_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("t")
        h.max_samples = 4
        for i in range(100):
            h.observe(float(i + 1))
        text = render_registry(reg)
        assert validate_openmetrics(text) == []
        assert 'repro_t_bucket{le="+Inf"} 100' in text
        assert "repro_t_count 100" in text

    def test_export_render_is_valid_summary(self):
        entries = self._registry().export()
        text = render_export(entries, extra_labels={"run_id": "abc", "kind": "train"})
        assert validate_openmetrics(text) == []
        assert "# TYPE repro_step_time summary" in text
        assert 'quantile="0.5"' in text and 'quantile="0.99"' in text

    def test_render_deterministic_across_insertion_order(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x", rank=0).inc()
        a.counter("x", rank="all").inc()
        a.gauge("y").set(1)
        b.gauge("y").set(1)
        b.counter("x", rank="all").inc()
        b.counter("x", rank=0).inc()
        assert render_registry(a) == render_registry(b)

    def test_validator_catches_grammar_violations(self):
        assert validate_openmetrics("") != []  # no EOF
        bad = "orphan_metric 1\n# EOF"
        assert any("no preceding TYPE" in p for p in validate_openmetrics(bad))
        bad = "# TYPE c counter\nc 1\n# EOF"
        assert any("_total" in p for p in validate_openmetrics(bad))
        bad = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\nh_bucket{le="2"} 3\nh_bucket{le="+Inf"} 5\n'
            "h_sum 9\nh_count 5\n# EOF"
        )
        assert any("not cumulative" in p for p in validate_openmetrics(bad))
        bad = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 3\nh_bucket{le="+Inf"} 3\nh_sum 2\nh_count 7\n# EOF'
        )
        assert any("_count" in p for p in validate_openmetrics(bad))

    def test_bucket_bounds_ladder(self):
        bounds = bucket_bounds(1.0, 256.0)
        assert bounds[0] == 1.0 and bounds[-1] == 256.0
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
        # zero-crossing data falls back to a linear ladder
        linear = bucket_bounds(-4.0, 4.0)
        assert linear[0] == -4.0 and linear[-1] == 4.0
        steps = [b - a for a, b in zip(linear, linear[1:])]
        assert all(math.isclose(s, steps[0]) for s in steps)
        assert bucket_bounds(3.0, 3.0) == [3.0]


# ----------------------------------------------------------------------
# paper-claims scorecard
# ----------------------------------------------------------------------
class TestClaims:
    def test_scorecard_on_empty_ledger_reports_no_evidence(self):
        from repro.obs.claims import scorecard

        card = scorecard([])
        assert card["num_no_evidence"] == len(card["claims"]) == 9
        assert card["num_fail"] == 0 and card["ok"]

    def test_all_claims_pass_on_collected_evidence(self, evidence_ledger):
        from repro.obs.claims import render, scorecard

        card = scorecard(evidence_ledger.read())
        assert card["ok"] and card["num_fail"] == 0
        assert card["num_pass"] == 9
        by = {c["claim"]: c for c in card["claims"]}
        for c in by.values():
            lo, hi = c["band"]
            assert lo <= c["ratio"] <= hi
            assert c["evidence"]
        # calibrated landmarks: memory tracks the allocator, the growth
        # advantage exists, speedups land near the paper's
        assert by["memory-scaling/optimus/p64"]["ratio"] == pytest.approx(1.0, abs=0.05)
        assert by["isoefficiency"]["measured"] > 1.0
        assert by["speedup-training"]["measured"] == pytest.approx(1.35, abs=0.15)
        assert by["speedup-inference"]["measured"] == pytest.approx(1.60, abs=0.15)
        assert by["strong-scaling"]["measured"] > 1.0
        assert by["arrangement"]["measured"] > 1.0
        assert "scorecard" in render(card).lower()

    def test_committed_ledger_scorecard_is_pinned(self):
        """Every byte of the committed evidence's scorecard: claim order,
        titles, details, float values and evidence order."""
        from repro.obs.claims import render, scorecard

        root = pathlib.Path(__file__).resolve().parents[1]
        card = scorecard(RunLedger(str(root / "benchmarks" / "ledger")).read())
        assert card["num_pass"] == 9

        def sha(text: str) -> str:
            return hashlib.sha256(text.encode()).hexdigest()

        assert sha(canonical_json(card)) == (
            "e4abfcbde77c0073b5628fdc98b90c7e0885b4212b6f2656b194f8a737de254a"
        )
        assert sha(render(card)) == (
            "46efddb42e30bd1a225d6c5fab4052f8344b09fac3ea5531cd9cfeee8100cb36"
        )

    def test_ensure_claim_records_is_idempotent(self, evidence_ledger):
        from repro.obs.claims import ensure_claim_records

        n = len(evidence_ledger.read())
        assert ensure_claim_records(evidence_ledger) == []
        assert len(evidence_ledger.read()) == n


# ----------------------------------------------------------------------
# dashboard
# ----------------------------------------------------------------------
class TestDash:
    def test_collect_covers_all_required_kinds(self, evidence_ledger):
        kinds = evidence_ledger.kinds()
        assert kinds.get("train", 0) >= 1
        assert kinds.get("chaos", 0) >= 1
        assert kinds.get("experiment", 0) >= 4
        assert kinds.get("serve", 0) >= 1
        assert kinds.get("serve-chaos", 0) >= 1
        schedules = {
            r.extra["pipeline"]["schedule"]
            for r in evidence_ledger.read()
            if r.scheme == "pipeline"
        }
        assert schedules == {"gpipe", "1f1b"}

    def test_dash_main_renders_html_and_openmetrics(self, evidence_ledger, tmp_path):
        from repro.obs.dash import main as dash_main

        out = tmp_path / "dash.html"
        om = tmp_path / "metrics.txt"
        rc = dash_main(
            ledger=evidence_ledger.path,
            out=str(out),
            openmetrics_out=str(om),
            no_collect=True,
            printer=lambda _: None,
        )
        assert rc == 0
        html = out.read_text()
        for section in (
            "Paper-claims scorecard",
            "Attribution (critical path)",
            "Serving",
            "Serving latency vs offered load",
            "Alerts",
            "Serving under chaos",
            "Trends across ledger records",
            "Run ledger",
        ):
            assert section in html, section
        assert "<svg " in html  # inline charts, no JS
        assert "<script" not in html
        for rec in evidence_ledger.read():
            assert rec.run_id in html
        assert validate_openmetrics(om.read_text()) == []

    def test_collected_ledger_fills_the_row_sections(self, evidence_ledger):
        from repro.obs.dash import SECTIONS

        records = evidence_ledger.read()
        tables = {s.title: s for s in SECTIONS if hasattr(s, "title")}
        att = tables["Attribution (critical path)"].rows(records, {})
        assert att and all(r.attribution["conservation_ok"] for r in att)
        assert tables["Serving"].rows(records, {})
        chaos = tables["Serving under chaos"].rows(records, {})
        assert chaos and all(r.extra["token_identical"] for r in chaos)

    def test_committed_dashboard_is_the_render_of_the_committed_ledger(self, monkeypatch):
        """``benchmarks/ledger/dash.html`` and ``metrics.txt`` are the
        dashboard of ``ledger.jsonl``, byte for byte, at the revision the
        page names."""
        import repro.obs.ledger as ledger_mod
        from repro.obs.claims import scorecard
        from repro.obs.dash import render_html, render_openmetrics_for_records

        root = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "ledger"
        monkeypatch.setattr(ledger_mod, "git_revision", lambda cwd=None: "9e860b5d725a")
        records = RunLedger(str(root)).read()
        assert render_html(records, scorecard(records)) == (root / "dash.html").read_text()
        assert render_openmetrics_for_records(records) == (root / "metrics.txt").read_text()

    def test_a_ledger_with_every_section_renders_pinned_bytes(self, tmp_path, monkeypatch):
        """A traced stem, a quick serve, a two-rate sweep, the alerting
        overload run and a serving chaos campaign fill every table and
        chart; the page and the OpenMetrics text are pinned (records at two
        revisions, so the sparklines have two points).  A change to any of
        those runs' records moves the pins too."""
        import dataclasses

        import repro.obs.ledger as ledger_mod
        from repro.experiments.runner import run_optimus_stem
        from repro.obs.claims import scorecard
        from repro.obs.dash import render_html, render_openmetrics_for_records
        from repro.serving.chaos import run_serve_chaos
        from repro.serving.report import run_serve, run_sweep

        led = RunLedger(str(tmp_path / "ledger.jsonl"))
        run_optimus_stem(tiny_config(num_layers=2), 2, 2, ledger=led, trace=True)
        run_serve(0, quick=True, requests=6, ledger=led)
        run_sweep(
            0, rates=(500.0, 4000.0), quick=True, requests=6, schemes=("optimus",), ledger=led
        )
        overload = dict(quick=True, rate_rps=8000.0, requests=24, schemes=("optimus",))
        run_serve(0, alerts=True, ledger=led, **overload)
        run_serve_chaos(0, quick=True, schemes=("optimus",), ledger=led)
        records = led.read()
        half = len(records) // 2
        records = [
            dataclasses.replace(r, git="aaaaaaaaaaaa" if i < half else "bbbbbbbbbbbb")
            for i, r in enumerate(records)
        ]
        monkeypatch.setattr(ledger_mod, "git_revision", lambda cwd=None: "cccccccccccc")

        def sha(text: str) -> str:
            return hashlib.sha256(text.encode()).hexdigest()

        page = render_html(records, scorecard(records))
        for title in ("Attribution (critical path)", "Serving", "Alerts", "Serving under chaos"):
            assert f"<h2>{title}</h2><p class='muted'>no " not in page, title
        assert "no sweep points yet" not in page
        assert sha(page) == "2f79f5d3c4d9b42cc6fb700d6595092b5ac9d227ced35e1ce9583bd6f558d73e"
        assert sha(render_openmetrics_for_records(records)) == (
            "66957f9bccc7323c42122279bbec16d70c938083f91fd69c4b7b2e312290692c"
        )

    def test_dash_refuses_empty_ledger_without_collect(self, tmp_path):
        from repro.obs.dash import main as dash_main

        rc = dash_main(
            ledger=str(tmp_path / "empty.jsonl"),
            no_collect=True,
            printer=lambda _: None,
        )
        assert rc == 1


# ----------------------------------------------------------------------
# satellite: empty-histogram errors and snapshot determinism
# ----------------------------------------------------------------------
class TestHistogramEmptyErrors:
    def test_mean_names_the_metric(self):
        h = MetricsRegistry().histogram("latency/step")
        with pytest.raises(ValueError, match="latency/step.*empty"):
            _ = h.mean

    def test_percentile_names_the_metric(self):
        h = MetricsRegistry().histogram("latency/step")
        with pytest.raises(ValueError, match="latency/step.*empty"):
            h.percentile(50)

    def test_percentile_range_check_comes_first(self):
        h = MetricsRegistry().histogram("x")
        with pytest.raises(ValueError, match=r"outside \[0, 100\]"):
            h.percentile(150)

    def test_snapshot_of_empty_histogram_still_works(self):
        reg = MetricsRegistry()
        reg.histogram("empty")
        assert reg.snapshot()["empty"]["count"] == 0

    def test_values_restore_normal_behavior(self):
        h = MetricsRegistry().histogram("x")
        h.observe(2.0)
        h.observe(4.0)
        assert h.mean == 3.0
        assert h.percentile(100) == 4.0


class TestSnapshotDeterminism:
    def test_snapshot_byte_stable_across_insertion_orders(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c", scheme="optimus", rank=1).inc(2)
        a.gauge("g", rank="all").set(7)
        a.gauge("g", rank=0).set(3)
        b.gauge("g", rank=0).set(3)
        b.gauge("g", rank="all").set(7)
        b.counter("c", rank=1, scheme="optimus").inc(2)  # kwargs reordered
        sa, sb = a.snapshot(), b.snapshot()
        assert list(sa) == list(sb)
        assert canonical_json(sa) == canonical_json(sb)

    def test_mixed_type_label_values_do_not_raise(self):
        reg = MetricsRegistry()
        reg.gauge("g", rank=0).set(1)
        reg.gauge("g", rank="all").set(2)
        snap = reg.snapshot()  # sorting mixed int/str label values
        assert "g{rank=0}" in snap and "g{rank=all}" in snap
        assert [e["labels"] for e in reg.export()] == [{"rank": 0}, {"rank": "all"}]


# ----------------------------------------------------------------------
# satellite: comm-matrix reconciliation under fault injection
# ----------------------------------------------------------------------
class TestFaultInjectionReconciliation:
    def test_retried_collectives_still_reconcile(self):
        """Flaky-collective retries re-run the real collective, so every
        retried byte must appear in both the device counters and the trace
        the comm matrix is built from — the totals reconcile exactly."""
        from repro.obs.comm_matrix import comm_matrix, row_sums
        from repro.obs.comm_matrix import total as matrix_total
        from repro.resilience.chaos import _make_trainer
        from repro.resilience.faults import FaultSchedule, TransientCollectiveFault
        from repro.resilience.injector import FaultInjector

        schedule = FaultSchedule.of(
            TransientCollectiveFault(step=1, index=1, kind="reduce", fails=2, mode="flaky"),
            TransientCollectiveFault(step=3, index=2, kind="reduce", fails=1, mode="flaky"),
        )
        injector = FaultInjector(schedule, seed=7)
        trainer = _make_trainer(
            "optimus", tiny_config(num_layers=2), 7,
            resilient=True, trace=True, injector=injector,
        )
        trainer.train_steps(4)
        assert injector.stats["retries"] >= 3  # the faults actually fired
        sim = trainer.sim
        mat = comm_matrix(sim)
        for r, s in enumerate(row_sums(mat)):
            assert s == pytest.approx(sim.device(r).bytes_comm, rel=1e-12)
        assert matrix_total(mat) == pytest.approx(sim.total_bytes_comm(), rel=1e-12)

    def test_retry_bytes_exceed_fault_free_run(self):
        from repro.resilience.chaos import _make_trainer
        from repro.resilience.faults import FaultSchedule, TransientCollectiveFault
        from repro.resilience.injector import FaultInjector

        clean = _make_trainer("optimus", tiny_config(num_layers=2), 7)
        clean.train_steps(4)

        injector = FaultInjector(
            FaultSchedule.of(
                TransientCollectiveFault(
                    step=1, index=1, kind="reduce", fails=2, mode="flaky"
                )
            ),
            seed=7,
        )
        chaos = _make_trainer(
            "optimus", tiny_config(num_layers=2), 7, resilient=True, injector=injector
        )
        log = chaos.train_steps(4)
        # same trajectory, more bytes: the retries are charged, not hidden
        assert log.losses == clean.log.losses
        assert chaos.sim.total_bytes_comm() > clean.sim.total_bytes_comm()
