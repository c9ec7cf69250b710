"""Critical-path analyzer: conservation, determinism, zero-drift, export.

The analyzer's contract is unusual for a profiler: attribution must sum to
the step wall-clock *exactly* (integer nanoseconds, not a tolerance), the
whole document must be byte-stable across identical seeded runs, and the
tracer feeding it must not move a single clock, byte or loss value.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.config import tiny_config
from repro.core.model import OptimusModel
from repro.mesh.mesh import Mesh
from repro.nn.init import init_transformer_params
from repro.obs.critpath import (
    CATEGORIES,
    _SpanIndex,
    attribution_summary,
    build_windows,
    critpath_report,
)
from repro.obs.flamegraph import render_folded, validate_folded
from repro.obs.ledger import canonical_json
from repro.obs.profile import run_profile
from repro.runtime.events import Span, to_ns
from repro.runtime.simulator import Simulator


def _optimus_stem(trace: bool = True, q: int = 2, backend: str = "numpy"):
    cfg = tiny_config(num_layers=2)
    sim = Simulator.for_mesh(q=q, backend=backend, trace=trace)
    dtype = "float32" if backend == "shape" else "float64"
    params = init_transformer_params(cfg, backend=backend, dtype=dtype)
    model = OptimusModel(Mesh(sim, q), cfg, params, stem_only=True)
    model.stem_forward(4)
    model.stem_backward()
    return sim


def _megatron_stem(trace: bool = True, p: int = 2):
    from repro.megatron.model import MegatronModel

    cfg = tiny_config(num_layers=2)
    sim = Simulator.for_flat(p=p, backend="numpy", trace=trace)
    params = init_transformer_params(cfg, backend="numpy", dtype="float64")
    model = MegatronModel(sim, cfg, params, stem_only=True)
    model.stem_forward(4)
    model.stem_backward()
    return sim


def _hybrid_iteration(trace: bool = True, num_replicas: int = 2, q: int = 2):
    from repro.hardware.specs import frontera_rtx
    from repro.hybrid.data_parallel import DataParallel
    from repro.training.data import random_batch

    cfg = tiny_config(num_layers=2)
    total = num_replicas * q * q
    sim = Simulator(
        frontera_rtx(-(-total // 4), 4), num_ranks=total,
        backend="numpy", trace=trace,
    )
    params = init_transformer_params(cfg, seed=0, backend="numpy", dtype="float64")
    dp = DataParallel(sim, cfg, params, num_replicas, q)
    ids, labels = random_batch(cfg, num_replicas * 2, seed=1)
    dp.forward_backward(ids, labels)
    return sim


def _assert_conserved(sim):
    doc = critpath_report(sim)
    assert doc["windows"], "analyzer produced no windows"
    for w in doc["windows"]:
        assert w["conservation_ok"]
        for att in w["per_rank"]:
            assert att["total_ns"] == w["wall_ns"]
            assert sum(att[c + "_ns"] for c in CATEGORIES) == att["total_ns"]
        # the critical path itself also partitions the window exactly
        assert w["critical_path"]["total_ns"] == w["wall_ns"]
    return doc


class TestConservation:
    """Attributed time telescopes to the wall-clock, in exact integers."""

    def test_optimus_stem(self):
        _assert_conserved(_optimus_stem())

    def test_megatron_stem(self):
        _assert_conserved(_megatron_stem())

    def test_hybrid_iteration(self):
        _assert_conserved(_hybrid_iteration())

    def test_summary_flags_conservation(self):
        summary = attribution_summary(_optimus_stem())
        assert summary["conservation_ok"]
        assert summary["schema"] == "repro-critpath-v1"
        assert summary["per_rank_sum"]["total_ns"] == (
            summary["wall_clock_ns"] * 4
        )

    def test_untraced_run_raises(self):
        with pytest.raises(ValueError, match="trace"):
            critpath_report(_optimus_stem(trace=False))


class TestOneAnalysis:
    """Summary, calibration and the rendered table are views of one analysis."""

    def test_summary_and_calibration_skip_the_report_only_work(self, monkeypatch):
        from repro.obs import critpath

        sim = _optimus_stem(backend="shape")
        doc = critpath_report(sim)
        assert doc["windows"][0]["by_layer"], "stem has layer spans"

        def unused(*_a, **_k):
            raise AssertionError("per-layer / per-kind documents are report-only")

        monkeypatch.setattr(critpath, "_aggregate_by", unused)
        monkeypatch.setattr(critpath, "_layer_name", unused)
        summary = attribution_summary(sim)
        calib = critpath.calibration_suggestion(sim, "stem", "optimus")
        assert summary["per_rank_sum"] == doc["totals"]["per_rank_sum"]
        assert summary["critical_path"] == doc["totals"]["critical_path"]
        rows = doc["windows"][0]["bottlenecks"]  # one window: nothing to fold
        assert summary["top_bottlenecks"] == [
            {k: v for k, v in r.items() if k != "kind"} for r in rows[:8]
        ]
        assert sum(r["measured_ns"] for r in calib["kinds"]) == sum(
            r["measured_ns"] for r in rows if r["predicted_ns"]
        )

    def test_merge_folds_windows_once(self):
        from repro.obs.critpath import merge_bottlenecks, render_report
        from repro.obs.profile import run_profile

        doc = critpath_report(run_profile("train"))
        assert doc["num_windows"] == 2
        rows = [r for w in doc["windows"] for r in w["bottlenecks"]]
        before = json.dumps(rows)
        merged = merge_bottlenecks(rows)
        assert json.dumps(rows) == before  # the document's rows are not touched
        for field in ("count", "measured_ns", "predicted_ns"):
            assert sum(r[field] for r in merged) == sum(r[field] for r in rows)
        assert [r["measured_ns"] for r in merged] == sorted(
            (r["measured_ns"] for r in merged), reverse=True
        )
        # the rendered table shows the folded rows, not twice the first window
        top = merged[0]
        line = next(
            ln for ln in render_report(doc).splitlines() if ln.split()[:1] == [top["key"]]
        )
        assert line.split()[1] == str(top["count"])


class TestDeterminism:
    """Two identical seeded runs serialize to identical bytes."""

    def test_report_is_byte_stable(self):
        a = canonical_json(critpath_report(_optimus_stem()))
        b = canonical_json(critpath_report(_optimus_stem()))
        assert a == b

    def test_windows_dag_is_deterministic(self):
        wa = build_windows(_optimus_stem())
        wb = build_windows(_optimus_stem())
        assert len(wa) == len(wb)
        for x, y in zip(wa, wb):
            assert (x.label, x.start_ns, x.end_ns) == (y.label, y.start_ns, y.end_ns)
            assert list(x.timelines) == list(y.timelines)
            for r in x.timelines:
                assert x.timelines[r] == y.timelines[r]

    def test_folded_is_byte_stable(self):
        assert render_folded(_optimus_stem()) == render_folded(_optimus_stem())


class TestZeroDrift:
    """Tracing on vs off changes no clock, byte counter or result."""

    def test_clocks_and_counters_identical(self):
        on, off = _optimus_stem(trace=True), _optimus_stem(trace=False)
        assert on.elapsed() == off.elapsed()
        for a, b in zip(on.devices, off.devices):
            assert a.compute_time == b.compute_time
            assert a.comm_time == b.comm_time
            assert a.bytes_comm == b.bytes_comm
        assert on.peak_memory() == off.peak_memory()

    def test_analysis_does_not_mutate_the_sim(self):
        sim = _optimus_stem()
        before = (sim.elapsed(), len(sim.tracer.events), len(sim.tracer.spans),
                  tuple(d.comm_time for d in sim.devices))
        critpath_report(sim)
        attribution_summary(sim)
        render_folded(sim)
        after = (sim.elapsed(), len(sim.tracer.events), len(sim.tracer.spans),
                 tuple(d.comm_time for d in sim.devices))
        assert before == after


class TestCriticalPath:
    def test_path_is_contiguous_and_backward_justified(self):
        doc = critpath_report(_optimus_stem())
        for w in doc["windows"]:
            cp = w["critical_path"]
            path = cp["segments"]
            assert path, "empty critical path"
            assert not cp["path_truncated"]
            # oldest-first, non-overlapping in time
            for prev, cur in zip(path, path[1:]):
                assert prev["end_ns"] <= cur["start_ns"]
            assert path[-1]["end_ns"] <= w["end_ns"]

    def test_bottlenecks_ranked_with_predictions(self):
        doc = critpath_report(_optimus_stem(backend="shape"))
        rows = doc["windows"][0]["bottlenecks"]
        assert rows
        measured = [r["measured_ns"] for r in rows]
        assert measured == sorted(measured, reverse=True)
        comm = [r for r in rows if r["category"] == "comm"]
        assert comm, "stem has collectives; expected comm bottlenecks"
        for r in comm:
            assert r["predicted_ns"] > 0
            # single-node 2x2 mesh: the solo α–β model is the actual cost
            # model, so measured and predicted agree to ns rounding
            assert r["ratio"] == pytest.approx(1.0, rel=0.05)

    def test_by_kind_covers_collectives(self):
        doc = critpath_report(_optimus_stem())
        kinds = {k for w in doc["windows"] for k in w["by_kind"]}
        assert "broadcast" in kinds and "reduce" in kinds


class TestFoldedFlamegraph:
    def test_output_is_valid_folded_format(self):
        text = render_folded(_optimus_stem())
        assert text
        assert validate_folded(text) is None

    def test_self_times_sum_to_busy_time(self):
        # the serving traces carry request / alert annotations and events that
        # overlap on a rank: rank 0 read 45 384 987 "busy" ns against critpath's
        # 12 529 548 before both readers shared one busy-interval helper
        for sim in (
            _optimus_stem(),
            run_profile("serve", scheme="optimus"),
            run_profile("serve", scheme="megatron"),
        ):
            per_rank: dict = {}
            for line in render_folded(sim).splitlines():
                stack, _, value = line.rpartition(" ")
                frames = stack.split(";")
                assert not any(f.startswith(("request:", "alert:")) for f in frames)
                per_rank[frames[0]] = per_rank.get(frames[0], 0) + int(value)
            # flamegraph is busy-only: each rank's frames sum to its busy ns
            busy: dict = {}
            for w in build_windows(sim):
                for r, segs in w.timelines.items():
                    busy[f"rank{r}"] = busy.get(f"rank{r}", 0) + sum(
                        s.duration_ns for s in segs if s.category != "stall"
                    )
            assert per_rank == busy

    def test_validator_rejects_malformed_lines(self):
        assert validate_folded("a;b notanumber\n") is not None
        assert validate_folded("a;;b 10\n") is not None
        assert validate_folded("onlyframes\n") is not None


class TestCLI:
    def test_json_output_is_byte_stable(self):
        from repro.obs.critpath import main

        outputs = []
        for _ in range(2):
            lines: list = []
            assert main("tiny", as_json=True, printer=lines.append) == 0
            outputs.append("\n".join(lines))
        assert outputs[0] == outputs[1]
        doc = json.loads(outputs[0])
        assert doc["schema"] == "repro-critpath-v1"

    def test_writes_json_and_folded_artifacts(self, tmp_path):
        from repro.obs.critpath import main

        out, folded = tmp_path / "cp.json", tmp_path / "cp.folded"
        rc = main("tiny", out=str(out), folded=str(folded),
                  printer=lambda _m: None)
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["totals"]["per_rank_sum"]["total_ns"] > 0
        assert validate_folded(folded.read_text()) is None


class TestLedgerAttribution:
    def test_stem_record_carries_summary(self, tmp_path):
        from repro.experiments.runner import run_optimus_stem
        from repro.obs.ledger import RunLedger

        led = RunLedger(str(tmp_path / "ledger.jsonl"))
        run_optimus_stem(tiny_config(num_layers=2), 2, 2, ledger=led, trace=True)
        rec = led.read()[-1]
        assert rec.attribution is not None
        assert rec.attribution["conservation_ok"]
        assert rec.attribution["top_bottlenecks"]

    def test_untraced_record_has_no_summary(self, tmp_path):
        from repro.experiments.runner import run_optimus_stem
        from repro.obs.ledger import RunLedger

        led = RunLedger(str(tmp_path / "ledger.jsonl"))
        run_optimus_stem(tiny_config(num_layers=2), 2, 2, ledger=led)
        assert led.read()[-1].attribution is None


class TestLedgerCompact:
    def _fill(self, path) -> list:
        from repro.experiments.runner import run_optimus_stem
        from repro.obs.ledger import RunLedger

        led = RunLedger(str(path))
        cfg = tiny_config(num_layers=2)
        for batch in (2, 2, 4):  # identical batches dedupe to one key
            run_optimus_stem(cfg, 2, batch, ledger=led)
        run_optimus_stem(tiny_config(num_layers=3), 2, 2, ledger=led)
        return led.read()

    def test_keeps_latest_per_key_and_preserves_bytes(self, tmp_path):
        from repro.obs.ledger import compact

        path = tmp_path / "ledger.jsonl"
        before_records = self._fill(path)
        before_lines = path.read_text().splitlines()
        stats = compact(str(path))
        assert stats["read"] == 4
        # batch is not part of the key -> three same-config runs collapse
        assert stats["kept"] == 2 and stats["dropped"] == 2
        after_lines = path.read_text().splitlines()
        assert len(after_lines) == 2
        # surviving lines are byte-identical to their originals, in order
        positions = [before_lines.index(line) for line in after_lines]
        assert positions == sorted(positions)
        assert all(line in before_lines for line in after_lines)
        kept_ids = {json.loads(line)["run_id"] for line in after_lines}
        assert before_records[-1].run_id in kept_ids  # latest survives

    def test_round_trip_and_idempotence(self, tmp_path):
        from repro.obs.ledger import RunLedger, compact

        path = tmp_path / "ledger.jsonl"
        self._fill(path)
        compact(str(path))
        first = path.read_text()
        records = RunLedger(str(path)).read()  # still parses cleanly
        assert all(r.run_id for r in records)
        stats = compact(str(path))
        assert stats["dropped"] == 0
        assert path.read_text() == first

    def test_out_path_leaves_source_untouched(self, tmp_path):
        from repro.obs.ledger import compact

        src = tmp_path / "ledger.jsonl"
        self._fill(src)
        before = src.read_text()
        dst = tmp_path / "compacted.jsonl"
        compact(str(src), out=str(dst))
        assert src.read_text() == before
        assert len(dst.read_text().splitlines()) == 2


class TestCounterRestart:
    """OpenMetrics counter-restart semantics across a checkpoint resume."""

    def _trainer(self):
        from repro.training.data import BatchStream
        from repro.training.trainer import make_serial_trainer

        cfg = tiny_config(num_layers=2)
        return make_serial_trainer(cfg, BatchStream.copy_task(cfg, 4, seed=0),
                                   seed=1)

    def test_counters_survive_resume_monotonically(self, tmp_path):
        from repro.obs.openmetrics import render_registry, validate_openmetrics

        tr = self._trainer()
        tr.train_steps(3)
        steps = tr.metrics.counter("train/steps")
        assert steps.value == 3.0 and steps.created == 0
        path = str(tmp_path / "ck.npz")
        tr.save(path)

        # mid-campaign restart: the fresh process trains a little before
        # resuming, and the restored counter must never move backwards
        tr2 = self._trainer()
        tr2.train_steps(1)
        tr2.resume(path)
        restored = tr2.metrics.counter("train/steps")
        assert restored.value == 3.0  # max(live=1, saved=3)
        assert restored.created == 1  # reset epoch bumped
        text = render_registry(tr2.metrics)
        assert validate_openmetrics(text) == []
        assert "repro_train_steps_created 1" in text.splitlines()

    def test_second_resume_bumps_epoch_again(self, tmp_path):
        tr = self._trainer()
        tr.train_steps(2)
        p1 = str(tmp_path / "a.npz")
        tr.save(p1)
        tr2 = self._trainer()
        tr2.resume(p1)
        tr2.train_steps(2)
        p2 = str(tmp_path / "b.npz")
        tr2.save(p2)
        tr3 = self._trainer()
        tr3.resume(p2)
        c = tr3.metrics.counter("train/steps")
        assert c.value == 4.0
        assert c.created == 2

    def test_validator_accepts_created_and_rejects_other_suffixes(self):
        good = ("# TYPE x counter\nx_total 3\nx_created 1\n# EOF\n")
        bad = "# TYPE x counter\nx_sum 3\n# EOF\n"
        from repro.obs.openmetrics import validate_openmetrics

        assert validate_openmetrics(good) == []
        assert any("must end in" in p for p in validate_openmetrics(bad))


class TestDashIntegration:
    def test_attribution_rows_and_section_render(self, tmp_path):
        from repro.experiments.runner import run_optimus_stem
        from repro.obs.dash import SECTIONS
        from repro.obs.ledger import RunLedger

        led = RunLedger(str(tmp_path / "ledger.jsonl"))
        run_optimus_stem(tiny_config(num_layers=2), 2, 2, ledger=led, trace=True)
        (att,) = [s for s in SECTIONS if getattr(s, "title", None) == "Attribution (critical path)"]
        rows = att.rows(led.read(), {})
        assert len(rows) == 1 and rows[0].attribution["conservation_ok"]
        html_text = att(led.read(), {})
        assert "Attribution" in html_text and "PASS" in html_text

    def test_sparkline_series_keyed_on_git_rev(self):
        from repro.obs.dash import _sparkline, trend_series
        from repro.obs.ledger import RunRecord

        def rec(git, clock):
            return RunRecord(kind="train", scheme="optimus", label="t",
                             clock=clock, git=git)

        _, series = trend_series([rec("aaa", 1.0), rec("aaa", 2.0), rec("bbb", 3.0)])
        # newest value per revision, in first-appearance order
        assert series["clock"] == [("aaa", 2.0), ("bbb", 3.0)]
        svg = _sparkline(series["clock"])
        assert svg.startswith("<svg") and "polyline" in svg


def _linear_scan_enclosing(spans, rank, start_ns, end_ns):
    """The lookup ``_SpanIndex.enclosing`` replaced, kept as its oracle: walk
    back over every earlier-starting span until one still covers the midpoint."""
    mine = sorted(
        (s for s in spans if s.rank == rank),
        key=lambda s: (to_ns(s.t_start), -to_ns(s.t_end)),
    )
    mid = (start_ns + end_ns) // 2
    for s in reversed(mine):
        if to_ns(s.t_start) <= mid <= to_ns(s.t_end):
            return s
    return None


class TestSpanIndex:
    @staticmethod
    def _spans(bounds, rank=0):
        return [
            Span(f"s{i}", "op", rank, a * 1e-9, b * 1e-9, depth=0, sid=i, parent=None)
            for i, (a, b) in enumerate(bounds)
        ]

    @pytest.mark.parametrize(
        "bounds",
        [
            [(0, 100), (10, 40), (15, 20), (50, 90), (60, 70)],  # nested
            [(0, 10), (20, 30), (40, 50), (60, 70)],  # disjoint
            [(0, 100), (0, 50), (0, 10), (0, 10)],  # equal starts (and a twin)
            [(0, 10), (10, 20), (20, 30)],  # touching
            [(0, 30), (5, 40), (35, 60)],  # overlapping, not nested
        ],
        ids=["nested", "disjoint", "equal-start", "touching", "overlapping"],
    )
    def test_matches_linear_scan(self, bounds):
        spans = self._spans(bounds) + self._spans([(0, 5)], rank=1)
        index = _SpanIndex(spans, "op")
        for a in range(-2, 112):
            for width in (0, 1, 7):
                got = index.enclosing(0, a, a + width)
                assert got is _linear_scan_enclosing(spans, 0, a, a + width), (a, width)
        assert index.enclosing(2, 0, 1) is None  # a rank with no spans

    def test_matches_linear_scan_on_a_traced_run(self):
        sim = _optimus_stem()
        spans = [s for s in sim.tracer.spans if s.category == "op"]
        index = _SpanIndex(sim.tracer.spans, "op")
        end = to_ns(sim.elapsed())
        for rank in range(sim.num_ranks):
            for a in range(0, end, max(1, end // 400)):
                assert index.enclosing(rank, a, a + 3) is _linear_scan_enclosing(
                    spans, rank, a, a + 3
                )


def test_mean_over_categories_matches_numpy():
    """CATEGORIES covers the full attribution split (guards tuple edits)."""
    doc = critpath_report(_optimus_stem())
    att = doc["windows"][0]["per_rank"][0]
    parts = np.array([att[c + "_ns"] for c in CATEGORIES], dtype=np.int64)
    assert int(parts.sum()) == att["total_ns"]
