"""The observability stack: hierarchical spans, Perfetto export, the
communication matrix, the metrics registry, memory timelines, and the
``repro profile`` CLI.

The two load-bearing invariants, from the issue's acceptance criteria:

* tracing changes *nothing* — numeric results and every cost counter are
  identical with tracing on or off, under both backends;
* the exported artifacts reconcile — comm-matrix row sums equal the
  per-device byte counters, Perfetto timestamps are monotonic per track.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.comm.collectives import send_recv
from repro.config import ModelConfig, tiny_config
from repro.core.buffers import BufferManager
from repro.core.model import OptimusModel
from repro.experiments import runner
from repro.mesh.mesh import Mesh
from repro.nn.init import init_transformer_params
from repro.obs.comm_matrix import comm_matrix, row_sums
from repro.obs.comm_matrix import total as matrix_total
from repro.obs.metrics import MetricsRegistry
from repro.obs.perfetto import chrome_trace, write_chrome_trace
from repro.runtime.analysis import collective_stats, rank_activity
from repro.runtime.events import NULL_SPAN, Tracer
from repro.runtime.simulator import Simulator
from repro.serving import report as serving_report


def _serve_arm() -> None:
    knobs = dict(serving_report.DEFAULTS, **serving_report.QUICK)
    harness = serving_report.Harness(0, knobs, None)
    trace = harness.traffic("poisson", knobs["rate_rps"], knobs["requests"]).generate()
    harness.arm("optimus", trace, "poisson")


_STEM_CFG = ModelConfig(vocab_size=64, hidden_size=64, num_heads=16, num_layers=3, seq_len=8)
#: untraced runs whose final registry is pinned
_PINNED_RUNS = {
    "optimus-stem": lambda: runner.run_optimus_stem(_STEM_CFG, 4, 8),
    "megatron-stem": lambda: runner.run_megatron_stem(_STEM_CFG, 16, 4),
    "serve-arm": _serve_arm,
}
#: sha256 of each run's ``snapshot()`` and ``export()`` (as JSON) and
#: ``render()``, taken while each arena growth still wrote its gauge
PINNED_METRICS = {
    "optimus-stem": [
        "c3dab10ce7013a696153273e6d06639a9052c895d169a91ef69139e0576ba4fc",
        "42666d6d43bfbe670703f7df673df352b26ecd0298bf1da7e8a4225a39688317",
        "57e4f796c4404395bf6ab74dace1e41e65fc343602b9eb36ffaeb4662fce1133",
    ],
    "megatron-stem": [
        "72218fc32842dd4fb13d999e1ccba607eca3a6498bc2ebcd2db22ef06434d0f2",
        "faf828f61f2f79baebe764b6ec93f8f85a6834441aebc9170d081cc3f470c593",
        "a4bfb38d443669d9247ba5a44b60b78e7d9ab200d6170e95f4ef3bbe6ae65c92",
    ],
    "serve-arm": [
        "690ccbbbeda51ada2ddd2018f4bc8afca87eb8280cfa914ba03cb59a9b6bd3c5",
        "da661a6cf0efc3c5668ec33ad99989a58561a480067dc095595bd2c29e2a8986",
        "2f7d53634a6d9d0b9dc7a38c383644a4aff7dcd12ae7f14afb343f68d9a22c20",
    ],
}


def _traced_stem(backend: str, trace: bool = True, q: int = 2):
    """One forward+backward of a 2-layer Optimus stem."""
    cfg = tiny_config(num_layers=2)
    params = init_transformer_params(
        cfg, backend=backend, include_embedding=False,
        **({"seed": 1} if backend == "numpy" else {}),
    )
    sim = Simulator.for_mesh(q=q, backend=backend, trace=trace)
    model = OptimusModel(Mesh(sim, q), cfg, params, stem_only=True)
    model.stem_forward(4)
    model.stem_backward()
    return sim


class TestSpans:
    def test_spans_nest_and_close(self):
        sim = _traced_stem("numpy")
        tr = sim.tracer
        assert tr.open_span_count == 0  # everything closed
        assert tr.spans, "no spans recorded"
        # the stem produces layer > summa op > summa_step nesting
        assert {s.category for s in tr.spans} >= {"layer", "op", "summa"}
        assert tr.max_depth() >= 3
        # parent links resolve and parents strictly contain children
        by_sid = {}
        for s in tr.spans:
            by_sid.setdefault(s.sid, {})[s.rank] = s
        for s in tr.spans:
            if s.parent is None:
                continue
            parent = by_sid[s.parent][s.rank]
            assert parent.depth == s.depth - 1
            assert parent.t_start <= s.t_start
            assert parent.t_end >= s.t_end

    def test_backends_record_identical_span_timings(self):
        """Full model forward+backward: both backends trace the same spans
        at the same simulated clocks (float32 on both sides — the stem
        helper's synthetic input is float64 numeric / float32 dryrun, so
        the full model with a shared dtype is the apples-to-apples case)."""
        from repro.backend.shape_array import ShapeArray

        cfg = tiny_config(num_layers=2)
        tracers = {}
        for backend in ("numpy", "shape"):
            sim = Simulator.for_mesh(q=2, backend=backend, trace=True)
            params = init_transformer_params(cfg, seed=1, backend=backend,
                                             dtype="float32")
            model = OptimusModel(Mesh(sim, 2), cfg, params,
                                 checkpoint_activations=True)
            if backend == "numpy":
                rng = np.random.default_rng(0)
                ids = rng.integers(0, cfg.vocab_size, size=(4, cfg.seq_len))
                labels = rng.integers(0, cfg.vocab_size, size=(4, cfg.seq_len))
            else:
                ids = ShapeArray((4, cfg.seq_len), "int64")
                labels = ShapeArray((4, cfg.seq_len), "int64")
            model.forward(ids, labels)
            model.backward()
            tracers[backend] = sim.tracer
        numeric, dryrun = tracers["numpy"], tracers["shape"]
        assert len(numeric.spans) == len(dryrun.spans)
        for a, b in zip(numeric.spans, dryrun.spans):
            assert (a.name, a.category, a.rank, a.depth, a.sid) == (
                b.name, b.category, b.rank, b.depth, b.sid
            )
            assert a.t_start == pytest.approx(b.t_start, rel=1e-12)
            assert a.t_end == pytest.approx(b.t_end, rel=1e-12)

    def test_span_records_per_rank_clocks(self):
        sim = _traced_stem("numpy")
        for s in sim.tracer.spans:
            assert s.t_end >= s.t_start >= 0.0

    def test_misnested_spans_raise(self):
        tr = Tracer(enabled=True)
        outer = tr.span("outer", [0]).__enter__()
        inner = tr.span("inner", [0]).__enter__()
        with pytest.raises(RuntimeError, match="out of order"):
            outer.__exit__(None, None, None)
        inner.__exit__(None, None, None)
        outer.__exit__(None, None, None)
        assert tr.open_span_count == 0

    def test_disabled_tracer_returns_null_span(self):
        tr = Tracer(enabled=False)
        assert tr.span("anything", [0, 1]) is NULL_SPAN
        with tr.span("anything", [0, 1]):
            pass
        assert tr.spans == [] and tr.events == []

    def test_spans_of_filters(self):
        sim = _traced_stem("numpy")
        layers = sim.tracer.spans_of(category="layer")
        assert layers and all(s.category == "layer" for s in layers)
        r0 = sim.tracer.spans_of(category="layer", rank=0)
        assert r0 and all(s.rank == 0 for s in r0)


class TestTracingIsFree:
    def test_tracing_changes_no_numbers(self):
        """Acceptance criterion: every counter identical with tracing on/off."""
        for backend in ("numpy", "shape"):
            on = _traced_stem(backend, trace=True)
            off = _traced_stem(backend, trace=False)
            assert on.elapsed() == off.elapsed()
            assert on.total_flops() == off.total_flops()
            assert on.total_bytes_comm() == off.total_bytes_comm()
            assert on.peak_memory() == off.peak_memory()
            for d_on, d_off in zip(on.devices, off.devices):
                assert d_on.clock == d_off.clock
                assert d_on.compute_time == d_off.compute_time
                assert d_on.comm_time == d_off.comm_time
                assert d_on.weighted_comm_volume == d_off.weighted_comm_volume
            assert off.tracer.events == [] and off.tracer.spans == []

    def test_tracing_changes_no_loss(self):
        cfg = tiny_config(num_layers=2)
        params = init_transformer_params(cfg, seed=1)
        rng = np.random.default_rng(0)
        ids = rng.integers(0, cfg.vocab_size, size=(4, cfg.seq_len))
        labels = rng.integers(0, cfg.vocab_size, size=(4, cfg.seq_len))
        losses = []
        for trace in (False, True):
            prm = init_transformer_params(cfg, seed=1)
            sim = Simulator.for_mesh(q=2, trace=trace)
            model = OptimusModel(Mesh(sim, 2), cfg, prm)
            losses.append(model.forward(ids, labels))
        assert losses[0] == losses[1]


class TestResetTime:
    def test_reset_time_clears_trace_by_default(self):
        sim = _traced_stem("shape")
        assert sim.tracer.events and sim.tracer.spans
        sim.reset_time()
        assert sim.tracer.events == [] and sim.tracer.spans == []
        assert sim.elapsed() == 0.0

    def test_reset_time_keep_trace(self):
        sim = _traced_stem("shape")
        n_events, n_spans = len(sim.tracer.events), len(sim.tracer.spans)
        sim.reset_time(keep_trace=True)
        assert len(sim.tracer.events) == n_events
        assert len(sim.tracer.spans) == n_spans
        assert sim.elapsed() == 0.0


class TestCommMatrix:
    def test_row_sums_match_device_counters(self):
        sim = _traced_stem("shape")
        mat = comm_matrix(sim)
        for r, s in enumerate(row_sums(mat)):
            assert s == pytest.approx(sim.device(r).bytes_comm, rel=1e-12)
        assert matrix_total(mat) == pytest.approx(sim.total_bytes_comm(), rel=1e-12)

    def test_weighted_matrix_matches_weighted_counters(self):
        sim = _traced_stem("shape")
        mat = comm_matrix(sim, weighted=True)
        for r, s in enumerate(row_sums(mat)):
            assert s == pytest.approx(
                sim.device(r).weighted_comm_volume, rel=1e-12
            )

    def test_matrix_is_symmetric(self):
        sim = _traced_stem("shape")
        mat = comm_matrix(sim)
        n = len(mat)
        for i in range(n):
            assert mat[i][i] == 0.0
            for j in range(n):
                assert mat[i][j] == pytest.approx(mat[j][i], rel=1e-12)

    def test_row_sums_reconcile_after_scatter_gather(self):
        """Regression: scatter/gather used to charge counters and trace
        events inconsistently, breaking row-sum reconciliation."""
        from repro.comm import collectives as coll
        from repro.comm.group import ProcessGroup

        sim = Simulator.for_flat(p=4, trace=True)
        g = ProcessGroup(sim, range(4), kind="test")
        rng = np.random.default_rng(0)
        full = rng.normal(size=(8, 4))
        pieces = coll.scatter(g, full, root=1, axis=0)
        coll.gather(g, pieces, root=2, axis=0)
        coll.broadcast(g, full, root=0)
        mat = comm_matrix(sim)
        for r, s in enumerate(row_sums(mat)):
            assert s == pytest.approx(sim.device(r).bytes_comm, rel=1e-12)
        assert matrix_total(mat) == pytest.approx(sim.total_bytes_comm(), rel=1e-12)

    def test_p2p_charged_to_both_endpoints(self):
        sim = Simulator.for_flat(p=4, trace=True)
        x = np.ones((64, 64))
        send_recv(sim, 0, 2, x)
        mat = comm_matrix(sim)
        assert mat[0][2] == x.nbytes and mat[2][0] == x.nbytes
        assert matrix_total(mat) == pytest.approx(sim.total_bytes_comm())


class TestPerfetto:
    def test_trace_round_trips_and_is_monotonic(self, tmp_path):
        sim = _traced_stem("shape")
        path = tmp_path / "trace.json"
        write_chrome_trace(sim, str(path))
        trace = json.loads(path.read_text())
        events = trace["traceEvents"]
        assert events
        # one track (pid) per rank, plus monotonic non-negative timestamps
        pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert pids == set(range(sim.num_ranks))
        per_track = {}
        for e in events:
            if e["ph"] not in ("X", "C"):
                continue
            assert e["ts"] >= 0.0
            assert e.get("dur", 0.0) >= 0.0
            per_track.setdefault((e["pid"], e["tid"]), []).append(e["ts"])
        for track, stamps in per_track.items():
            assert stamps == sorted(stamps), track

    def test_span_events_carry_nesting_metadata(self):
        sim = _traced_stem("shape")
        trace = chrome_trace(sim)
        span_events = [e for e in trace["traceEvents"]
                       if e["ph"] == "X" and e["cat"] in ("layer", "op", "summa")]
        assert span_events
        assert all("sid" in e["args"] for e in span_events)

    def test_p2p_emits_flow_arrows(self):
        sim = Simulator.for_flat(p=2, trace=True)
        send_recv(sim, 0, 1, np.ones(128))
        events = chrome_trace(sim)["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"s", "f"} <= phases
        start = next(e for e in events if e["ph"] == "s")
        finish = next(e for e in events if e["ph"] == "f")
        assert start["id"] == finish["id"]
        assert (start["pid"], finish["pid"]) == (0, 1)
        # both endpoints get a copy-engine slice
        copies = [e for e in events if e["ph"] == "X" and e["cat"] == "p2p"]
        assert {e["pid"] for e in copies} == {0, 1}

    def test_memory_counters_exported(self):
        cfg = tiny_config(num_layers=1)
        sim = Simulator.for_mesh(q=2, backend="shape", trace=True)
        sim.enable_memory_timeline()
        params = init_transformer_params(cfg, backend="shape", include_embedding=False)
        model = OptimusModel(Mesh(sim, 2), cfg, params, stem_only=True)
        model.stem_forward(4)
        counters = [e for e in chrome_trace(sim)["traceEvents"] if e["ph"] == "C"]
        assert counters
        assert any(e["name"] == "memory" for e in counters)
        assert any(e["name"].startswith("memory:") for e in counters)


class TestAnalysis:
    def test_collective_stats_cover_p2p(self):
        sim = Simulator.for_flat(p=4, trace=True)
        x = np.ones((32, 32))
        send_recv(sim, 0, 1, x)
        send_recv(sim, 1, 2, x)
        stats = collective_stats(sim.tracer)
        assert stats["p2p"].count == 2
        assert stats["p2p"].total_bytes == 2 * x.nbytes
        # both endpoints are charged, like the device counters
        assert stats["p2p"].total_bytes_charged == 4 * x.nbytes
        assert stats["p2p"].total_bytes_charged == sim.total_bytes_comm()

    def test_collective_stats_charged_total_reconciles(self):
        sim = _traced_stem("shape")
        stats = collective_stats(sim.tracer)
        assert "compute" not in stats
        charged = sum(s.total_bytes_charged for s in stats.values())
        assert charged == pytest.approx(sim.total_bytes_comm(), rel=1e-12)

    def test_rank_activity_from_trace(self):
        sim = _traced_stem("shape")
        acts = rank_activity(sim.tracer, sim.num_ranks, elapsed=sim.elapsed())
        assert len(acts) == sim.num_ranks
        for a in acts:
            assert 0.0 < a.busy_time <= a.total_time + 1e-12
            assert 0.0 <= a.busy_fraction <= 1.0
            assert a.idle_time == pytest.approx(a.total_time - a.busy_time)

    def test_rank_activity_p2p_busies_receiver_only(self):
        sim = Simulator.for_flat(p=2, trace=True)
        send_recv(sim, 0, 1, np.ones((256, 256)))
        acts = rank_activity(sim.tracer, 2)
        assert acts[1].busy_time > 0.0  # receiver waits for the transfer
        assert acts[0].busy_time == 0.0  # sender's compute stream not stalled


class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("steps").inc()
        reg.counter("steps").inc(2)
        assert reg.counter("steps").value == 3
        with pytest.raises(ValueError):
            reg.counter("steps").inc(-1)
        reg.gauge("frac", rank=0).set(0.5)
        assert reg.gauge("frac", rank=0).value == 0.5
        h = reg.histogram("loss")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.count == 4 and h.mean == 2.5
        assert h.min == 1.0 and h.max == 4.0
        assert h.percentile(0) == 1.0 and h.percentile(100) == 4.0

    def test_labels_key_identity(self):
        reg = MetricsRegistry()
        a = reg.counter("c", scheme="optimus", p=4)
        b = reg.counter("c", p=4, scheme="optimus")  # order-insensitive
        assert a is b
        assert reg.counter("c", p=16, scheme="optimus") is not a
        assert len(reg.find("c")) == 2

    def test_type_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_snapshot_and_render(self):
        reg = MetricsRegistry()
        reg.counter("n", scheme="optimus").inc(5)
        reg.histogram("t").observe(1.0)
        snap = reg.snapshot()
        assert snap["n{scheme=optimus}"] == 5
        assert snap["t"]["count"] == 1
        assert "n{scheme=optimus}" in reg.render()

    def test_buffer_manager_publishes_capacity(self):
        sim = _traced_stem("shape")
        gauges = sim.metrics.find("buffer_capacity_bytes")
        assert gauges
        assert all(g.value > 0 for g in gauges)

    @pytest.mark.parametrize("run", sorted(PINNED_METRICS))
    def test_metrics_bytes_are_pinned(self, monkeypatch, run):
        """The registry reads the same, byte for byte, as when every arena
        growth wrote its ``buffer_capacity_bytes`` gauge."""
        sims = []
        init = Simulator.__init__

        def built(self, *args, **kw):
            init(self, *args, **kw)
            sims.append(self)

        monkeypatch.setattr(Simulator, "__init__", built)
        _PINNED_RUNS[run]()
        reg = sims[-1].metrics
        got = [json.dumps(reg.snapshot()), json.dumps(reg.export()), reg.render()]
        assert [hashlib.sha256(text.encode()).hexdigest() for text in got] == PINNED_METRICS[run]

    def test_a_cleared_registry_lists_only_later_arena_growths(self):
        sim = Simulator.for_mesh(q=2, backend="shape")
        buffers = BufferManager(sim)
        buffers.hold_many("forward", [([0, 1], (64,))])
        sim.metrics.clear()
        assert len(sim.metrics) == 0 and sim.metrics.find("buffer_capacity_bytes") == []
        buffers.hold_many("forward", [([0, 2], (64,))])  # rank 0 again, rank 2 first
        (gauge,) = sim.metrics.find("buffer_capacity_bytes")
        assert (gauge.labels, gauge.value) == ({"region": "forward", "rank": 2}, 64.0)


class TestMemoryTimeline:
    def test_timeline_samples_on_alloc_and_free(self):
        sim = Simulator.for_mesh(q=2, backend="shape")
        sim.enable_memory_timeline()
        meter = sim.device(0).memory
        meter.alloc(100, tag="a")
        meter.alloc(50, tag="b")
        meter.free(100, tag="a")
        tl = sim.memory_timeline()[0]
        assert [s.total for s in tl] == [100, 150, 50]
        assert [s.tag for s in tl] == ["a", "b", "a"]
        assert tl[-1].tag_bytes == 0

    def test_timeline_disabled_by_default(self):
        sim = _traced_stem("shape")
        assert all(not tl for tl in sim.memory_timeline().values())

    def test_timeline_stamps_simulated_time(self):
        sim = Simulator.for_mesh(q=2, backend="shape", trace=True)
        sim.enable_memory_timeline()
        sim.device(0).compute(1e12)
        sim.device(0).memory.alloc(10, tag="late")
        (sample,) = sim.memory_timeline()[0]
        assert sample.t == sim.device(0).clock > 0.0


class TestTrainerMetrics:
    def test_trainer_publishes_step_metrics(self):
        from repro.training.data import random_batch
        from repro.training.optim import SGD
        from repro.training.trainer import Trainer

        cfg = tiny_config(num_layers=1)
        sim = Simulator.for_mesh(q=2, trace=True)
        model = OptimusModel(Mesh(sim, 2), cfg, init_transformer_params(cfg, seed=1))
        opt = SGD(model.parameters(), lr=0.1, sim=sim)
        batches = (random_batch(cfg, 4, seed=i) for i in range(10))
        log = Trainer(model, opt, batches).train_steps(3)

        assert sim.metrics.counter("train/steps").value == 3
        assert sim.metrics.histogram("train/loss").count == 3
        assert sim.metrics.histogram("train/step_time").count == 3
        assert 0.0 <= sim.metrics.gauge("train/comm_fraction").value <= 1.0
        assert len(log.step_times) == 3 and all(t > 0 for t in log.step_times)
        assert len(log.comm_fractions) == 3
        # each step produced a step-span over all ranks
        steps = sim.tracer.spans_of(category="step")
        assert len(steps) == 3 * sim.num_ranks
        assert all(s.depth == 0 for s in steps)


class TestProfileCLI:
    def test_profile_table1_smoke(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "t.json"
        assert main(["profile", "table1", "--trace-out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "reconciled" in printed
        assert "MISMATCH" not in printed
        trace = json.loads(out.read_text())
        pids = {e["pid"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert len(pids) >= 4  # one track per rank of the 2x2 mesh

    def test_profile_train_with_mem_timeline(self, capsys):
        from repro.cli import main

        assert main(["profile", "train", "--mem-timeline"]) == 0
        printed = capsys.readouterr().out
        assert "train/loss" in printed
        assert "memory timeline:" in printed

    def test_profile_megatron_scheme(self, capsys):
        from repro.cli import main

        assert main(["profile", "tiny", "--scheme", "megatron"]) == 0
        assert "[megatron]" in capsys.readouterr().out
        # `train` used to print this banner over an Optimus 2×2 mesh
        assert main(["profile", "train", "--scheme", "megatron"]) == 0
        assert "profiled train [megatron]: 2 ranks" in capsys.readouterr().out
        from repro.obs.profile import run_profile

        spans = run_profile("train", scheme="megatron").tracer.spans
        assert spans and not any(s.name.startswith("summa_") for s in spans)
        assert any(
            s.name.startswith("summa_") for s in run_profile("train").tracer.spans
        )

    def test_profile_rejects_unknown_experiment(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["profile", "nope"])

    def test_profile_serve_exercises_request_spans(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "serve.json"
        assert main(["profile", "serve", "--trace-out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "reconciled" in printed
        assert "MISMATCH" not in printed
        trace = json.loads(out.read_text())
        req = [e for e in trace["traceEvents"] if e.get("cat") == "request"]
        assert any(e["ph"] == "X" for e in req)
        assert any(e["ph"] in ("s", "t", "f") for e in req)
