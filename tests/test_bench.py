"""Bench subsystem: CLI, result schema, regression gate, and the hot-path
machinery it measures (SUMMA plan cache, scratch pool)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bench.core import Comparison, compare, render_comparison
from repro.cli import main as cli_main
from repro.core import summa
from repro.mesh.partition import assemble_blocked_2d, distribute_blocked_2d
from tests.conftest import make_mesh


def _doc(wall: float, unit: float = 1.0, name: str = "micro/x") -> dict:
    return {
        "schema": "repro-bench-v1",
        "host": {},
        "calibration": {"unit_time": unit},
        "benchmarks": {name: {"wall_time": wall, "wall_times": [wall]}},
    }


class TestCompare:
    def test_identical_runs_pass(self):
        rows = compare(_doc(1.0), _doc(1.0))
        assert [c.regressed for c in rows] == [False]
        assert rows[0].ratio == pytest.approx(1.0)

    def test_regression_beyond_threshold_flags(self):
        rows = compare(_doc(1.3), _doc(1.0), threshold=0.20)
        assert rows[0].regressed

    def test_calibration_normalizes_machine_speed(self):
        # current machine is 2x slower (unit 2.0) and the bench took 2x the
        # wall-clock: normalized ratio is 1.0, not a regression
        rows = compare(_doc(2.0, unit=2.0), _doc(1.0, unit=1.0))
        assert rows[0].ratio == pytest.approx(1.0)
        assert not rows[0].regressed

    def test_benchmarks_missing_from_either_side_are_skipped(self):
        rows = compare(_doc(1.0, name="micro/a"), _doc(1.0, name="micro/b"))
        assert rows == []

    def test_unknown_schema_rejected(self):
        bad = _doc(1.0)
        bad["schema"] = "something-else"
        with pytest.raises(ValueError, match="schema"):
            compare(_doc(1.0), bad)

    def test_render_mentions_regressions(self):
        rows = [
            Comparison("micro/x", 1.0, 2.0, 2.0, 2.0, True),
            Comparison("micro/y", 1.0, 1.0, 1.0, 1.0, False),
        ]
        text = render_comparison(rows, 0.2)
        assert "REGRESSED" in text and "ok" in text


class TestBenchCLI:
    def test_run_writes_schema_valid_json(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = cli_main(
            ["bench", "--only", "micro/collectives", "--repeats", "1",
             "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro-bench-v1"
        assert doc["calibration"]["unit_time"] > 0
        entry = doc["benchmarks"]["micro/collectives"]
        assert entry["wall_time"] > 0
        assert entry["wall_times"] and len(entry["wall_times"]) == 1
        assert entry["peak_rss_bytes"] > 0
        assert entry["sim_time"] > 0
        assert "calibration" in capsys.readouterr().out

    def test_compare_pass_and_regress_exit_codes(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert cli_main(
            ["bench", "--only", "micro/collectives", "--repeats", "1",
             "--out", str(out)]
        ) == 0
        # same machine, immediately re-run: must pass the gate
        assert cli_main(
            ["bench", "--only", "micro/collectives", "--repeats", "1",
             "--compare", str(out)]
        ) == 0
        assert "PASS" in capsys.readouterr().out
        # doctor the baseline to be far faster: current run must regress
        doc = json.loads(out.read_text())
        for entry in doc["benchmarks"].values():
            entry["wall_time"] /= 10
            if entry.get("norm_wall"):
                entry["norm_wall"] /= 10
        fast = tmp_path / "fast.json"
        fast.write_text(json.dumps(doc))
        assert cli_main(
            ["bench", "--only", "micro/collectives", "--repeats", "1",
             "--compare", str(fast)]
        ) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_unknown_pattern_errors(self):
        with pytest.raises(ValueError, match="no benchmark matches"):
            cli_main(["bench", "--only", "no/such/bench"])


def _random_operands(mesh, m, k, n, seed=0):
    rng = np.random.default_rng(seed)
    a = distribute_blocked_2d(mesh, rng.standard_normal((m, k)).astype(np.float32))
    b = distribute_blocked_2d(mesh, rng.standard_normal((k, n)).astype(np.float32))
    return a, b


class TestPlanCache:
    def test_miss_and_hit_charge_identically(self):
        """A planned call charges what building the plan afresh charges:
        miss/hit/hit on one mesh ≡ three misses on another (its cache is
        emptied before every call), bit for bit."""

        def run(drop_plans):
            mesh = make_mesh(2)
            a, b = _random_operands(mesh, 8, 12, 6)
            outs = []

            def call(kernel, x, y):
                if drop_plans:
                    mesh.__dict__.pop("_summa_plans", None)
                outs.append(kernel(mesh, x, y))
                return outs[-1]

            for _ in range(3):
                c = call(summa.summa_ab, a, b)
                call(summa.summa_abt, c, b)
                call(summa.summa_atb, a, c)
            sim = mesh.sim
            state = [
                (d.clock, d.flops, d.bytes_comm, d.weighted_comm_volume,
                 d.compute_time, d.comm_time, d.num_collectives, d.memory.peak)
                for d in sim.devices
            ]
            return outs, state, summa.plan_cache_size(mesh)

        hit, s_hit, n_hit = run(drop_plans=False)
        miss, s_miss, n_miss = run(drop_plans=True)
        assert (n_hit, n_miss) == (3, 1)
        assert s_hit == s_miss
        for t1, t2 in zip(hit, miss):
            assert np.array_equal(assemble_blocked_2d(t1), assemble_blocked_2d(t2))

    def test_cache_populates_and_hits(self):
        mesh = make_mesh(2)
        a, b = _random_operands(mesh, 8, 12, 6)
        assert summa.plan_cache_size(mesh) == 0
        summa.summa_ab(mesh, a, b)
        assert summa.plan_cache_size(mesh) == 1
        summa.summa_ab(mesh, a, b)
        assert summa.plan_cache_size(mesh) == 1  # hit, no new plan
        summa.summa_atb(mesh, a, summa.summa_ab(mesh, a, b))  # new algo
        assert summa.plan_cache_size(mesh) >= 2

    def test_ragged_blocks_get_distinct_plans(self):
        # same global shape, different per-rank block shapes (MoE-style
        # ragged tensors) must not share a plan
        from repro.mesh.dtensor import DTensor
        from repro.mesh.layouts import BLOCKED_2D

        mesh = make_mesh(2)
        rng = np.random.default_rng(0)

        def ragged(rows):
            shards = {}
            r0 = 0
            for i in range(2):
                c0 = 0
                for j in range(2):
                    nrows = rows[i]
                    ncols = 6
                    shards[mesh.rank(i, j)] = rng.standard_normal(
                        (nrows, ncols)
                    ).astype(np.float32)
                    c0 += ncols
                r0 += rows[i]
            return DTensor(mesh, BLOCKED_2D, shards, (sum(rows), 12))

        b = distribute_blocked_2d(
            mesh, rng.standard_normal((12, 6)).astype(np.float32)
        )
        c1 = summa.summa_ab(mesh, ragged([3, 9]), b)
        c2 = summa.summa_ab(mesh, ragged([9, 3]), b)  # would crash on stale plan
        assert c1.shards[mesh.rank(0, 0)].shape[0] == 3
        assert c2.shards[mesh.rank(0, 0)].shape[0] == 9


class TestArrayPool:
    def test_acquire_release_reuses_backing(self):
        from repro.core.buffers import ArrayPool

        pool = ArrayPool()
        x = pool.acquire((4, 8), np.float32)
        assert x.shape == (4, 8) and x.dtype == np.float32 and x.flags["C_CONTIGUOUS"]
        pool.release(x)
        y = pool.acquire((8, 4), np.float32)  # same byte class, new shape
        assert pool.stats()["hits"] == 1
        pool.release(y)
        assert pool.stats()["free_buffers"] == 1

    def test_release_of_foreign_array_is_noop(self):
        from repro.core.buffers import ArrayPool

        pool = ArrayPool()
        pool.release(np.zeros(4))  # not pool-owned: must not raise
        assert pool.stats()["free_buffers"] == 0

    def test_summa_reuses_pool_across_calls(self):
        mesh = make_mesh(2)
        a, b = _random_operands(mesh, 8, 12, 6)
        for _ in range(3):
            summa.summa_ab(mesh, a, b)
        pool = mesh.sim._array_pool
        assert pool.stats()["hits"] > 0
        assert pool.stats()["live"] == 0  # everything released after the call


class TestInstrumentationFlag:
    def test_tracer_toggle_refreshes_is_enabled(self):
        mesh = make_mesh(2)
        sim = mesh.sim
        sim.strict_invariants = False  # may be on via REPRO_STRICT_INVARIANTS
        assert not sim.is_enabled
        sim.tracer.enabled = True
        assert sim.is_enabled
        sim.tracer.enabled = False
        assert not sim.is_enabled

    def test_strict_invariants_toggle_refreshes_is_enabled(self):
        mesh = make_mesh(2)
        sim = mesh.sim
        sim.strict_invariants = True
        assert sim.is_enabled
        sim.strict_invariants = False
        assert not sim.is_enabled


class TestSaveResultPreservation:
    def test_identical_rewrite_is_noop_and_diff_archives(self, tmp_path, monkeypatch):
        import benchmarks.conftest as bc

        monkeypatch.setattr(bc, "RESULTS_DIR", tmp_path)
        bc.save_result("t1", "alpha", metrics={"v": 1})
        assert (tmp_path / "t1.txt").read_text() == "alpha\n"
        mtime = (tmp_path / "t1.txt").stat().st_mtime_ns
        bc.save_result("t1", "alpha", metrics={"v": 1})  # identical: no-op
        assert (tmp_path / "t1.txt").stat().st_mtime_ns == mtime
        assert len(list(tmp_path.glob("t1*.txt"))) == 1
        bc.save_result("t1", "beta", metrics={"v": 2})  # differs: archived
        assert (tmp_path / "t1.txt").read_text() == "beta\n"
        assert len(list(tmp_path.glob("t1*.txt"))) == 2
        assert len(list(tmp_path.glob("t1*.json"))) == 2
