"""BENCHMARK.json, metrics.py and what run.py prints agree."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from hostbench import metrics, run

ROOT = run.ROOT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_schema(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "hostbench/run.py"]
    assert spec["paths"] == ["hostbench"]
    assert spec["run_seconds"] == run.DEFAULT_SECONDS and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [x["name"] for k in ("workloads", "end_to_end", "per_layer") for x in spec[k]]
    assert len(names) == len(set(names))
    for n in names:
        assert NAME.match(n), n
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    # the driver makes 4 + 22 x workloads runs inside 3420 s; beside the timed
    # seconds a run spends ~7-10 s on 3 set-ups, warm-ups and verification
    assert (4 + 22 * len(spec["workloads"])) * (spec["run_seconds"] + 14) < 3420


def test_spec_lists_exactly_what_the_code_declares(spec):
    from hostbench.workloads import WORKLOADS

    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, WORKLOADS[name].why) for name in metrics.WORKLOAD_NAMES
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == metrics.per_layer()


def _run(*args, cwd=ROOT, script=None):
    script = script or os.path.join(ROOT, "hostbench", "run.py")
    return subprocess.run(
        [sys.executable, script, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def _last_json(proc):
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    return doc


def test_timed_run_prints_every_end_to_end_metric(spec):
    proc = _run("--workload", "train_numeric", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    doc = _last_json(proc)
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    assert {n: m["unit"] for n, m in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    assert all(m["value"] > 0 for m in doc["metrics"].values())
    for line in ("ops_attempted", "ops_failed", "sim_time_s", "noise guard", "summa_flags"):
        assert line in proc.stdout


def test_traced_run_prints_every_per_layer_metric(spec, tmp_path):
    out = tmp_path / "result.json"
    proc = _run("--workload", "train_numeric", "--trace", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = _last_json(proc)
    assert doc["correct"] is True
    assert {n: m["unit"] for n, m in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }
    value = {n: m["value"] for n, m in doc["metrics"].items()}
    assert value["backend.shape_array.calls"] == 0 == value["backend.shape_array.self_ms"]
    assert value["serving.engine.calls"] == 0 and value["experiments.runner.calls"] == 0
    assert value["training.trainer.steps"] == 2 and value["training.optim.calls"] == 4
    assert 1.0 <= value["hostbench.trace_overhead_ratio"] <= 2.0
    assert value["hostbench.py_calls"] > 0
    full = json.loads(out.read_text())["workloads"][0]
    parts = sum(v for k, v in full["metrics"].items() if k.endswith(".self_ms"))
    assert parts == pytest.approx(full["traced_root_ms"], rel=1e-9)
    trace = json.loads((tmp_path / "trace-train_numeric.json").read_text())
    assert trace["columns"][:3] == ["id", "layer", "name"] and trace["spans"]
    layers = {row[1] for row in trace["spans"]}
    assert layers >= {"training.trainer", "core.summa", "hostbench.driver"}


def test_unknown_workload_and_missing_source_exit_nonzero_without_a_result(tmp_path):
    proc = _run("--workload", "nope")
    assert proc.returncode != 0 and "{" not in proc.stdout
    # the driver also runs the command where only the benchmark's own files are
    bare = tmp_path / "bare"
    shutil.copytree(
        os.path.join(ROOT, "hostbench"), bare / "hostbench",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare / "BENCHMARK.json")
    proc = _run(
        "--workload", "serve_steady", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=bare, script=str(bare / "hostbench" / "run.py"),
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""


def test_child_environment_is_pinned(monkeypatch):
    monkeypatch.setenv("REPRO_SUMMA_BATCHED", "1")
    monkeypatch.setenv("REPRO_LEDGER", "/tmp/should-not-be-written")
    monkeypatch.setenv("OMP_NUM_THREADS", "8")
    env = run.child_env()
    for name in run.REMOVED_ENV:
        assert name not in env
    assert env["OMP_NUM_THREADS"] == env["OPENBLAS_NUM_THREADS"] == env["MKL_NUM_THREADS"] == "1"
    assert env["PYTHONHASHSEED"] == "0"
    assert env["PYTHONPATH"].split(os.pathsep)[:2] == [run.ROOT, run.SRC]
