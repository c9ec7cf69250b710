"""Span accounting: exclusive times, parents, and parts summing to the whole."""

import time

import pytest

from hostbench.boundaries import COUNT, DRIVER_LAYER, LEAF, SPAN, Resolved
from hostbench.harness import layer_metrics, run_pass
from hostbench.tracer import Tracer
from hostbench.workloads import Unit, UnitResult, Workload, _sim_fields, _simulators_built, sha


class Toy:
    def outer(self, n):
        time.sleep(0.002)
        for _ in range(n):
            self.inner()
        return n

    def inner(self):
        time.sleep(0.001)
        self.tick()

    def tick(self):
        pass

    def boom(self):
        self.inner()
        raise ValueError("boom")


def _toy_tracer(**kw):
    def target(attr, layer, mode):
        return Resolved(layer, f"toy:Toy.{attr}", mode, None, Toy, attr, vars(Toy)[attr])

    return Tracer(
        [
            target("outer", "top", SPAN),
            target("inner", "mid", LEAF),
            target("tick", "low", COUNT),
            target("boom", "top", SPAN),
        ],
        **kw,
    )


def test_exclusive_time_and_exact_sum():
    tracer = _toy_tracer()
    with tracer.patched():
        with tracer.root():
            assert tracer.run_unit(0, lambda: Toy().outer(3)) == 3
    layers = tracer.by_layer()
    assert layers["top"][0] == 1 and layers["mid"][0] == 3
    assert layers["low"] == (0, 0)  # count-only: never timed, not a timed call
    assert tracer.by_target()["toy:Toy.tick"] == (3, 0)
    assert layers["mid"][1] >= 3_000_000  # three 1 ms sleeps
    assert 2_000_000 <= layers["top"][1] < layers["top"][1] + layers["mid"][1]
    assert sum(ns for _c, ns in layers.values()) == tracer.root_ns  # to the ns
    assert vars(Toy)["outer"].__name__ == "outer" and not hasattr(Toy.outer, "__wrapped__")


def test_spans_record_parent_and_unit():
    tracer = _toy_tracer()
    with tracer.patched():
        with tracer.root():
            tracer.run_unit(7, lambda: Toy().outer(1))
    doc = tracer.spans_doc()
    rows = {row[2]: dict(zip(doc["columns"], row)) for row in doc["spans"]}
    assert set(rows) == {"pass", "unit", "toy:Toy.outer"}  # leaf spans are not stored
    assert rows["pass"]["layer"] == DRIVER_LAYER and rows["pass"]["parent"] == 0
    assert rows["unit"]["parent"] == rows["pass"]["id"]
    assert rows["toy:Toy.outer"]["parent"] == rows["unit"]["id"]
    assert rows["toy:Toy.outer"]["unit"] == 7
    assert rows["unit"]["start_ns"] <= rows["toy:Toy.outer"]["start_ns"]
    assert rows["toy:Toy.outer"]["end_ns"] <= rows["unit"]["end_ns"]


def test_an_exception_keeps_the_books_balanced():
    tracer = _toy_tracer()
    with tracer.patched():
        with tracer.root():
            with pytest.raises(ValueError):
                tracer.run_unit(0, Toy().boom)
            tracer.run_unit(1, lambda: Toy().outer(1))
    layers = tracer.by_layer()
    assert layers["top"][0] == 2 and layers["mid"][0] == 2
    assert sum(ns for _c, ns in layers.values()) == tracer.root_ns


def test_span_cap_drops_storage_not_accounting():
    tracer = _toy_tracer(max_spans=2)
    with tracer.patched():
        with tracer.root():
            for i in range(4):
                tracer.run_unit(i, lambda: Toy().outer(0))
    assert tracer.by_layer()["top"][0] == 4
    assert tracer.dropped_spans > 0
    assert sum(ns for _c, ns in tracer.by_layer().values()) == tracer.root_ns


class Mini(Workload):
    """Both stem runners on a toy model: milliseconds, same code paths."""

    name = "mini"

    def __init__(self, seed=0):
        super().__init__(seed)
        from repro.config import ModelConfig
        from repro.experiments import runner

        cfg = ModelConfig(vocab_size=64, hidden_size=32, num_heads=4, num_layers=2, seq_len=8)

        def stem(fn_name, width):
            def run():
                with _simulators_built() as built:
                    res = getattr(runner, fn_name)(cfg, width, 4)
                return UnitResult(
                    ops=1, digest=sha({"fwd": res.forward_time}), **_sim_fields(built[0])
                )

            return run

        self.units = [
            Unit("optimus", 1, stem("run_optimus_stem", 2)),
            Unit("megatron", 1, stem("run_megatron_stem", 4)),
        ]


def test_real_pass_sums_to_the_root_span_and_attributes_the_right_layers():
    workload = Mini()
    plain = run_pass(workload)
    tracer = Tracer()
    with tracer.patched():
        traced = run_pass(workload, tracer)
        metrics = layer_metrics(tracer, traced)  # raises unless parts == whole
    assert [u.digest for u in traced.units] == [u.digest for u in plain.units]
    assert [u.sim_time_s for u in traced.units] == [u.sim_time_s for u in plain.units]
    assert metrics["experiments.runner.calls"] == 2
    assert metrics["backend.shape_array.calls"] > 0
    assert metrics["backend.shape_array.constructed"] > 0
    assert metrics["core.summa.calls"] > 0 and metrics["core.summa.plan_cache_size"] > 0
    assert metrics["core.layers.calls"] > 0 and metrics["megatron.layers.calls"] > 0
    assert metrics["runtime.device.sim_events"] > 0
    for name, value in metrics.items():
        if name.startswith(("serving.", "training.")):
            assert value == 0, name
    total_ms = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
    assert total_ms == pytest.approx(tracer.root_ns / 1e6, rel=1e-9)
