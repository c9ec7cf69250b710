"""Post-run analysis utilities over simulator counters and traces."""

import pytest

from repro.config import tiny_config
from repro.core.model import OptimusModel
from repro.nn.init import init_transformer_params
from repro.pipeline.engine import PipelineModel
from repro.runtime.analysis import (
    collective_stats,
    comm_fraction,
    device_breakdowns,
    format_breakdown,
    load_imbalance,
    utilization,
)
from repro.runtime.simulator import Simulator
from tests.conftest import make_mesh


@pytest.fixture
def run_sim(cfg, batch):
    ids, labels = batch
    mesh = make_mesh(2)
    mesh.sim.tracer.enabled = True
    params = init_transformer_params(cfg, seed=1)
    model = OptimusModel(mesh, cfg, params)
    model.forward(ids, labels)
    model.backward()
    return mesh.sim


class TestBreakdowns:
    def test_components_sum_to_elapsed(self, run_sim):
        for b in device_breakdowns(run_sim):
            assert b.compute_time + b.comm_time + b.idle_time == pytest.approx(
                b.total_time
            )
            assert 0.0 <= b.busy_fraction <= 1.0
            assert 0.0 <= b.comm_fraction <= 1.0

    def test_symmetric_workload_is_balanced(self, run_sim):
        """Optimus splits everything q×q-evenly: near-perfect balance."""
        assert utilization(run_sim) > 0.95
        assert load_imbalance(run_sim) == pytest.approx(1.0, abs=0.02)

    def test_comm_fraction_in_range(self, run_sim):
        assert 0.0 < comm_fraction(run_sim) < 1.0

    def test_pipeline_shows_bubble_as_idle(self, rng):
        """Pipeline stages idle during fill/drain — visible as utilization<1."""
        cfg = tiny_config(num_layers=4)
        params = init_transformer_params(cfg, seed=1)
        ids = rng.integers(0, cfg.vocab_size, size=(4, cfg.seq_len))
        sim = Simulator.for_flat(p=4)
        pm = PipelineModel(sim, cfg, params, num_micro_batches=2)
        pm.forward_backward(ids, ids)
        assert utilization(sim) < 0.95

    def test_format_breakdown(self, run_sim):
        out = format_breakdown(run_sim, title="T")
        assert out.splitlines()[0] == "T"
        assert "comm share" in out


class TestCollectiveStats:
    def test_aggregation(self, run_sim):
        stats = collective_stats(run_sim.tracer)
        assert "broadcast" in stats  # SUMMA traffic
        bc = stats["broadcast"]
        assert bc.count > 0
        assert bc.total_bytes > 0
        assert bc.total_time > 0

    def test_empty_tracer(self):
        sim = Simulator.for_flat(p=2)
        assert collective_stats(sim.tracer) == {}

    def test_stats_consistent_with_device_counters(self, run_sim):
        """Traced bytes must account for all bytes the devices recorded."""
        stats = collective_stats(run_sim.tracer)
        traced = sum(s.total_bytes for s in stats.values())
        # device counters count bytes per *participant*; traced counts per
        # collective, so traced ≤ total over devices
        assert 0 < traced <= run_sim.total_bytes_comm()
