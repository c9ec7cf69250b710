"""Benchmark + reproduction of Table 2 (weak scaling, 4 → 64 GPUs).

Runs the paper's exact configurations (h ∝ √p, N = 24, s = 512, paper batch
sizes) as dryrun simulations on the Frontera-RTX hardware model and checks
the paper's qualitative results: Megatron ahead on a single node, Optimus
ahead from 16 GPUs, and ≈1.5×/1.8× training/inference speedup at 64 GPUs.
"""

import pytest

from benchmarks.conftest import save_result, split_metrics
from repro.experiments import table2
from repro.experiments.runner import speedup_at


@pytest.fixture(scope="module")
def rows():
    return table2.run()


def _by(rows):
    return {(r.result.scheme, r.result.num_devices): r.result for r in rows}


def test_benchmark_table2(benchmark, rows):
    benchmark.pedantic(table2.run, rounds=1, iterations=1)
    save_result(
        "table2", table2.report(rows), metrics={"rows": split_metrics([r.result for r in rows])}
    )


def test_megatron_wins_on_one_node(rows):
    by = _by(rows)
    assert by[("megatron", 4)].throughput > by[("optimus", 4)].throughput


def test_optimus_wins_from_16_gpus(rows):
    by = _by(rows)
    for p in (16, 36, 64):
        assert by[("optimus", p)].throughput > by[("megatron", p)].throughput, p


def test_optimus_margin_grows_with_p(rows):
    by = _by(rows)
    ratios = [
        by[("optimus", p)].throughput / by[("megatron", p)].throughput
        for p in (4, 16, 36, 64)
    ]
    assert ratios == sorted(ratios)


def test_speedup_at_64_matches_paper_band(rows):
    """Paper: 1.48× training, 1.79× inference.  The simulator is an α–β
    model, so we accept the right direction and a generous band."""
    tr, inf = speedup_at([r.result for r in rows], 64)
    assert 1.15 <= tr <= 1.9
    assert 1.2 <= inf <= 2.2


def test_per_sequence_times_within_2x_of_paper(rows):
    for r in rows:
        assert r.result.forward_per_seq == pytest.approx(r.paper[0], rel=1.0)
        assert r.result.backward_per_seq == pytest.approx(r.paper[1], rel=1.0)


def test_memory_feasible_at_paper_batches(rows):
    """Every paper configuration must fit the 16 GB devices."""
    for r in rows:
        assert r.result.peak_memory_bytes <= 16 * 1024**3, r.result
