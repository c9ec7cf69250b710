"""Benchmark + reproduction of Table 3 (strong scaling, fixed problem size).

Checks the paper's claims: Optimus throughput trends *upwards* with p (the
"abnormal increasing trend" of §5.2, caused by SUMMA's per-device
communication shrinking with √p at fixed problem size) and Optimus
surpasses Megatron at 64 GPUs.
"""

import pytest

from benchmarks.conftest import save_result, split_metrics
from repro.experiments import table3


@pytest.fixture(scope="module")
def rows():
    return table3.run()


def _by(rows):
    return {(r.result.scheme, r.result.num_devices): r.result for r in rows}


def test_benchmark_table3(benchmark, rows):
    benchmark.pedantic(table3.run, rounds=1, iterations=1)
    save_result(
        "table3", table3.report(rows), metrics={"rows": split_metrics([r.result for r in rows])}
    )


def test_optimus_throughput_increases_with_p(rows):
    thr = table3.optimus_trend(rows)
    assert thr == sorted(thr)
    assert thr[-1] > 1.5 * thr[0]


def test_optimus_surpasses_megatron_at_64(rows):
    by = _by(rows)
    assert by[("optimus", 64)].throughput > by[("megatron", 64)].throughput
    # and not before 16 (paper: Megatron ahead at small scale)
    assert by[("megatron", 4)].throughput > by[("optimus", 4)].throughput


def test_optimus_comm_time_shrinks_with_p(rows):
    """The §5.2 mechanism: at fixed problem size the per-iteration time of
    Optimus falls as devices are added."""
    opt = [r.result for r in rows if r.result.scheme == "optimus"]
    totals = [r.forward_time + r.backward_time for r in opt]
    assert totals == sorted(totals, reverse=True)


def test_times_within_2x_of_paper(rows):
    for r in rows:
        assert r.result.forward_per_seq == pytest.approx(r.paper[0], rel=1.0)
        assert r.result.throughput == pytest.approx(r.paper[2], rel=1.0)
