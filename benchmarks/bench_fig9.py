"""Benchmark + reproduction of Figure 9 (memory limits / max batch size).

For each Table 2 configuration, bisects the largest batch whose per-device
peak (byte-accurate dryrun allocator) fits in 16 GB.  The paper's claims:
Megatron's limit decreases with p, Optimus's increases, reaching 8× at 64
GPUs (b = 480 for the paper; the absolute level depends on framework
overheads, the ratio and the trends are the reproduced quantities).
"""

import pytest

from benchmarks.conftest import save_result
from repro.experiments import fig9


@pytest.fixture(scope="module")
def rows():
    return fig9.run()


def _limits(rows, scheme):
    return {r.num_devices: r.max_batch for r in rows if r.scheme == scheme}


def test_benchmark_fig9(benchmark, rows):
    def _small_probe():
        # keep the timed section light; the full sweep runs once via fixture
        from repro.config import table2_weak_scaling
        from repro.perfmodel.memory_model import measure_peak_bytes

        cfg = table2_weak_scaling()[0]["model_optimus"]
        return measure_peak_bytes("optimus", cfg, 4, 96)

    benchmark.pedantic(_small_probe, rounds=1, iterations=1)
    save_result("fig9", fig9.report(rows))


def test_megatron_limit_decreases(rows):
    lim = _limits(rows, "megatron")
    series = [lim[p] for p in (4, 16, 36, 64)]
    assert series == sorted(series, reverse=True)


def test_optimus_limit_increases(rows):
    lim = _limits(rows, "optimus")
    series = [lim[p] for p in (4, 16, 36, 64)]
    assert series == sorted(series)


def test_ratio_at_64_is_about_8x(rows):
    assert fig9.ratio_at(rows, 64) == pytest.approx(8.0, rel=0.25)


def test_paper_batches_fit_paper_cannot_exceed(rows):
    """The paper ran Optimus at b=384 and Megatron at b=30 on 64 GPUs —
    both must be within our measured limits."""
    assert _limits(rows, "optimus")[64] >= 384
    assert _limits(rows, "megatron")[64] >= 30
