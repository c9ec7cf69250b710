"""Benchmark + reproduction of Figure 7 (weak & strong scaling efficiency).

Efficiency = T_serial / (p·T_p), with T_serial obtained by actually running
the full problem on one simulated device (the paper had to extrapolate).
Claims checked: weak-scaling efficiency decays for both schemes but Optimus
overtakes Megatron from 16 GPUs with a growing margin; in strong scaling
the Optimus/Megatron efficiency ratio grows monotonically and crosses 1 at
64 GPUs.
"""

import pytest

from benchmarks.conftest import save_result
from repro.experiments import fig7


@pytest.fixture(scope="module")
def weak_points():
    return fig7.run_weak()


@pytest.fixture(scope="module")
def strong_points():
    return fig7.run_strong()


def _eff(points, mode):
    return {
        (pt.scheme, pt.num_devices): pt.efficiency for pt in points if pt.mode == mode
    }


def test_benchmark_fig7_weak(benchmark, weak_points):
    benchmark.pedantic(fig7.run_weak, rounds=1, iterations=1)
    save_result("fig7_weak", fig7.report(weak_points))


def test_benchmark_fig7_strong(benchmark, strong_points):
    benchmark.pedantic(fig7.run_strong, rounds=1, iterations=1)
    save_result("fig7_strong", fig7.report(strong_points))


def test_weak_efficiency_decays(weak_points):
    eff = _eff(weak_points, "weak")
    for scheme in ("megatron", "optimus"):
        series = [eff[(scheme, p)] for p in (4, 16, 36, 64)]
        assert series == sorted(series, reverse=True), scheme
        assert all(0 < e <= 1.0 for e in series)


def test_weak_optimus_overtakes_from_16(weak_points):
    eff = _eff(weak_points, "weak")
    assert eff[("megatron", 4)] > eff[("optimus", 4)]
    for p in (16, 36, 64):
        assert eff[("optimus", p)] > eff[("megatron", p)], p


def test_weak_margin_grows(weak_points):
    eff = _eff(weak_points, "weak")
    margins = [eff[("optimus", p)] / eff[("megatron", p)] for p in (4, 16, 36, 64)]
    assert margins == sorted(margins)


def test_strong_ratio_crosses_at_64(strong_points):
    eff = _eff(strong_points, "strong")
    ratios = [eff[("optimus", p)] / eff[("megatron", p)] for p in (4, 16, 36, 64)]
    assert ratios == sorted(ratios)  # Optimus's relative trend is upward
    assert ratios[0] < 1.0 < ratios[-1]  # crossover by 64 GPUs
