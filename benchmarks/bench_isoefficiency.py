"""Ablation A2 — the §3.1.2 isoefficiency analysis.

Regenerates the paper's scalability headline — Optimus's isoefficiency
function ``W ~ (√p·log p)³`` vs Megatron's ``W ~ p³`` — by numerically
solving the efficiency equation for the problem size that holds E = 0.8 at
each device count, and checking the growth tracks the asymptotic laws.
"""

import pytest

from benchmarks.conftest import save_result
from repro.experiments import isoefficiency
from repro.perfmodel.isoefficiency import (
    asymptotic_work_megatron,
    asymptotic_work_optimus,
    efficiency_megatron,
    efficiency_optimus,
    isoefficiency_work,
)


@pytest.fixture(scope="module")
def curve():
    return isoefficiency.run()


def test_benchmark_isoefficiency(benchmark, curve):
    benchmark.pedantic(lambda: isoefficiency_work("optimus", 4096), rounds=3, iterations=1)
    save_result("isoefficiency", isoefficiency.report(curve))


def test_optimus_needs_vastly_smaller_problems(curve):
    for p, hm, ho, wm, wo in curve:
        if p >= 16:
            assert wo < wm
    # the gap explodes with p
    assert curve[-1][3] / curve[-1][4] > 100


def test_growth_tracks_paper_asymptotics(curve):
    w = {p: (wm, wo) for p, _, _, wm, wo in curve}
    meg_growth = w[4096][0] / w[256][0]
    opt_growth = w[4096][1] / w[256][1]
    assert meg_growth == pytest.approx(
        asymptotic_work_megatron(4096) / asymptotic_work_megatron(256), rel=0.3
    )
    assert opt_growth == pytest.approx(
        asymptotic_work_optimus(4096) / asymptotic_work_optimus(256), rel=0.35
    )


def test_efficiency_at_fixed_h_favours_optimus(curve):
    for p in (64, 1024):
        assert efficiency_optimus(8192, p) > efficiency_megatron(8192, p)
