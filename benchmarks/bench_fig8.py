"""Benchmark + reproduction of Figure 8 (naive vs bunched GPU arrangement).

The paper's claim is about column-group traffic on 4 nodes × 4 GPUs: naive
placement makes every column span all 4 nodes with 4-way NIC crowding;
bunching 2×2 sub-meshes per node halves both.  We verify the
single-collective effect and also report the end-to-end stem effect — an
honest extra finding: since SUMMA's activation blocks travel along mesh
*rows* (which the naive row-major placement keeps intra-node), the
arrangement matters far less end-to-end than at the collective level.
"""

import pytest

from benchmarks.conftest import save_result
from repro.experiments import fig8


@pytest.fixture(scope="module")
def rows():
    return fig8.run()


def test_benchmark_fig8(benchmark, rows):
    benchmark.pedantic(fig8.run, rounds=1, iterations=1)
    save_result("fig8", fig8.render(rows))


def test_column_broadcast_speedup(rows):
    bcast = next(r for r in rows if r.level == "column broadcast")
    assert bcast.speedup > 2.0  # the Fig. 8 effect


def test_bunched_never_slower_end_to_end(rows):
    stem = next(r for r in rows if r.level == "stem iteration")
    assert stem.speedup >= 0.98


def test_bunched_profile():
    """Direct check of the Fig. 8 geometry claims."""
    from repro.hardware.arrangement import bunched_arrangement
    from repro.hardware.specs import frontera_rtx
    from repro.hardware.topology import ClusterTopology

    cl = frontera_rtx(4)
    topo = ClusterTopology(cl)
    arr = bunched_arrangement(cl, 4)
    col = [i * 4 + 0 for i in range(4)]
    prof = topo.group_profile(col, arr)
    assert prof.nodes_spanned == 2  # "there are only two nodes involved"
    cols = [[i * 4 + j for i in range(4)] for j in range(4)]
    assert topo.crowding(cols, arr) == 2  # "only two GPUs share the cable"
