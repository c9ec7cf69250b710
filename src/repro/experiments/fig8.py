"""Figure 8 — naive vs bunched GPU arrangement.

The paper's observation: on 4 nodes × 4 GPUs with a 4×4 mesh placed
row-major (naive), every mesh column spans all 4 nodes and the 4 concurrent
column broadcasts crowd each node's single NIC; the bunched arrangement
(one 2×2 sub-mesh per node) halves both the nodes spanned and the crowding.

We reproduce it at two granularities: the single-collective level (time of
one column broadcast under each arrangement, from the α–β model) and the
end-to-end level (full stem iteration time under each arrangement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.comm.cost import GroupCommModel
from repro.config import ModelConfig
from repro.experiments.runner import StemResult, run_optimus_stem
from repro.hardware.arrangement import bunched_arrangement, naive_arrangement
from repro.hardware.specs import frontera_rtx
from repro.hardware.topology import ClusterTopology
from repro.utils.tables import format_table

DEFAULT_CFG = ModelConfig(
    vocab_size=51200, hidden_size=4096, num_heads=64, num_layers=24, seq_len=512
)
#: the paper's setting: a 4×4 mesh over 4 nodes × 4 GPUs, stems of batch 64
Q = 4
BATCH_SIZE = 64


@dataclass(frozen=True)
class Fig8Row:
    level: str  # "column broadcast" / "stem iteration"
    naive_time: float
    bunched_time: float

    @property
    def speedup(self) -> float:
        return self.naive_time / self.bunched_time


def broadcast_comparison(q: int = Q, nbytes: int = 64 * 2**20) -> Fig8Row:
    """One column broadcast of ``nbytes``, all q columns concurrent."""
    cluster = frontera_rtx(num_nodes=q * q // 4)
    topo = ClusterTopology(cluster)
    cols = [[i * q + j for i in range(q)] for j in range(q)]
    times = {}
    for name, arr in (
        ("naive", naive_arrangement(cluster, q)),
        ("bunched", bunched_arrangement(cluster, q)),
    ):
        model = GroupCommModel.build(topo, arr, cols[0], siblings=cols)
        times[name] = model.broadcast_time(nbytes)
    return Fig8Row("column broadcast", times["naive"], times["bunched"])


def stem_row(naive: StemResult, bunched: StemResult) -> Fig8Row:
    """The end-to-end row: iteration times of two otherwise-identical stems."""
    return Fig8Row("stem iteration", *(r.forward_time + r.backward_time for r in (naive, bunched)))


def stem_comparison(
    cfg: ModelConfig = DEFAULT_CFG, q: int = Q, batch_size: int = BATCH_SIZE
) -> Fig8Row:
    """Full 24-layer iteration time under each arrangement."""
    return stem_row(*(run_optimus_stem(cfg, q, batch_size, arr) for arr in ("naive", "bunched")))


def run() -> List[Fig8Row]:
    return [broadcast_comparison(), stem_comparison()]


def render(rows: List[Fig8Row]) -> str:
    return format_table(
        ["level", "naive (s)", "bunched (s)", "speedup"],
        [[r.level, r.naive_time, r.bunched_time, r.speedup] for r in rows],
        title="Figure 8 — GPU arrangement (4 nodes x 4 GPUs, 4x4 mesh)",
    )


def main() -> None:
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
