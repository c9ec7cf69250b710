"""Rank → physical-GPU arrangements (paper Fig. 8).

For a ``q × q`` SUMMA mesh on a cluster of multi-GPU nodes, the mapping from
logical mesh coordinate to physical GPU determines how much collective
traffic crosses the (shared, slow) inter-node cables:

* **naive** — row-major: rank ``i*q + j`` lands on GPU ``i*q + j``.  With 4
  GPUs per node and q = 4, every mesh *row* is intra-node but every mesh
  *column* spans all 4 nodes, and all 4 concurrent column collectives crowd
  each node's single NIC (Fig. 8a).
* **bunched** — the paper's proposal: tile the mesh into near-square
  sub-blocks of one node's GPUs (2×2 for 4-GPU nodes), so a column group
  spans only 2 nodes and only 2 column groups share any cable (Fig. 8b).
* **linear** — identity mapping for flat (1-D / Megatron) rank groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from repro.hardware.specs import ClusterSpec


@dataclass(frozen=True)
class Arrangement:
    """An injective mapping from logical rank to physical GPU id."""

    name: str
    cluster: ClusterSpec
    rank_to_gpu: Tuple[int, ...]
    _gpu_to_rank: Dict[int, int] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.rank_to_gpu)) != len(self.rank_to_gpu):
            raise ValueError("arrangement must be injective")
        for g in self.rank_to_gpu:
            if not 0 <= g < self.cluster.num_devices:
                raise ValueError(f"gpu id {g} outside cluster of {self.cluster.num_devices}")
        object.__setattr__(
            self, "_gpu_to_rank", {g: r for r, g in enumerate(self.rank_to_gpu)}
        )

    @property
    def num_ranks(self) -> int:
        return len(self.rank_to_gpu)

    def gpu_of(self, rank: int) -> int:
        return self.rank_to_gpu[rank]

    def node_of(self, rank: int) -> int:
        return self.cluster.node_of(self.rank_to_gpu[rank])

    def nodes_of(self, ranks: Sequence[int]) -> Dict[int, int]:
        """Histogram {node id: number of the given ranks hosted there}."""
        hist: Dict[int, int] = {}
        for r in ranks:
            n = self.node_of(r)
            hist[n] = hist.get(n, 0) + 1
        return hist

    def spans_nodes(self, ranks: Sequence[int]) -> bool:
        return len(self.nodes_of(ranks)) > 1


def linear_arrangement(cluster: ClusterSpec, num_ranks=None) -> Arrangement:
    """Identity mapping: rank r → GPU r (used for 1-D / Megatron groups)."""
    n = cluster.num_devices if num_ranks is None else num_ranks
    if n > cluster.num_devices:
        raise ValueError("more ranks than devices")
    return Arrangement("linear", cluster, tuple(range(n)))


def naive_arrangement(cluster: ClusterSpec, q: int) -> Arrangement:
    """Row-major mesh placement (Fig. 8a)."""
    if q * q > cluster.num_devices:
        raise ValueError(f"mesh {q}x{q} needs {q * q} devices, cluster has {cluster.num_devices}")
    return Arrangement("naive", cluster, tuple(range(q * q)))


def _tile_dims(q: int, gpus_per_node: int) -> Tuple[int, int]:
    """Pick the most-square (th, tw) with th*tw == gpus_per_node, th|q, tw|q."""
    best = None
    for th in range(1, gpus_per_node + 1):
        if gpus_per_node % th:
            continue
        tw = gpus_per_node // th
        if q % th or q % tw:
            continue
        score = abs(th - tw)
        if best is None or score < best[0]:
            best = (score, th, tw)
    if best is None:
        raise ValueError(f"no node tile for q={q}, gpus_per_node={gpus_per_node}")
    return best[1], best[2]


def bunched_arrangement(cluster: ClusterSpec, q: int) -> Arrangement:
    """The paper's bunched placement (Fig. 8b): one node = one mesh sub-tile."""
    p = q * q
    if p > cluster.num_devices:
        raise ValueError(f"mesh {q}x{q} needs {p} devices, cluster has {cluster.num_devices}")
    gpn = cluster.gpus_per_node
    if p <= gpn:
        # whole mesh fits on one node; placement is trivial
        return Arrangement("bunched", cluster, tuple(range(p)))
    th, tw = _tile_dims(q, gpn)
    tiles_per_row = q // tw
    mapping = [0] * p
    for i in range(q):
        for j in range(q):
            tile = (i // th) * tiles_per_row + (j // tw)  # node index
            within = (i % th) * tw + (j % tw)  # gpu slot within node
            mapping[i * q + j] = tile * gpn + within
    return Arrangement("bunched", cluster, tuple(mapping))


def make_arrangement(cluster: ClusterSpec, q: int, kind: str = "bunched") -> Arrangement:
    """Factory used by :class:`repro.mesh.mesh.Mesh`."""
    if kind == "bunched":
        try:
            return bunched_arrangement(cluster, q)
        except ValueError:
            return naive_arrangement(cluster, q)
    if kind == "naive":
        return naive_arrangement(cluster, q)
    if kind == "linear":
        return linear_arrangement(cluster, q * q)
    raise ValueError(f"unknown arrangement kind {kind!r}")
