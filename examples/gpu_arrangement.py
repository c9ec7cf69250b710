#!/usr/bin/env python
"""GPU arrangement study (paper Fig. 8): naive vs bunched mesh placement.

On 4 nodes × 4 GPUs with a 4×4 SUMMA mesh, compares the two placements at
three levels:

* geometry — nodes spanned and NIC crowding per mesh row/column group;
* one collective — time of a column broadcast with all columns concurrent;
* end to end — a full 24-layer stem iteration.

The collective-level result reproduces the paper's claim (bunching halves
both the nodes involved and the cable sharing).  The end-to-end result adds
a finding the paper does not discuss: SUMMA's large *activation* blocks
travel along mesh rows, which the naive row-major placement already keeps
intra-node, so the net iteration-time difference is small at s=512 scales —
the bunched arrangement matters most for parameter-dominated (large-h,
small-b) workloads and for the embedding/LM-head column traffic.

Run:  python examples/gpu_arrangement.py
"""

from repro.experiments import fig8
from repro.hardware.arrangement import bunched_arrangement, naive_arrangement
from repro.hardware.specs import frontera_rtx
from repro.hardware.topology import ClusterTopology
from repro.utils.tables import format_table


def geometry_table() -> str:
    cluster = frontera_rtx(4)
    topo = ClusterTopology(cluster)
    rows = []
    for name, arr in (
        ("naive", naive_arrangement(cluster, 4)),
        ("bunched", bunched_arrangement(cluster, 4)),
    ):
        cols = [[i * 4 + j for i in range(4)] for j in range(4)]
        rws = [[i * 4 + j for j in range(4)] for i in range(4)]
        pc = topo.group_profile(cols[0], arr)
        pr = topo.group_profile(rws[0], arr)
        rows.append(
            [
                name,
                pr.nodes_spanned, topo.crowding(rws, arr),
                pc.nodes_spanned, topo.crowding(cols, arr),
            ]
        )
    return format_table(
        ["arrangement", "row: nodes", "row: crowding", "col: nodes", "col: crowding"],
        rows,
        title="Placement geometry of a 4x4 mesh on 4 nodes (Fig. 8)",
    )


def main() -> None:
    print(geometry_table())
    print()
    print(fig8.render(fig8.run()))
    print(
        "\nReading: the naive placement keeps rows intra-node but makes all"
        "\nfour column broadcasts cross all four nodes and share every NIC"
        "\n4-ways; bunching 2x2 tiles per node gives both directions 2 nodes"
        "\nand 2-way sharing — a >2x faster column broadcast (the paper's"
        "\nFig. 8), with a modest end-to-end win at these shapes."
    )


if __name__ == "__main__":
    main()
