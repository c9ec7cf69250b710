"""Rank→rank communication matrices from trace events.

Attribution rule: the device counters charge every participant of a grouped
collective the full payload (``bytes_comm += nbytes`` each), and both ends
of a point-to-point transfer.  The matrix spreads each rank's charge evenly
over its peers in the collective, so

* ``row_sums(M)[r] == sim.device(r).bytes_comm``  (per-rank reconciliation)
* ``total(M) == sim.total_bytes_comm()``           (global reconciliation)

hold exactly whenever tracing was enabled for the whole run.  With
``weighted=True`` the same attribution is applied to the β-weighted volumes
of the paper's cost model (``log₂ g · B`` tree, ``2(g−1)/g · B`` ring).
"""

from __future__ import annotations

from typing import List


def comm_matrix(sim, weighted: bool = False) -> List[List[float]]:
    """An ``n × n`` matrix; entry ``[r][peer]`` is traffic attributed to r↔peer."""
    n = sim.num_ranks
    mat = [[0.0] * n for _ in range(n)]
    for e in sim.tracer.events:
        if e.category != "comm":
            continue
        volume = e.weighted if weighted else e.nbytes
        if e.kind == "p2p":
            src, dst = e.ranks
            mat[src][dst] += volume
            mat[dst][src] += volume
            continue
        peers = len(e.ranks) - 1
        if peers <= 0:
            continue
        share = volume / peers
        for r in e.ranks:
            for other in e.ranks:
                if other != r:
                    mat[r][other] += share
    return mat


def row_sums(matrix: List[List[float]]) -> List[float]:
    return [sum(row) for row in matrix]


def total(matrix: List[List[float]]) -> float:
    return sum(sum(row) for row in matrix)


def render_comm_matrix(matrix: List[List[float]], title: str = "") -> str:
    """Fixed-width table of the matrix with per-row totals."""
    from repro.utils.tables import format_bytes, format_table

    n = len(matrix)
    headers = ["rank"] + [f"→{j}" for j in range(n)] + ["row total"]
    rows = [
        [i] + [format_bytes(v) if v else "·" for v in row] + [format_bytes(sum(row))]
        for i, row in enumerate(matrix)
    ]
    return format_table(
        headers, rows, title=title or "Communication matrix (bytes, rank→rank)"
    )
