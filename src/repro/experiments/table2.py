"""Table 2 — weak scaling on 4 → 64 GPUs, Megatron vs Optimus.

Reproduces the paper's setting: fixed parameters per device (h ∝ q = √p),
N = 24 layers, s = 512, batch sizes exactly as the paper ran them (Optimus
grows b with q, Megatron shrinks b to stay within memory).  All four
reported columns — forward time / batch size, backward time / batch size,
throughput, inference — use the paper's definitions (§5.1).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.config import table2_weak_scaling
from repro.experiments.runner import (
    ScalingRow,
    render_scaling,
    run_scaling,
    speedup_at,
    split_lines,
)

#: The paper's Table 2 values: p -> (fwd/seq, bwd/seq, throughput, inference)
PAPER_MEGATRON: Dict[int, Tuple[float, float, float, float]] = {
    4: (0.0793, 0.2613, 2.9363, 13.1047),
    16: (0.2081, 0.5149, 1.3831, 4.8046),
    36: (0.3379, 0.7955, 0.8823, 2.9596),
    64: (0.4638, 1.0963, 0.6410, 2.1560),
}
PAPER_OPTIMUS: Dict[int, Tuple[float, float, float, float]] = {
    4: (0.0985, 0.2979, 2.5229, 10.1502),
    16: (0.1764, 0.5312, 1.4134, 5.6704),
    36: (0.1901, 0.5759, 1.3055, 5.2593),
    64: (0.2589, 0.7935, 0.9502, 3.8625),
}

Table2Row = ScalingRow


def run() -> List[Table2Row]:
    """All eight rows (four device counts × two schemes)."""
    return run_scaling(
        table2_weak_scaling(), {"megatron": PAPER_MEGATRON, "optimus": PAPER_OPTIMUS}
    )


def render(rows: List[Table2Row]) -> str:
    return render_scaling(rows, "Table 2 — weak scaling (simulated vs paper-measured)")


def report(rows: List[Table2Row]) -> str:
    """Table, p = 64 speedups vs the paper's, splits: ``results/table2.txt``."""
    tr, inf = speedup_at([r.result for r in rows], 64)
    meg, opt = PAPER_MEGATRON[64], PAPER_OPTIMUS[64]
    return (
        f"{render(rows)}\nOptimus speedup over Megatron on 64 GPUs: {tr:.2f}x training, "
        f"{inf:.2f}x inference (paper: {opt[2] / meg[2]:.2f}x / {opt[3] / meg[3]:.2f}x)\n"
        f"{split_lines(rows)}"
    )


def main() -> None:  # pragma: no cover - exercised via benchmarks
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
