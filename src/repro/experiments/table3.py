"""Table 3 — strong scaling: fixed problem size, 4 → 64 GPUs.

The paper fixes h ≈ 3072, s = 512, N = 24 and scales devices.  Because
Megatron needs n divisible by p it runs n = 64 (72 at p = 36, with h bumped
to 3096); Optimus only needs n divisible by q so it keeps n = 24.  Megatron
cannot host b = 24 so it uses b = 12 (per-sequence metrics are unaffected —
both communication and computation are proportional to b).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.config import table3_strong_scaling
from repro.experiments.runner import (
    ScalingRow,
    render_scaling,
    run_scaling,
    speedup_at,
    split_lines,
)
from repro.schemes import SCHEMES

#: The paper's Table 3 values: p -> (fwd/seq, bwd/seq, throughput, inference)
PAPER_MEGATRON: Dict[int, Tuple[float, float, float, float]] = {
    4: (0.1225, 0.4749, 1.6737, 8.1616),
    16: (0.1143, 0.4293, 1.8397, 8.7521),
    36: (0.1212, 0.4512, 1.7470, 8.2503),
    64: (0.1195, 0.5306, 1.8180, 8.3711),
}
#: note: the paper's p=4 inference entry (0.4415) is an evident typo; the
#: consistent value 1/0.1888 ≈ 5.30 is used for comparisons instead.
PAPER_OPTIMUS: Dict[int, Tuple[float, float, float, float]] = {
    4: (0.1888, 0.5691, 1.3195, 5.2966),
    16: (0.1950, 0.5704, 1.4095, 5.1285),
    36: (0.1625, 0.4764, 1.5653, 6.1542),
    64: (0.1253, 0.3716, 2.0123, 7.9808),
}
#: the paper's Optimus/Megatron throughput ratio at p = 64 (≈ 1.107)
PAPER_SPEEDUP = PAPER_OPTIMUS[64][2] / PAPER_MEGATRON[64][2]

Table3Row = ScalingRow


def run() -> List[Table3Row]:
    return run_scaling(
        table3_strong_scaling(), {"megatron": PAPER_MEGATRON, "optimus": PAPER_OPTIMUS}
    )


def render(rows: List[Table3Row]) -> str:
    return render_scaling(rows, "Table 3 — strong scaling (simulated vs paper-measured)")


def optimus_trend(rows: List[Table3Row]) -> List[float]:
    """Optimus throughput by p — the paper's 'increasing trend' claim."""
    trend = {scheme: [] for scheme in SCHEMES}
    for r in rows:
        trend[r.result.scheme].append(r.result.throughput)
    return trend["optimus"]


def report(rows: List[Table3Row]) -> str:
    """Table, p = 64 ratio vs the paper's, splits: ``results/table3.txt``."""
    ratio = speedup_at([r.result for r in rows], 64)[0]
    return (
        f"{render(rows)}\nOptimus/Megatron throughput at p=64: {ratio:.2f}x "
        f"(paper: {PAPER_SPEEDUP:.2f}x)\n{split_lines(rows)}"
    )


def main() -> None:  # pragma: no cover - exercised via benchmarks
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
