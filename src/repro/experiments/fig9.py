"""Figure 9 — memory limits: maximum runnable batch size vs device count.

Same weak-scaling configurations as Table 2 (h ∝ q, N = 24, s = 512); for
each device count we search the largest batch whose per-device peak —
measured on the byte-accurate dryrun allocator, including parameters,
gradients, distributed checkpoints and the working set — fits a 16 GB GPU.

The paper's claims to reproduce: Megatron's limit *decreases* with p (its
replicated activations grow with h ∝ √p), Optimus's *increases* (batch per
device stays constant while everything is 1/p-distributed), reaching
b = 480 on 64 GPUs — 8× Megatron's limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.config import table2_weak_scaling
from repro.experiments.runner import scheme_plot
from repro.hardware.specs import RTX5000
from repro.perfmodel.memory_model import max_batch_size
from repro.utils.tables import format_table

#: Fig. 9 anchors stated in the paper text (§5.3): Optimus runs b=480 on 64
#: GPUs, 8× Megatron's limit (i.e. Megatron ≈ 60).
PAPER_LIMITS: Dict[int, Dict[str, int]] = {64: {"megatron": 60, "optimus": 480}}


@dataclass(frozen=True)
class Fig9Row:
    num_devices: int
    scheme: str
    hidden_size: int
    max_batch: int
    paper: Optional[int]


def run(
    capacity_bytes: float = RTX5000.memory_bytes,
    optimizer_slots: int = 0,
    method: str = "measure",
) -> List[Fig9Row]:
    rows: List[Fig9Row] = []
    for setting in table2_weak_scaling():
        p = setting["num_devices"]
        for scheme, cfg_key in (("megatron", "model_megatron"), ("optimus", "model_optimus")):
            cfg = setting[cfg_key]
            limit = max_batch_size(
                scheme,
                cfg,
                p,
                capacity_bytes,
                method=method,
                optimizer_slots=optimizer_slots,
            )
            rows.append(
                Fig9Row(p, scheme, cfg.hidden_size, limit, PAPER_LIMITS.get(p, {}).get(scheme))
            )
    return rows


def render(rows: List[Fig9Row]) -> str:
    return format_table(
        ["p", "scheme", "h", "max batch", "paper"],
        [
            [r.num_devices, r.scheme, r.hidden_size, r.max_batch, r.paper or "-"]
            for r in rows
        ],
        title="Figure 9 — maximum batch size within 16 GB per device",
    )


def ratio_at(rows: List[Fig9Row], p: int) -> float:
    by = {(r.scheme, r.num_devices): r for r in rows}
    return by[("optimus", p)].max_batch / by[("megatron", p)].max_batch


def report(rows: List[Fig9Row]) -> str:
    """Table, p = 64 ratio vs the paper's, plot: ``results/fig9.txt``."""
    paper = PAPER_LIMITS[64]["optimus"] / PAPER_LIMITS[64]["megatron"]
    plot = scheme_plot(rows, lambda r: r.max_batch, "Figure 9 (maximum batch size)", "max b")
    return (
        f"{render(rows)}\nOptimus/Megatron max-batch ratio at p=64: "
        f"{ratio_at(rows, 64):.2f}x (paper: {paper:g}x)\n\n{plot}"
    )


def main() -> None:  # pragma: no cover - exercised via benchmarks
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
