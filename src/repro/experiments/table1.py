"""Table 1 — communication and computation costs per transformer layer.

Validates the simulator against the paper's closed forms: we run a
single-layer stem, read each device's β-weighted communication volume
(``log₂(g)·B`` per tree collective, ``2(g−1)/g·B`` per ring all-reduce —
exactly the units of Table 1) and its GEMM MAC count, and compare with the
formulas of :mod:`repro.perfmodel.costs`.

Measured values sit slightly above the formulas because the real layer also
performs the small collectives Table 1 ignores: LayerNorm statistic
all-reduces ([T_loc, 2] buffers), bias broadcasts, dγ/dβ reductions, and —
for Megatron's backward — the distributed-checkpoint all-gather.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List

from repro.config import ModelConfig
from repro.nn.init import init_transformer_params
from repro.perfmodel import costs
from repro.schemes import SCHEMES
from repro.utils.tables import format_table

DEFAULT_CFG = ModelConfig(
    vocab_size=51200, hidden_size=4096, num_heads=64, num_layers=1, seq_len=512
)


@dataclass(frozen=True)
class Table1Row:
    scheme: str
    phase: str  # "forward" / "backward"
    quantity: str  # "comm (scalars)" / "compute (MACs)"
    measured: float
    model: float

    @property
    def ratio(self) -> float:
        return self.measured / self.model if self.model else float("nan")


def _measure(scheme: str, cfg: ModelConfig, p: int, b: int):
    params = init_transformer_params(
        cfg, backend="shape", dtype="float32", include_embedding=False
    )
    rec = SCHEMES[scheme]
    sim = rec.simulator(p, backend="shape")
    model = rec.model(sim, cfg, params, stem_only=True)

    elem = 4  # stems run in float32; Table 1 counts scalars
    model.stem_forward(b)
    fwd_comm = sim.max_weighted_comm_volume() / elem
    fwd_macs = max(d.flops_gemm for d in sim.devices) / 2.0
    model.stem_backward()
    bwd_comm = sim.max_weighted_comm_volume() / elem - fwd_comm
    bwd_macs = max(d.flops_gemm for d in sim.devices) / 2.0 - fwd_macs
    return fwd_comm, bwd_comm, fwd_macs, bwd_macs


def run(cfg: ModelConfig = DEFAULT_CFG, p: int = 16, batch_size: int = 16) -> List[Table1Row]:
    """Measure one layer of both schemes and pair with the Table 1 formulas."""
    cfg = dataclasses.replace(cfg, num_layers=1)
    b, s, h = batch_size, cfg.seq_len, cfg.hidden_size
    rows: List[Table1Row] = []
    for scheme in ("megatron", "optimus"):
        fwd_comm, bwd_comm, fwd_macs, bwd_macs = _measure(scheme, cfg, p, b)
        t1 = costs.TABLE1[scheme]
        rows += [
            Table1Row(scheme, "forward", "comm (scalars)", fwd_comm, t1.forward_comm(b, s, h, p)),
            Table1Row(scheme, "backward", "comm (scalars)", bwd_comm, t1.backward_comm(b, s, h, p)),
            Table1Row(scheme, "forward", "compute (MACs)", fwd_macs, t1.forward_macs(b, s, h, p)),
            Table1Row(scheme, "backward", "compute (MACs)", bwd_macs, t1.backward_macs(b, s, h, p)),
        ]
    return rows


def render(rows: List[Table1Row]) -> str:
    return format_table(
        ["scheme", "phase", "quantity", "measured", "Table 1 model", "ratio"],
        [[r.scheme, r.phase, r.quantity, r.measured, r.model, r.ratio] for r in rows],
        title="Table 1 — per-layer costs: simulator vs paper formulas",
    )


def main() -> None:
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
