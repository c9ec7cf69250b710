"""Figure 7 — weak-scaling (left) and strong-scaling (right) efficiency.

Efficiency is ``E = T_serial / (p · T_p)`` where ``T_serial`` is the serial
execution time of the *same* problem.  The paper could not run the large
problems on one GPU and extrapolated from a unit problem; the simulator has
no such memory limit, so we obtain ``T_serial`` directly by executing the
full problem on a 1-device mesh (where no communication is charged) —
exactly the quantity the paper approximates.

The claims to reproduce (§5.1–5.2): weak-scaling efficiency decreases for
both schemes but Optimus overtakes Megatron from 16 GPUs on, with a growing
margin; in strong scaling Megatron's efficiency trend is worse than
Optimus's, and Optimus's absolute throughput rises with p until it
surpasses Megatron at 64 GPUs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from repro.config import ModelConfig, table2_weak_scaling, table3_strong_scaling
from repro.experiments.runner import run_optimus_stem, run_settings, scheme_plot
from repro.utils.tables import format_table


@dataclass(frozen=True)
class EfficiencyPoint:
    mode: str  # "weak" / "strong"
    scheme: str
    num_devices: int
    t_parallel: float
    t_serial: float

    @property
    def efficiency(self) -> float:
        return self.t_serial / (self.num_devices * self.t_parallel)


def _serial_time(cfg: ModelConfig, batch_size: int) -> float:
    """Full-problem time on a 1×1 mesh (communication-free by construction)."""
    res = run_optimus_stem(cfg, q=1, batch_size=batch_size)
    return res.forward_time + res.backward_time


def _run(mode: str, settings: Iterable[dict]) -> List[EfficiencyPoint]:
    return [
        EfficiencyPoint(
            mode, res.scheme, res.num_devices,
            res.forward_time + res.backward_time, _serial_time(cfg, res.batch_size),
        )
        for cfg, res in run_settings(settings)
    ]


def run_weak() -> List[EfficiencyPoint]:
    return _run("weak", table2_weak_scaling())


def run_strong() -> List[EfficiencyPoint]:
    return _run("strong", table3_strong_scaling())


def render(points: List[EfficiencyPoint]) -> str:
    return format_table(
        ["mode", "scheme", "p", "T_p (s)", "T_serial (s)", "efficiency"],
        [
            [pt.mode, pt.scheme, pt.num_devices, pt.t_parallel, pt.t_serial, pt.efficiency]
            for pt in points
        ],
        title="Figure 7 — scaling efficiency",
    )


def report(points: List[EfficiencyPoint]) -> str:
    """One panel (``points`` of one mode): ``results/fig7_<mode>.txt``."""
    title = f"Figure 7 ({points[0].mode} scaling efficiency)"
    return f"{render(points)}\n\n{scheme_plot(points, lambda pt: pt.efficiency, title, 'E')}"


def main() -> None:  # pragma: no cover - exercised via benchmarks
    """``repro fig7``: the weak panel, then the strong one."""
    print(report(run_weak()))
    print(report(run_strong()))


if __name__ == "__main__":  # pragma: no cover
    main()
