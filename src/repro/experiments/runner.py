"""Dryrun execution of the paper's measurement workload.

The paper times "the stem of Transformer, or the consecutive Transformer
layers" (§5): one forward and one checkpointed backward of N=24 layers.
These helpers build the stem in shape (dryrun) mode at any scale, run one
iteration, and report the per-sequence times / throughput / inference
columns of Tables 2–3.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.config import ModelConfig
from repro.nn.init import init_transformer_params
from repro.schemes import lookup


@dataclass(frozen=True)
class StemResult:
    """One table row: absolute and per-sequence times for one iteration."""

    scheme: str
    num_devices: int
    batch_size: int
    hidden_size: int
    num_heads: int
    forward_time: float
    backward_time: float
    peak_memory_bytes: float
    compute_time: float = 0.0
    comm_time: float = 0.0

    @property
    def forward_per_seq(self) -> float:
        return self.forward_time / self.batch_size

    @property
    def backward_per_seq(self) -> float:
        return self.backward_time / self.batch_size

    @property
    def throughput(self) -> float:
        """Sequences/s of a full training iteration (paper's definition)."""
        return self.batch_size / (self.forward_time + self.backward_time)

    @property
    def inference(self) -> float:
        """Sequences/s of the forward pass only (paper's definition)."""
        return self.batch_size / self.forward_time

    @property
    def comm_fraction(self) -> float:
        """Fraction of the busiest device's time spent in communication."""
        busy = self.compute_time + self.comm_time
        return self.comm_time / busy if busy else 0.0


def _stem_params(cfg: ModelConfig, dtype: str = "float32"):
    return init_transformer_params(
        cfg, backend="shape", dtype=dtype, include_embedding=False
    )


def _run_stem(model, scheme: str, batch_size: int, ledger, run_label: str, mesh=None):
    """Time one stem iteration of a built model; the ledger record (when a
    ledger is given) carries ``mesh`` as its mesh description."""
    sim, cfg = model.sim, model.cfg
    model.stem_forward(batch_size)
    fwd = sim.elapsed()
    model.stem_backward()
    total = sim.elapsed()
    res = StemResult(
        scheme=scheme,
        num_devices=sim.num_ranks,
        batch_size=batch_size,
        hidden_size=cfg.hidden_size,
        num_heads=cfg.num_heads,
        forward_time=fwd,
        backward_time=total - fwd,
        peak_memory_bytes=sim.peak_memory(),
        compute_time=max(d.compute_time for d in sim.devices),
        comm_time=max(d.comm_time for d in sim.devices),
    )
    if ledger is not None:
        from repro.obs.ledger import json_safe, record_from_sim

        ledger.append(
            record_from_sim(
                "experiment",
                sim,
                label=run_label,
                scheme=scheme,
                config=cfg,
                mesh=mesh,
                extra=json_safe(
                    {"workload": "stem", "batch_size": batch_size, "result": asdict(res)}
                ),
            )
        )
    return res


def run_stem(
    scheme: str,
    cfg: ModelConfig,
    p: int,
    batch_size: int,
    arrangement: Optional[str] = None,
    checkpoint: bool = True,
    strict_memory: bool = False,
    ledger=None,
    run_label: str = "stem",
    trace: bool = False,
    **model_kw,
) -> StemResult:
    """One forward + one checkpointed backward of ``scheme``'s stem on ``p``
    devices; ``model_kw`` goes to the model (Megatron's ``checkpoint_layout``).
    ``arrangement`` defaults to the scheme's own; a scheme without one
    (:attr:`~repro.schemes.Scheme.arrangement` None) raises ``TypeError`` on
    an explicit one.

    ``trace=True`` records spans/events so the ledger record carries a
    critical-path attribution summary; clocks, bytes and memory peaks are
    bit-identical either way (the tracer is append-only bookkeeping).
    """
    rec = lookup(scheme)
    if arrangement is None:
        arrangement = rec.arrangement
    elif rec.arrangement is None:
        raise TypeError(f"{scheme} takes no arrangement, got {arrangement!r}")
    sim = rec.simulator(
        p, arrangement, backend="shape", strict_memory=strict_memory, trace=trace
    )
    model = rec.model(
        sim, cfg, _stem_params(cfg), checkpoint_activations=checkpoint, stem_only=True,
        **model_kw,
    )
    return _run_stem(
        model, scheme, batch_size, ledger, run_label, rec.stem_mesh(p, arrangement)
    )


def run_optimus_stem(
    cfg: ModelConfig,
    q: int,
    batch_size: int,
    arrangement: str = "bunched",
    checkpoint: bool = True,
    strict_memory: bool = False,
    ledger=None,
    run_label: str = "stem",
    trace: bool = False,
) -> StemResult:
    """:func:`run_stem` of Optimus on a q×q mesh."""
    return run_stem(
        "optimus", cfg, q * q, batch_size, arrangement, checkpoint, strict_memory,
        ledger, run_label, trace,
    )


def run_megatron_stem(
    cfg: ModelConfig,
    p: int,
    batch_size: int,
    checkpoint: bool = True,
    checkpoint_layout: str = "distributed",
    strict_memory: bool = False,
    ledger=None,
    run_label: str = "stem",
    trace: bool = False,
) -> StemResult:
    """:func:`run_stem` of Megatron on ``p`` flat ranks."""
    return run_stem(
        "megatron", cfg, p, batch_size, None, checkpoint, strict_memory, ledger, run_label,
        trace, checkpoint_layout=checkpoint_layout,
    )


def run_settings(settings: Iterable[dict]) -> Iterator[Tuple[ModelConfig, StemResult]]:
    """Both schemes' stems (Megatron first) at every row of a scaling table
    of :mod:`repro.config`; yields each run's config with its result."""
    for setting in settings:
        for scheme in ("megatron", "optimus"):
            cfg = setting[f"model_{scheme}"]
            yield cfg, run_stem(
                scheme, cfg, setting["num_devices"], setting[f"batch_{scheme}"]
            )


# ----------------------------------------------------------------------
# Tables 2–3: the sweep paired with the paper's measured columns
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScalingRow:
    result: StemResult
    paper: Tuple[float, float, float, float]  # fwd/seq, bwd/seq, throughput, inference

    def as_list(self) -> list:
        r, pp = self.result, self.paper
        return [
            r.num_devices, r.scheme, r.batch_size, r.hidden_size, r.num_heads,
            r.forward_per_seq, pp[0], r.backward_per_seq, pp[1],
            r.throughput, pp[2], r.inference, pp[3],
        ]


def run_scaling(settings: Iterable[dict], paper: Dict[str, dict]) -> List[ScalingRow]:
    """Two rows (Megatron, Optimus) per device count of ``settings``;
    ``paper[scheme][p]`` are the paper's columns for that row."""
    return [
        ScalingRow(res, paper[res.scheme][res.num_devices])
        for _, res in run_settings(settings)
    ]


def speedup_at(results: Iterable[StemResult], p: int) -> Tuple[float, float]:
    """(training, inference) throughput ratios of Optimus over Megatron at p."""
    by = {(r.scheme, r.num_devices): r for r in results}
    meg, opt = by[("megatron", p)], by[("optimus", p)]
    return opt.throughput / meg.throughput, opt.inference / meg.inference


def render_scaling(rows: List[ScalingRow], title: str) -> str:
    from repro.utils.tables import format_table

    return format_table(
        [
            "p", "scheme", "b", "h", "heads",
            "fwd/seq", "(paper)", "bwd/seq", "(paper)",
            "thr", "(paper)", "inf", "(paper)",
        ],
        [r.as_list() for r in rows],
        title=title,
    )


def split_lines(rows: List[ScalingRow]) -> str:
    """Per row: the busiest device's compute and comm time, and comm share."""
    return "\n".join(
        f"  {r.scheme:>8} p={r.num_devices:<3} "
        f"compute {r.compute_time:.3f}s  comm {r.comm_time:.3f}s "
        f"({r.comm_fraction:.1%} comm)"
        for r in (row.result for row in rows)
    )


def scheme_plot(rows, value: Callable, title: str, ylabel: str) -> str:
    """ASCII plot of ``value(row)`` against p, one series per scheme."""
    from repro.utils.asciiplot import line_plot

    ps = sorted({r.num_devices for r in rows})
    series = {}
    for scheme in ("megatron", "optimus"):
        by_p = {r.num_devices: value(r) for r in rows if r.scheme == scheme}
        series[scheme] = [by_p[p] for p in ps]
    return line_plot(series, ps, title=title, ylabel=ylabel)
