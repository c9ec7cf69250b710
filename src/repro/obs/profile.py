"""The ``python -m repro profile`` driver.

Runs a representative, fully traced workload for one of the paper's
experiments, then emits the full observability bundle: top-k span report,
collective traffic, rank busy/idle fractions, the rank→rank communication
matrix (reconciled against the device byte counters), metrics, optionally a
per-allocation memory timeline, and a Perfetto/Chrome ``trace.json``.

The profiled workloads are deliberately *small* instances of each
experiment's configuration (one mesh, few layers) so a profile run takes
seconds — the point is the structure of the timeline, not the absolute
scale, which the benchmarks already cover.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from repro.obs.comm_matrix import comm_matrix, render_comm_matrix, total as matrix_total
from repro.obs.perfetto import write_chrome_trace
from repro.obs.report import collective_report, memory_report, top_spans
from repro.schemes import SCHEMES
from repro.utils import require_writable
from repro.utils.tables import format_bytes, format_table


def _traced_model(
    scheme: str, cfg, params, mem_timeline: bool, p: int = 4, backend: str = "numpy", **kw
):
    """``(sim, model)``: ``scheme`` on ``p`` devices (Optimus: a 2×2 mesh)."""
    rec = SCHEMES[scheme]
    sim = rec.simulator(p, backend=backend, trace=True)
    if mem_timeline:  # before the model distributes its parameters
        sim.enable_memory_timeline()
    return sim, rec.model(sim, cfg, params, **kw)


def _stem_profile(cfg, scheme: str, batch_size: int, mem_timeline: bool):
    """One traced forward+backward of a paper stem (shape backend)."""
    from repro.nn.init import init_transformer_params

    params = init_transformer_params(
        cfg, backend="shape", dtype="float32", include_embedding=False
    )
    sim, model = _traced_model(
        scheme, cfg, params, mem_timeline, backend="shape", stem_only=True
    )
    model.stem_forward(batch_size)
    model.stem_backward()
    return sim


def _tiny_profile(scheme: str, mem_timeline: bool):
    """A numeric (numpy-backend) end-to-end forward+backward, q=2 / p=4."""
    import numpy as np

    from repro.config import tiny_config
    from repro.nn.init import init_transformer_params

    # heads must divide p=4 for the Megatron path; use the same config for
    # both schemes so their profiles are comparable
    cfg = tiny_config(num_layers=2, num_heads=4, hidden_size=16)
    rng = np.random.default_rng(0)
    ids = rng.integers(0, cfg.vocab_size, size=(4, cfg.seq_len))
    labels = rng.integers(0, cfg.vocab_size, size=(4, cfg.seq_len))
    sim, model = _traced_model(
        scheme, cfg, init_transformer_params(cfg, seed=1), mem_timeline
    )
    model.forward(ids, labels)
    model.backward()
    return sim


def _train_profile(scheme: str, mem_timeline: bool):
    """Two traced optimizer steps of the tiny model (metrics included)."""
    from repro.config import tiny_config
    from repro.nn.init import init_transformer_params
    from repro.training.data import random_batch
    from repro.training.optim import SGD
    from repro.training.trainer import Trainer

    # 6 heads split two ways: each scheme's smallest run (a 2×2 mesh, 2 ranks)
    cfg = tiny_config(num_layers=2)
    sim, model = _traced_model(
        scheme, cfg, init_transformer_params(cfg, seed=1), mem_timeline,
        p=SCHEMES[scheme].min_devices,
    )
    opt = SGD(model.parameters(), lr=0.1, sim=sim)
    batches = (random_batch(cfg, 4, seed=i) for i in range(1000))
    Trainer(model, opt, batches).train_steps(2)
    return sim


def _serve_profile(scheme: str, mem_timeline: bool):
    """A traced serving run: request-lifecycle spans, step spans, metrics."""
    from repro.config import tiny_config
    from repro.nn.init import init_transformer_params
    from repro.serving.engine import make_engine
    from repro.serving.traffic import TrafficGenerator

    # heads must divide p=4 for the Megatron path (same reasoning as tiny)
    cfg = tiny_config(num_layers=2, num_heads=4, hidden_size=16)
    params = init_transformer_params(cfg, seed=1)
    requests = TrafficGenerator(
        seed=0, vocab_size=cfg.vocab_size, arrival="poisson",
        rate_rps=1000.0, num_requests=6,
    ).generate()
    # 24 blocks split over the scheme's KV pools: equal per-device KV bytes
    engine = make_engine(
        scheme, cfg, params, q=2, num_slots=8, block_size=8,
        blocks_per_group=24 // SCHEMES[scheme].kv_pools(4), trace=True, slo=(0.5, 0.05),
    )
    if mem_timeline:
        engine.sim.enable_memory_timeline()
    engine.run(requests)
    return engine.sim


def _experiment_cfg(name: str):
    """The (cfg, batch) a profile run uses for each table/figure workload."""
    from repro.config import table2_weak_scaling, table3_strong_scaling
    from repro.experiments.table1 import DEFAULT_CFG as T1_CFG

    if name == "table1":
        return dataclasses.replace(T1_CFG, num_layers=1), 16
    if name in ("table2", "fig7"):
        s = table2_weak_scaling()[0]
        cfg = dataclasses.replace(s["model_optimus"], num_layers=2)
        return cfg, s["batch_optimus"]
    if name in ("table3", "fig8", "fig9"):
        s = table3_strong_scaling()[0]
        cfg = dataclasses.replace(s["model_optimus"], num_layers=2)
        return cfg, s["batch_optimus"]
    raise KeyError(name)


STEM_EXPERIMENTS = ("table1", "table2", "table3", "fig7", "fig8", "fig9")
EXPERIMENTS = STEM_EXPERIMENTS + ("tiny", "train", "serve")


def run_profile(
    experiment: str,
    scheme: str = "optimus",
    mem_timeline: bool = False,
) -> "object":
    """Run the traced workload for ``experiment`` and return its Simulator."""
    if experiment in STEM_EXPERIMENTS:
        cfg, batch = _experiment_cfg(experiment)
        return _stem_profile(cfg, scheme, batch, mem_timeline)
    if experiment == "tiny":
        return _tiny_profile(scheme, mem_timeline)
    if experiment == "train":
        return _train_profile(scheme, mem_timeline)
    if experiment == "serve":
        return _serve_profile(scheme, mem_timeline)
    raise ValueError(
        f"unknown experiment {experiment!r}; choose from {', '.join(EXPERIMENTS)}"
    )


def render_profile(
    sim,
    top: int = 12,
    mem_timeline: bool = False,
    printer: Callable[[str], None] = print,
) -> None:
    """Print the full observability bundle for a traced simulator run."""
    from repro.runtime.analysis import rank_activity

    printer(top_spans(sim.tracer, k=top))
    printer("")
    printer(collective_report(sim))
    printer("")

    acts = rank_activity(sim.tracer, sim.num_ranks, elapsed=sim.elapsed())
    printer(
        format_table(
            ["rank", "busy (s)", "idle (s)", "busy %"],
            [[a.rank, f"{a.busy_time:.4f}", f"{a.idle_time:.4f}",
              f"{a.busy_fraction:.1%}"] for a in acts],
            title="Busy/idle per rank (derived from trace spans/events)",
        )
    )
    printer("")

    mat = comm_matrix(sim)
    printer(render_comm_matrix(mat))
    mat_total, dev_total = matrix_total(mat), sim.total_bytes_comm()
    printer(
        f"matrix total {format_bytes(mat_total)} vs device counters "
        f"{format_bytes(dev_total)} "
        + ("(reconciled)" if abs(mat_total - dev_total) <= 1e-6 * max(dev_total, 1.0)
           else "(MISMATCH)")
    )
    printer("")

    if len(sim.metrics):
        printer(sim.metrics.render())
        printer("")
    if mem_timeline:
        printer(memory_report(sim))
        samples = sum(len(t) for t in sim.memory_timeline().values())
        printer(f"memory timeline: {samples} samples across {sim.num_ranks} ranks")
        printer("")


def main(
    experiment: str,
    trace_out: Optional[str] = None,
    mem_timeline: bool = False,
    scheme: str = "optimus",
    top: int = 12,
    printer: Callable[[str], None] = print,
) -> int:
    if trace_out:
        require_writable("--trace-out", trace_out)
    sim = run_profile(experiment, scheme=scheme, mem_timeline=mem_timeline)
    printer(
        f"profiled {experiment} [{scheme}]: {sim.num_ranks} ranks, "
        f"elapsed {sim.elapsed():.4f}s simulated, "
        f"{len(sim.tracer.spans)} span records, {len(sim.tracer.events)} events"
    )
    printer("")
    render_profile(sim, top=top, mem_timeline=mem_timeline, printer=printer)
    if trace_out:
        trace = write_chrome_trace(sim, trace_out)
        printer(
            f"wrote {trace_out}: {len(trace['traceEvents'])} trace events "
            "(open in https://ui.perfetto.dev)"
        )
    return 0
