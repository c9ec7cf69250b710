"""The layer table: which public entry points bound which layer.

``LAYERS`` maps a layer name to the targets the tracer wraps.  A target is
``module:function``, ``module:Class.method`` (the class that *defines* the
method) or ``module:*`` (every public function defined in the module).  A
rename makes :func:`resolve` raise, so a layer can never silently drop out
of the attribution (``tests/test_boundaries.py`` resolves every entry).

Modes:

* ``span``  — exclusive time + call count, and the span is stored;
* ``leaf``  — exclusive time + call count aggregated on the fly, nothing
  stored (the high-frequency bottom of the stack);
* ``count`` — call count only, no clock reads (constructors on the hottest
  path, where two ``perf_counter_ns`` calls per object would dominate).

A probe is a tiny function run before the wrapped call with the call's
positional arguments; it feeds the few extra counters that cannot be read
from a unit's public result afterwards.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

SPAN, LEAF, COUNT = "span", "leaf", "count"

#: the layer that owns the root span, the unit spans and whatever host time
#: no wrapped entry point covers
DRIVER_LAYER = "hostbench.driver"


# ----------------------------------------------------------------------
# probes: (store, positional args of the wrapped call) -> None
# ----------------------------------------------------------------------
def see_pool(store: dict, args: tuple) -> None:
    """``ArrayPool.acquire(self, ...)``: remember each pool with the
    hit/miss counters it had when first seen in this pass."""
    pool = args[0]
    if id(pool) not in store:
        store[id(pool)] = (pool, pool.hits, pool.misses)


def see_mesh(store: dict, args: tuple) -> None:
    """``summa_*(mesh, ...)`` / ``grads_of_*(mesh, ...)``: remember the mesh
    so its plan-cache size can be read when the pass ends."""
    store[id(args[0])] = args[0]


def sum_upto(store: dict, args: tuple) -> None:
    """``ShardedKVCache.gather(self, slot, layer, rank, upto)``."""
    store["positions"] = store.get("positions", 0) + args[4]


@dataclass(frozen=True)
class Target:
    spec: str
    mode: Optional[str] = None  # None = the layer's mode
    probe: Optional[Callable[[dict, tuple], None]] = None


def _t(specs: str, prefix: str = "", **kw) -> List[Target]:
    return [Target(prefix + s, **kw) for s in specs.split()]


_SHAPE_ARRAY = "repro.backend.shape_array:ShapeArray."
_SCHED = "repro.serving.scheduler:ContinuousBatchingScheduler."
_KV = "repro.serving.kvcache:ShardedKVCache."
_TEL = "repro.serving.telemetry:ServingTelemetry."
_ENGINE = "repro.serving.engine:"
_FWD_BWD = "forward backward"


def _classes(module: str, names: str, methods: str = _FWD_BWD) -> List[Target]:
    return [
        Target(f"{module}:{cls}.{m}") for cls in names.split() for m in methods.split()
    ]


#: layer -> (default mode, targets)
LAYERS: Dict[str, Tuple[str, List[Target]]] = {
    "backend.ops": (LEAF, _t("repro.backend.ops:*")),
    "backend.shape_array": (
        LEAF,
        _t(
            "__add__ __radd__ __sub__ __rsub__ __mul__ __rmul__ __truediv__ "
            "__rtruediv__ __pow__ __rpow__ __mod__ __floordiv__ __neg__ __lt__ "
            "__le__ __gt__ __ge__ __eq__ __ne__ __and__ __or__ __xor__ __rand__ "
            "__ror__ __invert__ __matmul__ __rmatmul__ reshape transpose swapaxes "
            "astype copy ravel flatten __getitem__ __setitem__ sum max min mean "
            "var argmax",
            _SHAPE_ARRAY,
        )
        + _t("__init__", _SHAPE_ARRAY, mode=COUNT),
    ),
    "runtime.device": (
        LEAF,
        _t("compute charge_comm", "repro.runtime.device:SimDevice."),
    ),
    "runtime.memory": (
        LEAF,
        _t("alloc free free_tag", "repro.runtime.memory:MemoryMeter."),
    ),
    "runtime.simulator": (
        LEAF,
        _t("sync advance elapsed", "repro.runtime.simulator:Simulator."),
    ),
    "comm.collectives": (
        SPAN,
        _t(
            "broadcast reduce all_reduce all_gather reduce_scatter scatter gather "
            "send_recv barrier charge_only",
            "repro.comm.collectives:",
        ),
    ),
    "comm.cost": (
        LEAF,
        _t(
            "build broadcast_time reduce_time all_reduce_time all_gather_time "
            "reduce_scatter_time broadcast_weighted_volume "
            "all_reduce_weighted_volume all_gather_weighted_volume",
            "repro.comm.cost:GroupCommModel.",
        ),
    ),
    "mesh": (
        LEAF,
        _t("repro.mesh.dtensor:DTensor.__init__")
        + _t(
            "distribute_blocked_2d assemble_blocked_2d distribute_row_blocked "
            "assemble_row_blocked distribute_row0_cols assemble_row0_cols "
            "distribute_row0_blockrows assemble_row0_blockrows assemble_any "
            "scatter_any distribute_replicated distribute_sharded_1d "
            "assemble_sharded_1d distribute_replicated_1d assemble_replicated",
            "repro.mesh.partition:",
        ),
    ),
    "core.summa": (
        SPAN,
        _t(
            "summa_ab summa_abt summa_atb grads_of_ab grads_of_abt grads_of_atb",
            "repro.core.summa:",
            probe=see_mesh,
        ),
    ),
    "core.buffers": (
        LEAF,
        _t("repro.core.buffers:ArrayPool.acquire", probe=see_pool)
        + _t("repro.core.buffers:ArrayPool.release")
        + _t(
            "hold release reset_region trim_region scratch",
            "repro.core.buffers:BufferManager.",
        ),
    ),
    "core.layers": (
        SPAN,
        _classes(
            "repro.core.layers",
            "Linear2D LayerNorm2D SelfAttention2D MLP2D TransformerLayer2D",
        ),
    ),
    "core.model": (
        SPAN,
        _classes(
            "repro.core.model", "OptimusModel",
            "forward backward stem_forward stem_backward",
        )
        + _classes("repro.core.embedding", "Embedding2D LMHead2D")
        + _classes("repro.core.loss", "CrossEntropy2D"),
    ),
    "megatron.layers": (
        SPAN,
        _classes(
            "repro.megatron.layers",
            "ColumnParallelLinear RowParallelLinear LayerNorm1D SelfAttention1D "
            "MLP1D TransformerLayer1D",
        ),
    ),
    "megatron.model": (
        SPAN,
        _classes(
            "repro.megatron.model", "MegatronModel",
            "forward backward stem_forward stem_backward",
        )
        + _classes("repro.megatron.embedding", "VocabParallelEmbedding LMHead1D")
        + _classes("repro.megatron.loss", "VocabParallelCrossEntropy"),
    ),
    "reference": (
        SPAN,
        _t("repro.reference.functional:* repro.reference.attention:*"),
    ),
    "training.trainer": (SPAN, _t("repro.training.trainer:Trainer.train_steps")),
    "training.optim": (
        SPAN,
        _t("step zero_grad", "repro.training.optim:_DistOptimizerBase."),
    ),
    "experiments.runner": (
        SPAN,
        _t("run_optimus_stem run_megatron_stem", "repro.experiments.runner:"),
    ),
    "serving.traffic": (
        SPAN,
        _t("repro.serving.traffic:TrafficGenerator.generate"),
    ),
    "serving.scheduler": (
        SPAN,
        _t("load intake expire resume admit prepare_step finish", _SCHED),
    ),
    "serving.kvcache": (
        LEAF,
        _t("reserve ensure_capacity free write commit swap_out swap_in", _KV)
        + _t("gather", _KV, probe=sum_upto),
    ),
    "serving.engine": (
        SPAN,
        _t(
            "make_engine ServingEngine.run OptimusServingEngine.step "
            "MegatronServingEngine.step",
            _ENGINE,
        ),
    ),
    "serving.telemetry": (
        LEAF,
        _t(
            "on_admitted on_lanes on_first_token on_recovery on_step on_idle "
            "on_alert on_preempt on_resume on_shed on_timeout on_finish",
            _TEL,
        ),
    ),
    "serving.report": (SPAN, _t("repro.serving.report:run_arm")),
}


# ----------------------------------------------------------------------
# resolution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Resolved:
    """One concrete attribute to wrap: ``owner.attr`` currently is ``raw``."""

    layer: str
    name: str  # "module:path" with any wildcard expanded
    mode: str
    probe: Optional[Callable[[dict, tuple], None]]
    owner: object  # module or class
    attr: str
    raw: object  # the object in the owner's namespace (may be a descriptor)


def _expand(spec: str) -> List[str]:
    module_name, sep, path = spec.partition(":")
    if not sep or not path:
        raise ValueError(f"malformed boundary {spec!r} (want module:attr)")
    if path != "*":
        return [spec]
    module = importlib.import_module(module_name)
    names = sorted(
        n
        for n, v in vars(module).items()
        if not n.startswith("_")
        and inspect.isfunction(v)
        and v.__module__ == module_name
    )
    if not names:
        raise LookupError(f"boundary {spec!r} matches no public function")
    return [f"{module_name}:{n}" for n in names]


def resolve(layer: str, mode: str, target: Target) -> List[Resolved]:
    """The concrete attributes behind one table entry; raises when the
    module, class or attribute is gone or is not a plain callable."""
    out = []
    for spec in _expand(target.spec):
        module_name, _, path = spec.partition(":")
        module = importlib.import_module(module_name)
        parts = path.split(".")
        if len(parts) == 1:
            owner, attr = module, parts[0]
        elif len(parts) == 2:
            owner, attr = getattr(module, parts[0], None), parts[1]
            if not inspect.isclass(owner):
                raise LookupError(f"boundary {spec!r}: no class {parts[0]!r}")
        else:
            raise ValueError(f"malformed boundary {spec!r}")
        raw = vars(owner).get(attr)
        if raw is None:
            raise LookupError(
                f"boundary {spec!r}: {attr!r} is not defined on {owner!r} "
                "(renamed, or inherited - name the defining class)"
            )
        fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
        if not inspect.isfunction(fn):
            raise TypeError(f"boundary {spec!r} is not a plain function: {raw!r}")
        out.append(
            Resolved(layer, spec, target.mode or mode, target.probe, owner, attr, raw)
        )
    return out


def resolve_all() -> List[Resolved]:
    """Every entry of :data:`LAYERS`, resolved; names are unique."""
    out: List[Resolved] = []
    for layer, (mode, targets) in LAYERS.items():
        for target in targets:
            out.extend(resolve(layer, mode, target))
    names = [r.name for r in out]
    if len(set(names)) != len(names):
        dup = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"boundaries listed twice: {dup}")
    return out
