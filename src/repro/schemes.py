"""The scheme table.  Below the model a scheme is a family of leaf classes
(:mod:`repro.nn.transformer`); above it, callers read the scheme's record in
:data:`SCHEMES` instead of branching on its name.  A new scheme is one entry
here plus its leaves."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.model import OptimusModel
from repro.megatron.model import MegatronModel
from repro.mesh.mesh import Mesh
from repro.runtime.simulator import Simulator


def mesh_side(p: int) -> int:
    """The side q of a square mesh of ``p`` devices."""
    q = math.isqrt(p)
    if q * q != p:
        raise ValueError(f"{p} devices is not a square mesh")
    return q


def _mesh_simulator(p: int, arrangement: str = "bunched", **kw) -> Simulator:
    return Simulator.for_mesh(mesh_side(p), arrangement_kind=arrangement, **kw)


def _mesh_model(sim: Simulator, *args, **kw) -> OptimusModel:
    return OptimusModel(Mesh(sim, mesh_side(sim.num_ranks)), *args, **kw)


@dataclass(frozen=True)
class Scheme:
    """One scheme's facts; ``p`` is a device count."""

    simulator: Callable[..., Simulator]  # (p, arrangement, **Simulator kw)
    model: Callable  # (sim, cfg, params, **model kw), on all of sim's ranks
    kv_pools: Callable[[int], int]  # KV-cache pools of a serving run on p
    batch_granularity: Callable[[int], int]  # Fig. 9's batch step on p
    stem_mesh: Callable[[int, str], Optional[dict]]  # ledger mesh of a stem
    serve_mesh: Callable[[int], dict]  # ledger mesh of a serving arm
    min_devices: int  # the smallest parallel run
    #: the analytic memory model's per-device scalars of one layer
    #: (:mod:`repro.perfmodel.memory_model`): the bias and LayerNorm vectors
    #: on (h, p), and the working set on (bsh, probs, h, p)
    param_vectors: Callable[[int, int], float]
    working_scalars: Callable[[float, float, int, int], float]
    #: the default GPU arrangement of a run; None: the scheme has one
    #: placement and takes no arrangement
    arrangement: Optional[str]


SCHEMES = {
    "optimus": Scheme(
        simulator=_mesh_simulator,
        model=_mesh_model,
        kv_pools=mesh_side,  # one per mesh row
        batch_granularity=mesh_side,  # a batch divides over the mesh rows
        stem_mesh=lambda p, arrangement: {"q": mesh_side(p), "arrangement": arrangement},
        serve_mesh=lambda p: {"q": mesh_side(p)},
        min_devices=4,
        # biases + LN affine, all split over the mesh row
        param_vectors=lambda h, p: 13.0 * h / p,
        # all activation terms are distributed; coefficients mirror what the
        # modules hold in the forward/backward/workspace/conjunction regions
        working_scalars=lambda bsh, probs, h, p: (
            20.0 * bsh / p  # forward region of one layer
            + probs / p
            + 12.0 * bsh / p  # backward region
            + bsh / p  # conjunction hand-off
            + (4.0 * bsh + 4.0 * h * h) / p  # SUMMA workspace (largest blocks)
        ),
        arrangement="bunched",
    ),
    "megatron": Scheme(
        # a flat group has one placement, so ``arrangement`` is not read
        simulator=lambda p, arrangement=None, **kw: Simulator.for_flat(p, **kw),
        model=MegatronModel,
        kv_pools=lambda p: 1,
        batch_granularity=lambda p: 2,
        stem_mesh=lambda p, arrangement: None,
        serve_mesh=lambda p: {"arrangement": "flat"},
        min_devices=2,
        # LN affine and the row-parallel biases are replicated
        param_vectors=lambda h, p: 9.0 * h / p + 6.0 * h,
        # replicated activations: the O(bsh) per-device wall of §3.1.1
        working_scalars=lambda bsh, probs, h, p: (
            6.0 * bsh  # replicated forward tensors of one layer
            + (12.0 * bsh + probs) / p  # column-sharded forward tensors
            + 2.0 * bsh  # replicated backward tensors (f-operator outputs)
            + 5.0 * bsh / p  # column-sharded backward tensors
        ),
        arrangement=None,
    ),
}


def lookup(scheme: str, what: str = "scheme") -> Scheme:
    """``SCHEMES[scheme]``; an unknown name raises ``unknown {what} …``."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown {what} {scheme!r}")
    return SCHEMES[scheme]
