"""Distributed parameters and the module base class shared by both schemes."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.backend import ops
from repro.mesh.dtensor import DTensor
from repro.runtime.memory import alloc_many


class DistParam:
    """A named distributed parameter with an accumulated gradient.

    Gradient accumulation is shard-local addition: every scheme arranges (via
    its collectives) that the shards being added represent the same global
    layout, so ``grad`` always has the parameter's own layout.
    """

    def __init__(self, name: str, data: DTensor):
        self.name = name
        self.data = data
        self.grad: Optional[DTensor] = None

    def add_grad(self, g: DTensor) -> None:
        """Accumulate ``g``; a recording dry-run layer tape records the
        call by this parameter's position in the layer
        (``runtime.tape.Tape``)."""
        tape = g.owner.sim.tape
        if tape is not None:
            return tape.add_grad(self, g)
        if g.layout != self.data.layout or g.global_shape != self.data.global_shape:
            raise ValueError(
                f"{self.name}: gradient layout {g.layout}/{g.global_shape} does not "
                f"match parameter {self.data.layout}/{self.data.global_shape}"
            )
        self.grad = g if self.grad is None else self.grad + g

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DistParam({self.name}, {self.data.layout}, {self.data.global_shape})"


class DistModule:
    """Minimal explicit-backward module protocol.

    Sub-classes implement ``forward`` and ``backward`` (which must be called
    in LIFO order, as the trainer and checkpointing logic do) and register
    parameters via :meth:`register_param`.
    """

    #: attribute names holding saved activations, cleared by drop_caches()
    _cache_attrs: tuple = ()

    def __init__(self):
        self._params: List[DistParam] = []
        self._submodules: List["DistModule"] = []

    def drop_caches(self) -> None:
        """Release saved-activation references (checkpointing support)."""
        for attr in self._cache_attrs:
            setattr(self, attr, None)
        for m in self._submodules:
            m.drop_caches()

    def cache_state(self) -> list:
        """The saved activations of this module and its submodules, in
        :meth:`drop_caches` order: what :meth:`restore_caches` sets on a
        module of the same structure."""
        state = [getattr(self, attr) for attr in self._cache_attrs]
        for m in self._submodules:
            state += m.cache_state()
        return state

    def restore_caches(self, state: list, start: int = 0) -> int:
        """Set the saved activations from :meth:`cache_state`'s ``state``,
        read from ``start``; returns the index after the last one read."""
        for attr in self._cache_attrs:
            setattr(self, attr, state[start])
            start += 1
        for m in self._submodules:
            start = m.restore_caches(state, start)
        return start

    def register_param(self, p: DistParam) -> DistParam:
        self._params.append(p)
        return p

    def register_module(self, m: "DistModule") -> "DistModule":
        self._submodules.append(m)
        return m

    def parameters(self) -> List[DistParam]:
        out = list(self._params)
        for m in self._submodules:
            out.extend(m.parameters())
        return out

    def named_parameters(self) -> Dict[str, DistParam]:
        return {p.name: p for p in self.parameters()}

    def zero_grads(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def validate_invariants(self) -> None:
        """Check every parameter (and gradient) against its layout contract.

        Raises :class:`repro.check.invariants.InvariantViolation` on the
        first shard whose shape, ownership, or replication is inconsistent.
        Used by the ``repro check`` fuzz runner between steps and available
        to tests for targeted corruption probes.
        """
        from repro.check.invariants import validate_dtensor

        for p in self.parameters():
            validate_dtensor(p.data, name=p.name)
            if p.grad is not None:
                validate_dtensor(p.grad, name=f"{p.name}.grad")


def charge_param_memory(param: DistParam, sim, tag: str = "params") -> None:
    """Account a parameter's shard bytes on each hosting device, in shard
    order, as one bulk allocation (a run of equal shards measured once); a
    recording dry-run tape records the call (``runtime.tape.Tape``)."""
    runs = param.data.runs(ops.nbytes)
    tape = sim.tape
    if tape is not None:
        return tape.alloc(runs, tag)
    devices = sim.devices
    alloc_many(
        [(devices[rank].memory, nbytes) for nbytes, ranks in runs for rank in ranks], tag
    )
