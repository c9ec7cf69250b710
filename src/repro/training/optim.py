"""Optimizers for distributed and serial parameters.

Distributed optimizers update each :class:`DistParam` shard in place on its
owning device.  A parameter and its gradient share one layout
(:mod:`repro.mesh.layouts`): each distinct block lives on its copies' ranks
only, and the copies of a block (Megatron's replicated LayerNorm and bias)
receive bit-identical gradients, so a purely local update preserves
consistency — no parameter synchronization collective is ever needed,
exactly as in the paper's design where "a same parameter is hosted and
updated in a single device" (§3.2.2).

In dryrun mode the arithmetic is skipped (placeholders carry no data) but
optimizer-state memory is still charged, so the Fig. 9 memory search sees
momentum/Adam state.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.backend import ops
from repro.backend.shape_array import is_shape_array
from repro.core.param import DistParam
from repro.mesh.dtensor import DTensor, on_stacks

#: ``_update`` scratch of the per-shard path: numpy allocates each temporary
_TEMPORARIES = (None, None)


class _DistOptimizerBase:
    """Shared machinery: state allocation, update dispatch, flop charging.

    A parameter whose data, gradient and state slots all carry stacks
    (:func:`~repro.mesh.dtensor.on_stacks`) is updated once, on the stacks,
    and charged with one :meth:`~repro.runtime.simulator.Simulator.charge_compute`
    in its shard order; any other (q = 1, p = 1, placeholders, the 2-D tied
    embedding table, whose gradient adds a per-rank scatter) shard by shard.
    Both run the one elementwise ``_update``, so the values are the same."""

    n_state_slots = 0  # extra arrays per parameter (momentum, adam m/v, ...)

    def __init__(self, params: Iterable[DistParam], lr: float, sim=None):
        self.params: List[DistParam] = list(params)
        if not self.params:
            raise ValueError("optimizer needs at least one parameter")
        self.lr = lr
        self.sim = sim  # optional: charge state memory and update flops
        self.t = 0
        #: an iteration's first step advanced ``t`` and more may follow (the
        #: immediate updater's per-layer steps); a full step ends it
        self._mid_iteration = False
        self._state: Dict[int, dict] = {}
        for p in self.params:
            self._state[id(p)] = self._init_state(p)
        self._scratch: Dict[np.dtype, np.ndarray] = {}

    def _init_state(self, p: DistParam) -> dict:
        """State slots shaped like ``p.data``: a zero block stack when it
        carries one, else a zero array per shard."""
        data = p.data
        slots = []
        for _ in range(self.n_state_slots):
            if data.blocks is None:
                slots.append(data.zeros_like())
            else:
                slots.append(
                    DTensor.from_blocks(
                        data.owner, data.layout, np.zeros_like(data.blocks),
                        data.global_shape, data.ranks,
                    )
                )
        if self.sim is not None and self.n_state_slots:
            for rank, shard in data.shards.items():
                self.sim.device(rank).memory.alloc(
                    self.n_state_slots * ops.nbytes(shard), "optimizer_state"
                )
        return {"slots": slots}

    def zero_grad(self) -> None:
        self._mid_iteration = False
        for p in self.params:
            p.zero_grad()

    def step(self, subset: Optional[Iterable[DistParam]] = None) -> None:
        """Apply one update; ``subset`` supports per-layer immediate updates
        (the paper's §3.2.3 option 2).  The step count ``t`` advances once
        per iteration: at its first step, which is a subset step when layers
        update immediately and the closing full step otherwise."""
        if not self._mid_iteration:
            self.t += 1
        self._mid_iteration = subset is not None
        for p in subset if subset is not None else self.params:
            if p.grad is not None:
                self._update_param(p)

    def _update_param(self, p: DistParam) -> None:
        data, grad = p.data, p.grad
        slots = self._state[id(p)]["slots"]
        flops = self._flops_per_element()
        sim = self.sim
        # a replicated gradient may be one (1,) entry for a (p,) parameter
        # stack: broadcast, the elementwise update is the same per rank
        if on_stacks(data.owner, data, grad, *slots) and (
            grad.blocks.shape[1:] == data.blocks.shape[1:]
            and len(grad.blocks) in (1, len(data.blocks))
        ):
            if sim is not None:
                size = next(iter(data.shards.values())).size
                sim.charge_compute(data.shards, ((flops * size, "elementwise"),))
            x, g = data.blocks, grad.blocks
            self._update(x, g, [s.blocks for s in slots], self._scratch_for(x, g))
            return
        slot_shards = [s.shards for s in slots]
        for rank, shard in data.shards.items():
            if sim is not None:
                sim.device(rank).compute(flops * shard.size, kind="elementwise")
            if is_shape_array(shard):
                continue  # dryrun: accounting only
            shard_slots = [d[rank] for d in slot_shards]
            self._update(shard, grad.shards[rank], shard_slots, _TEMPORARIES)

    def _scratch_for(self, x, g) -> tuple:
        """Two temporaries shaped like the stack ``x`` for ``_update``'s
        ``out=``: views of one flat buffer per dtype, sized once by the
        largest stacked parameter, never one per parameter.  ``(None, None)``
        — numpy's own temporaries and promotion — when ``x`` and ``g`` differ
        in dtype."""
        if x.dtype != g.dtype:
            return _TEMPORARIES
        flat = self._scratch.get(x.dtype)
        if flat is None:
            largest = max(p.data.blocks.size for p in self.params if p.data.blocks is not None)
            flat = self._scratch[x.dtype] = np.empty(2 * largest, x.dtype)
        n = x.size
        return flat[:n].reshape(x.shape), flat[n : 2 * n].reshape(x.shape)

    # subclass hooks -----------------------------------------------------
    def _update(self, x, g, slots, scratch) -> None:  # pragma: no cover
        """Update ``x`` (a shard or a block stack) in place from its gradient
        ``g`` and state ``slots`` (the matching shards or stacks), with the
        two ``scratch`` arrays (or None) as ``out=`` temporaries."""
        raise NotImplementedError

    def _flops_per_element(self) -> float:  # pragma: no cover
        return 2.0

    # checkpoint support -------------------------------------------------
    def state_dict(self) -> dict:
        """Scalar hyper-state (step counter, current LR)."""
        return {"t": self.t, "lr": self.lr}

    def load_state_dict(self, d: dict) -> None:
        self.t = int(d["t"])
        self.lr = float(d["lr"])
        self._mid_iteration = False

    def state_slots(self) -> Dict[str, List[np.ndarray]]:
        """Per-parameter state arrays (momentum, Adam m/v) as *global*
        arrays, assembled exactly like the parameters themselves — so
        optimizer state, like parameters, checkpoints layout-independently.

        Data-parallel replicas share parameter names with bit-identical
        state; the first occurrence wins.
        """
        from repro.mesh.partition import assemble_any

        out: Dict[str, List[np.ndarray]] = {}
        for p in self.params:
            if p.name in out:
                continue  # replicated copy (data parallelism)
            slots = self._state[id(p)]["slots"]
            if any(is_shape_array(s) for slot in slots for s in slot.shards.values()):
                raise ValueError("cannot checkpoint optimizer state in dryrun mode")
            out[p.name] = [np.asarray(assemble_any(slot)) for slot in slots]
        return out

    def load_state_slots(self, slots: Dict[str, List[np.ndarray]]) -> None:
        """Restore :meth:`state_slots` output in place (every replica of a
        shared name is restored)."""
        from repro.mesh.partition import scatter_any

        for p in self.params:
            if p.name not in slots:
                continue
            local = self._state[id(p)]["slots"]
            arrays = slots[p.name]
            if len(arrays) != len(local):
                raise ValueError(
                    f"optimizer state for {p.name!r} has {len(arrays)} slots, "
                    f"expected {len(local)}"
                )
            for slot, a in zip(local, arrays):
                scatter_any(slot, a)


class SGD(_DistOptimizerBase):
    """Plain / momentum SGD with optional decoupled weight decay.

    Weight decay is *decoupled* (SGDW, Loshchilov & Hutter): the parameter
    is shrunk by ``1 − lr·wd`` before the gradient step, so the decay never
    enters the momentum buffer.  Folding ``wd·θ`` into the gradient instead
    (coupled L2) would let momentum carry stale decay terms across steps —
    a different trajectory than the docstring promises.
    """

    def __init__(self, params, lr=0.1, momentum=0.0, weight_decay=0.0, sim=None):
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.n_state_slots = 1 if momentum else 0
        super().__init__(params, lr, sim)

    def _update(self, x, g, slots, scratch) -> None:
        if self.weight_decay:
            x *= 1.0 - self.lr * self.weight_decay
        if self.momentum:
            buf = slots[0]
            buf *= self.momentum
            buf += g
            g = buf
        x -= np.multiply(g, self.lr, out=scratch[0])

    def _flops_per_element(self) -> float:
        # update (mul+sub) + momentum (mul+add) + decoupled decay (one mul)
        return 2.0 + (2.0 if self.momentum else 0.0) + (1.0 if self.weight_decay else 0.0)


class Adam(_DistOptimizerBase):
    """Adam (Kingma & Ba) with bias correction.

    ``weight_decay`` here is classic *coupled* L2 regularization (added to
    the gradient before the moment updates), matching :class:`SerialAdam`.
    """

    n_state_slots = 2

    def __init__(
        self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0, sim=None
    ):
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        super().__init__(params, lr, sim)

    def _update(self, x, g, slots, scratch) -> None:
        # the operations (and their order) of the textbook update, through
        # the scratch arrays when given: bit-identical to the temporaries
        b1, b2 = self.betas
        s0, s1 = scratch
        if self.weight_decay:
            g = np.add(g, np.multiply(x, self.weight_decay, out=s0), out=s0)
        m, v = slots
        m *= b1
        m += np.multiply(g, 1 - b1, out=s1)
        v *= b2
        gg = np.multiply(g, 1 - b2, out=s1)
        v += np.multiply(gg, g, out=gg)
        mhat = np.divide(m, 1 - b1**self.t, out=s0)
        vhat = np.divide(v, 1 - b2**self.t, out=s1)
        denom = np.add(np.sqrt(vhat, out=vhat), self.eps, out=vhat)
        x -= np.divide(np.multiply(mhat, self.lr, out=mhat), denom, out=mhat)

    def _flops_per_element(self) -> float:
        # moments + bias correction + update, plus the coupled-L2 mul/add
        return 12.0 + (2.0 if self.weight_decay else 0.0)


def make_immediate_updater(optimizer, buffers=None):
    """§3.2.3 option 2: update each layer's parameters the moment its
    backward finishes, then reset the parameter-gradient buffer.

    Pass the returned callable as ``model.backward(on_layer_backward=...)``.
    The optimizer's later full ``step()`` skips these parameters (their
    gradients are cleared), so mixing immediate and deferred updates in one
    iteration is safe; the iteration advances the step count once.
    """

    def _update(layer) -> None:
        params = layer.parameters()
        optimizer.step(subset=params)
        for p in params:
            p.zero_grad()
        if buffers is not None:
            buffers.reset_region("param_grad")
            buffers.trim_region("param_grad")

    return _update


# ----------------------------------------------------------------------
# serial counterparts (for the reference model / equivalence tests)
# ----------------------------------------------------------------------
class SerialSGD:
    """Serial mirror of :class:`SGD` — identical decoupled-decay update
    order, so the dist-vs-serial trajectory tests compare like with like."""

    def __init__(self, params: Dict[str, np.ndarray], lr=0.1, momentum=0.0, weight_decay=0.0):
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._buf = {k: np.zeros_like(v) for k, v in params.items()} if momentum else None

    def step(self, grads: Dict[str, np.ndarray]) -> None:
        for name, p in self.params.items():
            if name not in grads:
                continue
            g = np.asarray(grads[name])
            if self.weight_decay:
                p *= 1.0 - self.lr * self.weight_decay
            if self.momentum:
                self._buf[name] = self.momentum * self._buf[name] + g
                g = self._buf[name]
            p -= self.lr * g

    def state_dict(self) -> dict:
        return {"t": 0, "lr": self.lr}

    def load_state_dict(self, d: dict) -> None:
        self.lr = float(d["lr"])

    def state_slots(self) -> Dict[str, List[np.ndarray]]:
        if self._buf is None:
            return {}
        return {name: [np.array(buf, copy=True)] for name, buf in self._buf.items()}

    def load_state_slots(self, slots: Dict[str, List[np.ndarray]]) -> None:
        if self._buf is None:
            return
        for name, arrays in slots.items():
            if name in self._buf:
                self._buf[name][...] = arrays[0]


class SerialAdam:
    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.params = params
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = {k: np.zeros_like(v) for k, v in params.items()}
        self._v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads) -> None:
        self.t += 1
        b1, b2 = self.betas
        for name, p in self.params.items():
            if name not in grads:
                continue
            g = np.asarray(grads[name])
            if self.weight_decay:
                g = g + self.weight_decay * p
            self._m[name] = b1 * self._m[name] + (1 - b1) * g
            self._v[name] = b2 * self._v[name] + (1 - b2) * g * g
            mhat = self._m[name] / (1 - b1**self.t)
            vhat = self._v[name] / (1 - b2**self.t)
            p -= self.lr * mhat / (np.sqrt(vhat) + self.eps)

    def state_dict(self) -> dict:
        return {"t": self.t, "lr": self.lr}

    def load_state_dict(self, d: dict) -> None:
        self.t = int(d["t"])
        self.lr = float(d["lr"])

    def state_slots(self) -> Dict[str, List[np.ndarray]]:
        return {
            name: [np.array(self._m[name], copy=True), np.array(self._v[name], copy=True)]
            for name in self.params
        }

    def load_state_slots(self, slots: Dict[str, List[np.ndarray]]) -> None:
        for name, arrays in slots.items():
            if name in self._m:
                self._m[name][...] = arrays[0]
                self._v[name][...] = arrays[1]


# ----------------------------------------------------------------------
# gradient utilities
# ----------------------------------------------------------------------
def grad_norm(params: Iterable[DistParam]) -> float:
    """Global L2 norm of all gradients, counting each scalar exactly once:
    one copy of each distinct block (:meth:`~repro.mesh.layouts.Layout.distinct`),
    summed in shard order, and one parameter per name (data-parallel
    replicas share names and gradients; the first occurrence wins)."""
    total = 0.0
    seen = set()
    for p in params:
        grad = p.grad
        if grad is None or p.name in seen:
            continue
        seen.add(p.name)
        distinct = set(grad.layout.distinct(grad.owner))
        for rank in grad.ranks:
            if rank not in distinct:
                continue
            s = grad.local(rank)
            if is_shape_array(s):
                return float("nan")
            total += float(np.sum(np.asarray(s) ** 2))
    return math.sqrt(total)


def clip_grads(params: Iterable[DistParam], max_norm: float) -> float:
    """Scale all gradients so the global norm is at most ``max_norm``."""
    params = list(params)
    norm = grad_norm(params)
    if norm > max_norm and norm > 0 and not math.isnan(norm):
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = p.grad.map(lambda g: g * scale)
    return norm
