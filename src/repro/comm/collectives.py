"""Collective operations on per-rank shards.

All functions take a :class:`~repro.comm.group.ProcessGroup` and a mapping
``{rank: local array}`` whose keys are exactly the group's ranks, perform the
real data movement (numpy mode) or shape propagation (dryrun mode), charge
α–β time, and synchronize the participating clocks (bulk-synchronous
semantics: a collective completes for everyone at the same simulated time).

The data semantics mirror MPI: ``broadcast`` copies the root's buffer to all,
``reduce``/``all_reduce`` sum elementwise, ``all_gather``/``gather``
concatenate in rank order along an axis, ``reduce_scatter`` sums then splits,
``scatter`` splits the root's buffer.

Two hot-path refinements (numerics-neutral, see ``docs/simulator.md``):

* **single-rank groups are zero-copy** — a collective over one rank moves no
  data, charges nothing, and returns the caller's buffer unchanged instead
  of copying it;
* **precosted calls** — every charge is ``group.model.price(kind, moved
  bytes)``, the ``(dt, nbytes, weighted)`` triple of
  :meth:`~repro.comm.cost.GroupCommModel.price`.  ``broadcast``/``reduce``
  accept it as an optional ``precost=`` so a caller that already holds it
  (the SUMMA plan cache) skips recomputing byte counts and tree-stage timing
  on every step; the plan asked the same method, so the charge is identical.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.backend import ops
from repro.backend.shape_array import is_shape_array
from repro.comm.group import ProcessGroup
from repro.runtime.simulator import COLLECTIVES

Shards = Dict[int, object]
Precost = Tuple[float, float, float]  # (dt, nbytes, weighted volume)

_REDUCE_OPS = ("sum", "max")


def _bad_reduce_op(op: str) -> ValueError:
    return ValueError(
        f"unsupported reduction op {op!r}: valid ops are {list(_REDUCE_OPS)}"
    )


# Every collective below starts with the same two inline guards, kept out of
# helper functions because this is the simulator's hottest path:
#   * reduce-op validation happens before any early return, so an invalid
#     op raises even on size-1 groups (whose zero-copy path never combines);
#   * the fault-injector check is two attribute reads and a None test —
#     the entirety of the fault machinery's cost when injection is off.


def _check_shards(group: ProcessGroup, shards: Shards, same_shape: bool = True) -> None:
    if set(shards) != set(group.ranks):
        raise ValueError(
            f"shard ranks {sorted(shards)} do not match group ranks {sorted(group.ranks)}"
        )
    if same_shape:
        shapes = {tuple(shards[r].shape) for r in group.ranks}
        if len(shapes) != 1:
            raise ValueError(f"shards must share a shape, got {shapes}")


def _copy(x):
    """Isolate buffers across ranks (placeholders are immutable, pass through)."""
    if type(x) is np.ndarray:
        # order="K" preserves the source layout exactly like np.array(x) did,
        # while skipping np.array's dtype/shape re-inference
        return x.copy(order="K")
    return x if is_shape_array(x) else np.array(x, copy=True)


def _charge(group: ProcessGroup, kind: str, precost: Precost) -> None:
    group.sim.replay(((COLLECTIVES, kind, ((group, precost),)),))


def charge_only(kind: str, lines: Sequence[Tuple[ProcessGroup, Precost]]) -> None:
    """Charge a ``kind`` collective's α–β accounting on each ``(group,
    precost)`` of ``lines``, in order, without moving any data.

    Stacked math (the batched SUMMA engine, :mod:`repro.comm.stacked`)
    computes all of a mesh's lines as one NumPy expression, but must still
    charge clocks, byte counters, weighted volumes, and trace events in the
    exact order of the per-rank path.  This is that replay hook, one call
    per mesh: the charged quantities are identical to what the collective
    with the same ``precost`` would emit on each line in turn (including
    the size-1 early return, which charges nothing).
    """
    if lines:
        lines[0][0].sim.replay(((COLLECTIVES, kind, lines),))


# ----------------------------------------------------------------------
# collectives
# ----------------------------------------------------------------------
def broadcast(
    group: ProcessGroup, src, root: int, precost: Optional[Precost] = None
) -> Shards:
    """Copy the root rank's buffer ``src`` to every rank in the group."""
    inj = group.sim.fault_injector
    if inj is not None and inj.armed:
        return inj.on_collective(
            "broadcast", group, lambda: broadcast(group, src, root, precost)
        )
    if root not in group.ranks:
        raise ValueError(f"root {root} not in group {group.ranks}")
    if group.size == 1:
        return {root: src}  # zero-copy: nothing moves, nothing is charged
    _charge(group, "broadcast", precost or group.model.price("broadcast", ops.nbytes(src)))
    return {r: (src if r == root else _copy(src)) for r in group.ranks}


def _combine(group: ProcessGroup, shards: Shards, op: str):
    first = shards[group.ranks[0]]
    if op not in _REDUCE_OPS:
        raise _bad_reduce_op(op)
    if is_shape_array(first):
        acc = first
        for r in group.ranks[1:]:
            acc = acc + shards[r] if op == "sum" else ops.maximum(acc, shards[r])
        return acc
    acc = _copy(first)
    fold = np.add if op == "sum" else np.maximum
    for r in group.ranks[1:]:
        b = shards[r]
        if (
            type(b) is np.ndarray
            and type(acc) is np.ndarray
            and b.dtype == acc.dtype
            and b.shape == acc.shape
        ):
            # same order, same dtype: in-place fold is bit-identical to the
            # out-of-place `acc = acc + b` but allocates nothing
            fold(acc, b, out=acc)
        else:  # mixed dtype/shape: keep numpy's promotion semantics
            acc = acc + b if op == "sum" else np.maximum(acc, b)
    return acc


def reduce(
    group: ProcessGroup,
    shards: Shards,
    root: int,
    op: str = "sum",
    precost: Optional[Precost] = None,
) -> Shards:
    """Elementwise-reduce all buffers onto the root rank."""
    if op not in _REDUCE_OPS:
        raise _bad_reduce_op(op)
    inj = group.sim.fault_injector
    if inj is not None and inj.armed:
        return inj.on_collective(
            "reduce", group, lambda: reduce(group, shards, root, op, precost)
        )
    if root not in group.ranks:
        raise ValueError(f"root {root} not in group {group.ranks}")
    if group.size == 1:
        if set(shards) != set(group.ranks):
            raise ValueError(
                f"shard ranks {sorted(shards)} do not match group ranks "
                f"{sorted(group.ranks)}"
            )
        return {root: shards[root]}  # zero-copy: the root already holds the sum
    _check_shards(group, shards)
    acc = _combine(group, shards, op)
    _charge(group, "reduce", precost or group.model.price("reduce", ops.nbytes(acc)))
    return {root: acc}


def all_reduce(group: ProcessGroup, shards: Shards, op: str = "sum") -> Shards:
    """Ring all-reduce: every rank ends with the elementwise reduction."""
    if op not in _REDUCE_OPS:
        raise _bad_reduce_op(op)
    inj = group.sim.fault_injector
    if inj is not None and inj.armed:
        return inj.on_collective(
            "all_reduce", group, lambda: all_reduce(group, shards, op)
        )
    if group.size == 1:
        _check_shards(group, shards)
        return dict(shards)  # zero-copy
    _check_shards(group, shards)
    acc = _combine(group, shards, op)
    _charge(group, "all_reduce", group.model.price("all_reduce", ops.nbytes(acc)))
    return {r: (acc if i == 0 else _copy(acc)) for i, r in enumerate(group.ranks)}


def all_gather(group: ProcessGroup, shards: Shards, axis: int = 0) -> Shards:
    """Every rank receives the rank-order concatenation along ``axis``."""
    inj = group.sim.fault_injector
    if inj is not None and inj.armed:
        return inj.on_collective(
            "all_gather", group, lambda: all_gather(group, shards, axis)
        )
    _check_shards(group, shards, same_shape=False)
    if group.size == 1:
        return dict(shards)  # zero-copy: concatenation of one part is itself
    parts = [shards[r] for r in group.ranks]
    full = ops.concatenate(parts, axis=axis)
    _charge(group, "all_gather", group.model.price("all_gather", ops.nbytes(full)))
    return {r: (full if i == 0 else _copy(full)) for i, r in enumerate(group.ranks)}


def reduce_scatter(group: ProcessGroup, shards: Shards, axis: int = 0) -> Shards:
    """Sum all buffers, then rank i keeps the i-th equal slice along ``axis``."""
    inj = group.sim.fault_injector
    if inj is not None and inj.armed:
        return inj.on_collective(
            "reduce_scatter", group, lambda: reduce_scatter(group, shards, axis)
        )
    _check_shards(group, shards)
    if group.size == 1:
        return dict(shards)  # zero-copy: sum of one shard, split into one piece
    g = group.size
    acc = _combine(group, shards, "sum")
    if acc.shape[axis % acc.ndim] % g != 0:
        raise ValueError(
            f"reduce_scatter axis {axis} of size {acc.shape[axis % acc.ndim]} "
            f"not divisible by group size {g}"
        )
    pieces = ops.split(acc, g, axis=axis)
    _charge(group, "reduce_scatter", group.model.price("reduce_scatter", ops.nbytes(acc)))
    return {r: pieces[i] for i, r in enumerate(group.ranks)}


def scatter(group: ProcessGroup, full, root: int, axis: int = 0) -> Shards:
    """Split the root's buffer into equal slices, one per rank."""
    inj = group.sim.fault_injector
    if inj is not None and inj.armed:
        return inj.on_collective(
            "scatter", group, lambda: scatter(group, full, root, axis)
        )
    if root not in group.ranks:
        raise ValueError(f"root {root} not in group {group.ranks}")
    if group.size == 1:
        return {root: full}  # zero-copy
    g = group.size
    if full.shape[axis % full.ndim] % g != 0:
        raise ValueError("scatter axis not divisible by group size")
    pieces = ops.split(full, g, axis=axis)
    # scatter moves (g-1)/g of the buffer out of the root, tree-style; the
    # byte counters, the α–β time, and the weighted volume must all charge
    # this same moved volume or the comm-matrix reconciliation breaks
    moved = ops.nbytes(full) * (g - 1) / g
    _charge(group, "scatter", group.model.price("scatter", moved))
    return {r: _copy(pieces[i]) for i, r in enumerate(group.ranks)}


def gather(group: ProcessGroup, shards: Shards, root: int, axis: int = 0) -> Shards:
    """Concatenate all buffers in rank order onto the root."""
    inj = group.sim.fault_injector
    if inj is not None and inj.armed:
        return inj.on_collective(
            "gather", group, lambda: gather(group, shards, root, axis)
        )
    if root not in group.ranks:
        raise ValueError(f"root {root} not in group {group.ranks}")
    _check_shards(group, shards, same_shape=False)
    if group.size == 1:
        return {root: shards[root]}  # zero-copy
    parts = [shards[r] for r in group.ranks]
    full = ops.concatenate(parts, axis=axis)
    g = group.size
    # gather moves (g-1)/g of the result into the root; charge bytes, time,
    # and weighted volume consistently (see scatter)
    moved = ops.nbytes(full) * (g - 1) / g
    _charge(group, "gather", group.model.price("gather", moved))
    return {root: full}


def send_recv(sim, src: int, dst: int, x, send_time: float = None):
    """Asynchronous point-to-point transfer of ``x`` from rank src to dst.

    Used by pipeline parallelism for inter-stage activation hand-off.
    Models the standard eager/DMA send: the copy engine starts moving the
    buffer the moment it is produced (``send_time``, defaulting to the
    sender's current clock), without blocking the sender's compute stream;
    the receiver cannot proceed before the data has arrived, so its clock
    advances to ``max(recv_clock, send_time + transfer_time)``.
    Rendezvous-blocking semantics — or stamping the send when the consumer
    finally asks for it — would convoy tightly-coupled schedules like 1F1B,
    which is not how real NCCL/Gloo pipelines behave.
    """
    if src == dst:
        return x
    nbytes = ops.nbytes(x)
    dt = sim.topology.p2p_time(
        sim.arrangement.gpu_of(src), sim.arrangement.gpu_of(dst), nbytes
    )
    sender = sim.device(src)
    receiver = sim.device(dst)
    t0 = sender.clock if send_time is None else send_time
    arrival = t0 + dt
    receiver.clock = max(receiver.clock, arrival)
    sender.charge_comm(0.0, nbytes, nbytes)  # copy engine; compute not stalled
    receiver.charge_comm(dt, nbytes, nbytes)
    if sim.tracer.enabled:
        sim.tracer.record("p2p", (src, dst), t0, arrival, nbytes=nbytes, weighted=nbytes)
    return _copy(x)


def barrier(group: ProcessGroup) -> float:
    """Synchronize clocks without moving data; returns the barrier time."""
    return group.sim.sync(group.ranks)
