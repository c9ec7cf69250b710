"""Collective contract checking against a serial oracle.

:class:`CollectiveContractChecker` wraps every grouped collective in
:mod:`repro.comm.collectives` and, after each call, asserts

1. **MPI data semantics** against a pure-numpy serial oracle computed from
   a pre-call snapshot of the inputs: broadcast copies the root's buffer to
   every rank, reduce folds in *rank order* (so the check is bit-exact, not
   approximate), all_gather/gather concatenate in rank order,
   reduce_scatter/scatter split into equal rank-order slices;
2. **conservation laws**: every rank of the group is charged the same byte
   count, a single-rank group is charged nothing and advances no clock,
   the group's clocks are equal after the call (bulk-synchronous), and —
   when tracing is on — the observability comm-matrix row sums reconcile
   with the per-device byte counters after *every* call, not just at the
   end of a run;
3. **isolation**: no two ranks' output buffers alias each other (a shared
   buffer would let one simulated device silently corrupt another).
   Isolation is asserted on collective *outputs*; the shared read-only
   entries of stacked math (:func:`repro.mesh.dtensor.block_map`,
   :mod:`repro.comm.stacked`) never pass through here: the installed
   checker patches the collectives, which closes that path's gate, so every
   call is made per rank.

On the dryrun (ShapeArray) backend the oracle degrades to shape checking;
conservation and synchronization are still enforced.

The checker monkey-patches the module-level functions of
``repro.comm.collectives``, which covers every call site in the repo — all
distributed modules call ``coll.<op>(...)`` through the module namespace.
Install it as a context manager::

    with CollectiveContractChecker():
        model.forward(ids, labels)
        model.backward()

Any breach raises :class:`ContractViolation` at the offending call, with
the op name and group in the message.  The checker is reentrant-safe in
the "only one instance installed at a time" sense: installing a second
one raises rather than silently stacking wrappers.
"""

from __future__ import annotations

import inspect
import math
from collections import Counter
from typing import Dict, Optional

import numpy as np

from repro.backend.shape_array import is_shape_array
from repro.runtime.events import COLLECTIVE_KINDS

_installed: Optional["CollectiveContractChecker"] = None


class ContractViolation(AssertionError):
    """A collective broke its MPI semantics or a conservation law."""


def _snapshot(x):
    return x if is_shape_array(x) else np.array(x, copy=True)


def _snapshot_shards(shards: Dict[int, object]) -> Dict[int, object]:
    return {r: _snapshot(v) for r, v in shards.items()}


def _has_placeholder(*values) -> bool:
    for v in values:
        if is_shape_array(v):
            return True
        if isinstance(v, dict) and any(is_shape_array(s) for s in v.values()):
            return True
    return False


def _combine_oracle(group, shards, op):
    """Rank-order fold, mirroring collectives._combine bit-for-bit."""
    acc = np.array(shards[group.ranks[0]], copy=True)
    for r in group.ranks[1:]:
        if op == "sum":
            acc = acc + shards[r]
        elif op == "max":
            acc = np.maximum(acc, shards[r])
        else:  # unknown op: the collective itself raises before charging
            return None
    return acc


# ----------------------------------------------------------------------
# per-op oracles: (group, bound arguments) -> {rank: expected array}
# ----------------------------------------------------------------------
def _oracle_broadcast(group, a):
    return {r: a["src"] for r in group.ranks}


def _oracle_reduce(group, a):
    acc = _combine_oracle(group, a["shards"], a.get("op", "sum"))
    return None if acc is None else {a["root"]: acc}


def _oracle_all_reduce(group, a):
    acc = _combine_oracle(group, a["shards"], a.get("op", "sum"))
    return None if acc is None else {r: acc for r in group.ranks}


def _oracle_all_gather(group, a):
    full = np.concatenate(
        [a["shards"][r] for r in group.ranks], axis=a.get("axis", 0)
    )
    return {r: full for r in group.ranks}


def _oracle_reduce_scatter(group, a):
    acc = _combine_oracle(group, a["shards"], "sum")
    pieces = np.split(acc, group.size, axis=a.get("axis", 0))
    return {r: pieces[i] for i, r in enumerate(group.ranks)}


def _oracle_scatter(group, a):
    pieces = np.split(a["full"], group.size, axis=a.get("axis", 0))
    return {r: pieces[i] for i, r in enumerate(group.ranks)}


def _oracle_gather(group, a):
    full = np.concatenate(
        [a["shards"][r] for r in group.ranks], axis=a.get("axis", 0)
    )
    return {a["root"]: full}


_ORACLES = {
    "broadcast": _oracle_broadcast,
    "reduce": _oracle_reduce,
    "all_reduce": _oracle_all_reduce,
    "all_gather": _oracle_all_gather,
    "reduce_scatter": _oracle_reduce_scatter,
    "scatter": _oracle_scatter,
    "gather": _oracle_gather,
}


class CollectiveContractChecker:
    """Wrap the collectives module and validate every call (see module doc).

    ``reconcile_matrix`` — when True (default) and the simulator's tracer
    is enabled, recompute the rank→rank comm matrix after every collective
    and assert its row sums equal the per-device byte counters.  This is
    O(trace events) per call; turn it off for long traced runs where only
    the data semantics matter.
    """

    def __init__(self, reconcile_matrix: bool = True):
        self.reconcile_matrix = reconcile_matrix
        self.calls: Counter = Counter()
        self._originals: Optional[dict] = None

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> "CollectiveContractChecker":
        global _installed
        if self._originals is not None:
            raise RuntimeError("contract checker already installed")
        if _installed is not None:
            raise RuntimeError("another contract checker is already installed")
        from repro.comm import collectives as coll_mod

        self._originals = {}
        for name in COLLECTIVE_KINDS:  # each kind is the function of that name
            original = getattr(coll_mod, name)
            self._originals[name] = original
            setattr(coll_mod, name, self._wrap(name, original))
        _installed = self
        return self

    def uninstall(self) -> None:
        global _installed
        if self._originals is None:
            return
        from repro.comm import collectives as coll_mod

        for name, original in self._originals.items():
            setattr(coll_mod, name, original)
        self._originals = None
        if _installed is self:
            _installed = None

    def __enter__(self) -> "CollectiveContractChecker":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # the wrapper
    # ------------------------------------------------------------------
    def _wrap(self, name, fn):
        sig = inspect.signature(fn)

        def wrapper(group, *args, **kwargs):
            bound = sig.bind(group, *args, **kwargs)
            bound.apply_defaults()
            arguments = dict(bound.arguments)
            arguments.pop("group", None)
            dryrun = _has_placeholder(*arguments.values())
            snap = None
            if not dryrun:
                snap = {
                    k: (_snapshot_shards(v) if isinstance(v, dict) else
                        _snapshot(v) if hasattr(v, "shape") else v)
                    for k, v in arguments.items()
                }
            pre = self._pre_state(group)
            out = fn(group, *args, **kwargs)
            self.calls[name] += 1
            self._check_conservation(name, group, pre)
            if not dryrun:
                self._check_semantics(name, group, snap, out)
                self._check_isolation(name, group, out)
            return out

        wrapper.__name__ = f"checked_{name}"
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # checks
    # ------------------------------------------------------------------
    @staticmethod
    def _pre_state(group):
        devs = [group.sim.device(r) for r in group.ranks]
        return {
            "bytes": [d.bytes_comm for d in devs],
            "weighted": [d.weighted_comm_volume for d in devs],
            "clocks": [d.clock for d in devs],
            "ncoll": [d.num_collectives for d in devs],
        }

    def _violation(self, name, group, msg):
        raise ContractViolation(
            f"collective contract broken: {name} on group "
            f"{group.kind!r} ranks={group.ranks}: {msg}"
        )

    def _check_conservation(self, name, group, pre) -> None:
        devs = [group.sim.device(r) for r in group.ranks]
        byte_deltas = [d.bytes_comm - b0 for d, b0 in zip(devs, pre["bytes"])]
        weighted_deltas = [
            d.weighted_comm_volume - w0 for d, w0 in zip(devs, pre["weighted"])
        ]
        clock_deltas = [d.clock - c0 for d, c0 in zip(devs, pre["clocks"])]
        ncoll_deltas = [d.num_collectives - n0 for d, n0 in zip(devs, pre["ncoll"])]

        if group.size == 1:
            if any(byte_deltas) or any(weighted_deltas):
                self._violation(
                    name, group, "single-rank group was charged communication"
                )
            if any(clock_deltas):
                self._violation(
                    name, group, "single-rank group's clock advanced"
                )
            return

        if len(set(byte_deltas)) != 1:
            self._violation(
                name, group, f"ranks charged unequal bytes: {byte_deltas}"
            )
        if byte_deltas[0] < 0 or weighted_deltas[0] < 0:
            self._violation(name, group, "negative communication charge")
        if any(n != 1 for n in ncoll_deltas):
            self._violation(
                name, group,
                f"num_collectives advanced by {ncoll_deltas}, expected 1 each",
            )
        if any(dt < 0 for dt in clock_deltas):
            self._violation(name, group, "a clock moved backwards")
        clocks = {group.sim.device(r).clock for r in group.ranks}
        if len(clocks) != 1:
            self._violation(
                name, group,
                f"clocks not synchronized after collective: {sorted(clocks)}",
            )
        if self.reconcile_matrix and group.sim.tracer.enabled:
            self._check_matrix(name, group)

    def _check_matrix(self, name, group) -> None:
        from repro.obs.comm_matrix import comm_matrix, row_sums

        sim = group.sim
        sums = row_sums(comm_matrix(sim))
        for r in range(sim.num_ranks):
            counter = sim.device(r).bytes_comm
            if not math.isclose(sums[r], counter, rel_tol=1e-9, abs_tol=1e-6):
                self._violation(
                    name, group,
                    f"comm-matrix row sum {sums[r]} != device {r} byte "
                    f"counter {counter} (bytes are not conserved)",
                )

    def _check_semantics(self, name, group, snap, out) -> None:
        oracle = _ORACLES[name]
        expected = oracle(group, snap)
        if expected is None:
            return
        if set(out) != set(expected):
            self._violation(
                name, group,
                f"output ranks {sorted(out)} != expected {sorted(expected)}",
            )
        for r, want in expected.items():
            got = out[r]
            if is_shape_array(got):
                if tuple(got.shape) != tuple(want.shape):
                    self._violation(
                        name, group,
                        f"rank {r} output shape {tuple(got.shape)} != "
                        f"{tuple(want.shape)}",
                    )
                continue
            if not np.array_equal(np.asarray(got), np.asarray(want)):
                self._violation(
                    name, group,
                    f"rank {r} output differs from the serial oracle",
                )

    def _check_isolation(self, name, group, out) -> None:
        items = [
            (r, v) for r, v in out.items() if not is_shape_array(v)
        ]
        for i, (r1, a) in enumerate(items):
            for r2, b in items[i + 1:]:
                if np.shares_memory(np.asarray(a), np.asarray(b)):
                    self._violation(
                        name, group,
                        f"ranks {r1} and {r2} received aliasing buffers",
                    )


def contract_checks(reconcile_matrix: bool = True) -> CollectiveContractChecker:
    """Context-manager sugar: ``with contract_checks(): ...``."""
    return CollectiveContractChecker(reconcile_matrix=reconcile_matrix)
