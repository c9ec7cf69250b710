"""Dry-run layer tapes: a layer pass's accounting calls, recorded once and
applied once per rank class (see :class:`Tape` and ``docs/simulator.md``,
"Dry-run layer tapes")."""

from __future__ import annotations

from collections import defaultdict
from itertools import count
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runtime.simulator import COLLECTIVES, COMPUTE, Simulator, _counters

#: the kinds of a :class:`Tape`'s ops
_PROGRAM, _HOLD, _ACCOUNT, _GRAD, _LOCKSTEP = range(5)

#: a rank's memory meter as a :class:`Tape` start state compares it
_meter_state = attrgetter("current", "peak", "num_allocs")
#: a buffer arena (``BufferManager.arenas``) as a :class:`Tape` start state
#: compares it
_arena_state = attrgetter("usage", "capacity")
_by_tag = attrgetter("by_tag")


class _Line:
    """A collective line of a class plan (see :class:`Tape`): the group's
    ranks, and of its devices only the representatives'."""

    __slots__ = ("ranks", "devices", "kind")

    def __init__(self, group, devices):
        self.ranks, self.kind, self.devices = group.ranks, group.kind, devices


class _NoArena:
    """The arena of a rank a buffer manager does not cover."""

    usage = capacity = None


class Tape:
    """The accounting calls of one dry-run layer pass, applied once per rank
    class and replayed for an identical layer instead of re-running it.

    **Recording.**  While a tape records (it is its simulator's
    :attr:`Simulator.tape`), the four entry points append their call to
    :attr:`ops` and make nothing: :meth:`Simulator.replay`
    (:meth:`program`), ``BufferManager.hold_many`` (:meth:`hold`), SUMMA's
    ``_account`` (:meth:`account`) and ``DistParam.add_grad``
    (:meth:`add_grad`; a gradient is recorded against the parameter's
    position in the recorded layer's ``parameters()``).  Nothing reads
    simulated state between those calls, so the pass's layer code runs as if
    they had been made; the recording pass then applies the tape like a
    replay.  Any other mutator of simulated state reached while recording
    (``SimDevice.compute`` / ``charge_comm``, ``sync`` / ``advance``, the
    other ``BufferManager`` mutators, a gradient of a parameter outside the
    layer) first calls :meth:`poison`: the calls recorded so far are made,
    in order, recording stops and the tape is never applied.

    **Applying** (:meth:`apply`).  Every rank's start state is read — the
    eight :data:`COUNTERS`, the memory meter (``current``, ``peak``,
    ``num_allocs``, ``by_tag``) and the usage and capacity of every buffer
    arena the ops hold in — and ranks with equal states are one start class.
    A plan per start partition (and partition of the classes' clocks) is
    derived once and kept: the hash-consed proof of :meth:`Simulator.lockstep`
    extended to every op — each rank carries the id of its history, an id
    and an op's effect on the rank (for a collective line, with the set of
    its members' clock ids) map to one new id — splits the start classes
    into the classes of ranks that end in the same state.  The plan makes
    each op once per class, on the class's first rank (its representative),
    and then each representative's end state is copied to the other members
    of its class.  A start state or op that splits a class only makes more
    classes, down to one per rank, where the plan is the recorded ops
    themselves; so is it when a meter is strict (an overflow raises at the
    binding hold, the ranks before it charged) or samples a timeline, when a
    program's lines overlap, and while a SUMMA call's workspace would grow,
    is unmanaged or is also held by the tape: the call then decides as it is
    made, and a cold one keeps its books step by step, rank by rank."""

    __slots__ = (
        "sim", "ops", "layer", "params", "poisoned", "_plans", "_arenas", "_workspaces",
    )

    def __init__(self, sim: "Simulator", params: Sequence[object] = ()):
        self.sim = sim
        self.ops: List[tuple] = []
        self.layer = list(params)
        self.params = {id(p): i for i, p in enumerate(self.layer)}
        self.poisoned = False
        self._plans: Dict[tuple, tuple] = {}
        #: set on the first apply (see :meth:`_touched`)
        self._arenas: Optional[list] = None
        self._workspaces: Optional[list] = None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def program(self, program, lockstep) -> None:
        """Record ``Simulator.replay(program, lockstep)``."""
        self.ops.append((_PROGRAM, program, lockstep))

    def hold(self, buffers, region: str, runs) -> None:
        """Record ``buffers.hold_many(region, runs)`` (``region``
        canonical, ``runs`` checked)."""
        self.ops.append((_HOLD, buffers, region, runs))

    def account(self, program, lockstep, fn, args, buffers, scratch: int) -> None:
        """Record ``fn(*args)``, a SUMMA call's accounting: ``program`` (of
        lockstep form ``lockstep``) where ``buffers`` is None or each of its
        ranks' workspace arena already holds ``scratch`` more bytes."""
        self.ops.append((_ACCOUNT, program, lockstep, fn, args, buffers, scratch))

    def add_grad(self, param, grad) -> None:
        """Record ``param.add_grad(grad)`` by the parameter's position; a
        parameter outside the recorded layer poisons the tape."""
        index = self.params.get(id(param))
        if index is None:
            self.poison()
            param.add_grad(grad)
        else:
            self.ops.append((_GRAD, index, grad))

    def poison(self) -> None:
        """Stop recording for good: make the calls recorded so far, in
        order, before the caller mutates simulated state another way."""
        sim = self.sim
        if sim.tape is self:
            sim.tape = None
        self.poisoned = True
        ops, self.ops = self.ops, []
        _make(sim, ops, self.layer)

    # ------------------------------------------------------------------
    # applying
    # ------------------------------------------------------------------
    def apply(self, params: Sequence[object]) -> None:
        """Make the recorded calls once per rank class (see the class
        notes); ``params`` is the layer's ``parameters()``."""
        sim = self.sim
        devices = sim.devices
        if self._arenas is None:
            self._touched(len(devices))
        workspaces = self._workspaces
        if workspaces is None:
            return _make(sim, self.ops, params)
        for buffers, nbytes in workspaces:
            if not buffers.fits("workspace", buffers.ranks, nbytes):
                return _make(sim, self.ops, params)
        for d in devices:
            m = d.memory
            if m.timeline is not None or (m.strict and m.capacity is not None):
                return _make(sim, self.ops, params)
        columns, labels, reps = self._start(devices)
        clocks: Dict[float, int] = {}
        key = labels, tuple([clocks.setdefault(columns[0][r][0], len(clocks)) for r in reps])
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._derive(*key)
        ops, copies = plan
        _make(sim, ops, params)
        if copies:
            self._copy(devices, copies, columns)

    def _touched(self, n: int) -> None:
        """Note the buffer arenas the ops hold in, each as the list of its
        per-rank arenas in rank order, and the SUMMA workspaces with the
        largest block each must already hold for the tape to be applied by
        class (:attr:`_workspaces`; None for never: a workspace the ops also
        hold in, where a call decides mid-tape)."""
        seen = set()  # (id(buffers), region)
        arenas, workspaces, held = [], {}, set()
        for op in self.ops:
            if op[0] == _ACCOUNT and op[5] is not None:
                buffers = op[5]
                most = workspaces.get(id(buffers), (None, 0))[1]
                workspaces[id(buffers)] = buffers, max(most, op[6])
            elif op[0] == _HOLD:
                buffers, region = op[1], op[2]
                if region == "workspace":
                    held.add(id(buffers))
                if (id(buffers), region) not in seen:
                    seen.add((id(buffers), region))
                    per_rank = buffers.arenas(region)
                    arenas.append(
                        (buffers, region, [per_rank.get(r, _NoArena) for r in range(n)])
                    )
        self._arenas = arenas
        self._workspaces = None if held & workspaces.keys() else list(workspaces.values())

    def _start(self, devices) -> tuple:
        """Every rank's start state (see the class notes) as columns of
        per-rank values (counters, meter, ``by_tag``, then one per arena),
        the start partition (a class label per rank, in order of first
        appearance) and each class's first rank."""
        meters = [d.memory for d in devices]
        columns = [
            list(map(_counters, devices)),
            list(map(_meter_state, meters)),
            list(map(_by_tag, meters)),
        ]
        for _buffers, _region, arenas in self._arenas:
            columns.append(list(map(_arena_state, arenas)))
        n = len(devices)
        varying = [column for column in columns if column.count(column[0]) != n]
        if not varying:
            return columns, (0,) * n, [0]
        # ``by_tag`` compares as a dict (a class's members may list its tags
        # in another order, which the copy keeps: see :meth:`_copy`), and
        # is hashed only where the other columns do not already part it
        tags = columns[2]
        keyed = [column for column in varying if column is not tags]
        labels, reps = _partition(keyed) if keyed else (None, None)
        if len(keyed) < len(varying) and (
            labels is None or not all([t == tags[reps[l]] for t, l in zip(tags, labels)])
        ):
            keyed.append([frozenset(t.items()) for t in tags])
            labels, reps = _partition(keyed)
        return columns, labels, reps

    def _derive(self, labels: tuple, clock_of_label: tuple) -> tuple:
        """The plan for a start partition (``labels``, a class per rank, and
        ``clock_of_label``, a clock id per class): ``(ops, copies)``, the ops
        to make and, per class of several ranks the ops reach, ``(rep,
        members)``.  Every rank its own class: the recorded ops, no
        copies."""
        n = len(labels)
        singletons = self.ops, ()
        start = len(clock_of_label)
        ids = defaultdict(count(start).__next__)  # (id, effect) -> id
        cids = defaultdict(count(start).__next__)  # the same for clock ids
        # a rank's id is now[base[r]], its clock id cnow[cbase[r]]: an effect
        # on every rank maps the few ids, one on some ranks rebases first
        base, cbase = list(labels), [clock_of_label[label] for label in labels]
        now, cnow = {i: i for i in base}, {c: c for c in cbase}
        mixed = []  # (group, clock id per member) of lines meeting several clocks
        symmetric = set()  # the indices of the ops made as lockstep chains
        covering: Dict[int, bool] = {}  # id(ranks) -> every rank once?

        def covers(ranks) -> bool:
            known = covering.get(id(ranks))
            if known is None:
                known = covering[id(ranks)] = len(ranks) == n and len(set(ranks)) == n
            return known

        def rebase() -> Tuple[list, list]:  # the ids by rank, to change
            nonlocal base, cbase
            base = list(map(now.__getitem__, base))
            cbase = list(map(cnow.__getitem__, cbase))
            return base, cbase

        def rebased() -> Tuple[dict, dict]:  # after the change
            return {i: i for i in set(base)}, {c: c for c in set(cbase)}

        def effect(ranks, key, clocked: bool) -> None:  # one on each of ranks
            nonlocal now, cnow
            if ranks is None or covers(ranks):  # (None: every rank)
                now = {b: ids[j, key] for b, j in now.items()}
                if clocked:
                    cnow = {b: cids[c, key] for b, c in cnow.items()}
                return
            lab, clk = rebase()
            for r in ranks:
                lab[r] = ids[lab[r], key]
                if clocked:
                    clk[r] = cids[clk[r], key]
            now, cnow = rebased()

        for i, op in enumerate(self.ops):
            kind = op[0]
            if kind == _HOLD:
                for ranks, sizes in op[3]:
                    effect(ranks, (_HOLD, id(op[1]), op[2], tuple(sizes)), False)
                continue
            if kind == _GRAD:
                continue
            program, lockstep = op[1], op[2]  # (a SUMMA call's workspaces fit)
            if lockstep is not None:
                scope = lockstep[0]  # devices
                if id(scope) not in covering:
                    covering[id(scope)] = len({d.rank for d in scope}) == len(scope) == n
                if covering[id(scope)] and len(set(cnow.values())) == 1:
                    # rank-symmetric over every rank, which meet with one
                    # clock: one effect, the lockstep chains
                    symmetric.add(i)
                    effect(None, (_LOCKSTEP, id(lockstep)), True)
                    continue
            for entry in program:
                if entry[0] == COMPUTE:
                    effect(entry[1], (COMPUTE, tuple(entry[2])), True)
                elif entry[0] == COLLECTIVES:
                    lines = [line for line in entry[2] if len(line[0].ranks) > 1]
                    members = [r for group, _ in lines for r in group.ranks]
                    if len(set(members)) != len(members):
                        return singletons  # a rank on two lines of one entry
                    clocks = set(cnow.values())
                    if len(members) == n and len(clocks) == 1 and len({c for _, c in lines}) == 1:
                        # every rank on a line, every line alike: one effect
                        key = (COLLECTIVES, lines[0][1], frozenset(clocks))
                        now = {b: ids[j, key] for b, j in now.items()}
                        cnow = dict.fromkeys(cnow, cids[key])
                        continue
                    lab, clk = rebase()
                    for group, cost in lines:
                        ranks = group.ranks
                        seen = frozenset([clk[r] for r in ranks])
                        if len(seen) > 1:
                            mixed.append((group, {r: clk[r] for r in ranks}))
                        key = (COLLECTIVES, cost, seen)
                        after = cids[key]
                        for r in ranks:
                            lab[r] = ids[lab[r], key]
                            clk[r] = after
                    now, cnow = rebased()
        lab = [now[i] for i in base]
        while True:
            classes: Dict[int, list] = {}
            for r, label in enumerate(lab):
                classes.setdefault(label, []).append(r)
            if len(classes) == n:
                return singletons
            reps = {members[0] for members in classes.values()}
            # a line meeting several clocks is made on its representatives
            # only, so it must hold one of each clock
            split = None
            for group, seen in mixed:
                have = {seen[r] for r in group.ranks if r in reps}
                if have and len(have) < len(set(seen.values())):
                    split = next(r for r in group.ranks if seen[r] not in have)
                    break
            if split is None:
                break
            lab[split] = -1 - split  # a class of its own
        copies = [
            (members[0], members[1:])
            for label, members in classes.items()
            if len(members) > 1 and label >= start
        ]
        return self._restrict(reps, symmetric, covers), copies

    def _restrict(self, reps: set, symmetric: set, covers) -> list:
        """The ops made on the representatives ``reps`` only: runs, compute
        entries and a SUMMA call's workspace keep the ranks among them, a
        line its representatives' devices, and an op of ``symmetric``
        (indices) becomes its lockstep chains on the representatives in its
        scope.  Consecutive programs are one."""
        order = sorted(reps)
        out: List[tuple] = []
        for i, op in enumerate(self.ops):
            kind = op[0]
            if kind == _GRAD:
                out.append(op)
                continue
            if kind == _HOLD:
                runs = []
                for ranks, sizes in op[3]:
                    mine = [r for r in ranks if r in reps]
                    if mine:
                        runs.append((mine, sizes))
                if runs:
                    out.append((_HOLD, op[1], op[2], runs))
                continue
            program, lockstep = op[1], op[2]
            if i in symmetric:
                out.append((_LOCKSTEP, [d for d in lockstep[0] if d.rank in reps], lockstep[1]))
                continue
            entries = []
            for entry in program:
                if entry[0] == COMPUTE:
                    ranks = entry[1]
                    mine = order if covers(ranks) else [r for r in ranks if r in reps]
                    if mine:
                        entries.append((COMPUTE, mine, entry[2]))
                elif entry[0] == COLLECTIVES:
                    lines = [
                        (_Line(group, [d for d in group.devices if d.rank in reps]), cost)
                        for group, cost in entry[2]
                        if not reps.isdisjoint(group.ranks)
                    ]
                    if lines:
                        entries.append((COLLECTIVES, entry[1], lines))
            if not entries:
                continue
            if out and out[-1][0] == _PROGRAM:
                out[-1][1].extend(entries)
            else:
                out.append((_PROGRAM, entries, None))
        return out

    def _copy(self, devices, copies, columns) -> None:
        """Copy each representative's end state to the other members of its
        class: the counters, the meter and the arenas it moved, their gauges
        with them."""
        for rep, members in copies:
            d = devices[rep]
            counters = _counters(d)
            m = d.memory
            # the meter moves only by allocations here, each one counted
            meter = m.num_allocs != columns[1][rep][2] and (m.current, m.peak, m.num_allocs)
            by_tag = m.by_tag
            moved = []
            for (buffers, region, arenas), column in zip(self._arenas, columns[3:]):
                before = column[rep]
                st = arenas[rep]
                if (st.usage, st.capacity) != before:
                    grew = st.capacity != before[1]
                    moved.append((buffers, region, arenas, st.usage, st.capacity,
                                  grew and st.gauge.value))
            for x in members:
                dx = devices[x]
                (dx.clock, dx.flops, dx.flops_gemm, dx.compute_time, dx.comm_time,
                 dx.bytes_comm, dx.weighted_comm_volume, dx.num_collectives) = counters
                if meter:
                    mx = dx.memory
                    mx.current, mx.peak, mx.num_allocs = meter
                    # (new tags in the order the representative took them,
                    # as the member would have)
                    mx.by_tag.update(by_tag)
                for buffers, region, arenas, usage, capacity, value in moved:
                    st = arenas[x]
                    st.usage, st.capacity = usage, capacity
                    if value is not False:
                        (st.gauge or buffers.gauge(region, x)).value = value


def _partition(columns: list) -> Tuple[tuple, list]:
    """The classes of ranks equal in every column of per-rank values: a
    label per rank, in order of first appearance, and each class's first
    rank."""
    index: Dict[object, int] = {}
    states = columns[0] if len(columns) == 1 else zip(*columns)
    labels = tuple([index.setdefault(state, len(index)) for state in states])
    return labels, [labels.index(label) for label in range(len(index))]


def _make(sim: "Simulator", ops: Sequence[tuple], params: Sequence[object]) -> None:
    """Make a tape's ops, or a class plan's, in order (``params``: the
    layer's ``parameters()``)."""
    for op in ops:
        kind = op[0]
        if kind == _PROGRAM:
            sim.replay(op[1], op[2])
        elif kind == _HOLD:
            op[1].hold_many(op[2], op[3])
        elif kind == _ACCOUNT:
            op[3](*op[4])
        elif kind == _GRAD:
            params[op[1]].add_grad(op[2])
        elif not Simulator._lockstep(op[1], op[2]):
            for d in op[1]:
                Simulator._lockstep((d,), op[2])
