"""Dry-run layer tapes: a layer pass's accounting calls, recorded once and
applied once per rank class (see :class:`Tape` and ``docs/simulator.md``,
"Dry-run layer tapes").  The class plans are derived once per tape
structure in a process (:data:`_PLANS`) and shared by every tape of that
structure, in any simulator."""

from __future__ import annotations

from collections import defaultdict
from itertools import count
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runtime.memory import alloc_many
from repro.runtime.simulator import COLLECTIVES, COMPUTE, Simulator, _counters

#: the kinds of a :class:`Tape`'s ops
_PROGRAM, _HOLD, _ACCOUNT, _GRAD, _LOCKSTEP, _ALLOC = range(6)

#: the class plans of every tape structure so far: a tape's structure (see
#: :meth:`Tape._structure`) -> {(start partition, clock classes): template}.
#: A template names ops by index and ranks by number, never a simulator's
#: objects; each tape binds it to its own ops (:meth:`Tape._bind`)
_PLANS: Dict[tuple, dict] = {}
#: every rank set a structure has named, by value -> a small id
_RANK_SETS: Dict[tuple, int] = {}

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
    """The accounting calls of one dry-run pass — a layer's, or a model's
    parameter placement — applied once per rank class and, for a layer,
    replayed for an identical layer instead of re-running it.

    **Recording.**  While a tape records (it is its simulator's
    :attr:`Simulator.tape`), the five entry points append their call to
    :attr:`ops` and make nothing: :meth:`Simulator.replay`
    (:meth:`program`), ``BufferManager.hold_many`` (:meth:`hold`), SUMMA's
    ``_account`` (:meth:`account`), ``charge_param_memory`` (:meth:`alloc`)
    and ``DistParam.add_grad`` (:meth:`add_grad`; a gradient is recorded
    against the parameter's position in the recorded layer's
    ``parameters()``).  Nothing reads simulated state between those calls,
    so the pass's code runs as if they had been made; the recording pass
    then applies the tape like a replay.  Any other mutator of simulated
    state reached while recording (``SimDevice.compute`` / ``charge_comm``,
    ``sync`` / ``advance``, the other ``BufferManager`` mutators, a gradient
    of a parameter outside the layer) first calls :meth:`poison`: the calls
    recorded so far are made, in order, recording stops and the tape is
    never applied.

    **Applying** (:meth:`apply`).  Every rank's start state is read — the
    eight :data:`COUNTERS`, the memory meter (``current``, ``peak``,
    ``num_allocs``, ``by_tag``) and the usage and capacity of every buffer
    arena the ops hold in — and ranks with equal states are one start class.
    A plan per start partition (and partition of the classes' clocks) is
    derived (:meth:`_derive`): the hash-consed proof of
    :meth:`Simulator.lockstep` extended to every op — each rank carries the
    id of its history, an id and an op's effect on the rank (for a
    collective line, with the set of its members' clock ids) map to one new
    id — splits the start classes into the classes of ranks that end in the
    same state.  The plan makes each op once per class, on the class's first
    rank (its representative), and then each representative's end state is
    copied to the other members of its class.  A start state or op that
    splits a class only makes more classes, down to one per rank, where the
    plan is the recorded ops themselves; so is it when a meter is strict (an
    overflow raises at the binding hold, the ranks before it charged) or
    samples a timeline, when a program's lines overlap, and while a SUMMA
    call's workspace would grow, is unmanaged or is also held by the tape:
    the call then decides as it is made, and a cold one keeps its books step
    by step, rank by rank.

    **Shared plans.**  A plan reads only the tape's structure
    (:meth:`_structure`: each op's kind and rank sets, each effect as its
    equality class among the tape's effects, the program forms) and the
    start partition, so it is kept once per structure in a process
    (:data:`_PLANS`) as a template of op indices and rank numbers, and every
    tape of that structure, in any simulator, binds the template to its own
    ops (:meth:`_bind`) instead of deriving it again."""

    __slots__ = (
        "sim", "ops", "layer", "params", "poisoned", "_arenas", "_workspaces",
        "_row", "_steps", "_bound",
    )

    def __init__(self, sim: "Simulator", params: Sequence[object] = ()):
        self.sim = sim
        self.ops: List[tuple] = []
        self.layer = list(params)
        self.params = {id(p): i for i, p in enumerate(self.layer)}
        self.poisoned = False
        #: set on the first apply (see :meth:`_touched`)
        self._arenas: Optional[list] = None
        self._workspaces: Optional[list] = None
        #: this tape's row of :data:`_PLANS` and its ops as :meth:`_derive`
        #: reads them, set on the first class apply (:meth:`_structure`)
        self._row: Optional[dict] = None
        self._steps: Optional[list] = None
        #: the last template applied and its binding to :attr:`ops`
        self._bound: Optional[tuple] = None

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

    def account(self, program, lockstep, form, fn, args, buffers, scratch: int) -> None:
        """Record ``fn(*args)``, a SUMMA call's accounting: ``program`` (of
        lockstep form ``lockstep``, keyed as ``form``: see
        :func:`_program_form`) where ``buffers`` is None or each of its
        ranks' workspace arena already holds ``scratch`` more bytes."""
        self.ops.append((_ACCOUNT, program, lockstep, fn, args, buffers, scratch, form))

    def alloc(self, runs, tag: str) -> None:
        """Record ``runtime.memory.alloc_many`` of ``nbytes`` on each meter
        of ``ranks`` under ``tag``, per ``(nbytes, ranks)`` of ``runs`` in
        order (each count a non-negative int).  Consecutive allocations
        under one tag are one op, as one ``alloc_many`` charges what
        consecutive ones do."""
        ops = self.ops
        if ops and ops[-1][0] == _ALLOC and ops[-1][1] == tag:
            ops[-1][2].extend(runs)
        else:
            ops.append((_ALLOC, tag, list(runs)))

    def add_grad(self, param, grad) -> None:
        """Record ``param.add_grad(grad)`` by the parameter's position; a
        parameter outside the recorded layer poisons the tape."""
        index = self.params.get(id(param))
        if index is None:
            self.poison()
            param.add_grad(grad)
        else:
            self.ops.append((_GRAD, index, grad))

    def record(self, fn, *args):
        """``fn(*args)`` with this tape recording; a call that raises makes
        what was recorded before the error propagates.  The caller applies
        the tape unless it is :attr:`poisoned`."""
        sim = self.sim
        sim.tape = self
        try:
            return fn(*args)
        except BaseException:
            if not self.poisoned:
                self.poison()  # make what was recorded before the raise
            raise
        finally:
            sim.tape = None

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
        row = self._row
        if row is None:
            sig, self._steps = self._structure()
            row = self._row = _PLANS.setdefault(sig, {})
        template = row.get(key)
        if template is None:
            template = row[key] = self._derive(*key)
        bound = self._bound
        if bound is None or bound[0] is not template:
            bound = self._bound = template, self._bind(template)
        ops, copies = bound[1]
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

    def _structure(self) -> Tuple[tuple, list]:
        """The tape's structure — the key of its row of :data:`_PLANS` —
        and its ops as :meth:`_derive` and :meth:`_restrict` read them
        (``steps``), one entry per op:

        * ``(_GRAD,)``;
        * ``(kind, runs)`` for a hold or an allocation: per run its ranks
          and its effect's class (below);
        * ``(_PROGRAM, lockstep?, classes, skeleton, scope, form key)`` for
          a program or a SUMMA accounting: whether it has a lockstep form,
          the class of each of its value slots, and its form's skeleton and
          scope (:func:`_program_form`).

        An effect's class is its index among the distinct effects of the
        tape in order of first appearance, an effect being by value a
        compute entry's charges, a line's price, a hold's sizes with its
        region and buffer manager (the managers themselves by class) or an
        allocation's tag and size.  The structure holds the same with each
        rank set as a small id and each program as its form's key (whose
        scope tells a lockstep form apart), never a simulator's objects: two
        tapes of one structure make their ops on equal rank sets, with
        effects equal exactly where the other's are."""
        effects: Dict[object, int] = {}
        managers: Dict[int, int] = {}
        sets: Dict[tuple, tuple] = {}  # a run's ranks -> one object per set

        def ranked(ranks) -> tuple:  # (read by id in _derive and _restrict)
            ranks = tuple(ranks)
            return sets.setdefault(ranks, ranks)

        sig, steps = [], []
        for op in self.ops:
            kind = op[0]
            if kind == _GRAD:
                step = item = (_GRAD,)
            elif kind == _HOLD:
                held = _HOLD, managers.setdefault(id(op[1]), len(managers)), op[2]
                runs = [
                    (ranked(ranks), effects.setdefault(held + (tuple(sizes),), len(effects)))
                    for ranks, sizes in op[3]
                ]
                step = (_HOLD, runs)
                item = (_HOLD, tuple([(_rank_set(r), e) for r, e in runs]))
            elif kind == _ALLOC:
                tag = op[1]
                runs = [
                    (ranked(ranks), effects.setdefault((_ALLOC, tag, nbytes), len(effects)))
                    for nbytes, ranks in op[2]
                ]
                step = (_ALLOC, runs)
                item = (_ALLOC, tuple([(_rank_set(r), e) for r, e in runs]))
            else:
                form = op[7] if kind == _ACCOUNT else _program_form(op[1], op[2])
                form_key, skeleton, scope, values = form
                classes = tuple([effects.setdefault(v, len(effects)) for v in values])
                step = (_PROGRAM, op[2] is not None, classes, skeleton, scope, form_key)
                item = (_PROGRAM, form_key, classes)
            sig.append(item)
            steps.append(step)
        return tuple(sig), steps

    def _derive(self, labels: tuple, clock_of_label: tuple) -> Optional[tuple]:
        """The template for a start partition (``labels``, a class per rank,
        and ``clock_of_label``, a clock id per class): ``(plan, copies)``,
        the plan :meth:`_restrict` makes and, per class of several ranks the
        ops reach, ``(rep, members)``; or None where every rank is its own
        class (the recorded ops, no copies).  Reads :attr:`_steps` only."""
        n = len(labels)
        start = len(clock_of_label)
        ids = defaultdict(count(start).__next__)  # (id, effect) -> id
        cids = defaultdict(count(start).__next__)  # the same for clock ids
        # a rank's id is now[base[r]], its clock id cnow[cbase[r]]: an effect
        # on every rank maps the few ids, one on some ranks rebases first
        base, cbase = list(labels), [clock_of_label[label] for label in labels]
        now, cnow = {i: i for i in base}, {c: c for c in cbase}
        mixed = []  # (ranks, clock id per member) of lines meeting several clocks
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

        for i, step in enumerate(self._steps):
            kind = step[0]
            if kind == _GRAD:
                continue
            if kind != _PROGRAM:  # a hold or an allocation
                for ranks, key in step[1]:
                    effect(ranks, key, False)
                continue
            _, lockstep, classes, skeleton, scope, form_key = step
            if lockstep and covers(scope) and len(set(cnow.values())) == 1:
                # rank-symmetric over every rank, which meet with one
                # clock: one effect, the lockstep chains
                symmetric.add(i)
                effect(None, (_LOCKSTEP, form_key, classes), True)
                continue
            for entry in skeleton:
                if entry is None:
                    continue
                if entry[0] == COMPUTE:
                    effect(entry[1], classes[entry[2]], True)
                    continue
                lines = [(ranks, classes[slot]) for ranks, slot in entry[2] if len(ranks) > 1]
                members = [r for ranks, _ in lines for r in ranks]
                if len(set(members)) != len(members):
                    return None  # a rank on two lines of one entry
                clocks = set(cnow.values())
                if len(members) == n and len(clocks) == 1 and len({c for _, c in lines}) == 1:
                    # every rank on a line, every line alike: one effect
                    key = (COLLECTIVES, lines[0][1], frozenset(clocks))
                    now = {b: ids[j, key] for b, j in now.items()}
                    cnow = dict.fromkeys(cnow, cids[key])
                    continue
                lab, clk = rebase()
                for ranks, cost in lines:
                    seen = frozenset([clk[r] for r in ranks])
                    if len(seen) > 1:
                        mixed.append((ranks, {r: clk[r] for r in ranks}))
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
                return None
            reps = {members[0] for members in classes.values()}
            # a line meeting several clocks is made on its representatives
            # only, so it must hold one of each clock
            split = None
            for ranks, seen in mixed:
                have = {seen[r] for r in ranks if r in reps}
                if have and len(have) < len(set(seen.values())):
                    split = next(r for r in ranks if seen[r] not in have)
                    break
            if split is None:
                break
            lab[split] = -1 - split  # a class of its own
        copies = tuple([
            (members[0], tuple(members[1:]))
            for label, members in classes.items()
            if len(members) > 1 and label >= start
        ])
        return self._restrict(reps, symmetric, covers), copies

    def _restrict(self, reps: set, symmetric: set, covers) -> list:
        """The plan of the ops made on the representatives ``reps`` only:
        runs, compute entries and a SUMMA call's workspace keep the ranks
        among them, a line its representatives' positions, and an op of
        ``symmetric`` (indices) becomes its lockstep chains on the
        representatives in its scope.  Consecutive programs are one.  Each
        item names its op by index (see :meth:`_bind`)."""
        order = tuple(sorted(reps))
        found: Dict[int, tuple] = {}  # id(ranks) -> the representatives among them

        def among(ranks) -> tuple:
            mine = found.get(id(ranks))
            if mine is None:
                mine = found[id(ranks)] = tuple([r for r in ranks if r in reps])
            return mine

        out: List[tuple] = []
        for i, step in enumerate(self._steps):
            kind = step[0]
            if kind == _GRAD:
                out.append((_GRAD, i))
                continue
            if kind != _PROGRAM:
                runs = []
                for k, (ranks, _key) in enumerate(step[1]):
                    mine = among(ranks)
                    if mine:
                        runs.append((k, mine))
                if runs:
                    out.append((kind, i, tuple(runs)))
                continue
            skeleton, scope = step[3], step[4]
            if i in symmetric:
                out.append((_LOCKSTEP, i, tuple([x for x, r in enumerate(scope) if r in reps])))
                continue
            entries = []
            for e, entry in enumerate(skeleton):
                if entry is None:
                    continue
                if entry[0] == COMPUTE:
                    ranks = entry[1]
                    mine = order if covers(ranks) else among(ranks)
                    if mine:
                        entries.append((COMPUTE, i, e, mine))
                else:
                    lines = tuple([
                        (k, tuple([x for x, r in enumerate(ranks) if r in reps]))
                        for k, (ranks, _slot) in enumerate(entry[2])
                        if not reps.isdisjoint(ranks)
                    ])
                    if lines:
                        entries.append((COLLECTIVES, i, e, lines))
            if not entries:
                continue
            if out and out[-1][0] == _PROGRAM:
                out[-1][1].extend(entries)
            else:
                out.append((_PROGRAM, entries))
        return out

    def _bind(self, template: Optional[tuple]) -> tuple:
        """``(ops, copies)``: a template of :data:`_PLANS` (see
        :meth:`_derive`) made of this tape's ops — the recorded ops
        themselves for None."""
        if template is None:
            return self.ops, ()
        plan, copies = template
        ops = self.ops
        out: List[tuple] = []
        for item in plan:
            kind = item[0]
            if kind == _PROGRAM:
                entries = []
                for t in item[1]:
                    entry = ops[t[1]][1][t[2]]
                    if t[0] == COMPUTE:
                        entries.append((COMPUTE, t[3], entry[2]))
                        continue
                    lines = entry[2]
                    made = []
                    for k, where in t[3]:
                        group, cost = lines[k]
                        members = group.devices
                        made.append((_Line(group, [members[x] for x in where]), cost))
                    entries.append((COLLECTIVES, entry[1], made))
                out.append((_PROGRAM, entries, None))
                continue
            op = ops[item[1]]
            if kind == _GRAD:
                out.append(op)
            elif kind == _HOLD:
                runs = op[3]
                out.append((_HOLD, op[1], op[2], [(mine, runs[k][1]) for k, mine in item[2]]))
            elif kind == _ALLOC:
                out.append((_ALLOC, op[1], [(op[2][k][0], mine) for k, mine in item[2]]))
            else:  # _LOCKSTEP
                devices, chains = op[2]
                out.append((_LOCKSTEP, [devices[x] for x in item[2]], chains))
        return out, copies

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


def _rank_set(ranks: tuple) -> int:
    """The small id of a rank set in a tape structure (:data:`_RANK_SETS`)."""
    return _RANK_SETS.setdefault(ranks, len(_RANK_SETS))


def _program_form(program, lockstep) -> tuple:
    """A program's *form*, what a tape's structure reads of it:
    ``(key, skeleton, scope, values)`` — per entry of the program its ranks
    and value slots (``(COMPUTE, ranks, slot)``, ``(COLLECTIVES, kind,
    ((ranks, slot), …))``, None for a span entry), the lockstep form's
    ranks (None without one), per slot its value (``(COMPUTE, charges)``
    or ``(COLLECTIVES, price)``), and a key equal only for equal skeletons
    and scopes.  A SUMMA plan builds its own, keyed by its structure
    (``core.summa._Structure``); every other program is read here."""
    skeleton, values = [], []
    for entry in program:
        op = entry[0]
        if op == COMPUTE:
            skeleton.append((COMPUTE, tuple(entry[1]), len(values)))
            values.append((COMPUTE, tuple(entry[2])))
        elif op == COLLECTIVES:
            lines = []
            for group, cost in entry[2]:
                lines.append((group.ranks, len(values)))
                values.append((COLLECTIVES, cost))
            skeleton.append((COLLECTIVES, entry[1], tuple(lines)))
        else:
            skeleton.append(None)
    scope = None if lockstep is None else tuple([d.rank for d in lockstep[0]])
    key = []
    for entry in skeleton:
        if entry is not None:
            if entry[0] == COMPUTE:
                entry = COMPUTE, _rank_set(entry[1]), entry[2]
            else:
                entry = COLLECTIVES, entry[1], tuple(
                    [(_rank_set(ranks), slot) for ranks, slot in entry[2]]
                )
        key.append(entry)
    key = tuple(key), None if scope is None else _rank_set(scope)
    return key, skeleton, scope, values


def _make(sim: "Simulator", ops: Sequence[tuple], params: Sequence[object]) -> None:
    """Make a tape's ops, or a class plan's, in order (``params``: the
    layer's ``parameters()``)."""
    devices = sim.devices
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
        elif kind == _ALLOC:
            alloc_many(
                [(devices[rank].memory, nbytes) for nbytes, ranks in op[2] for rank in ranks],
                op[1],
            )
        elif not Simulator._lockstep(op[1], op[2]):
            for d in op[1]:
                Simulator._lockstep((d,), op[2])
