"""Bulk charges ≡ the per-rank loops they replaced.

``Simulator.replay`` (an accounting program's entries from one frame),
its one-entry forms ``charge_compute`` and ``collectives.charge_only`` (all
of a mesh's lines in one call),
``BufferManager.hold_many`` (runs of ranks each holding a list of sizes) /
``compute_in_workspace`` and ``runtime.memory.alloc_many`` (parameter
placement, arena growth) issue from one frame what used to be one
``SimDevice.compute`` / ``charge_comm`` / ``Simulator.sync`` + ``advance`` /
``BufferManager.hold`` / ``release`` / ``MemoryMeter.alloc`` call per rank.
Those methods stay the single-device definitions; here a random program runs
once through each on two fresh simulators and everything observable must
agree: per-rank counters and clocks, the trace (order included), the memory
timeline, the metrics registry (creation order included), every region's
usage and capacity — and, under a strict capacity, the rank an overflow is
raised on and the state it leaves.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import ops
from repro.backend.shape_array import ShapeArray
from repro.comm import collectives as coll
from repro.comm.group import ProcessGroup
from repro.core.buffers import REGIONS, BufferManager
from repro.mesh.mesh import Mesh
from repro.runtime.events import NULL_SPAN
from repro.core.param import DistParam, charge_param_memory
from repro.mesh.dtensor import DTensor
from repro.mesh.layouts import BLOCKED_2D
from repro.runtime.memory import OutOfDeviceMemory, alloc_many
from repro.runtime.simulator import CLOSE, COLLECTIVES, COUNTERS, OPEN, Simulator

_REGION = st.sampled_from(REGIONS)
_BYTES = st.integers(0, 5_000)
_FLOPS = st.one_of(st.just(0.0), st.floats(1.0, 1e13), st.integers(1, 10**9))
_CHARGE = st.tuples(_FLOPS, st.sampled_from(["gemm", "elementwise"]))


def _ranks(p):
    return st.lists(st.integers(0, p - 1), min_size=1, max_size=p, unique=True)


def _program(q):
    p = q * q
    sizes = st.one_of(
        st.tuples(st.just("uniform"), _BYTES),
        st.tuples(st.just("ragged"), st.lists(_BYTES, min_size=p, max_size=p)),
    )
    op = st.one_of(
        st.tuples(st.just("compute"), _ranks(p), st.lists(_CHARGE, min_size=1, max_size=4)),
        st.tuples(
            st.just("collective"), st.integers(0, 2 * q), st.floats(0.0, 1e-2),
            st.floats(0.0, 1e9), st.floats(0.0, 1e9),
        ),
        st.tuples(st.just("hold"), _REGION, _ranks(p), sizes),
        st.tuples(
            st.just("runs"), _REGION,
            st.lists(st.tuples(_ranks(p), st.lists(_BYTES, max_size=3)), max_size=3),
        ),
        st.tuples(st.just("alloc"), _ranks(p), sizes, st.sampled_from(["params", "x"])),
        st.tuples(st.just("workspace"), _ranks(p), _BYTES, _FLOPS),
        st.tuples(st.just("reset"), _REGION),
        st.tuples(st.just("trim"), _REGION),
    )
    return st.lists(op, min_size=1, max_size=25)


def _charge_one_line(sim, group, kind, dt, nbytes, weighted):
    """One collective's charge, device by device (a size-1 group is free)."""
    if group.size <= 1:
        return
    t0 = sim.sync(group.ranks)
    sim.advance(group.ranks, dt)
    for r in group.ranks:
        sim.device(r).charge_comm(dt, nbytes, weighted)
    sim.tracer.record(
        kind, group.ranks, t0, t0 + dt,
        nbytes=nbytes, label=group.kind, weighted=weighted,
    )


def _holds(ranks, sizes):
    mode, n = sizes
    return [(r, n if mode == "uniform" else n[r]) for r in ranks]


def _runs(ranks, sizes):
    """:func:`_holds` as ``hold_many`` runs: one run for a uniform size, one
    per rank for ragged ones."""
    mode, n = sizes
    if mode == "uniform":
        return [(ranks, (n,))]
    return [([r], (n[r],)) for r in ranks]


class _Run:
    """One simulator with tracing and the memory timeline on."""

    def __init__(self, q, managed, capacity):
        self.sim = sim = Simulator.for_mesh(q=q, trace=True, strict_memory=capacity is not None)
        if capacity is not None:
            for d in sim.devices:
                d.memory.capacity = capacity
        sim.enable_memory_timeline()
        mesh = Mesh(sim, q)
        self.groups = mesh.row_groups + mesh.col_groups + [mesh.world]
        self.buffers = BufferManager(sim, managed=managed)
        self.ooms = []

    def run(self, program):
        for name, *args in program:
            try:
                getattr(self, name)(*args)
            except OutOfDeviceMemory as e:
                self.ooms.append((name, e.rank, e.requested, e.current))
        return self

    def reset(self, region):
        self.buffers.reset_region(region)

    def trim(self, region):
        self.buffers.trim_region(region)

    def observed(self):
        sim, buffers = self.sim, self.buffers
        return {
            "watermarks": sim.watermarks(),
            "events": sim.tracer.events,
            "timeline": sim.memory_timeline(),
            "metrics": sim.metrics.snapshot(),
            "metric order": [(m.name, m.labels) for m in sim.metrics],
            "regions": [
                (name, r, buffers.usage(name, r), buffers.capacity(name, r))
                for name in REGIONS for r in sim.ranks
            ],
            "by tag": [dict(d.memory.by_tag) for d in sim.devices],
            "ooms": self.ooms,
        }


class Bulk(_Run):
    def compute(self, ranks, charges):
        self.sim.charge_compute(ranks, charges)

    def collective(self, g, dt, nbytes, weighted):
        coll.charge_only("broadcast", [(self.groups[g], (dt, nbytes, weighted))])

    def hold(self, region, ranks, sizes):
        self.buffers.hold_many(region, _runs(ranks, sizes))

    def runs(self, region, runs):
        self.buffers.hold_many(region, runs)

    def alloc(self, ranks, sizes, tag):
        devices = self.sim.devices
        alloc_many([(devices[r].memory, n) for r, n in _holds(ranks, sizes)], tag)

    def workspace(self, ranks, nbytes, flops):
        self.buffers.compute_in_workspace(ranks, nbytes, flops)


class PerRank(_Run):
    """The loops the call sites had before the bulk entry points."""

    def compute(self, ranks, charges):
        for r in ranks:
            for flops, kind in charges:
                self.sim.device(r).compute(flops, kind=kind)

    def collective(self, g, dt, nbytes, weighted):
        _charge_one_line(self.sim, self.groups[g], "broadcast", dt, nbytes, weighted)

    def hold(self, region, ranks, sizes):
        for r, n in _holds(ranks, sizes):
            self.buffers.hold(region, r, n)

    def runs(self, region, runs):
        for ranks, sizes in runs:
            for r in ranks:
                for n in sizes:
                    self.buffers.hold(region, r, n)

    def alloc(self, ranks, sizes, tag):
        for r, n in _holds(ranks, sizes):
            self.sim.device(r).memory.alloc(n, tag)

    def workspace(self, ranks, nbytes, flops):
        for r in ranks:
            self.buffers.hold("workspace", r, nbytes)
            try:
                self.sim.device(r).compute(flops)
            finally:
                self.buffers.release("workspace", r, nbytes)


def _assert_equivalent(q, managed, capacity, program):
    got = Bulk(q, managed, capacity).run(program).observed()
    want = PerRank(q, managed, capacity).run(program).observed()
    for what in want:
        assert got[what] == want[what], what
    return want


@pytest.mark.parametrize("managed", [True, False], ids=["managed", "unmanaged"])
@pytest.mark.parametrize("q", [1, 2, 3])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bulk_entry_points_match_the_per_rank_loops(q, managed, data):
    _assert_equivalent(q, managed, None, data.draw(_program(q)))


@pytest.mark.parametrize("managed", [True, False], ids=["managed", "unmanaged"])
@pytest.mark.parametrize("q", [2, 3])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_strict_capacity_overflow_is_the_same_overflow(q, managed, data):
    """Same rank, same ``requested`` / ``current``, same state left behind —
    and the program carries on identically after it."""
    _assert_equivalent(q, managed, 12_000, data.draw(_program(q)))


@pytest.mark.parametrize("managed", [True, False], ids=["managed", "unmanaged"])
def test_an_overflow_stops_the_bulk_call_at_the_binding_rank(managed):
    """A fixed program that overflows inside both bulk entry points (so the
    property above is not vacuous): ranks before the binding one are charged,
    the ones after it are not."""
    program = [
        ("hold", "forward", [0, 1, 2, 3], ("ragged", [10, 20, 500, 40])),
        ("workspace", [3, 2, 1, 0], 90, 1e9),
        ("hold", "forward", [1, 0], ("uniform", 60)),
    ]
    seen = _assert_equivalent(2, managed, 100, program)
    assert seen["ooms"] == [("hold", 2, 500, 0), ("workspace", 1, 90, 20)]
    assert [w["clock"] > 0 for w in seen["watermarks"]] == [False, False, True, True]
    assert [w["current_bytes"] for w in seen["watermarks"]] == (
        [70, 80, 90, 90] if managed else [70, 80, 0, 0]
    )


@pytest.mark.parametrize("managed", [True, False], ids=["managed", "unmanaged"])
def test_an_overflow_stops_a_run_at_the_binding_size(managed):
    """A run holds each of its sizes on a rank before the next rank: an
    overflow at a rank's second size leaves its first held and the ranks
    after it untouched, and a bulk allocation stops at its binding rank."""
    program = [
        ("alloc", [1], ("uniform", 50), "x"),
        ("runs", "forward", [([0, 1, 2], [30, 40])]),
        ("alloc", [0, 1, 2, 3], ("ragged", [10, 30, 5, 5]), "params"),
    ]
    seen = _assert_equivalent(2, managed, 100, program)
    assert seen["ooms"] == [("runs", 1, 40, 80), ("alloc", 1, 30, 80)]
    assert [w["current_bytes"] for w in seen["watermarks"]] == [80, 80, 0, 0]
    assert {("forward", 0, 70, 70), ("forward", 1, 30, 30), ("forward", 2, 0, 0)} <= set(
        seen["regions"]
    )


def _param(sim, kind):
    """A 2×2 mesh parameter: one placeholder for every rank, a block stack,
    or uneven blocks, each rank's of another byte count."""
    mesh = Mesh(sim, 2)
    if kind == "stack":
        blocks = np.zeros((2, 2, 3, 5))
        return DistParam("w", DTensor.from_blocks(mesh, BLOCKED_2D, blocks, (6, 10), mesh.ranks))
    if kind == "placeholders":
        shards = dict.fromkeys(mesh.ranks, ShapeArray((3, 5), "float32"))
    else:
        shards = {r: np.zeros(((1, 2)[r // 2], (5, 3)[r % 2])) for r in mesh.ranks}
        return DistParam("w", DTensor(mesh, BLOCKED_2D, shards, (3, 8)))
    return DistParam("w", DTensor(mesh, BLOCKED_2D, shards, (6, 10)))


@pytest.mark.parametrize("strict", [False, True], ids=["unlimited", "strict"])
@pytest.mark.parametrize("kind", ["placeholders", "stack", "ragged"])
def test_a_parameter_charge_is_one_alloc_per_shard(kind, strict):
    """``charge_param_memory`` (one ``alloc_many``) charges what
    ``MemoryMeter.alloc`` per shard, in shard order, did: every meter field
    and the timeline — and, with rank 2 full under a strict capacity, the
    overflow binds there, ranks 0 and 1 charged and rank 3 not."""
    seen = []
    for bulk in (True, False):
        sim = Simulator.for_mesh(q=2, strict_memory=strict)
        sim.enable_memory_timeline()
        for d in sim.devices:
            d.memory.capacity = 1000
        sim.device(2).memory.alloc(1000, "other")
        param, oom = _param(sim, kind), None
        try:
            if bulk:
                charge_param_memory(param, sim)
            else:
                for r, shard in param.data.shards.items():
                    sim.device(r).memory.alloc(ops.nbytes(shard), "params")
        except OutOfDeviceMemory as e:
            oom = (e.rank, e.requested, e.current)
        seen.append((
            oom,
            [(m.current, m.peak, m.num_allocs, m.by_tag)
             for m in (d.memory for d in sim.devices)],
            sim.memory_timeline(),
        ))
    assert seen[0] == seen[1]
    assert (seen[0][0] is not None) == strict
    assert (seen[0][1][3][0] == 0) == strict


@pytest.mark.parametrize("managed", [True, False], ids=["managed", "unmanaged"])
def test_an_overflowing_hold_leaves_its_region_unchanged(managed):
    """The refused bytes are not counted as held, so resetting the region
    afterwards frees exactly what was allocated."""
    program = [
        ("hold", "workspace", [0], ("uniform", 3795)),
        ("hold", "workspace", [0], ("uniform", 4103)),
        ("hold", "workspace", [0], ("uniform", 4103)),
        ("reset", "workspace"),
    ]
    seen = _assert_equivalent(2, managed, 12_000, program)
    assert seen["ooms"] == [("hold", 0, 4103, 7898)]
    assert ("workspace", 0, 0, 7898 if managed else 0) in seen["regions"]
    assert seen["by tag"][0]["buffer:workspace"] == (7898 if managed else 0)


@pytest.mark.parametrize("managed", [True, False], ids=["managed", "unmanaged"])
def test_a_fractional_hold_is_held_as_hold_holds_it(managed):
    """``hold`` truncates a byte count with ``int``; ``hold_many`` must too,
    or the arena would count 1.5 B against the meter's 1 B."""
    program = [("hold", "forward", [0, 1], ("ragged", [1.5, 2.9, 0, 0]))]
    seen = _assert_equivalent(2, managed, None, program)
    assert {("forward", 0, 1, 1), ("forward", 1, 2, 2)} <= set(seen["regions"])
    assert [w["current_bytes"] for w in seen["watermarks"]][:2] == [1, 2]


def test_negative_flops_charge_nothing():
    sim = Simulator.for_flat(p=3, trace=True)
    with pytest.raises(ValueError, match="negative flops"):
        sim.charge_compute([0, 1, 2], [(5.0, "gemm"), (-1.0, "gemm")])
    assert sim.elapsed() == 0.0 and sim.total_flops() == 0.0 and not sim.tracer.events


@pytest.mark.parametrize("flops", [math.nan, math.inf, -math.inf])
def test_non_finite_flops_charge_nothing(flops):
    """A NaN or infinite charge would leave a clock that ``elapsed()`` turns
    into NaN; both definitions refuse it before touching a counter."""
    sim = Simulator.for_flat(p=2, trace=True)
    with pytest.raises(ValueError, match="non-finite"):
        sim.charge_compute([0, 1], [(5.0, "gemm"), (flops, "gemm")])
    with pytest.raises(ValueError, match="non-finite"):
        sim.device(0).compute(flops)
    assert sim.elapsed() == 0.0 and sim.total_flops() == 0.0 and not sim.tracer.events


def _line_program(q, n_groups):
    p = q * q
    line = st.tuples(
        st.integers(0, n_groups - 1), st.floats(0.0, 1e-2), st.floats(0.0, 1e9),
        st.floats(0.0, 1e9),
    )
    op = st.one_of(
        st.tuples(st.just("compute"), _ranks(p), st.lists(_CHARGE, min_size=1, max_size=2)),
        st.tuples(
            st.just("lines"), st.sampled_from(["broadcast", "reduce", "all_reduce", "all_gather"]),
            st.lists(line, max_size=2 * q + 2),
        ),
    )
    return st.lists(op, min_size=1, max_size=12)


def _line_groups(sim, q):
    """A mesh's rows, columns and world, and two single-rank groups."""
    mesh = Mesh(sim, q)
    solo = [ProcessGroup(sim, (r,)) for r in (0, q * q - 1)]
    return mesh.row_groups + mesh.col_groups + [mesh.world] + solo


@pytest.mark.parametrize("q", [2, 3])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_multi_line_charge_is_one_charge_per_line(q, data):
    """``charge_only(kind, lines)`` charges each ``(group, precost)`` in turn
    exactly as one collective per line would — clocks (the barrier sees the
    lines before it), the four comm counters and the raw trace events — and
    a single-rank line charges nothing."""
    bulk, per_line = (Simulator.for_mesh(q=q, trace=True) for _ in range(2))
    groups = {sim: _line_groups(sim, q) for sim in (bulk, per_line)}
    for name, *args in data.draw(_line_program(q, len(groups[bulk]))):
        if name == "compute":
            for sim in (bulk, per_line):
                sim.charge_compute(*args)
            continue
        kind, lines = args
        coll.charge_only(kind, [(groups[bulk][g], (dt, nbytes, w)) for g, dt, nbytes, w in lines])
        for g, dt, nbytes, w in lines:
            _charge_one_line(per_line, groups[per_line][g], kind, dt, nbytes, w)
    seen = [
        (
            [(d.clock, d.comm_time, d.bytes_comm, d.weighted_comm_volume, d.num_collectives)
             for d in sim.devices],
            sim.tracer.events,
        )
        for sim in (bulk, per_line)
    ]
    assert seen[0] == seen[1]


@pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
@pytest.mark.parametrize("q", [2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_program_is_its_entries_in_order(q, traced, data):
    """One ``Simulator.replay`` of a program — compute entries, line
    entries, some wrapped in a span — charges what the per-rank calls and
    the span's context manager do one after the other: clocks, every
    counter, the raw events and the spans."""
    replayed, oracle = (Simulator.for_mesh(q=q, trace=traced) for _ in range(2))
    groups = {sim: _line_groups(sim, q) for sim in (replayed, oracle)}
    ops = data.draw(_line_program(q, len(groups[replayed])))
    spanned = data.draw(st.lists(st.booleans(), min_size=len(ops), max_size=len(ops)))
    program = []
    for i, ((name, *args), span) in enumerate(zip(ops, spanned)):
        if span:
            program.append((OPEN, f"op{i}", range(q * q), "test", {"i": i}))
        if name == "compute":
            program.append(replayed.compute_entry(*args))
        else:
            kind, lines = args
            program.append(
                (COLLECTIVES, kind,
                 [(groups[replayed][g], (dt, nbytes, w)) for g, dt, nbytes, w in lines])
            )
        if span:
            program.append((CLOSE,))
        with oracle.tracer.span(f"op{i}", range(q * q), "test", i=i) if span else NULL_SPAN:
            if name == "compute":
                ranks, charges = args
                for r in ranks:
                    for flops, kind in charges:
                        oracle.device(r).compute(flops, kind=kind)
            else:
                for g, dt, nbytes, w in lines:
                    _charge_one_line(oracle, groups[oracle][g], kind, dt, nbytes, w)
    replayed.replay(program)
    assert replayed.watermarks() == oracle.watermarks()
    assert replayed.tracer.events == oracle.tracer.events
    assert replayed.tracer.spans == oracle.tracer.spans
    assert replayed.tracer.open_span_count == 0


# ----------------------------------------------------------------------
# lockstep: a rank-symmetric program run once and copied to its scope
# ----------------------------------------------------------------------
def _counters(sim):
    return [tuple(getattr(d, name) for name in COUNTERS) for d in sim.devices]


_PRICE = st.tuples(st.floats(0.0, 1e-2), st.floats(0.0, 1e9), st.floats(0.0, 1e9))
_START = st.tuples(
    *[st.one_of(st.just(0.0), st.floats(0.0, 1e3)) for _ in COUNTERS[:-1]],
    st.integers(0, 50),
)


@st.composite
def _lockstep_case(draw, q):
    """A scope and a program over a mesh's lines (see :func:`_line_groups`:
    rows, columns, world, two single-rank groups), as indices, biased to
    rank-symmetric programs: compute on the whole scope, one price for every
    line of a partition.  The rest draws ranks, groups and prices freely."""
    p, n_groups = q * q, 2 * q + 3
    rows, cols = list(range(q)), list(range(q, 2 * q))
    scope = draw(st.one_of(
        st.just(("group", 2 * q)),  # the world
        st.tuples(st.just("group"), st.integers(0, 2 * q - 1)),  # a row or a column
        st.tuples(st.just("group"), st.sampled_from([2 * q + 1, 2 * q + 2])),  # one rank
        st.tuples(st.just("ranks"), _ranks(p)),
    ))
    lines = st.one_of(
        st.sampled_from([rows, cols, [2 * q], [2 * q + 1, 2 * q + 2]]),
        st.lists(st.integers(0, n_groups - 1), min_size=1, max_size=2 * q + 2),
    )
    entry = st.one_of(
        st.tuples(
            st.just("compute"), st.one_of(st.just(None), _ranks(p)),
            st.lists(_CHARGE, min_size=1, max_size=3),
        ),
        st.tuples(
            st.just("lines"), st.sampled_from(["broadcast", "reduce"]), lines,
            st.one_of(  # uniform: one price for every line; mixed: one each
                _PRICE, st.lists(_PRICE, min_size=2 * q + 2, max_size=2 * q + 2)
            ),
        ),
        st.just(("span",)),
    )
    return scope, draw(st.lists(entry, max_size=10))


def _lockstep_program(sim, q, case):
    """``case`` built on ``sim``: the scope's ranks and the program."""
    (kind, where), entries = case
    groups = _line_groups(sim, q)
    scope = list(groups[where].ranks) if kind == "group" else where
    program = []
    for i, (name, *args) in enumerate(entries):
        if name == "compute":
            ranks, charges = args
            program.append(sim.compute_entry(scope if ranks is None else ranks, charges))
        elif name == "lines":
            kind_, picks, price = args
            program.append((COLLECTIVES, kind_, [
                (groups[g], price if isinstance(price, tuple) else tuple(price[n]))
                for n, g in enumerate(picks)
            ]))
        else:
            program += [(OPEN, f"op{i}", scope, "test", {}), (CLOSE,)]
    return scope, program


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("q", [1, 2, 3, 8])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_lockstep_replay_is_the_per_rank_replay(q, traced, data):
    """A replay given the program's lockstep form leaves every counter of
    every device ``==`` a plain replay's, from equal start states (where a
    rank-symmetric program takes the lockstep path) and from states one ulp
    apart in one counter of one device (where it must not)."""
    case = data.draw(_lockstep_case(q))
    start = data.draw(_START)
    skew = data.draw(st.one_of(
        st.none(), st.tuples(st.integers(0, q * q - 1), st.sampled_from(COUNTERS))
    ))
    sims = [Simulator.for_mesh(q=q, trace=traced) for _ in range(2)]
    for sim in sims:
        for d in sim.devices:
            for name, value in zip(COUNTERS, start):
                setattr(d, name, value)
        if skew is not None:
            rank, name = skew
            d, value = sim.device(rank), getattr(sim.device(rank), name)
            setattr(d, name, value + 1 if name == "num_collectives" else math.nextafter(value, 1.0))
    (scope, fast), (_, plain) = (_lockstep_program(sim, q, case) for sim in sims)
    sims[0].replay(fast, sims[0].lockstep(fast, scope))
    sims[1].replay(plain)
    assert _counters(sims[0]) == _counters(sims[1])
    assert sims[0].tracer.events == sims[1].tracer.events


def _mesh_sim(q):
    sim = Simulator.for_mesh(q=q)
    return sim, Mesh(sim, q)


def test_a_symmetric_program_runs_once_and_is_copied(monkeypatch):
    """The property above is not vacuous: a mesh-wide program compiles, an
    untraced replay from equal states takes the lockstep path, and one that
    does not start equal or is traced runs the loop."""
    sim, mesh = _mesh_sim(3)
    price = (1e-3, 4096, 8192.0)
    program = [
        sim.compute_entry(mesh.ranks, [(6.0e9, "gemm"), (1.0e6, "elementwise")]),
        (COLLECTIVES, "broadcast", [(g, price) for g in mesh.row_groups]),
        (COLLECTIVES, "reduce", [(g, price) for g in mesh.col_groups]),
    ]
    form = sim.lockstep(program, mesh.ranks)
    assert form is not None
    devices, chains = form
    assert devices == sim.devices
    assert dict(zip(COUNTERS, chains)) == {
        "clock": (6.0e9 / sim.cluster.device.effective_flops,
                  1.0e6 / sim.cluster.device.effective_flops, 1e-3, 1e-3),
        "flops": (6.0e9, 1.0e6), "flops_gemm": (6.0e9,),
        "compute_time": chains[0][:2], "comm_time": (1e-3, 1e-3),
        "bytes_comm": (4096, 4096), "weighted_comm_volume": (8192.0, 8192.0),
        "num_collectives": (1, 1),
    }
    ran = []
    real = Simulator._lockstep
    monkeypatch.setattr(
        Simulator, "_lockstep", staticmethod(lambda *a: ran.append(real(*a)) or ran[-1])
    )
    sim.replay(program, form)
    assert ran == [True]
    sim.device(4).flops += 1.0
    sim.replay(program, form)
    assert ran == [True, False]
    sim.tracer.enabled = True
    sim.replay(program, form)
    assert ran == [True, False]


def test_a_non_uniform_program_has_no_lockstep_form():
    sim, mesh = _mesh_sim(2)
    price = (1e-3, 64, 64.0)
    rows = [(g, price) for g in mesh.row_groups]
    every = sim.compute_entry(mesh.ranks, [(1e9, "gemm")])
    part = sim.compute_entry([0], [(1e9, "gemm")])
    refuted = {
        # rank 0 alone computes: the scope ends in two states
        "partial compute": [every, part],
        # rank 0 reaches its row's barrier late
        "barrier out of step": [part, (COLLECTIVES, "broadcast", rows)],
        # the rows pay different prices
        "mixed prices": [(COLLECTIVES, "reduce", [(mesh.row_groups[0], price),
                                                   (mesh.row_groups[1], (2e-3, 64, 64.0))])],
        # one row pays, the other does not
        "one line": [(COLLECTIVES, "broadcast", rows[:1])],
        # "gemm" and "elementwise" flops land in different counters
        "mixed kinds": [sim.compute_entry([0, 1], [(1e9, "gemm")]),
                        sim.compute_entry([2, 3], [(1e9, "elementwise")])],
    }
    for why, program in refuted.items():
        assert sim.lockstep(program, mesh.ranks) is None, why
    # a charge outside the scope, and an empty scope
    assert sim.lockstep([every], mesh.row_groups[0].ranks) is None
    assert sim.lockstep([], []) is None
    # what holds: the same compute on a row, on that row's scope
    assert sim.lockstep([part, sim.compute_entry([1], [(1e9, "gemm")])], [0, 1]) is not None


def test_a_rank_listed_twice_is_charged_twice_in_lockstep():
    sims = [_mesh_sim(2)[0] for _ in range(2)]
    programs = [[sim.compute_entry([0, 1, 0, 1], [(1e9, "gemm")])] for sim in sims]
    form = sims[0].lockstep(programs[0], [0, 1])
    assert form is not None and form[1][1] == (1e9, 1e9)
    sims[0].replay(programs[0], form)
    sims[1].replay(programs[1])
    assert _counters(sims[0]) == _counters(sims[1])
    assert sims[0].device(0).flops == 2e9
