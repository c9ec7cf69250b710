"""Bulk charges ≡ the per-rank loops they replaced.

``Simulator.replay`` (an accounting program's entries from one frame),
its one-entry forms ``charge_compute`` / ``charge_collectives`` (through
``collectives.charge_only``, all of a mesh's lines in one call) and
``BufferManager.hold_many`` /
``compute_in_workspace`` issue from one frame what used to be one
``SimDevice.compute`` / ``charge_comm`` / ``Simulator.sync`` + ``advance`` /
``BufferManager.hold`` / ``release`` call per rank.  Those methods stay the
single-device definitions; here a random program runs once through each on two
fresh simulators and everything observable must agree: per-rank counters and
clocks, the trace (order included), the memory timeline, the metrics registry
(creation order included), every region's usage and capacity — and, under a
strict capacity, the rank an overflow is raised on and the state it leaves.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import collectives as coll
from repro.comm.group import ProcessGroup
from repro.core.buffers import REGIONS, BufferManager
from repro.mesh.mesh import Mesh
from repro.runtime import OutOfDeviceMemory, Simulator
from repro.runtime.events import NULL_SPAN
from repro.runtime.simulator import CLOSE, COLLECTIVES, OPEN

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
        self.buffers.hold_many(region, _holds(ranks, sizes))

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


def test_negative_flops_charge_nothing():
    sim = Simulator.for_flat(p=3, trace=True)
    with pytest.raises(ValueError, match="negative flops"):
        sim.charge_compute([0, 1, 2], [(5.0, "gemm"), (-1.0, "gemm")])
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
        # the collectives' entry point, or the simulator's own one-entry form
        charge = coll.charge_only if data.draw(st.booleans()) else bulk.charge_collectives
        charge(kind, [(groups[bulk][g], (dt, nbytes, w)) for g, dt, nbytes, w in lines])
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
