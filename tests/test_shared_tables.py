"""The process-wide tables a dry-run stem's set-up reads: SUMMA plan
structures (``core.summa._STRUCTURES``), tape class plans
(``runtime.tape._PLANS`` with its rank-set ids) and built comm models
(``comm.cost._BUILT``).  Each holds what depends on a structure only, so a
stem run after others have filled the tables must end in exactly the state
of the same stem run with the tables empty: every device counter, meter
field, buffer region, the watermarks and the metrics snapshot (the
``_state`` of ``tests/test_dryrun_tape.py``).  Every case also checks that
the warm run found something in the tables.  Hand-built tapes, each apart
from the one before it in one part of a tape's structure or start state,
end where their calls made with no tape end, warm and cold.
"""

import dataclasses

import pytest

from repro.backend.shape_array import ShapeArray
from repro.comm.cost import GroupCommModel
from repro.comm.group import ProcessGroup
from repro.core import summa
from repro.core.buffers import REGIONS, BufferManager
from repro.core.model import OptimusModel
from repro.core.param import DistParam, charge_param_memory
from repro.experiments.runner import _run_stem
from repro.hardware.arrangement import naive_arrangement
from repro.hardware.specs import ClusterSpec, frontera_rtx
from repro.hardware.topology import ClusterTopology
from repro.mesh.dtensor import DTensor
from repro.mesh.layouts import BLOCKED_2D
from repro.mesh.mesh import Mesh
from repro.nn.init import init_transformer_params
from repro.runtime import tape
from repro.runtime.simulator import COLLECTIVES, Simulator
from repro.schemes import SCHEMES
from tests.conftest import clear_shared_tables
from tests.test_dryrun_tape import CFG, _model, _Row0HoldLayer, _sim_state, _state

#: a config for a 3×3 mesh
CFG3 = dataclasses.replace(CFG, hidden_size=48, num_heads=12)


@pytest.fixture
def derived(monkeypatch):
    """How many tape class plans and SUMMA structures were derived."""
    count = [0]
    derive, structure = tape.Tape._derive, summa._structure

    def counted_derive(self, *args):
        count[0] += 1
        return derive(self, *args)

    def counted_structure(*args):
        count[0] += 1
        return structure(*args)

    monkeypatch.setattr(tape.Tape, "_derive", counted_derive)
    monkeypatch.setattr(summa, "_structure", counted_structure)
    return count


def _stem(scheme, p, batch=4, **kw):
    model = _model(scheme, p, **kw)
    _run_stem(model, scheme, batch, None, "stem")
    return _state(model)


def _optimus(cluster: ClusterSpec, q: int, cfg=CFG, batch=4, offset=0, dtype="float32"):
    """An Optimus stem on ``cluster``, its mesh at rank ``offset`` (a data-
    parallel replica's; the replicas before it placed and run first)."""
    sim = Simulator(cluster, num_ranks=offset + q * q, backend="shape")
    params = init_transformer_params(cfg, backend="shape", dtype=dtype, include_embedding=False)
    model = None
    for start in range(0, offset + 1, q * q):
        model = OptimusModel(Mesh(sim, q, rank_offset=start), cfg, params, stem_only=True)
        _run_stem(model, "optimus", batch, None, "stem")
    return _state(model)


def _scaled(cluster: ClusterSpec, by: float) -> ClusterSpec:
    """``cluster`` with α, β and the device's FLOP/s scaled by ``by``."""
    def link(spec):
        return dataclasses.replace(spec, bandwidth=spec.bandwidth / by, latency=spec.latency * by)

    return dataclasses.replace(
        cluster,
        device=dataclasses.replace(cluster.device, peak_flops=cluster.device.peak_flops * by),
        intra_link=link(cluster.intra_link),
        inter_link=link(cluster.inter_link),
    )


class _Row1HoldLayer(_Row0HoldLayer):
    """:class:`_Row0HoldLayer`'s hold on mesh row 1: one rank set apart."""

    def forward(self, x, batch_size):
        y = super(_Row0HoldLayer, self).forward(x, batch_size)
        row1 = list(self.owner.row_groups[1].ranks)
        self.buffers.hold_many("forward", [(row1, (4096,))])
        return y


def _naive_stem():
    model = SCHEMES["optimus"].model(
        SCHEMES["optimus"].simulator(16, "naive", backend="shape"),
        CFG,
        init_transformer_params(CFG, backend="shape", dtype="float32", include_embedding=False),
        stem_only=True,
    )
    _run_stem(model, "optimus", 4, None, "stem")
    return _state(model)


#: case -> (what fills the tables, the stem compared warm and cold)
CASES = {
    "the same shape twice": (
        lambda: _stem("optimus", 16), lambda: _stem("optimus", 16),
    ),
    "megatron, the same shape twice": (
        lambda: _stem("megatron", 16), lambda: _stem("megatron", 16),
    ),
    "another batch on the same p": (
        lambda: _stem("optimus", 16, batch=8), lambda: _stem("optimus", 16, batch=4),
    ),
    "megatron, an even batch before an uneven one": (
        lambda: _stem("megatron", 16, batch=6), lambda: _stem("megatron", 16, batch=5),
    ),
    "a perturbed preset": (
        lambda: _optimus(frontera_rtx(4), 4),
        lambda: _optimus(_scaled(frontera_rtx(4), 1.5), 4),
    ),
    "another arrangement": (
        lambda: _stem("optimus", 16), _naive_stem,
    ),
    "another node size": (
        lambda: _optimus(frontera_rtx(1, 9), 3, CFG3, 3),
        lambda: _optimus(frontera_rtx(3, 4), 3, CFG3, 3),
    ),
    "float16 after float32": (
        lambda: _optimus(frontera_rtx(4), 4),
        lambda: _optimus(frontera_rtx(4), 4, dtype="float16"),
    ),
    "a data-parallel replica at rank offset 4": (
        lambda: _optimus(frontera_rtx(2), 2),
        lambda: _optimus(frontera_rtx(2), 2, offset=4),
    ),
    "an optimus row-0 bias, at another width": (
        lambda: _stem("optimus", 16, cfg=dataclasses.replace(CFG, hidden_size=128)),
        lambda: _stem("optimus", 16),
    ),
    "a hold on another mesh row": (
        lambda: _stem("optimus", 16, layer_cls=_Row0HoldLayer),
        lambda: _stem("optimus", 16, layer_cls=_Row1HoldLayer),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_warm_stem_is_the_cold_stem(monkeypatch, derived, case):
    monkeypatch.delenv("REPRO_STRICT_INVARIANTS", raising=False)
    fill, run = CASES[case]
    clear_shared_tables()
    fill()
    before = derived[0]
    warm = run()
    found = derived[0] - before
    clear_shared_tables()
    before = derived[0]
    cold = run()
    assert warm == cold
    assert found < derived[0] - before  # the warm run found plans


def _sizes() -> tuple:
    return (
        len(summa._STRUCTURES), len(tape._PLANS), sum(map(len, tape._PLANS.values())),
        len(tape._RANK_SETS),
    )


def test_the_tables_do_not_grow_with_the_stems_of_one_structure(monkeypatch):
    monkeypatch.delenv("REPRO_STRICT_INVARIANTS", raising=False)
    clear_shared_tables()
    for batch in (4, 8):
        _stem("optimus", 16, batch=batch)
        _stem("megatron", 16, batch=batch)
    sizes = _sizes()
    for batch in (4, 8, 4):
        _stem("optimus", 16, batch=batch)
        _stem("megatron", 16, batch=batch)
    assert _sizes() == sizes


def test_a_comm_model_is_built_once_per_value():
    """Each input of a built model moves it: the cluster (scaled α, β), the
    node size that places the ranks, the ranks' GPUs and the crowding."""
    cluster = frontera_rtx(4, 4)
    topology = ClusterTopology(cluster)
    naive = naive_arrangement(cluster, 4)
    cols = [[i * 4 + j for i in range(4)] for j in range(4)]
    calls = [
        (topology, naive, [0, 1, 2, 3], None),
        (ClusterTopology(_scaled(cluster, 1.5)), naive, [0, 1, 2, 3], None),
        (topology, naive_arrangement(frontera_rtx(8, 2), 4), [0, 1, 2, 3], None),
        (topology, naive, cols[0], None),
        (topology, naive, cols[0], cols),
    ]
    clear_shared_tables()
    warm = [GroupCommModel.build(*call) for call in calls]
    assert GroupCommModel.build(*calls[0]) is warm[0]
    cold = []
    for call in calls:
        clear_shared_tables()
        cold.append(GroupCommModel.build(*call))
    assert warm == cold
    assert len(set(warm)) == len(calls)


# ----------------------------------------------------------------------
# hand-built tapes: each key part of a tape's structure apart in turn
# ----------------------------------------------------------------------
def _placed(mesh, block, name="w"):
    """A float32 parameter of one placeholder ``block`` per rank of ``mesh``."""
    shards = dict.fromkeys(mesh.ranks, ShapeArray(block, "float32"))
    return DistParam(name, DTensor(mesh, BLOCKED_2D, shards, (2 * block[0], 2 * block[1])))


class _Hand:
    """A shape simulator of two 4-GPU nodes, a 2×2 mesh on each, two buffer
    managers over its 8 ranks and a parameter on the first mesh: the
    accounting calls of a case are made on it with a tape (recorded, then
    applied by class) or without one."""

    def __init__(self):
        self.sim = sim = Simulator(frontera_rtx(2), num_ranks=8, backend="shape")
        self.meshes = Mesh(sim, 2), Mesh(sim, 2, rank_offset=4)
        self.bufs = BufferManager(sim), BufferManager(sim)
        self.param = _placed(self.meshes[0], (3, 5))

    def hold(self, ranks, nbytes, region="forward", manager=0):
        self.bufs[manager].hold_many(region, [(ranks, (nbytes,))])

    def compute(self, ranks, flops, scope=None):
        program = [self.sim.compute_entry(ranks, ((flops, "gemm"),))]
        lockstep = None if scope is None else self.sim.lockstep(program, scope)
        assert (lockstep is None) == (scope is None)
        self.sim.replay(program, lockstep)

    def broadcast(self, ranks, nbytes, scope=None):
        group = ProcessGroup(self.sim, ranks)
        program = [(COLLECTIVES, "broadcast", ((group, group.model.price("broadcast", nbytes)),))]
        self.sim.replay(program, None if scope is None else self.sim.lockstep(program, scope))

    def alloc(self, mesh, block, tag="params"):
        charge_param_memory(_placed(self.meshes[mesh], block), self.sim, tag)

    def grad(self):
        self.param.add_grad(_placed(self.meshes[0], (3, 5)).data)

    def product(self, mesh, m, k, n):
        """``A·Bᵀ`` of ``(m, k)`` and ``(n, k)`` blocks on a mesh."""
        mesh = self.meshes[mesh]
        a, b = _placed(mesh, (m, k)).data, _placed(mesh, (n, k)).data
        summa.summa_abt(mesh, a, b)

    def state(self):
        regions = {
            (i, name, r): (bufs.usage(name, r), bufs.capacity(name, r))
            for i, bufs in enumerate(self.bufs)
            for name in REGIONS
            for r in bufs.ranks
        }
        return _sim_state(self.sim), regions, self.param.grad is not None


def _made(case, taped: bool):
    """The state after a case's calls: ``calls`` or ``(start, calls)``,
    ``start`` setting the devices' start state."""
    start, calls = case if isinstance(case, tuple) else (None, case)
    hand = _Hand()
    if start is not None:
        start(hand.sim.devices)
    if taped:
        recording = tape.Tape(hand.sim, [hand.param])
        recording.record(calls, hand)
        assert not recording.poisoned
        recording.apply([hand.param])
    else:
        calls(hand)
    return hand.state()


def _pair(first, second):
    def fill(h):
        first(h)
        second(h)
    return fill


def _both_sizes(size):
    return _pair(lambda h: h.hold([0, 1], 8), lambda h: h.hold([2, 3], size))


def _held_in(**second):
    return _pair(lambda h: h.hold([0, 1], 8), lambda h: h.hold([2, 3], 8, **second))


def _allocs(tag="params", block=(3, 5)):
    return _pair(lambda h: h.alloc(0, (3, 5)), lambda h: h.alloc(1, block, tag))


def _computes(flops):
    return _pair(lambda h: h.compute([0, 1], 1e9), lambda h: h.compute([2, 3], flops))


def _products(m, k, n):
    """Two products priced alike (``n·k``-element broadcasts, ``m·n``-element
    reduces; 4 and 4 for the first), one per mesh: the second's gemm
    ``2mkn`` flops."""
    return _pair(lambda h: h.product(0, 2, 2, 2), lambda h: h.product(1, m, k, n))


def _apart(rank, counter):
    """A start state with ``rank``'s ``counter`` at 1."""
    return lambda devices: setattr(devices[rank], counter, 1.0)


EVERY = list(range(8))

#: case -> (a tape filling the tables, one apart from it in one key part)
HAND = {
    "a hold's sizes": (_both_sizes(8), _both_sizes(16)),
    "a hold's ranks": (lambda h: h.hold([0, 1], 8), lambda h: h.hold([0, 2], 8)),
    "a hold's buffer manager": (_held_in(), _held_in(manager=1)),
    "a hold's region": (_held_in(), _held_in(region="backward")),
    "an allocation's tag": (_allocs(), _allocs(tag="other")),
    "an allocation's size": (_allocs(), _allocs(block=(3, 10))),
    "an allocation, then a hold on its ranks": (
        lambda h: h.alloc(0, (2, 1)), lambda h: h.hold([0, 1, 2, 3], 8),
    ),
    "a gradient's place among the ops": (
        _pair(lambda h: h.grad(), lambda h: h.hold([0, 1], 8)),
        _pair(lambda h: h.hold([0, 1], 8), lambda h: h.grad()),
    ),
    "a compute entry's charge": (_computes(1e9), _computes(2e9)),
    "a compute entry's ranks": (
        lambda h: h.compute([0, 1], 1e9), lambda h: h.compute([0, 2], 1e9),
    ),
    "a line's ranks": (lambda h: h.broadcast([0, 1], 64), lambda h: h.broadcast([0, 2], 64)),
    "a lockstep form, then none": (
        lambda h: h.compute(EVERY, 1e9, EVERY), lambda h: h.compute(EVERY, 1e9),
    ),
    "a lockstep scope in another order": (
        lambda h: h.compute(EVERY, 1e9, EVERY), lambda h: h.compute(EVERY, 1e9, EVERY[::-1]),
    ),
    "a product's gemm charge": (_products(2, 2, 2), _products(4, 4, 1)),
    "another start partition": (
        (_apart(0, "flops"), lambda h: h.hold(EVERY, 8)),
        (_apart(1, "flops"), lambda h: h.hold(EVERY, 8)),
    ),
    "start classes apart in their clocks": (
        (_apart(0, "flops"), lambda h: h.broadcast(EVERY, 64, EVERY)),
        (_apart(0, "clock"), lambda h: h.broadcast(EVERY, 64, EVERY)),
    ),
}


@pytest.mark.parametrize("case", sorted(HAND))
def test_a_hand_built_tape_applies_as_made_per_rank(case):
    """A tape whose structure is apart from the one before it in one key
    part ends, warm and cold, where its calls made with no tape end."""
    fill, run = HAND[case]
    clear_shared_tables()
    _made(fill, taped=True)
    warm = _made(run, taped=True)
    clear_shared_tables()
    assert warm == _made(run, taped=True) == _made(run, taped=False)
