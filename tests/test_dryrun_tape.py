"""Dry-run layer tapes (``repro.runtime.tape.Tape``).

On an untraced shape run the first pass of each distinct layer is recorded
as a tape of its accounting calls, and identical layers and every
checkpoint recompute replay it; every pass applies its tape once per rank
class and copies each representative's end state to its class.
Monkeypatching ``core.summa._batched_ready`` to return False turns every
batched path off, the tape included, so each case below runs twice — taped
and forced per rank — and compares every device counter, every
``MemoryMeter`` field, every buffer region, the watermarks and the metrics
snapshot with ``==``.
"""

import dataclasses
import math

import pytest

from repro import config
from repro.backend.shape_array import ShapeArray
from repro.config import ModelConfig
from repro.core import summa
from repro.core.buffers import REGIONS, BufferManager
from repro.core.layers import TransformerLayer2D
from repro.core.model import OptimusModel
from repro.core.moe import MoE2D
from repro.experiments import runner
from repro.experiments.runner import _run_stem
from repro.mesh.mesh import Mesh
from repro.nn.init import init_transformer_params
from repro.reference.moe import init_moe_params
from repro.runtime.device import SimDevice
from repro.runtime.memory import OutOfDeviceMemory
from repro.runtime.simulator import Simulator
from repro.runtime.tape import Tape
from repro.schemes import SCHEMES, mesh_side
from repro.training.optim import SGD, make_immediate_updater

CFG = ModelConfig(vocab_size=64, hidden_size=64, num_heads=16, num_layers=3, seq_len=8)
BATCH = 4
#: a config both schemes can run on 64 ranks (a batch of 8 for the 8×8 mesh)
CFG64 = ModelConfig(vocab_size=64, hidden_size=128, num_heads=64, num_layers=3, seq_len=8)


@pytest.fixture
def replays(monkeypatch):
    """How many tape replays a run makes: applies of a tape after its
    first, the recording pass's."""
    count, applied = [0], {}  # id -> tape (kept alive, so ids stay apart)
    apply = Tape.apply

    def counted(self, params):
        if id(self) in applied:
            count[0] += 1
        applied[id(self)] = self
        return apply(self, params)

    monkeypatch.setattr(Tape, "apply", counted)
    return count


def _forced(monkeypatch):
    monkeypatch.setattr(summa, "_batched_ready", lambda sim: False)


def _sim_state(sim) -> tuple:
    devices = [
        (
            d.clock, d.flops, d.flops_gemm, d.bytes_comm, d.weighted_comm_volume,
            d.compute_time, d.comm_time, d.num_collectives,
            d.memory.current, d.memory.peak, d.memory.num_allocs, dict(d.memory.by_tag),
        )
        for d in sim.devices
    ]
    return devices, sim.watermarks(), sim.metrics.snapshot()


def _state(model) -> tuple:
    buffers = model.buffers
    regions = {
        (name, r): (buffers.usage(name, r), buffers.capacity(name, r))
        for name in REGIONS
        for r in buffers.ranks
    }
    return _sim_state(model.sim), regions


def _model(scheme, p, *, checkpoint=True, buffers=None, stem_only=True, strict=False,
           checked=False, layer_cls=None, cfg=CFG, **model_kw):
    """A shape-backend model, its layout checks on only when ``checked``;
    ``layer_cls`` (Optimus only) replaces the layers'."""
    rec = SCHEMES[scheme]
    sim = rec.simulator(p, backend="shape", strict_memory=strict, strict_invariants=checked)
    if buffers is not None:
        buffers = BufferManager(sim, **buffers)
    params = init_transformer_params(
        cfg, backend="shape", dtype="float32", include_embedding=not stem_only
    )
    make = rec.model
    if layer_cls is not None:
        model_cls = type("TestModel", (OptimusModel,), {"layer_cls": layer_cls})

        def make(sim, *args, **kw):
            return model_cls(Mesh(sim, mesh_side(p)), *args, **kw)

    return make(
        sim, cfg, params, checkpoint_activations=checkpoint, buffers=buffers,
        stem_only=stem_only, **model_kw,
    )


def _stem(scheme, p, batches=(BATCH,), **kw) -> tuple:
    model = _model(scheme, p, **kw)
    results = [_run_stem(model, scheme, b, None, "stem") for b in batches]
    return results, _state(model)


def _both(monkeypatch, run):
    """``run()`` taped, then forced per rank; both outcomes."""
    taped = run()
    with monkeypatch.context() as mp:
        _forced(mp)
        forced = run()
    return taped, forced


SIZES = [("optimus", 4), ("optimus", 16), ("megatron", 4), ("megatron", 16)]
VARIANTS = {
    "default": {},
    "no-checkpoint": {"checkpoint": False},
    "skip-matmul-outputs": {"buffers": {"skip_matmul_outputs": True}},
    "unmanaged": {"buffers": {"managed": False}},
    "merge-fwd-bwd": {"buffers": {"merge_fwd_bwd": True}},
    "fused-attention": {"fused_attention": True, "attention_chunk": 4},
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("scheme, p", SIZES)
def test_a_taped_stem_is_the_forced_per_rank_stem(monkeypatch, replays, scheme, p, variant):
    taped, forced = _both(monkeypatch, lambda: _stem(scheme, p, **VARIANTS[variant]))
    assert taped == forced
    # three layers: two forward and two backward replays, and three
    # recomputes replaying the forward's tape — or two replaying their own
    # when the recompute skips the matmul outputs (none without checkpointing)
    want = {"no-checkpoint": 4, "skip-matmul-outputs": 6}.get(variant, 7)
    assert replays[0] == want


@pytest.mark.parametrize("skip", [False, True], ids=["default", "skip-matmul-outputs"])
@pytest.mark.parametrize("scheme, p", [("optimus", 4), ("megatron", 4)])
def test_the_recompute_replays_the_forward_tape(monkeypatch, replays, scheme, p, skip):
    """A checkpoint recompute is its layer's forward again, so it replays
    the forward's tape — unless §3.2.3 option 3 has it skip the matmul
    outputs, when the first recompute records a tape of its own."""

    def run():
        model = _model(scheme, p, buffers={"skip_matmul_outputs": skip})
        passes = []  # per recompute pass: did it replay a tape?
        layer_pass = model._layer_pass

        def spied(layer, x, batch_size):
            recompute, before = model.buffers.in_recompute, replays[0]
            out = layer_pass(layer, x, batch_size)
            if recompute:
                passes.append(replays[0] > before)
            return out

        model._layer_pass = spied
        res = _run_stem(model, scheme, BATCH, None, "stem")
        return passes, res, _state(model)

    (passes, *taped), (_, *forced) = _both(monkeypatch, run)
    assert taped == forced
    assert passes == ([False, True, True] if skip else [True, True, True])


@pytest.mark.parametrize("layout", ["distributed", "replicated"])
def test_megatron_checkpoint_layouts(monkeypatch, replays, layout):
    taped, forced = _both(
        monkeypatch, lambda: _stem("megatron", 4, checkpoint_layout=layout)
    )
    assert taped == forced
    assert replays[0] == 7


@pytest.mark.parametrize("scheme, p", [("optimus", 4), ("megatron", 4)])
def test_two_batch_sizes_on_one_model(monkeypatch, replays, scheme, p):
    """The tapes last one iteration: a second iteration at another batch
    size records its own."""
    taped, forced = _both(monkeypatch, lambda: _stem(scheme, p, batches=(BATCH, 2 * BATCH)))
    assert taped == forced
    assert replays[0] == 14


def test_an_option_changed_between_iterations_is_seen(monkeypatch, replays):
    """The tapes last one iteration, so one recorded before a buffer option
    changed is not replayed after it."""

    def run():
        model = _model("optimus", 4)
        _run_stem(model, "optimus", BATCH, None, "stem")
        model.buffers.skip_matmul_outputs = True
        return _run_stem(model, "optimus", BATCH, None, "stem"), _state(model)

    taped, forced = _both(monkeypatch, run)
    assert taped == forced
    # 7 before the change, 6 after it (the recompute records its own tape)
    assert replays[0] == 13


@pytest.mark.parametrize("scheme, p", [("optimus", 4), ("megatron", 4)])
def test_a_full_model_with_the_immediate_updater(monkeypatch, replays, scheme, p):
    def run():
        model = _model(scheme, p, stem_only=False)
        hook = make_immediate_updater(SGD(model.parameters(), lr=0.1), model.buffers)
        model.forward(*model.synthetic_batch(BATCH))
        model.backward(on_layer_backward=hook)
        grads = [p.grad for p in model.parameters()]
        return _state(model), grads

    (taped, taped_grads), (forced, forced_grads) = _both(monkeypatch, run)
    assert taped == forced
    # the updater cleared every layer gradient on both paths
    assert [g is None for g in taped_grads] == [g is None for g in forced_grads]
    assert replays[0] == 7


def test_gradients_land_on_each_layers_own_parameters(replays):
    """Without an updater every layer's parameters hold a gradient of their
    own layout and shape after a taped backward."""
    model = _model("optimus", 4)
    model.stem_forward(BATCH)
    model.stem_backward()
    assert replays[0] == 7
    for p in model.parameters():
        assert p.grad is not None
        assert (p.grad.layout, p.grad.global_shape) == (p.data.layout, p.data.global_shape)


@pytest.mark.parametrize("scheme, p", [("optimus", 4), ("megatron", 4)])
def test_a_strict_memory_oom_raises_at_the_same_hold(monkeypatch, replays, scheme, p):
    """One byte short of the peak, which the gradient arena reaches in the
    last layer's backward: a replayed pass."""
    probe = _model(scheme, p)
    _run_stem(probe, scheme, BATCH, None, "stem")
    peaks = [d.memory.peak for d in probe.sim.devices]
    replays[0] = 0

    def run():
        model = _model(scheme, p, strict=True)
        for d, peak in zip(model.sim.devices, peaks):
            d.memory.capacity = peak - 1
        with pytest.raises(OutOfDeviceMemory) as err:
            _run_stem(model, scheme, BATCH, None, "stem")
        return str(err.value), _state(model)

    taped, forced = _both(monkeypatch, run)
    assert taped == forced
    assert replays[0] == 7


class _ComputeLayer(TransformerLayer2D):
    """A layer charging one more gemm through ``SimDevice.compute`` itself."""

    def forward(self, x, batch_size):
        for r in self.owner.ranks:
            self.owner.sim.devices[r].compute(1.0e6)
        return super().forward(x, batch_size)


def test_a_layer_charging_a_device_directly_is_never_replayed(monkeypatch, replays):
    taped, forced = _both(monkeypatch, lambda: _stem("optimus", 4, layer_cls=_ComputeLayer))
    assert taped == forced
    # only the backward (which charges nothing itself) is replayed
    assert replays[0] == 2


E = 2  # experts


class _MoELayer(TransformerLayer2D):
    """A dense layer followed by a routed expert MLP (:class:`MoE2D`, load
    balanced on the dry run).  Its per-line gate all-reduce charges through
    ``Simulator.replay`` too, so the layer tapes like a dense one."""

    def __init__(self, owner, cfg, index, params, buffers=None, **kw):
        super().__init__(owner, cfg, index, params, buffers, **kw)
        moe = init_moe_params(cfg.hidden_size, E, prefix=f"layer{index}.moe")
        moe = {k: ShapeArray(v.shape, "float32") for k, v in moe.items()}
        self.moe = self.register_module(
            MoE2D(owner, moe, E, prefix=f"layer{index}.moe", buffers=buffers)
        )

    def forward(self, x, batch_size):
        y, _aux = self.moe.forward(super().forward(x, batch_size))
        return y

    def backward(self, dy):
        return super().backward(self.moe.backward(dy))


def test_a_moe_layer_tapes_as_forced(monkeypatch, replays):
    taped, forced = _both(monkeypatch, lambda: _stem("optimus", 4, layer_cls=_MoELayer))
    assert taped == forced
    assert replays[0] == 7


@pytest.mark.parametrize("scheme, p", [("optimus", 4), ("megatron", 4)])
def test_a_checked_stem_never_tapes(monkeypatch, replays, scheme, p):
    taped, forced = _both(monkeypatch, lambda: _stem(scheme, p, checked=True))
    assert taped == forced
    assert replays[0] == 0


@pytest.mark.parametrize("scheme, p", [("optimus", 4), ("megatron", 4)])
def test_a_traced_stem_never_tapes(monkeypatch, replays, scheme, p):
    def run():
        model = _model(scheme, p)
        model.sim.tracer.enabled = True
        res = _run_stem(model, scheme, BATCH, None, "stem")
        return res, _state(model), list(model.sim.tracer.events)

    (res, state, events), (res_f, state_f, events_f) = _both(monkeypatch, run)
    assert replays[0] == 0
    assert (res, state) == (res_f, state_f)
    assert events == events_f



@pytest.fixture
def classes(monkeypatch):
    """Per apply that copied, the sizes of the classes it copied to."""
    seen = []
    copy = Tape._copy

    def counted(self, devices, copies, columns):
        seen.append(sorted(len(members) + 1 for _rep, members in copies))
        return copy(self, devices, copies, columns)

    monkeypatch.setattr(Tape, "_copy", counted)
    return seen


@pytest.mark.parametrize("p", [4, 16, 64])
@pytest.mark.parametrize("scheme", ["optimus", "megatron"])
def test_class_applied_stems_are_the_forced_stems(monkeypatch, replays, classes, scheme, p):
    cfg, batch = (CFG64, 8) if p == 64 else (CFG, BATCH)
    taped, forced = _both(monkeypatch, lambda: _stem(scheme, p, cfg=cfg, batches=(batch,)))
    assert taped == forced
    assert replays[0] == 7
    # the parameter placement and every pass, the recording ones too, made
    # its ops on class representatives and copied them to the other p - 1
    # ranks or fewer — but Optimus's first pass, whose SUMMA workspaces are
    # cold and grow call by call, rank by rank
    assert len(classes) == (9 if scheme == "optimus" else 10)
    assert all(sum(sizes) <= p for sizes in classes)


def _built(run):
    """``run()`` and the state of the one simulator it built."""
    sims = []
    init = Simulator.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sims.append(self)

    Simulator.__init__ = recording
    try:
        result = run()
    finally:
        Simulator.__init__ = init
    (sim,) = sims
    return result, _sim_state(sim)


@pytest.mark.parametrize("p", [16, 64])
@pytest.mark.parametrize("scheme", ["megatron", "optimus"])
def test_the_table2_stems_apply_by_class(monkeypatch, replays, classes, scheme, p):
    """The benchmark's Table 2 stems (N = 4): ten replays each, the same
    state as the forced per-rank run.  (The runner builds its simulator,
    so the layout checks a CI run turns on everywhere are turned off here,
    as ``_model`` does.)"""
    monkeypatch.delenv("REPRO_STRICT_INVARIANTS", raising=False)
    row = {r["num_devices"]: r for r in config.table2_weak_scaling()}[p]
    cfg = dataclasses.replace(row[f"model_{scheme}"], num_layers=4)
    width = p if scheme == "megatron" else math.isqrt(p)
    run = getattr(runner, f"run_{scheme}_stem")
    taped, forced = _both(
        monkeypatch, lambda: _built(lambda: run(cfg, width, row[f"batch_{scheme}"]))
    )
    assert taped == forced
    assert replays[0] == 10
    assert classes and max(len(sizes) for sizes in classes) <= 2


class _Row0HoldLayer(TransformerLayer2D):
    """A layer that also holds forward bytes on mesh row 0 only, after its
    first matmuls: the ranks of row 0 leave the others' class mid-tape, and
    start the next pass in a state of their own."""

    def forward(self, x, batch_size):
        y = super().forward(x, batch_size)
        row0 = list(self.owner.row_groups[0].ranks)
        self.buffers.hold_many("forward", [(row0, (4096,))])
        return y


def test_a_hold_on_mesh_row_0_splits_a_class(monkeypatch, replays, classes):
    taped, forced = _both(monkeypatch, lambda: _stem("optimus", 16, layer_cls=_Row0HoldLayer))
    assert taped == forced
    assert replays[0] == 7
    # row 0 (4 ranks) and the other 12, apart
    assert [4, 12] in classes


def test_an_uneven_megatron_checkpoint_splits_the_start_classes(monkeypatch, replays, classes):
    """p ∤ T: the distributed checkpoint holds base + 1 rows on the first
    T mod p ranks and base rows on the rest — two runs on the dry run, the
    per-rank slices on the forced path — so the layers start in two
    classes."""
    taped, forced = _both(
        monkeypatch,
        lambda: _stem("megatron", 16, batches=(5,), checkpoint_layout="distributed"),
    )
    assert taped == forced
    assert replays[0] == 7
    # T = 5·8 = 40 = 2·16 + 8
    assert [8, 8] in classes


@pytest.mark.parametrize("scheme, p", [("optimus", 4), ("megatron", 4)])
def test_a_memory_timeline_run_keeps_its_samples(monkeypatch, replays, classes, scheme, p):
    """A meter sampling a timeline applies each tape per rank, so every
    sample keeps its time and order."""

    def run():
        model = _model(scheme, p)
        model.sim.enable_memory_timeline()
        del classes[:]  # (the parameters were placed before sampling began)
        res = _run_stem(model, scheme, BATCH, None, "stem")
        return res, _state(model), model.sim.memory_timeline()

    taped, forced = _both(monkeypatch, run)
    assert taped == forced
    assert taped[2][0]  # sampled
    assert replays[0] == 7 and classes == []


class _LateComputeLayer(TransformerLayer2D):
    """A layer charging one more gemm through ``SimDevice.compute`` after
    its recorded calls: the poisoned tape makes them first."""

    def forward(self, x, batch_size):
        y = super().forward(x, batch_size)
        for r in self.owner.ranks:
            self.owner.sim.devices[r].compute(1.0e6)
        return y


def test_a_poisoned_tape_makes_its_recorded_calls_first(monkeypatch, replays):
    taped, forced = _both(monkeypatch, lambda: _stem("optimus", 4, layer_cls=_LateComputeLayer))
    assert taped == forced
    assert replays[0] == 2


class _RaisingLayer(TransformerLayer2D):
    """A layer whose forward raises after its recorded calls."""

    def forward(self, x, batch_size):
        super().forward(x, batch_size)
        raise RuntimeError("layer failed")


def test_a_pass_that_raises_makes_its_recorded_calls(monkeypatch, replays):
    def run():
        model = _model("optimus", 4, layer_cls=_RaisingLayer)
        with pytest.raises(RuntimeError, match="layer failed"):
            _run_stem(model, "optimus", BATCH, None, "stem")
        return _state(model)

    taped, forced = _both(monkeypatch, run)
    assert taped == forced
    assert replays[0] == 0


@pytest.mark.parametrize("buffers", [{}, {"managed": False}], ids=["managed", "unmanaged"])
def test_a_cold_summa_workspace_keeps_its_books_rank_by_rank(monkeypatch, replays, buffers):
    """A pass whose SUMMA workspaces would grow is made as recorded: its cold
    calls keep their books step by step, each gemm through the device."""
    gemms = [0]
    compute = SimDevice.compute

    def counted(self, flops, kind="gemm"):
        gemms[0] += 1
        return compute(self, flops, kind)

    monkeypatch.setattr(SimDevice, "compute", counted)
    model = _model("optimus", 4, buffers=buffers)
    steps = [0]
    account_steps = summa._account_steps

    def stepped(*args):
        steps[0] += 1
        return account_steps(*args)

    monkeypatch.setattr(summa, "_account_steps", stepped)
    _run_stem(model, "optimus", BATCH, None, "stem")
    assert replays[0] == 7
    assert steps[0] > 0 and gemms[0] > 0
