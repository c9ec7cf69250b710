"""Layouts as data: every reader derives from the one ``Layout`` record.

* a property test over every layout, owner size, backend and gate state:
  placement, assembly, scatter, rank-local math, ``grad_norm`` and strict
  validation agree with the global array;
* one gradient SDC changes one scalar of the gradient, whatever its layout;
* the classification head and MoE gate (``ROW0_BLOCKROWS``, stacked by the
  generic placement) train identically on stacks and per rank;
* no reader outside ``mesh/layouts.py`` dispatches on a kind string;
* hostbench's frozen boundary names (15 of them in ``mesh.partition``)
  still resolve.
"""

from __future__ import annotations

import ast
import pathlib
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.shape_array import ShapeArray
from repro.check.invariants import InvariantViolation, validate_dtensor
from repro.comm.group import ProcessGroup
from repro.config import tiny_config
from repro.core import summa
from repro.core.model import OptimusModel
from repro.core.moe import MoE2D
from repro.core.param import DistParam
from repro.mesh import layouts
from repro.mesh.dtensor import DTensor
from repro.mesh.layouts import (
    BLOCKED_2D,
    COL_BLOCKED,
    PARTIAL_1D,
    RANK0,
    REPLICATED,
    REPLICATED_1D,
    ROW0_BLOCKROWS,
    ROW0_COLS,
    ROW_BLOCKED,
    SHARDED_1D,
)
from repro.mesh.mesh import Mesh
from repro.mesh.partition import (
    assemble_any,
    distribute,
    distribute_blocked_2d,
    scatter_any,
    zeros_stacked,
)
from repro.nn.init import init_transformer_params
from repro.reference.moe import init_moe_params
from repro.resilience.faults import FaultSchedule, GradientSDC
from repro.resilience.injector import FaultInjector
from repro.runtime.simulator import Simulator
from repro.training.optim import SGD, grad_norm

MESH_LAYOUTS = [BLOCKED_2D, ROW_BLOCKED, COL_BLOCKED, REPLICATED, ROW0_COLS, ROW0_BLOCKROWS, RANK0]
FLAT_LAYOUTS = [SHARDED_1D(0), SHARDED_1D(1), SHARDED_1D(-1), REPLICATED_1D, PARTIAL_1D]


@contextmanager
def _gate(forced: bool):
    """Close the one gate of every host-side batched path when ``forced``."""
    ready = summa._batched_ready
    if forced:
        summa._batched_ready = lambda sim: False
    try:
        yield
    finally:
        summa._batched_ready = ready


@st.composite
def placements(draw):
    """(owner, layout, global array): every layout record on a q ∈ {1, 2, 3}
    mesh or a p ∈ {1, 2, 4} flat group, numeric or placeholder."""
    placeholder = draw(st.booleans())
    backend = "shape" if placeholder else "numpy"
    if draw(st.booleans()):
        q = draw(st.sampled_from([1, 2, 3]))
        owner = Mesh(Simulator.for_mesh(q, backend=backend, strict_invariants=True), q)
        layout = draw(st.sampled_from(MESH_LAYOUTS))
    else:
        p = draw(st.sampled_from([1, 2, 4]))
        sim = Simulator.for_flat(p, backend=backend, strict_invariants=True)
        owner = ProcessGroup(sim, range(p))
        layout = draw(st.sampled_from(FLAT_LAYOUTS))
    least = max([d + 1 if d >= 0 else -d for _, d in layout.splits], default=1)
    ndim = layout.ndim or draw(st.integers(least, 3))
    parts = {d % ndim: owner.shape[a] for a, d in layout.splits}
    shape = tuple(draw(st.integers(1, 3)) * parts.get(d, 1) for d in range(ndim))
    if placeholder:
        return owner, layout, ShapeArray(shape, "float64")
    return owner, layout, np.arange(float(np.prod(shape))).reshape(shape) + 0.5


def _with_shards(dt, shards) -> DTensor:
    """``dt`` with its shards replaced, unvalidated (and without a stack)."""
    out = DTensor.__new__(DTensor)
    out.owner, out.layout, out.shards = dt.owner, dt.layout, shards
    out.global_shape = dt.global_shape
    return out


@pytest.mark.parametrize("forced", [False, True], ids=["stacked", "per_rank"])
@given(placements())
@settings(max_examples=60, deadline=None)
def test_every_layout_places_assembles_and_validates(forced, placement):
    owner, layout, a = placement
    numeric = isinstance(a, np.ndarray)
    with _gate(forced):
        if layout.partial:  # addends: no one placement, no one assembly
            with pytest.raises(ValueError, match="addends"):
                distribute(owner, layout, a)
            dt = zeros_stacked(owner, layout, a.shape, a.dtype, a.shape)
            with pytest.raises(ValueError, match="addends"):
                assemble_any(dt)
            return
        dt = distribute(owner, layout, a)  # validated on construction (strict sim)
        assert list(dt.ranks) == list(layout.hosts(owner))
        stacked = len(layout.hosts(owner)) > 1 and numeric
        assert (dt.blocks is not None) == stacked
        if not numeric:
            assert assemble_any(dt).shape == a.shape
            assert assemble_any(dt.map(lambda x: x)).shape == a.shape
        else:
            np.testing.assert_array_equal(assemble_any(dt), a)
            doubled = dt.map(lambda x: x * 2.0)  # once on a stack, or per rank
            assert doubled.global_shape == a.shape
            np.testing.assert_array_equal(assemble_any(doubled), 2.0 * a)
            scatter_any(dt, -a)
            np.testing.assert_array_equal(assemble_any(dt), -a)

            g = a * 0.25 - 1.0
            p = DistParam("w", distribute(owner, layout, np.zeros_like(a)))
            p.add_grad(distribute(owner, layout, g))
            assert grad_norm([p]) == pytest.approx(np.linalg.norm(g), rel=1e-12)

        # one wrong shard shape
        rank = next(iter(dt.shards))
        shard = dt.shards[rank]
        grown = (shard.shape[0] + 1,) + tuple(shard.shape[1:])
        wrong = ShapeArray(grown, "float64") if not numeric else np.zeros(grown)
        with pytest.raises(InvariantViolation):
            validate_dtensor(_with_shards(dt, {**dt.shards, rank: wrong}))
        # one perturbed copy
        copies = [r for r in dt.ranks if r not in layout.distinct(owner)]
        if numeric and copies:
            dt.local(copies[0])[(0,) * a.ndim] += 1.0
            with pytest.raises(InvariantViolation, match="bitwise"):
                validate_dtensor(dt)


def test_a_layout_an_owner_cannot_carry_is_refused():
    mesh = Mesh(Simulator.for_mesh(2), 2)
    group = ProcessGroup(Simulator.for_flat(2), range(2))
    with pytest.raises(ValueError, match="owner axes"):
        distribute(group, BLOCKED_2D, np.zeros((4, 4)))
    with pytest.raises(ValueError, match="owner axes"):
        distribute(mesh, SHARDED_1D(0), np.zeros((4, 4)))
    with pytest.raises(ValueError, match="1-D"):
        distribute(mesh, ROW0_COLS, np.zeros((4, 4)))
    with pytest.raises(ValueError, match="splits dim 2"):
        distribute(group, SHARDED_1D(2), np.zeros((4, 4)))


# ----------------------------------------------------------------------
# an Optimus model with a classification head, and an MoE layer
# ----------------------------------------------------------------------
H, E, T, NUM_CLASSES = 12, 3, 24, 2


def _head_and_moe(q, strict=False, trace=False):
    cfg = tiny_config(num_layers=2)
    rng = np.random.default_rng(0)
    mesh = Mesh(Simulator.for_mesh(q, strict_invariants=strict, trace=trace), q)
    model = OptimusModel(mesh, cfg, init_transformer_params(cfg, seed=1, num_classes=NUM_CLASSES))
    moe = MoE2D(mesh, init_moe_params(H, E, seed=1), E)
    ids = rng.integers(0, cfg.vocab_size, size=(6, cfg.seq_len))
    labels = rng.integers(0, NUM_CLASSES, size=6)
    x, dy = rng.normal(size=(T, H)), rng.normal(size=(T, H))

    def step():
        loss = model.forward_classification(ids, labels)
        model.backward_classification()
        _, aux = moe.forward(distribute_blocked_2d(mesh, x))
        moe.backward(distribute_blocked_2d(mesh, dy))
        return loss, aux

    return mesh, model.parameters() + moe.parameters(), step


@pytest.mark.parametrize("q", [2, 3])
def test_one_gradient_sdc_changes_one_scalar_of_every_layout(q):
    """The SDC injector flips one distinct block on every rank holding a
    copy: one scalar of the assembled gradient changes, and copies stay
    bit-identical (strict validation passes)."""
    mesh, params, step = _head_and_moe(q, strict=True)
    step()
    layouts_seen = set()
    for p in params:
        # |g| < 2: the flipped exponent bit is clear, so the flip shows
        clean = assemble_any(p.grad)
        clean /= 1.0 + np.abs(clean).max()
        scatter_any(p.grad, clean)
        injector = FaultInjector(FaultSchedule.of(GradientSDC(step=0, param=p.name)))
        injector.install(mesh.sim)
        injector.on_gradients(0, params)
        injector.uninstall()
        assert injector.stats["sdc_injected"] == 1, p.name
        assert np.count_nonzero(assemble_any(p.grad) != clean) == 1, p.name
        validate_dtensor(p.grad, p.name)
        layouts_seen.add(p.grad.layout)
    assert {BLOCKED_2D, ROW0_COLS, ROW0_BLOCKROWS, RANK0} <= layouts_seen


def _train_head_and_moe(q):
    mesh, params, step = _head_and_moe(q, trace=True)
    opt = SGD(params, lr=0.05, momentum=0.9)
    losses = []
    for _ in range(2):
        opt.zero_grad()
        losses.append(step())
        opt.step()

    def shards(dt):
        return [(r, s.dtype, s.tobytes()) for r, s in dt.shards.items()]

    tensors = [(p.name, shards(p.data), shards(p.grad)) for p in params]
    stacked = {p.name for p in params if p.data.blocks is not None}
    return (losses, tensors, mesh.sim.watermarks(), list(mesh.sim.tracer.events)), stacked


@pytest.mark.parametrize("q", [2, 3])
def test_head_and_moe_training_is_identical_to_the_per_rank_path(q):
    """``ROW0_BLOCKROWS`` (the classifier weight, the MoE gate) is stored
    as a ``(q,) + block`` stack by the generic placement, and training on
    it equals the forced per-rank path: losses, parameter and gradient
    shards (bytes, dtype, key order), watermarks and the raw events."""
    stacked, names = _train_head_and_moe(q)
    assert {"cls_head.weight", "moe.gate.weight"} <= names
    with _gate(forced=True):
        per_rank, _ = _train_head_and_moe(q)
    assert stacked[3], "the tracer recorded nothing"
    for what, got, want in zip(("losses", "tensors", "watermarks", "events"), stacked, per_rank):
        assert got == want, what


# ----------------------------------------------------------------------
# one dispatch, kept that way
# ----------------------------------------------------------------------
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
KINDS = {
    value.kind.split("(")[0]
    for value in vars(layouts).values()
    if isinstance(value, layouts.Layout)
} | {SHARDED_1D(0).kind.split("(")[0]}
#: Megatron's checkpoint_layout="replicated" names where a checkpoint is
#: kept, not a layout
ALLOWED = {("megatron/model.py", "replicated")}


def test_the_kinds_are_known():
    assert len(KINDS) == 10


def _kind_uses(path: pathlib.Path, rel: str):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr == "kind":
            value = node.value
            name = value.attr if isinstance(value, ast.Attribute) else getattr(value, "id", "")
            if "layout" in name or name in ("lay", "lt"):
                yield node.lineno, "a layout's kind read"
        if isinstance(node, ast.Constant) and node.value in KINDS:
            if (rel, node.value) not in ALLOWED:
                yield node.lineno, f"the kind string {node.value!r}"


def test_no_reader_dispatches_on_a_layout_kind():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == "mesh/layouts.py":
            continue
        found += [f"{rel}:{line}: {what}" for line, what in _kind_uses(path, rel)]
    assert not found, "\n".join(found)


def test_hostbench_boundaries_resolve():
    """A read-only import of hostbench's frozen table: deleting or renaming
    one of the 15 ``repro.mesh.partition`` names it times fails here."""
    from hostbench import boundaries

    names = {r.name for r in boundaries.resolve_all()}
    partition = {n for n in names if n.startswith("repro.mesh.partition:")}
    assert len(partition) == 15
