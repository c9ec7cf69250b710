"""The Fig. 1 classification branch: reference gradcheck + three-way
equivalence (serial / Optimus 2D / Megatron 1D)."""

import hashlib

import numpy as np
import pytest

from repro.check.contracts import contract_checks
from repro.config import tiny_config
from repro.core.buffers import BufferManager
from repro.core.model import OptimusModel
from repro.megatron.model import MegatronModel
from repro.mesh.layouts import BLOCKED_2D, COL_BLOCKED, REPLICATED
from repro.mesh.mesh import Mesh
from repro.mesh.partition import (
    assemble_any,
    assemble_row0_blockrows,
    distribute,
    distribute_row0_blockrows,
    distribute_sharded_1d,
)
from repro.nn.init import init_transformer_params
from repro.reference.model import ReferenceTransformer
from repro.runtime.simulator import Simulator
from repro.training.optim import SGD
from tests.conftest import make_mesh

NUM_CLASSES = 2


@pytest.fixture
def cls_setup(cfg, rng):
    params = init_transformer_params(cfg, seed=1, num_classes=NUM_CLASSES)
    b = 6
    ids = rng.integers(0, cfg.vocab_size, size=(b, cfg.seq_len))
    cls_labels = rng.integers(0, NUM_CLASSES, size=b)
    return params, ids, cls_labels


class TestReferenceClassification:
    def test_forward_loss(self, cfg, cls_setup):
        params, ids, labels = cls_setup
        loss = ReferenceTransformer(cfg, params).forward_classification(ids, labels)
        assert np.isfinite(loss)
        assert abs(float(loss) - np.log(NUM_CLASSES)) < 1.0  # near-chance at init

    def test_logits_shape(self, cfg, cls_setup):
        params, ids, _ = cls_setup
        logits = ReferenceTransformer(cfg, params).forward_classification(ids)
        assert logits.shape == (ids.shape[0], NUM_CLASSES)

    def test_requires_cls_params(self, cfg, cls_setup, params):
        _, ids, labels = cls_setup
        with pytest.raises(KeyError):
            ReferenceTransformer(cfg, params).forward_classification(ids, labels)

    def test_backward_requires_labels(self, cfg, cls_setup):
        params, ids, _ = cls_setup
        m = ReferenceTransformer(cfg, params)
        m.forward_classification(ids)
        with pytest.raises(RuntimeError):
            m.backward_classification()

    @pytest.mark.parametrize(
        "name",
        ["cls_head.weight", "cls_head.bias", "final_ln.gamma",
         "layer0.attn.wqkv", "layer1.mlp.w2", "embedding.table"],
    )
    def test_gradients_match_finite_differences(self, cfg, cls_setup, rng, name):
        params, ids, labels = cls_setup
        m = ReferenceTransformer(cfg, params)
        m.forward_classification(ids, labels)
        grads = m.backward_classification()
        g = np.asarray(grads[name])
        x = params[name]
        eps = 1e-6
        for _ in range(4):
            idx = tuple(rng.integers(0, d) for d in x.shape)
            old = x[idx]
            x[idx] = old + eps
            fp = float(ReferenceTransformer(cfg, params).forward_classification(ids, labels))
            x[idx] = old - eps
            fm = float(ReferenceTransformer(cfg, params).forward_classification(ids, labels))
            x[idx] = old
            num = (fp - fm) / (2 * eps)
            assert abs(num - g[idx]) < 1e-5 * max(1.0, abs(num)), (name, idx)


class TestDistributedClassification:
    def _grads(self, model):
        return {p.name: assemble_any(p.grad) for p in model.parameters() if p.grad is not None}

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_optimus_matches_reference(self, cfg, cls_setup, q):
        params, ids, labels = cls_setup
        ref = ReferenceTransformer(cfg, params)
        ref_loss = float(ref.forward_classification(ids, labels))
        ref_grads = ref.backward_classification()

        model = OptimusModel(make_mesh(q), cfg, params)
        loss = model.forward_classification(ids, labels)
        assert loss == pytest.approx(ref_loss, abs=1e-10)
        model.backward_classification()
        grads = self._grads(model)
        for name, g_ref in ref_grads.items():
            np.testing.assert_allclose(
                grads[name], g_ref, rtol=1e-8, atol=1e-11, err_msg=name
            )

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_megatron_matches_reference(self, cfg, cls_setup, p):
        params, ids, labels = cls_setup
        ref = ReferenceTransformer(cfg, params)
        ref_loss = float(ref.forward_classification(ids, labels))
        ref_grads = ref.backward_classification()

        model = MegatronModel(Simulator.for_flat(p=p), cfg, params)
        loss = model.forward_classification(ids, labels)
        assert loss == pytest.approx(ref_loss, abs=1e-10)
        model.backward_classification()
        grads = self._grads(model)
        for name, g_ref in ref_grads.items():
            np.testing.assert_allclose(
                grads[name], g_ref, rtol=1e-8, atol=1e-11, err_msg=name
            )

    def test_optimus_inference_logits(self, cfg, cls_setup):
        params, ids, _ = cls_setup
        ref_logits = ReferenceTransformer(cfg, params).forward_classification(ids)
        model = OptimusModel(make_mesh(2), cfg, params)
        logits_dt = model.forward_classification(ids)
        from repro.mesh.partition import assemble_row_blocked

        np.testing.assert_allclose(
            assemble_row_blocked(logits_dt), ref_logits, rtol=1e-9
        )

    def test_missing_head_raises(self, cfg, params, cls_setup):
        _, ids, labels = cls_setup
        model = OptimusModel(make_mesh(2), cfg, params)  # no cls params
        with pytest.raises(RuntimeError):
            model.forward_classification(ids, labels)


@pytest.mark.parametrize("q", [2, 3])
def test_optimus_head_trains_strict_under_contract_checks(cfg, cls_setup, q):
    """Every collective of a training step checked against its serial
    oracle, every DTensor against its layout contract."""
    params, ids, labels = cls_setup
    ref = ReferenceTransformer(cfg, params)
    ref_loss = float(ref.forward_classification(ids, labels))
    ref_grads = ref.backward_classification()

    model = OptimusModel(make_mesh(q, strict_invariants=True), cfg, params)
    with contract_checks():
        loss = model.forward_classification(ids, labels)
        model.backward_classification()
        SGD(model.parameters(), lr=0.1).step()
    assert loss == pytest.approx(ref_loss, abs=1e-10)
    head = model.cls_head
    np.testing.assert_allclose(
        assemble_row0_blockrows(head.weight.grad), ref_grads["cls_head.weight"], rtol=1e-8
    )
    np.testing.assert_allclose(
        assemble_row0_blockrows(head.weight.data),
        params["cls_head.weight"] - 0.1 * ref_grads["cls_head.weight"], rtol=1e-8,
    )
    np.testing.assert_allclose(
        head.bias.grad.local(0), ref_grads["cls_head.bias"], rtol=1e-8, atol=1e-12
    )
    model.validate_invariants()


@pytest.mark.parametrize("scheme", ["optimus", "megatron"])
def test_float32_head_keeps_gradient_dtypes(cfg, rng, scheme):
    params = init_transformer_params(cfg, seed=1, dtype="float32", num_classes=NUM_CLASSES)
    ids = rng.integers(0, cfg.vocab_size, size=(6, cfg.seq_len))
    labels = rng.integers(0, NUM_CLASSES, size=6)
    if scheme == "optimus":
        model = OptimusModel(make_mesh(2), cfg, params)
    else:
        model = MegatronModel(Simulator.for_flat(p=2), cfg, params)
    model.forward_classification(ids, labels)
    model.backward_classification()
    for p in model.parameters():
        assert p.grad.dtype == p.data.dtype == np.float32, p.name


@pytest.mark.parametrize("scheme", ["optimus", "megatron"])
def test_training_the_head_leaves_the_callers_parameters_alone(cfg, cls_setup, scheme):
    """Placement copies: an optimizer step on the model writes its own
    shards, never the global arrays it was built from."""
    params, ids, labels = cls_setup
    before = {name: a.copy() for name, a in params.items()}
    if scheme == "optimus":
        model = OptimusModel(make_mesh(2), cfg, params)
    else:
        model = MegatronModel(Simulator.for_flat(p=2), cfg, params)
    model.forward_classification(ids, labels)
    model.backward_classification()
    SGD(model.parameters(), lr=0.1).step()
    for name, a in before.items():
        np.testing.assert_array_equal(params[name], a, err_msg=name)


def _misplaced_operands(scheme, cfg, params, labels, rng):
    """A model of ``scheme`` and, per refused operand, the input and
    labels of a call its head must refuse, with the message it gives."""
    T, h = labels.size * cfg.seq_len, cfg.hidden_size
    if scheme == "optimus":
        mesh = make_mesh(2)
        model = OptimusModel(mesh, cfg, params)
        good = distribute(mesh, BLOCKED_2D, rng.normal(size=(T, h)))
        return model, [
            (distribute(mesh, REPLICATED, rng.normal(size=(T, h))), None,
             r"cls_head: input must be blocked_2d, got replicated"),
            (distribute(mesh, COL_BLOCKED, rng.normal(size=(T, h))), None,
             r"cls_head: input must be blocked_2d, got col_blocked"),
            (good, distribute(mesh, REPLICATED, labels),
             r"cls_head: labels must be row_blocked, got replicated"),
        ]
    model = MegatronModel(Simulator.for_flat(p=2), cfg, params)
    good = model.distribute_tokens(rng.normal(size=(T, h)))
    return model, [
        (distribute_sharded_1d(model.group, rng.normal(size=(T, 2 * h)), axis=1), None,
         r"cls_head: input must be replicated_1d, got sharded_1d"),
        (good, distribute_sharded_1d(model.group, labels, axis=0),
         r"cls_head: labels must be replicated_1d, got sharded_1d"),
    ]


@pytest.mark.parametrize("scheme", ["optimus", "megatron"])
def test_head_refuses_misplaced_operands(cfg, cls_setup, rng, scheme):
    """The head checks where its input and labels live before it charges
    anything: a refused call leaves every device's counters as they were."""
    params, _, labels = cls_setup
    model, calls = _misplaced_operands(scheme, cfg, params, labels, rng)
    before = model.sim.watermarks()
    for x, cls_labels, message in calls:
        with pytest.raises(ValueError, match=message):
            model.cls_head.forward(x, cls_labels)
        assert model.sim.watermarks() == before


def _step_buffers(head):
    """Rank 0's forward arena and peak bytes after one Optimus q = 2 step
    on the LM or the classification head, §3.2.3 option 3 on."""
    cfg = tiny_config()
    params = init_transformer_params(cfg, seed=1, num_classes=NUM_CLASSES)
    rng = np.random.default_rng(0)
    sim = Simulator.for_mesh(q=2)
    buffers = BufferManager(sim, ranks=sim.ranks, skip_matmul_outputs=True)
    model = OptimusModel(Mesh(sim, 2), cfg, params, buffers=buffers)
    ids = rng.integers(0, cfg.vocab_size, size=(4, cfg.seq_len))
    if head == "lm":
        model.forward(ids, rng.integers(0, cfg.vocab_size, size=(4, cfg.seq_len)))
        model.backward()
    else:
        model.forward_classification(ids, rng.integers(0, NUM_CLASSES, size=4))
        model.backward_classification()
    return buffers.capacity("forward", 0), sim.devices[0].memory.peak


def test_classification_step_trims_the_forward_arena_for_the_recompute():
    """§3.2.3 option 3 re-sizes the forward region for the leaner
    recompute between the head's backward and the layer loop, whichever
    head the step ends in."""
    lm_arena, _ = _step_buffers("lm")
    cls_arena, cls_peak = _step_buffers("cls")
    assert cls_arena == lm_arena == 19968
    assert cls_peak == 117328


def _sha(x) -> str:
    return hashlib.sha256(repr(x).encode()).hexdigest()


@pytest.mark.parametrize(
    "scheme, events, watermarks, by_tag",
    [
        (
            "optimus",
            "a667db2153874ba91dfd0ed6cbaa27f850fb90b38c0708c4ab9dd67fc543965f",
            "6522e68da6e20515910fd7d906f796920da986b499bc6bf0987cf2274e777445",
            "8559468e06715ee0072f214e79ce55d07b60636647e5823a3d86792beda5f35d",
        ),
        (
            "megatron",
            "d1b2308f493974227ffa56ffa17d7a190cb34ff039a1f6bbd10e025a417cfba8",
            "2f343dd5facd1856b402dc1fd6eae1669e7c763ceea14b836a71ce18d72caf04",
            "bb18e4e6aa94f159b9014fbd3ea388a5a490d8986555befe799a608477ee6369",
        ),
    ],
)
def test_pinned_head_accounting(scheme, events, watermarks, by_tag):
    """One traced float64 classification step, default buffers: the raw
    trace events, the watermarks and every rank's bytes per memory tag.  A
    change to the head's charges, collectives or buffer holds, or to their
    order, moves one of these digests and has to say so."""
    cfg = tiny_config(num_heads=4)  # n divisible by p = 4
    params = init_transformer_params(cfg, seed=1, num_classes=NUM_CLASSES)
    rng = np.random.default_rng(0)
    ids = rng.integers(0, cfg.vocab_size, size=(4, cfg.seq_len))
    labels = rng.integers(0, NUM_CLASSES, size=4)
    if scheme == "optimus":
        sim = Simulator.for_mesh(q=2, trace=True)
        model = OptimusModel(Mesh(sim, 2), cfg, params)
    else:
        sim = Simulator.for_flat(p=4, trace=True)
        model = MegatronModel(sim, cfg, params)
    model.forward_classification(ids, labels)
    model.backward_classification()
    assert (
        _sha(sim.tracer.events),
        _sha(sim.watermarks()),
        _sha([d.memory.by_tag for d in sim.devices]),
    ) == (events, watermarks, by_tag)


class TestRow0BlockrowsLayout:
    def test_roundtrip(self, rng):
        mesh = make_mesh(3)
        w = rng.normal(size=(9, 2))
        dt = distribute_row0_blockrows(mesh, w)
        assert set(dt.shards) == {mesh.rank(0, j) for j in range(3)}
        np.testing.assert_array_equal(assemble_row0_blockrows(dt), w)

    def test_indivisible(self, rng):
        mesh = make_mesh(2)
        with pytest.raises(ValueError):
            distribute_row0_blockrows(mesh, rng.normal(size=(5, 2)))
