"""The Fig. 1 classification branch: reference gradcheck + three-way
equivalence (serial / Optimus 2D / Megatron 1D)."""

import numpy as np
import pytest

from repro.check.contracts import contract_checks
from repro.core.model import OptimusModel
from repro.megatron.model import MegatronModel
from repro.mesh.partition import assemble_any, assemble_row0_blockrows, distribute_row0_blockrows
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


def test_megatron_head_needs_replicated_input(cfg, cls_setup, rng):
    from repro.mesh.partition import distribute_sharded_1d

    params, ids, labels = cls_setup
    model = MegatronModel(Simulator.for_flat(p=2), cfg, params)
    T = ids.size
    sliced = distribute_sharded_1d(
        model.group, rng.normal(size=(T, 2 * cfg.hidden_size)), axis=1
    )
    with pytest.raises(ValueError, match=r"cls_head: input must be replicated.*sharded_1d"):
        model.cls_head.forward(sliced)
    replicated = model.distribute_tokens(rng.normal(size=(T, cfg.hidden_size)))
    with pytest.raises(ValueError, match=r"cls_head: labels must be replicated"):
        model.cls_head.forward(
            replicated, distribute_sharded_1d(model.group, labels, axis=0)
        )


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
