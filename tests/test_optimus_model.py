"""End-to-end OptimusModel: equivalence with the reference, checkpointing,
memory behaviour, stem mode."""

import numpy as np
import pytest

from repro.backend.shape_array import ShapeArray
from repro.core.model import OptimusModel
from repro.mesh.layouts import BLOCKED_2D
from repro.mesh.partition import assemble_blocked_2d, assemble_row0_cols
from repro.nn.init import init_transformer_params
from repro.reference.model import ReferenceTransformer
from tests.conftest import make_mesh


def _assemble(p):
    if p.data.layout == BLOCKED_2D:
        return assemble_blocked_2d(p.grad)
    return assemble_row0_cols(p.grad)


@pytest.fixture
def reference(cfg, params, batch):
    ids, labels = batch
    ref = ReferenceTransformer(cfg, params)
    loss = float(ref.forward(ids, labels))
    return loss, ref.backward()


@pytest.mark.parametrize("q,ckpt", [(1, False), (2, False), (2, True), (3, True)])
def test_loss_and_all_grads_match_reference(cfg, params, batch, reference, q, ckpt):
    ids, labels = batch
    ref_loss, ref_grads = reference
    mesh = make_mesh(q)
    model = OptimusModel(mesh, cfg, params, checkpoint_activations=ckpt)
    loss = model.forward(ids, labels)
    assert loss == pytest.approx(ref_loss, abs=1e-10)
    model.backward()
    for p in model.parameters():
        np.testing.assert_allclose(
            _assemble(p), ref_grads[p.name], rtol=1e-8, atol=1e-11, err_msg=p.name
        )


def test_checkpointing_changes_nothing_numerically(cfg, params, batch):
    ids, labels = batch
    grads = {}
    for ckpt in (False, True):
        mesh = make_mesh(2)
        model = OptimusModel(mesh, cfg, params, checkpoint_activations=ckpt)
        model.forward(ids, labels)
        model.backward()
        grads[ckpt] = {p.name: _assemble(p) for p in model.parameters()}
    for name in grads[True]:
        np.testing.assert_array_equal(grads[True][name], grads[False][name])


def test_checkpointing_reduces_peak_memory(cfg, params, batch):
    ids, labels = batch
    peaks = {}
    for ckpt in (False, True):
        mesh = make_mesh(2)
        model = OptimusModel(mesh, cfg, params, checkpoint_activations=ckpt)
        model.forward(ids, labels)
        model.backward()
        peaks[ckpt] = mesh.sim.peak_memory()
    assert peaks[True] < peaks[False]


def test_checkpointing_triples_backward_compute(cfg, params, batch):
    """Backward = recompute-forward + 2 gradient products (paper §4)."""
    ids, labels = batch
    mesh = make_mesh(2)
    model = OptimusModel(mesh, cfg, params, checkpoint_activations=True)
    model.forward(ids, labels)
    fwd = mesh.sim.device(0).flops_gemm
    model.backward()
    bwd = mesh.sim.device(0).flops_gemm - fwd
    # the full model includes the (non-checkpointed) lm-head: ratio ≈ 3
    assert 2.4 < bwd / fwd < 3.2


def test_inference_returns_logits(cfg, params, batch):
    ids, _ = batch
    mesh = make_mesh(2)
    model = OptimusModel(mesh, cfg, params)
    logits = model.forward(ids)
    ref = ReferenceTransformer(cfg, params).forward(ids)
    np.testing.assert_allclose(assemble_blocked_2d(logits), ref, rtol=1e-9)


def test_grad_accumulation_over_microbatches(cfg, params, batch):
    ids, labels = batch
    mesh = make_mesh(2)
    model = OptimusModel(mesh, cfg, params)
    model.forward(ids, labels)
    model.backward()
    g1 = {p.name: _assemble(p) for p in model.parameters()}
    model.forward(ids, labels)
    model.backward()
    g2 = {p.name: _assemble(p) for p in model.parameters()}
    for name in g1:
        np.testing.assert_allclose(g2[name], 2 * g1[name], rtol=1e-9)


def test_validation_errors(cfg, params):
    mesh = make_mesh(2)
    model = OptimusModel(mesh, cfg, params)
    with pytest.raises(ValueError):
        model.forward(np.zeros((3, cfg.seq_len), dtype=int))  # b=3 not divisible
    with pytest.raises(ValueError):
        model.forward(np.zeros((4, cfg.seq_len + 1), dtype=int))  # wrong s
    with pytest.raises(RuntimeError):
        model.backward()  # no forward yet


def test_synthetic_batch(cfg, params):
    mesh = make_mesh(2)
    model = OptimusModel(mesh, cfg, params)
    ids, labels = model.synthetic_batch(4, seed=7)
    assert ids.shape == (4, cfg.seq_len)
    assert float(model.forward(ids, labels)) > 0

    mesh_s = make_mesh(2, backend="shape")
    params_s = init_transformer_params(cfg, backend="shape")
    model_s = OptimusModel(mesh_s, cfg, params_s)
    ids_s, labels_s = model_s.synthetic_batch(4)
    assert isinstance(ids_s, ShapeArray)


class TestStemMode:
    def test_stem_runs_numeric(self, cfg, params):
        mesh = make_mesh(2)
        model = OptimusModel(mesh, cfg, params, stem_only=True)
        out = model.stem_forward(4)
        assert out.global_shape == (4 * cfg.seq_len, cfg.hidden_size)
        dx = model.stem_backward()
        assert dx.global_shape == out.global_shape

    def test_stem_only_has_no_embedding_params(self, cfg):
        params = init_transformer_params(cfg, include_embedding=False)
        mesh = make_mesh(2)
        model = OptimusModel(mesh, cfg, params, stem_only=True)
        names = {p.name for p in model.parameters()}
        assert "embedding.table" not in names
        assert any("mlp.w1" in n for n in names)

    def test_stem_dryrun_charges_time(self, cfg):
        params = init_transformer_params(cfg, backend="shape", include_embedding=False)
        mesh = make_mesh(2, backend="shape")
        model = OptimusModel(mesh, cfg, params, stem_only=True)
        model.stem_forward(4)
        t_fwd = mesh.sim.elapsed()
        assert t_fwd > 0
        model.stem_backward()
        assert mesh.sim.elapsed() > t_fwd


class TestDryrunNumericConsistency:
    """The dryrun must charge exactly what the numeric run charges."""

    def test_counters_identical_across_backends(self, cfg):
        b = 4
        results = {}
        for backend in ("numpy", "shape"):
            mesh = make_mesh(2, backend=backend)
            params = init_transformer_params(
                cfg, seed=1, backend=backend, dtype="float32"
            )
            model = OptimusModel(mesh, cfg, params, checkpoint_activations=True)
            if backend == "numpy":
                rng = np.random.default_rng(0)
                ids = rng.integers(0, cfg.vocab_size, size=(b, cfg.seq_len))
                labels = rng.integers(0, cfg.vocab_size, size=(b, cfg.seq_len))
            else:
                ids = ShapeArray((b, cfg.seq_len), "int64")
                labels = ShapeArray((b, cfg.seq_len), "int64")
            model.forward(ids, labels)
            model.backward()
            d = mesh.sim.device(0)
            results[backend] = (
                d.flops_gemm,
                d.bytes_comm,
                d.weighted_comm_volume,
                d.num_collectives,
                mesh.sim.elapsed(),
                mesh.sim.peak_memory(),
            )
        assert results["numpy"] == pytest.approx(results["shape"])
