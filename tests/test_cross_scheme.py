"""Cross-scheme equivalence: Optimus ≡ Megatron ≡ serial reference, including
over multiple optimizer steps, plus the comparative claims the paper makes
about the two schemes (memory, communication pattern)."""

import numpy as np
import pytest

from repro.config import tiny_config
from repro.core.model import OptimusModel
from repro.megatron.model import MegatronModel
from repro.mesh.partition import assemble_any
from repro.nn.init import init_transformer_params
from repro.reference.model import ReferenceTransformer
from repro.runtime.simulator import Simulator
from repro.training.optim import SGD, SerialSGD
from tests.conftest import make_mesh


def _grads_of(model):
    return {p.name: assemble_any(p.grad) for p in model.parameters()}


def test_three_implementations_agree(cfg, params, batch):
    ids, labels = batch
    ref = ReferenceTransformer(cfg, params)
    ref_loss, ref_grads = ref.loss_and_grads(ids, labels)

    opt_model = OptimusModel(make_mesh(2), cfg, params)
    opt_loss = opt_model.forward(ids, labels)
    opt_model.backward()

    meg_model = MegatronModel(Simulator.for_flat(p=2), cfg, params)
    meg_loss = meg_model.forward(ids, labels)
    meg_model.backward()

    assert opt_loss == pytest.approx(float(ref_loss), abs=1e-10)
    assert meg_loss == pytest.approx(float(ref_loss), abs=1e-10)
    og, mg = _grads_of(opt_model), _grads_of(meg_model)
    for name in ref_grads:
        np.testing.assert_allclose(og[name], ref_grads[name], rtol=1e-8, atol=1e-11)
        np.testing.assert_allclose(mg[name], ref_grads[name], rtol=1e-8, atol=1e-11)


@pytest.mark.parametrize("scheme", ["optimus", "megatron"])
def test_cross_entropy_rejects_wrong_logits_layout(cfg, params, batch, scheme):
    """The one vocabulary cross-entropy checks the layout its scheme names."""
    ids, labels = batch
    if scheme == "optimus":
        model = OptimusModel(make_mesh(2), cfg, params)
    else:
        model = MegatronModel(Simulator.for_flat(p=2), cfg, params)
    logits = model.forward(ids)
    tokens = model.distribute_tokens(labels)
    assert logits.layout == model.loss_fn.layout != tokens.layout
    with pytest.raises(ValueError, match="logits must be"):
        model.loss_fn.forward(tokens, tokens)
    assert np.isfinite(model.loss_fn.forward(logits, tokens))


def test_training_trajectories_identical(cfg, batch, rng):
    """Five SGD steps: all three implementations produce the same losses."""
    ids, labels = batch
    lr = 0.05
    losses = {}

    # serial
    params_ref = init_transformer_params(cfg, seed=1)
    ref = ReferenceTransformer(cfg, params_ref)
    opt_ref = SerialSGD(params_ref, lr=lr)
    traj = []
    for _ in range(5):
        loss, grads = ref.loss_and_grads(ids, labels)
        opt_ref.step(grads)
        traj.append(float(loss))
    losses["serial"] = traj

    # optimus
    params_o = init_transformer_params(cfg, seed=1)
    model_o = OptimusModel(make_mesh(2), cfg, params_o)
    opt_o = SGD(model_o.parameters(), lr=lr)
    traj = []
    for _ in range(5):
        opt_o.zero_grad()
        loss = model_o.forward(ids, labels)
        model_o.backward()
        opt_o.step()
        traj.append(float(loss))
    losses["optimus"] = traj

    # megatron
    params_m = init_transformer_params(cfg, seed=1)
    model_m = MegatronModel(Simulator.for_flat(p=3), cfg, params_m)
    opt_m = SGD(model_m.parameters(), lr=lr)
    traj = []
    for _ in range(5):
        opt_m.zero_grad()
        loss = model_m.forward(ids, labels)
        model_m.backward()
        opt_m.step()
        traj.append(float(loss))
    losses["megatron"] = traj

    np.testing.assert_allclose(losses["optimus"], losses["serial"], rtol=1e-9)
    np.testing.assert_allclose(losses["megatron"], losses["serial"], rtol=1e-9)
    assert losses["serial"][-1] < losses["serial"][0]  # actually learning


def test_optimus_distributes_activation_memory(rng):
    """§3.1.1: Optimus activation memory per device shrinks with p while
    Megatron's replicated activations do not."""
    cfg = tiny_config(num_heads=4, hidden_size=16)  # p=4-compatible heads
    ids = rng.integers(0, cfg.vocab_size, size=(8, cfg.seq_len))
    labels = rng.integers(0, cfg.vocab_size, size=(8, cfg.seq_len))
    peaks = {}
    for label, build in {
        "optimus_q2": lambda prm: OptimusModel(make_mesh(2), cfg, prm, stem_only=False),
        "megatron_p4": lambda prm: MegatronModel(Simulator.for_flat(p=4), cfg, prm),
    }.items():
        prm = init_transformer_params(cfg, seed=1)
        model = build(prm)
        model.forward(ids, labels)
        model.backward()
        sim = model.mesh.sim if hasattr(model, "mesh") else model.sim
        peaks[label] = sim.peak_memory()
    # same p = 4 devices: the 2D scheme's per-device peak must be smaller
    assert peaks["optimus_q2"] < peaks["megatron_p4"]


def test_comm_patterns_are_as_paper_describes(rng):
    """Optimus communicates via broadcast/reduce (SUMMA); Megatron via
    ring all-reduce — §2.4 vs §2.2."""
    cfg = tiny_config(num_heads=4, hidden_size=16)
    params = init_transformer_params(cfg, seed=1)
    mesh = make_mesh(2)
    mesh.sim.tracer.enabled = True
    om = OptimusModel(mesh, cfg, params, stem_only=True)
    om.stem_forward(4)
    o_kinds = {e.kind for e in mesh.sim.tracer.events}
    assert "broadcast" in o_kinds

    sim = Simulator.for_flat(p=4, trace=True)
    mm = MegatronModel(sim, cfg, params, stem_only=True)
    mm.stem_forward(4)
    # compute slices are traced too now; the *communication* is pure all-reduce
    m_kinds = {e.kind for e in sim.tracer.events if e.kind != "compute"}
    assert m_kinds == {"all_reduce"}


def test_backward_forward_comm_ratio():
    """Table 1/§4: backward communication ≈ 2× forward for Megatron but
    ≈ 3× for Optimus (communication rides inside SUMMA recompute)."""
    cfg = tiny_config(num_heads=4, hidden_size=32, num_layers=2)
    params = init_transformer_params(cfg, include_embedding=False)
    mesh = make_mesh(2)
    om = OptimusModel(mesh, cfg, params, stem_only=True)
    om.stem_forward(4)
    f = mesh.sim.device(0).weighted_comm_volume
    om.stem_backward()
    ratio_o = (mesh.sim.device(0).weighted_comm_volume - f) / f

    sim = Simulator.for_flat(p=4)
    mm = MegatronModel(sim, cfg, params, stem_only=True)
    mm.stem_forward(4)
    fm = sim.device(0).weighted_comm_volume
    mm.stem_backward()
    ratio_m = (sim.device(0).weighted_comm_volume - fm) / fm

    assert ratio_o == pytest.approx(3.0, rel=0.15)
    assert ratio_m == pytest.approx(2.0, rel=0.25)  # + checkpoint all-gather
