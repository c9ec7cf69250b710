"""§3.2.3 option 2 — immediate per-layer parameter updates.

"We could update the parameters immediately after the backward pass of a
Transformer layer, and then reset the parameter gradient buffer."

Both schemes run the one ``backward(on_layer_backward=...)`` of the shared
stack, so every test walks both (in-test, keeping the test ids stable).
"""

import numpy as np

from repro.core.model import OptimusModel
from repro.megatron.model import MegatronModel
from repro.mesh.partition import assemble_any
from repro.nn.init import init_transformer_params
from repro.runtime.simulator import Simulator
from repro.training.optim import SGD, Adam, make_immediate_updater
from tests.conftest import make_mesh

SCHEMES = ("optimus", "megatron")


def _model(scheme, cfg):
    params = init_transformer_params(cfg, seed=1)
    if scheme == "optimus":
        return OptimusModel(make_mesh(2), cfg, params)
    return MegatronModel(Simulator.for_flat(2), cfg, params)


def _train(scheme, cfg, ids, labels, immediate: bool, steps: int = 3):
    model = _model(scheme, cfg)
    opt = SGD(model.parameters(), lr=0.1)
    hook = make_immediate_updater(opt, model.buffers) if immediate else None
    for _ in range(steps):
        opt.zero_grad()
        model.forward(ids, labels)
        model.backward(on_layer_backward=hook)
        opt.step()  # embedding / head / final-LN (layer params already done)
    return model


def test_immediate_updates_match_deferred(cfg, batch):
    """For SGD the per-layer update order is irrelevant: identical weights."""
    ids, labels = batch
    for scheme in SCHEMES:
        deferred = _train(scheme, cfg, ids, labels, immediate=False)
        immediate = _train(scheme, cfg, ids, labels, immediate=True)
        for (pd, pi) in zip(deferred.parameters(), immediate.parameters()):
            assert pd.name == pi.name
            np.testing.assert_allclose(
                assemble_any(pd.data), assemble_any(pi.data), rtol=1e-12,
                err_msg=f"{scheme}: {pd.name}",
            )


def test_immediate_updates_shrink_param_grad_buffer(cfg, batch):
    """The point of option 2: the gradient buffer holds one layer, not N."""
    ids, labels = batch
    rank = 0
    for scheme in SCHEMES:
        deferred_buf = _train(scheme, cfg, ids, labels, immediate=False, steps=1).buffers
        immediate_buf = _train(scheme, cfg, ids, labels, immediate=True, steps=1).buffers
        assert immediate_buf.capacity("param_grad", rank) < deferred_buf.capacity(
            "param_grad", rank
        ), scheme
        # with 2 layers plus the lm-head gradient, roughly half the arena
        assert immediate_buf.capacity("param_grad", rank) <= (
            0.75 * deferred_buf.capacity("param_grad", rank)
        ), scheme


def test_deferred_step_skips_already_updated_layers(cfg, batch):
    """After immediate layer updates, the trailing full step must not
    re-apply them (their gradients were cleared)."""
    ids, labels = batch
    for scheme in SCHEMES:
        model = _model(scheme, cfg)
        opt = SGD(model.parameters(), lr=0.1)
        hook = make_immediate_updater(opt)
        model.forward(ids, labels)
        model.backward(on_layer_backward=hook)
        w_after_hooks = assemble_any(
            model.named_parameters()["layer0.mlp.w1"].data
        ).copy()
        opt.step()
        np.testing.assert_array_equal(
            assemble_any(model.named_parameters()["layer0.mlp.w1"].data),
            w_after_hooks,
            err_msg=scheme,
        )


def _train_stateful(scheme, cfg, ids, labels, make_opt, immediate: bool, steps: int = 2):
    model = _model(scheme, cfg)
    opt = make_opt(model.parameters())
    hook = make_immediate_updater(opt, model.buffers) if immediate else None
    for _ in range(steps):
        opt.zero_grad()
        model.forward(ids, labels)
        model.backward(on_layer_backward=hook)
        opt.step()
    return model, opt


def test_stateful_optimizers_count_one_step_per_iteration(cfg, batch):
    """Adam's bias correction and SGD's momentum see the same step count and
    the same gradients whether layers update immediately or all at once:
    identical parameters and optimizer state, and ``t`` counts iterations."""
    ids, labels = batch
    optimizers = {
        "adam": lambda params: Adam(params, lr=1e-2),
        "sgd-momentum": lambda params: SGD(params, lr=0.1, momentum=0.9),
    }
    for scheme in SCHEMES:
        for name, make_opt in optimizers.items():
            deferred, opt_d = _train_stateful(scheme, cfg, ids, labels, make_opt, False)
            immediate, opt_i = _train_stateful(scheme, cfg, ids, labels, make_opt, True)
            assert opt_i.t == opt_d.t == 2, (scheme, name)
            assert opt_i.state_dict()["t"] == 2, (scheme, name)
            for pd, pi in zip(deferred.parameters(), immediate.parameters()):
                assert pd.name == pi.name
                assert np.array_equal(
                    assemble_any(pd.data), assemble_any(pi.data)
                ), (scheme, name, pd.name)
            slots_d, slots_i = opt_d.state_slots(), opt_i.state_slots()
            assert slots_d.keys() == slots_i.keys()
            for key in slots_d:
                for a, b in zip(slots_d[key], slots_i[key]):
                    assert np.array_equal(a, b), (scheme, name, key)
