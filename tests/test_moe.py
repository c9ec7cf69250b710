"""Mixture-of-Experts extension (§6): reference gradients, 2D equivalence,
routing invariants, and the communication claim (gate-only extra traffic)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.shape_array import ShapeArray
from repro.check.contracts import contract_checks
from repro.core.moe import MoE2D, _balanced_counts
from repro.mesh.mesh import Mesh
from repro.mesh.partition import (
    assemble_any,
    assemble_blocked_2d,
    assemble_row0_blockrows,
    distribute_blocked_2d,
)
from repro.reference.moe import ReferenceMoE, init_moe_params
from repro.runtime.simulator import Simulator
from repro.training.optim import SGD
from tests.conftest import make_mesh

H, E, T = 12, 3, 24


@pytest.fixture
def moe_setup(rng):
    params = init_moe_params(H, E, seed=1)
    x = rng.normal(size=(T, H))
    dy = rng.normal(size=(T, H))
    return params, x, dy


class TestReferenceMoE:
    def test_output_shape_and_aux(self, moe_setup):
        params, x, _ = moe_setup
        moe = ReferenceMoE(params, E)
        y, aux = moe.forward(x)
        assert y.shape == x.shape
        assert aux > 0  # E·Σ fₑmₑ ≥ E·(1/E)·(1/E)·E = 1/E times coef > 0

    def test_aux_loss_minimal_when_balanced(self):
        """Perfectly uniform gate probabilities minimize the aux loss."""
        params = init_moe_params(H, E, seed=1)
        params["moe.gate.weight"][:] = 0.0  # uniform gate
        moe = ReferenceMoE(params, E, aux_loss_coef=1.0)
        rng = np.random.default_rng(0)
        _, aux_uniform = moe.forward(rng.normal(size=(T, H)))
        # aux = E · Σ fₑ·mₑ with mₑ = 1/E → Σ fₑ/E · E = 1 exactly
        assert aux_uniform == pytest.approx(1.0)

    def test_every_token_processed_once(self, moe_setup):
        params, x, _ = moe_setup
        moe = ReferenceMoE(params, E)
        load = moe.expert_load(x)
        assert load.sum() == T

    def test_input_gradient_matches_finite_differences(self, moe_setup, rng):
        params, x, dy = moe_setup
        moe = ReferenceMoE(params, E)
        moe.forward(x)
        dx = moe.backward(dy)

        def total(x2):
            m = ReferenceMoE(params, E)
            y2, aux2 = m.forward(x2)
            return float(np.sum(y2 * dy) + aux2)

        eps = 1e-7
        for _ in range(6):
            i, j = rng.integers(0, T), rng.integers(0, H)
            xp, xm = x.copy(), x.copy()
            xp[i, j] += eps
            xm[i, j] -= eps
            num = (total(xp) - total(xm)) / (2 * eps)
            assert abs(num - dx[i, j]) < 1e-5 * max(1.0, abs(num))

    @pytest.mark.parametrize(
        "name", ["moe.gate.weight", "moe.expert0.w1", "moe.expert1.w2", "moe.expert2.b2"]
    )
    def test_param_gradients(self, moe_setup, rng, name):
        params, x, dy = moe_setup
        moe = ReferenceMoE(params, E)
        moe.forward(x)
        moe.backward(dy)
        g = moe.grads[name]
        p = params[name]

        def total():
            m = ReferenceMoE(params, E)
            y2, aux2 = m.forward(x)
            return float(np.sum(y2 * dy) + aux2)

        eps = 1e-7
        for _ in range(4):
            idx = tuple(rng.integers(0, d) for d in p.shape)
            old = p[idx]
            p[idx] = old + eps
            fp = total()
            p[idx] = old - eps
            fm = total()
            p[idx] = old
            num = (fp - fm) / (2 * eps)
            assert abs(num - g[idx]) < 1e-5 * max(1.0, abs(num)), (name, idx)

    def test_backward_requires_forward(self, moe_setup):
        params, _, dy = moe_setup
        with pytest.raises(RuntimeError):
            ReferenceMoE(params, E).backward(dy)


class TestMoE2D:
    def _grads(self, moe):
        return {p.name: assemble_any(p.grad) for p in moe.parameters() if p.grad is not None}

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_matches_reference(self, moe_setup, q):
        params, x, dy = moe_setup
        ref = ReferenceMoE(params, E)
        y_ref, aux_ref = ref.forward(x)
        dx_ref = ref.backward(dy)

        mesh = make_mesh(q)
        moe = MoE2D(mesh, params, E)
        y, aux = moe.forward(distribute_blocked_2d(mesh, x))
        np.testing.assert_allclose(assemble_blocked_2d(y), y_ref, rtol=1e-10, atol=1e-13)
        assert aux == pytest.approx(aux_ref, rel=1e-10)
        dx = moe.backward(distribute_blocked_2d(mesh, dy))
        np.testing.assert_allclose(assemble_blocked_2d(dx), dx_ref, rtol=1e-9, atol=1e-12)
        grads = self._grads(moe)
        for name, g_ref in ref.grads.items():
            np.testing.assert_allclose(grads[name], g_ref, rtol=1e-9, atol=1e-12,
                                       err_msg=name)

    @pytest.mark.parametrize("q", [2, 3])
    def test_trains_strict_under_contract_checks(self, moe_setup, q):
        """Every collective of a training step checked against its serial
        oracle, every DTensor against its layout contract."""
        params, x, dy = moe_setup
        ref = ReferenceMoE(params, E)
        y_ref, aux_ref = ref.forward(x)
        dx_ref = ref.backward(dy)

        mesh = make_mesh(q, strict_invariants=True)
        moe = MoE2D(mesh, params, E)
        with contract_checks():
            y, aux = moe.forward(distribute_blocked_2d(mesh, x))
            dx = moe.backward(distribute_blocked_2d(mesh, dy))
            grads = self._grads(moe)
            SGD(moe.parameters(), lr=0.1).step()
        np.testing.assert_allclose(assemble_blocked_2d(y), y_ref, rtol=1e-10, atol=1e-13)
        assert aux == pytest.approx(aux_ref, rel=1e-10)
        np.testing.assert_allclose(assemble_blocked_2d(dx), dx_ref, rtol=1e-9, atol=1e-12)
        for name, g_ref in ref.grads.items():
            np.testing.assert_allclose(grads[name], g_ref, rtol=1e-9, atol=1e-12,
                                       err_msg=name)
        np.testing.assert_allclose(
            assemble_row0_blockrows(moe.gate.data),
            params["moe.gate.weight"] - 0.1 * ref.grads["moe.gate.weight"], rtol=1e-9,
        )
        moe.validate_invariants()

    def test_moe_traffic_is_gate_only_plus_expert_summa(self, moe_setup):
        """§6 claim: the only MoE-specific collectives are the small gate
        broadcasts/all-reduces — token dispatch moves no data between
        devices."""
        params, x, dy = moe_setup
        mesh = make_mesh(2)
        mesh.sim.tracer.enabled = True
        moe = MoE2D(mesh, params, E)
        moe.forward(distribute_blocked_2d(mesh, x))
        kinds = {e.kind for e in mesh.sim.tracer.events}
        # broadcast (gate + bias + SUMMA) and all_reduce (gate logits, aux);
        # crucially there is no gather/scatter/all-to-all of token data
        assert kinds <= {"broadcast", "all_reduce", "reduce", "compute"}

    def test_dryrun_balanced_assumption(self, moe_setup):
        params, _, _ = moe_setup
        sim = Simulator.for_mesh(q=2, backend="shape")
        mesh = Mesh(sim, 2)
        params_s = {k: ShapeArray(v.shape, "float32") for k, v in params.items()}
        moe = MoE2D(mesh, params_s, E)
        xs = distribute_blocked_2d(mesh, ShapeArray((T, H), "float32"))
        y, aux = moe.forward(xs)
        assert y.local(0).shape == (T // 2, H // 2)
        assert aux.shape == ()
        dx = moe.backward(distribute_blocked_2d(mesh, ShapeArray((T, H), "float32")))
        assert dx.local(0).shape == (T // 2, H // 2)
        assert sim.elapsed() > 0

    def test_param_inventory(self, moe_setup):
        params, _, _ = moe_setup
        moe = MoE2D(make_mesh(2), params, E)
        names = {p.name for p in moe.parameters()}
        assert f"moe.gate.weight" in names
        assert {f"moe.expert{e}.w1" for e in range(E)} <= names
        assert len(names) == 1 + 4 * E


@given(st.integers(1, 50), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_balanced_counts_property(total, parts):
    counts = _balanced_counts(total, parts)
    assert sum(counts) == total
    assert max(counts) - min(counts) <= 1
