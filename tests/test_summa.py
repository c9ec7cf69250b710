"""SUMMA algorithms 1–3 and the closed-set gradient identities (Eqs. 1–3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffers import BufferManager
from repro.core.summa import grads_of_ab, grads_of_abt, grads_of_atb, summa_ab, summa_abt, summa_atb
from repro.mesh.partition import assemble_blocked_2d, distribute_blocked_2d, distribute_replicated
from tests.conftest import make_mesh


def _dist(mesh, a):
    return distribute_blocked_2d(mesh, a)


class TestForwardProducts:
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_ab(self, q, rng):
        mesh = make_mesh(q)
        a, b = rng.normal(size=(4 * q, 6 * q)), rng.normal(size=(6 * q, 2 * q))
        c = assemble_blocked_2d(summa_ab(mesh, _dist(mesh, a), _dist(mesh, b)))
        np.testing.assert_allclose(c, a @ b, rtol=1e-12)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_abt(self, q, rng):
        mesh = make_mesh(q)
        a, b = rng.normal(size=(4 * q, 6 * q)), rng.normal(size=(2 * q, 6 * q))
        c = assemble_blocked_2d(summa_abt(mesh, _dist(mesh, a), _dist(mesh, b)))
        np.testing.assert_allclose(c, a @ b.T, rtol=1e-12)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_atb(self, q, rng):
        mesh = make_mesh(q)
        a, b = rng.normal(size=(6 * q, 4 * q)), rng.normal(size=(6 * q, 2 * q))
        c = assemble_blocked_2d(summa_atb(mesh, _dist(mesh, a), _dist(mesh, b)))
        np.testing.assert_allclose(c, a.T @ b, rtol=1e-12)

    def test_inner_dim_mismatch(self, rng):
        mesh = make_mesh(2)
        a, b = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
        with pytest.raises(ValueError):
            summa_ab(mesh, _dist(mesh, a), _dist(mesh, b))
        with pytest.raises(ValueError):
            summa_abt(mesh, _dist(mesh, a), _dist(mesh, rng.normal(size=(4, 4))))
        with pytest.raises(ValueError):
            summa_atb(mesh, _dist(mesh, a), _dist(mesh, rng.normal(size=(6, 6))))

    @pytest.mark.parametrize("backend", ["numpy", "shape"])
    @pytest.mark.parametrize(
        "product, a_block, b_global",
        [(summa_ab, (2, 3), (6, 4)), (summa_abt, (2, 3), (4, 6)), (summa_atb, (3, 2), (6, 4))],
    )
    def test_block_inner_dim_mismatch_is_a_plan_error(self, product, a_block, b_global, backend):
        """Global K agrees but the blocks do not (hand-built shards: B's 2×2
        blocks do not tile the global shape it claims).  The plan must
        refuse — a uniform dryrun multiplies no blocks, so nothing downstream
        would notice."""
        from repro.backend import ops
        from repro.mesh.dtensor import DTensor
        from repro.mesh.layouts import BLOCKED_2D

        mesh = make_mesh(2, backend=backend)
        mesh.sim.strict_invariants = False

        def tensor(block, global_shape):
            shards = {r: ops.zeros(block, "float32", backend) for r in mesh.ranks}
            return DTensor(mesh, BLOCKED_2D, shards, global_shape)

        a = tensor(a_block, (2 * a_block[0], 2 * a_block[1]))
        with pytest.raises(ValueError, match="block inner dims mismatch") as err:
            product(mesh, a, tensor((2, 2), b_global))
        algo = product.__name__.split("_")[1]
        for named in (f"for {algo} ", "rank 0", str(a_block), "(2, 2)"):
            assert named in str(err.value)

    def test_layout_enforced(self, rng):
        mesh = make_mesh(2)
        a = distribute_replicated(mesh, rng.normal(size=(4, 4)))
        with pytest.raises(ValueError):
            summa_ab(mesh, a, _dist(mesh, rng.normal(size=(4, 4))))


class TestGradientIdentities:
    """Eqs. 1–3: backward of each product is a composition of the others."""

    def test_grads_of_ab(self, rng):
        mesh = make_mesh(2)
        a, b = rng.normal(size=(4, 6)), rng.normal(size=(6, 8))
        dc = rng.normal(size=(4, 8))
        da, db = grads_of_ab(mesh, _dist(mesh, a), _dist(mesh, b), _dist(mesh, dc))
        np.testing.assert_allclose(assemble_blocked_2d(da), dc @ b.T, rtol=1e-12)
        np.testing.assert_allclose(assemble_blocked_2d(db), a.T @ dc, rtol=1e-12)

    def test_grads_of_abt(self, rng):
        mesh = make_mesh(2)
        a, b = rng.normal(size=(4, 6)), rng.normal(size=(8, 6))
        dc = rng.normal(size=(4, 8))
        da, db = grads_of_abt(mesh, _dist(mesh, a), _dist(mesh, b), _dist(mesh, dc))
        np.testing.assert_allclose(assemble_blocked_2d(da), dc @ b, rtol=1e-12)
        np.testing.assert_allclose(assemble_blocked_2d(db), dc.T @ a, rtol=1e-12)

    def test_grads_of_atb(self, rng):
        mesh = make_mesh(2)
        a, b = rng.normal(size=(6, 4)), rng.normal(size=(6, 8))
        dc = rng.normal(size=(4, 8))
        da, db = grads_of_atb(mesh, _dist(mesh, a), _dist(mesh, b), _dist(mesh, dc))
        np.testing.assert_allclose(assemble_blocked_2d(da), b @ dc.T, rtol=1e-12)
        np.testing.assert_allclose(assemble_blocked_2d(db), a @ dc, rtol=1e-12)

    def test_grads_match_finite_differences(self, rng):
        """Chain-rule sanity: d/dA tr(Gᵀ·AB) = G·Bᵀ via SUMMA."""
        mesh = make_mesh(2)
        a, b = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        g = rng.normal(size=(4, 4))

        def f(a_):
            return float(np.sum(g * (a_ @ b)))

        da, _ = grads_of_ab(mesh, _dist(mesh, a), _dist(mesh, b), _dist(mesh, g))
        eps = 1e-6
        num = np.zeros_like(a)
        for i in range(4):
            for j in range(4):
                ap, am = a.copy(), a.copy()
                ap[i, j] += eps
                am[i, j] -= eps
                num[i, j] = (f(ap) - f(am)) / (2 * eps)
        np.testing.assert_allclose(assemble_blocked_2d(da), num, rtol=1e-5)


class TestCostAccounting:
    def test_flops_charged_equal_total_gemm(self, rng):
        q = 2
        mesh = make_mesh(q)
        M, K, N = 4, 6, 8
        summa_ab(mesh, _dist(mesh, rng.normal(size=(M, K))), _dist(mesh, rng.normal(size=(K, N))))
        assert mesh.sim.total_flops() == pytest.approx(2.0 * M * K * N)

    def test_flops_balanced_across_devices(self, rng):
        mesh = make_mesh(2)
        summa_ab(mesh, _dist(mesh, rng.normal(size=(4, 4))), _dist(mesh, rng.normal(size=(4, 4))))
        fl = [d.flops for d in mesh.sim.devices]
        assert max(fl) == pytest.approx(min(fl))

    def test_comm_weighted_volume(self, rng):
        """Per device: q steps × log₂(q) × (A block + B block) bytes."""
        q = 4
        mesh = make_mesh(q)
        a = rng.normal(size=(8 * q, 4 * q))
        b = rng.normal(size=(4 * q, 8 * q))
        summa_ab(mesh, _dist(mesh, a), _dist(mesh, b))
        expected = q * np.log2(q) * (a.nbytes + b.nbytes) / (q * q)
        assert mesh.sim.device(0).weighted_comm_volume == pytest.approx(expected)

    def test_q1_has_no_comm(self, rng):
        mesh = make_mesh(1)
        summa_ab(mesh, _dist(mesh, rng.normal(size=(4, 4))), _dist(mesh, rng.normal(size=(4, 4))))
        assert mesh.sim.total_bytes_comm() == 0

    def test_workspace_charged_and_released(self, rng):
        mesh = make_mesh(2)
        buf = BufferManager(mesh.sim)
        summa_ab(
            mesh,
            _dist(mesh, rng.normal(size=(4, 4))),
            _dist(mesh, rng.normal(size=(4, 4))),
            buffers=buf,
        )
        assert buf.usage("workspace", 0) == 0  # all scratch released
        assert buf.capacity("workspace", 0) > 0  # arena retained
        assert mesh.sim.device(0).memory.by_tag["buffer:workspace"] > 0


class TestHotPathRegressions:
    """Minimal reproductions of accounting bugs found by diffing the batched
    executor against the per-rank one (PR 7 satellite sweep)."""

    def test_q1_reduce_does_not_leak_pool_buffers(self, rng):
        """q=1: the size-1 reduce is zero-copy, so a pooled partial became
        the output shard and was never released — every abt/atb call leaked
        one pool acquisition and pooling was permanently defeated."""
        from repro.core import summa as summa_mod

        mesh = make_mesh(1)
        a = _dist(mesh, rng.normal(size=(4, 4)))
        for _ in range(3):
            summa_abt(mesh, a, a)
            summa_atb(mesh, a, a)
        stats = summa_mod._pool_of(mesh.sim).stats()
        assert stats["live"] == 0, f"pooled buffers leaked into outputs: {stats}"

    def test_plan_cache_keyed_on_per_shard_dtypes(self, rng):
        """Mixed per-shard dtypes used to collide with the uniform-dtype
        plan (the key looked only at the first shard), silently reusing its
        out-dtype and f32-sized scratch/byte charges for f64 blocks."""
        from repro.mesh.dtensor import DTensor
        from repro.mesh.layouts import BLOCKED_2D

        def run(prime_first):
            mesh = make_mesh(2)
            # mixed per-shard dtypes violate the strict layout contract; the
            # plan cache must still key on them when checking is off
            mesh.sim.strict_invariants = False
            a32 = _dist(mesh, rng.normal(size=(8, 8)).astype(np.float32))
            b32 = _dist(mesh, rng.normal(size=(8, 8)).astype(np.float32))
            mixed = {
                r: (s if r == mesh.ranks[0] else s.astype(np.float64))
                for r, s in a32.shards.items()
            }
            amix = DTensor(mesh, BLOCKED_2D, mixed, (8, 8))
            if prime_first:  # prime the cache with the all-f32 plan
                summa_ab(mesh, a32, b32)
                base = {r: mesh.sim.device(r).bytes_comm for r in mesh.ranks}
            else:  # fresh mesh: nothing cached to collide with
                base = {r: 0.0 for r in mesh.ranks}
            c = summa_ab(mesh, amix, b32)
            dtypes = sorted({s.dtype.name for s in c.shards.values()})
            bytes_comm = {
                r: mesh.sim.device(r).bytes_comm - base[r] for r in mesh.ranks
            }
            return dtypes, bytes_comm

        cached_dtypes, cached_bytes = run(prime_first=True)
        fresh_dtypes, fresh_bytes = run(prime_first=False)
        assert cached_dtypes == fresh_dtypes
        assert cached_bytes == fresh_bytes


@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
    st.sampled_from(["ab", "abt", "atb"]),
)
@settings(max_examples=60, deadline=None)
def test_summa_matches_numpy_property(q, mb, kb, nb, which):
    """All three products agree with numpy for random divisible shapes."""
    rng = np.random.default_rng(hash((q, mb, kb, nb, which)) % 2**32)
    mesh = make_mesh(q)
    M, K, N = mb * q, kb * q, nb * q
    if which == "ab":
        a, b = rng.normal(size=(M, K)), rng.normal(size=(K, N))
        out = summa_ab(mesh, _dist(mesh, a), _dist(mesh, b))
        expected = a @ b
    elif which == "abt":
        a, b = rng.normal(size=(M, K)), rng.normal(size=(N, K))
        out = summa_abt(mesh, _dist(mesh, a), _dist(mesh, b))
        expected = a @ b.T
    else:
        a, b = rng.normal(size=(K, M)), rng.normal(size=(K, N))
        out = summa_atb(mesh, _dist(mesh, a), _dist(mesh, b))
        expected = a.T @ b
    np.testing.assert_allclose(assemble_blocked_2d(out), expected, rtol=1e-10, atol=1e-12)
