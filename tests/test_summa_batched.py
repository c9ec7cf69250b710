"""The two SUMMA executors: the batched one is bit-exact and
accounting-identical to the per-rank reference, and the per-call selection
sends every input the batched executor cannot take to the per-rank one."""

import gc
import weakref

import numpy as np
import pytest

from repro.backend.shape_array import ShapeArray
from repro.comm import collectives as coll
from repro.core import summa
from repro.core.buffers import BufferManager
from repro.mesh.dtensor import DTensor
from repro.mesh.layouts import BLOCKED_2D
from repro.mesh.mesh import Mesh
from repro.mesh.partition import assemble_blocked_2d, distribute_blocked_2d
from repro.runtime.memory import OutOfDeviceMemory
from repro.runtime.simulator import Simulator
from tests.conftest import make_mesh

DEV_FIELDS = (
    "clock", "flops", "flops_gemm", "bytes_comm", "weighted_comm_volume",
    "compute_time", "comm_time", "num_collectives",
)
ALGOS = {"ab": summa._AB, "abt": summa._ABT, "atb": summa._ATB}


def _state(sim):
    return {
        r: tuple(getattr(sim.device(r), f) for f in DEV_FIELDS)
        + (sim.device(r).memory.current, sim.device(r).memory.peak,
           sim.device(r).memory.num_allocs)
        for r in sim.ranks
    }


def _operands(mesh, algo, dtype, seed=0):
    """A and B of the global shapes the algorithm expects (M, K, N all
    different, so a transposed role cannot pass by accident)."""
    q = mesh.q
    M, K, N = 4 * q, 3 * q, 2 * q
    rng = np.random.default_rng(seed)
    a_shape = (K, M) if algo.ta else (M, K)
    b_shape = (N, K) if algo.tb else (K, N)
    a = distribute_blocked_2d(mesh, rng.normal(size=a_shape).astype(dtype))
    b = distribute_blocked_2d(mesh, rng.normal(size=b_shape).astype(dtype))
    return a, b


def _execute(
    executor, algo, q, dtype, calls=2, backend="numpy", with_buffers=True, managed=True
):
    """Run one executor directly, on a fresh traced mesh, ``calls`` times
    (the second call re-uses pooled scratch); everything observable."""
    mesh = make_mesh(q, backend=backend)
    sim = mesh.sim
    sim.tracer.enabled = True
    sim.enable_memory_timeline()
    buffers = BufferManager(sim, managed=managed) if with_buffers else None
    a, b = _operands(mesh, algo, dtype)
    if backend == "shape":
        a, b = (x.map(lambda s: ShapeArray(s.shape, s.dtype)) for x in (a, b))
    plan = summa._get_plan(mesh, algo, a, b)
    outs = []
    for _ in range(calls):
        if executor == "batched":
            desc = plan.batched
            assert desc is not None
            out = np.empty(desc.stack_shape, plan.out_dtype) if plan.numeric else None
            shards = summa._run_batched(mesh, algo, a, b, plan, buffers, desc, out)
        else:
            shards = summa._run_per_rank(mesh, algo, a, b, plan, buffers)
        if backend == "shape":  # what a placeholder is: rank order, shape, dtype
            outs.append([(r, s.shape, s.dtype) for r, s in shards.items()])
        else:
            outs.append({r: np.array(s) for r, s in shards.items()})
    assert summa._pool_of(sim).stats()["live"] == 0
    return {
        "outs": outs,
        "state": _state(sim),
        "timeline": sim.memory_timeline(),
        "events": [repr(e) for e in sim.tracer.events],
        "spans": [repr(s) for s in sim.tracer.spans],
    }


@pytest.fixture
def taken(monkeypatch):
    """Names of the executors ``summa_*`` calls dispatched to, in order."""
    calls = []
    for name in ("_run_per_rank", "_run_batched"):
        def spy(*args, _real=getattr(summa, name), _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(summa, name, spy)
    return calls


class TestExecutorsAgree:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("q", [2, 3, 4, 8])
    @pytest.mark.parametrize("name", sorted(ALGOS))
    def test_bit_exact_numerics_and_accounting(self, name, q, dtype):
        ref = _execute("per_rank", ALGOS[name], q, dtype)
        got = _execute("batched", ALGOS[name], q, dtype)
        for call, (x, y) in enumerate(zip(ref["outs"], got["outs"])):
            assert x.keys() == y.keys()
            for r in x:
                assert x[r].dtype == y[r].dtype
                assert np.array_equal(x[r], y[r]), f"call {call} rank {r}"
        assert ref["state"] == got["state"]
        assert ref["events"] == got["events"]
        assert ref["spans"] == got["spans"]

    @pytest.mark.parametrize("with_buffers", [True, False])
    @pytest.mark.parametrize("q", [2, 3, 4, 8])
    @pytest.mark.parametrize("name", sorted(ALGOS))
    def test_shape_plans_replay_the_same_accounting(self, name, q, with_buffers):
        """A dryrun plan in the batched executor is its accounting replay plus
        one shared output placeholder: same shard order / shapes / dtypes,
        device counters, memory peaks and allocs, trace events and spans as
        the per-rank executor's q³ placeholder products."""
        kw = dict(backend="shape", with_buffers=with_buffers)
        ref = _execute("per_rank", ALGOS[name], q, np.float32, **kw)
        got = _execute("batched", ALGOS[name], q, np.float32, **kw)
        assert ref == got
        assert len(ref["outs"][0]) == q * q

    @pytest.mark.parametrize("backend", ["numpy", "shape"])
    @pytest.mark.parametrize("name", sorted(ALGOS))
    def test_unmanaged_workspace_keeps_hold_compute_release_order(self, name, backend):
        """Unmanaged buffers with the memory timeline on are the one
        configuration where a gemm's place between its workspace alloc and
        free is observable: the free is stamped with the clock after it."""
        kw = dict(backend=backend, managed=False)
        ref = _execute("per_rank", ALGOS[name], 3, np.float32, **kw)
        got = _execute("batched", ALGOS[name], 3, np.float32, **kw)
        assert ref["timeline"] == got["timeline"]
        assert ref["state"] == got["state"] and ref["events"] == got["events"]
        frees = [
            (a, b) for samples in ref["timeline"].values()
            for a, b in zip(samples, samples[1:]) if b.total < a.total
        ]
        assert frees and all(b.t > a.t for a, b in frees)

    def test_results_match_numpy(self):
        mesh = make_mesh(3)
        for algo in ALGOS.values():
            a, b = _operands(mesh, algo, np.float64)
            fa, fb = assemble_blocked_2d(a), assemble_blocked_2d(b)
            want = (fa.T if algo.ta else fa) @ (fb.T if algo.tb else fb)
            got = getattr(summa, "summa_" + algo.name)(mesh, a, b)
            np.testing.assert_allclose(assemble_blocked_2d(got), want, rtol=1e-12)

    def test_output_shards_are_independent_of_pool(self, taken):
        """Output shards are views into a fresh backing array, never
        pool-owned — later acquires must not overwrite live results."""
        mesh = make_mesh(2)
        rng = np.random.default_rng(0)
        a = distribute_blocked_2d(mesh, rng.normal(size=(8, 8)).astype(np.float32))
        results = [f(mesh, a, a) for f in (summa.summa_ab, summa.summa_abt, summa.summa_atb)]
        before = [assemble_blocked_2d(c).copy() for c in results]
        for _ in range(5):  # churn the pool
            summa.summa_ab(mesh, a, a)
            summa.summa_abt(mesh, a, a)
            summa.summa_atb(mesh, a, a)
        assert set(taken) == {"_run_batched"}
        for c, want in zip(results, before):
            np.testing.assert_array_equal(assemble_blocked_2d(c), want)


class TestSelection:
    def _f32(self, mesh, rng, shape=(8, 8)):
        return distribute_blocked_2d(mesh, rng.normal(size=shape).astype(np.float32))

    def test_uniform_numeric_mesh_takes_the_batched_executor(self, taken, rng):
        mesh = make_mesh(2)
        a = self._f32(mesh, rng)
        summa.summa_ab(mesh, a, a)
        summa.grads_of_ab(mesh, a, a, a)
        assert taken == ["_run_batched"] * 3

    def test_ragged_moe_blocks_fall_back(self, taken):
        """MoE-style ragged row blocks are ineligible but still correct."""
        mesh = make_mesh(2)
        rng = np.random.default_rng(0)
        rows = [3, 9]
        shards = {
            mesh.rank(i, j): rng.standard_normal((rows[i], 6)).astype(np.float32)
            for i in range(2)
            for j in range(2)
        }
        a = DTensor(mesh, BLOCKED_2D, shards, (12, 12))
        b = self._f32(mesh, rng, (12, 6))
        c = summa.summa_ab(mesh, a, b)
        assert taken == ["_run_per_rank"]
        assert c.shards[mesh.rank(0, 0)].shape[0] == 3
        assert c.shards[mesh.rank(1, 0)].shape[0] == 9

    def test_mixed_dtype_shards_fall_back(self, taken, rng):
        mesh = make_mesh(2)
        # mixed per-shard dtypes violate the strict layout contract, but the
        # selection must still fall back (not batch) when checking is off
        mesh.sim.strict_invariants = False
        a = self._f32(mesh, rng)
        mixed = {
            r: (s if r == mesh.ranks[0] else s.astype(np.float64))
            for r, s in a.shards.items()
        }
        summa.summa_ab(mesh, DTensor(mesh, BLOCKED_2D, mixed, (8, 8)), a)
        assert taken == ["_run_per_rank"]

    def test_uniform_dryrun_takes_the_batched_executor(self, taken):
        mesh = make_mesh(2, backend="shape")
        shards = {r: ShapeArray((4, 4), "float32") for r in mesh.ranks}
        a = DTensor(mesh, BLOCKED_2D, shards, (8, 8))
        for f in (summa.summa_ab, summa.summa_abt, summa.summa_atb):
            c = f(mesh, a, a)
            assert c.global_shape == (8, 8)
            assert {(s.shape, s.dtype.name) for s in c.shards.values()} == {
                ((4, 4), "float32")
            }
        assert taken == ["_run_batched"] * 3

    @pytest.mark.parametrize("name", sorted(ALGOS))
    def test_ragged_dryrun_takes_the_per_rank_executor(self, taken, name):
        """MoE-style placeholders, row blocks sized by routed token counts
        (the forward ``ab`` and both of its backward products): several
        block shapes, so there is no one block to share."""
        mesh = make_mesh(2, backend="shape")
        tokens, width = [3, 9], 6  # token rows per mesh row; uniform feature block

        def ragged_rows(cols):
            shards = {
                mesh.rank(i, j): ShapeArray((tokens[i], cols), "float32")
                for i in range(2)
                for j in range(2)
            }
            return DTensor(mesh, BLOCKED_2D, shards, (12, 2 * cols))

        uniform = DTensor(
            mesh, BLOCKED_2D,
            {r: ShapeArray((width, width), "float32") for r in mesh.ranks},
            (2 * width, 2 * width),
        )
        # atb contracts over the token axis: both operands are ragged
        b = ragged_rows(4) if name == "atb" else uniform
        c = getattr(summa, "summa_" + name)(mesh, ragged_rows(width), b)
        assert taken == ["_run_per_rank"]
        want = [(width, 4)] * 2 if name == "atb" else [(3, width), (9, width)]
        assert [c.shards[mesh.rank(i, 0)].shape for i in range(2)] == want

    def test_q1_falls_back(self, taken, rng):
        mesh = make_mesh(1)
        a = distribute_blocked_2d(mesh, rng.normal(size=(4, 4)))
        c = summa.summa_ab(mesh, a, a)
        assert taken == ["_run_per_rank"]
        np.testing.assert_array_equal(
            assemble_blocked_2d(c), a.shards[0] @ a.shards[0]
        )

    def test_patched_collectives_force_per_rank(self, taken, rng, monkeypatch):
        """A monkey-patched broadcast/reduce (the contract checker) must
        observe every per-rank collective call."""
        mesh = make_mesh(2)
        a = self._f32(mesh, rng)
        roots = []
        real = coll.broadcast

        def spy(group, src, root, precost=None):
            roots.append(root)
            return real(group, src, root, precost)

        monkeypatch.setattr(coll, "broadcast", spy)
        summa.summa_ab(mesh, a, a)
        assert taken == ["_run_per_rank"]
        assert len(roots) == 2 * 2 * 2  # q steps x (A row + B col) x q groups

    def test_contract_checker_forces_per_rank(self, taken, rng):
        from repro.check.contracts import CollectiveContractChecker

        mesh = make_mesh(2)
        a = self._f32(mesh, rng)
        checker = CollectiveContractChecker()
        checker.install()
        try:
            c = summa.summa_ab(mesh, a, a)
        finally:
            checker.uninstall()
        summa.summa_ab(mesh, a, a)
        assert taken == ["_run_per_rank", "_run_batched"]
        ref = assemble_blocked_2d(a) @ assemble_blocked_2d(a)
        np.testing.assert_allclose(assemble_blocked_2d(c), ref, rtol=1e-5)

    def test_armed_fault_injector_forces_per_rank(self, taken, rng):
        from repro.resilience.faults import FaultSchedule
        from repro.resilience.injector import FaultInjector

        mesh = make_mesh(2)
        a = self._f32(mesh, rng)
        inj = FaultInjector(FaultSchedule())
        inj.install(mesh.sim)
        try:
            summa.summa_abt(mesh, a, a)
        finally:
            inj.uninstall()
        summa.summa_abt(mesh, a, a)
        assert taken == ["_run_per_rank", "_run_batched"]

    def test_effective_flags_describe_the_fixed_configuration(self):
        assert summa.effective_flags() == {
            "plan_cache": True, "pool": True, "batched": True,
        }


def _forced_per_rank(monkeypatch):
    monkeypatch.setattr(summa, "_batched_ready", lambda sim: False)


def _held_arrays(x):
    """Every array, placeholder or DTensor reachable through a plan's
    tuples, lists and dicts."""
    if isinstance(x, (np.ndarray, ShapeArray, DTensor)):
        return [x]
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, (tuple, list)):
        return [y for item in x for y in _held_arrays(item)]
    return []


PLAN_CASES = pytest.mark.parametrize(
    "name, q, backend",
    [(n, q, b) for n in sorted(ALGOS) for q in (2, 3, 8) for b in ("numpy", "shape")],
)


class TestPlans:
    """A uniform plan is built from the mesh's lines: it keeps shapes and
    dtypes only, and its per-rank schedule waits for a per-rank run."""

    @staticmethod
    def _operands(q, name, backend):
        mesh = make_mesh(q, backend=backend)
        a, b = _operands(mesh, ALGOS[name], np.float32)
        if backend == "shape":
            a, b = (x.map(lambda s: ShapeArray(s.shape, s.dtype)) for x in (a, b))
        return mesh, a, b

    @PLAN_CASES
    def test_a_cached_plan_holds_no_operand_data(self, monkeypatch, name, q, backend):
        mesh, a, b = self._operands(q, name, backend)
        run = getattr(summa, "summa_" + name)
        stacks = [weakref.ref(x.blocks) for x in (a, b) if x.blocks is not None]
        assert len(stacks) == (2 if backend == "numpy" else 0)
        run(mesh, a, b)
        with monkeypatch.context() as m:
            _forced_per_rank(m)
            run(mesh, a, b)  # builds the per-rank schedule too
        (plan,) = mesh._summa_plans.values()
        assert plan.steps is not None and plan.batched is not None
        assert _held_arrays([getattr(plan, slot) for slot in plan.__slots__]) == []
        del a, b
        gc.collect()
        assert all(ref() is None for ref in stacks)

    @PLAN_CASES
    def test_the_lazy_per_rank_steps_equal_an_eager_build(self, monkeypatch, name, q, backend):
        mesh, a, b = self._operands(q, name, backend)
        algo = ALGOS[name]
        plan = summa._get_plan(mesh, algo, a, b)
        assert plan.steps is None  # not built with the plan
        getattr(summa, "summa_" + name)(mesh, a, b)
        assert plan.steps is None  # nor by the batched executor
        _forced_per_rank(monkeypatch)
        getattr(summa, "summa_" + name)(mesh, a, b)
        assert summa._get_plan(mesh, algo, a, b) is plan
        eager = summa._build_plan(mesh, algo, a, b, backend == "numpy")
        assert plan.steps == eager.steps
        assert len(plan.steps) == q and sum(
            len(gemms) for _bcasts, groups in plan.steps for gemms, _ in groups
        ) == q ** 3
        assert (plan.numeric, plan.out_dtype) == (eager.numeric, eager.out_dtype)

    @PLAN_CASES
    def test_the_forced_per_rank_path_has_the_same_raw_events(
        self, monkeypatch, name, q, backend
    ):
        def events():
            mesh, a, b = self._operands(q, name, backend)
            sim = mesh.sim
            sim.tracer.enabled = True
            buffers = BufferManager(sim)
            run = getattr(summa, "summa_" + name)
            for _ in range(2):  # the second call hits the cached plan
                run(mesh, a, b, buffers)
            return sim.tracer.events, sim.watermarks()

        got = events()
        _forced_per_rank(monkeypatch)
        want = events()
        assert got == want and len(got[0]) > q

    @PLAN_CASES
    def test_a_bad_partition_with_matching_global_k_raises(self, name, q, backend):
        """Global K agrees, block K does not: the plan catches it, with the
        message the per-rank schedule gives for its first cell."""
        mesh = make_mesh(q, backend=backend)
        mesh.disable_strict_invariants()
        algo = ALGOS[name]
        k = 3
        a_block = (k + 1, 2) if algo.ta else (2, k + 1)  # K blocks of k + 1 ...
        b_block = (5, k) if algo.tb else (k, 5)  # ... against K blocks of k
        K = q * (k + 1)  # both operands claim A's global K

        def tensor(block, global_shape):
            make = np.zeros if backend == "numpy" else ShapeArray
            shards = {r: make(block, "float32") for r in mesh.ranks}
            return DTensor(mesh, BLOCKED_2D, shards, global_shape)

        a = tensor(a_block, (K, 2 * q) if algo.ta else (2 * q, K))
        b = tensor(b_block, (5 * q, K) if algo.tb else (K, 5 * q))
        want = (
            f"block inner dims mismatch for {name} at rank 0, step 0: "
            f"A block {a_block}, B block {b_block}"
        )
        with pytest.raises(ValueError) as eager:
            summa._build_plan(mesh, algo, a, b, backend == "numpy")
        assert str(eager.value) == want
        with pytest.raises(ValueError) as got:
            getattr(summa, "summa_" + name)(mesh, a, b)
        assert str(got.value) == want
        assert summa.plan_cache_size(mesh) == 0


#: how a call meets its workspace: no buffers; managed arenas that must grow
#: on the first call; arenas grown beforehand; unmanaged buffers; strict
#: device memory one allocation short of the run's peak
ARENAS = ("none", "cold", "warm", "unmanaged", "short")


class TestReplay:
    """A uniform plan's call replays its compiled accounting program from
    one :meth:`Simulator.replay` frame when no workspace arena has to grow,
    and otherwise runs the step loop; either way everything observable equals
    the forced per-rank path's, traced or not."""

    @staticmethod
    def _run(name, q, backend, traced, arena, capacity=None):
        """Two calls of ``summa_<name>`` (the second on the cached plan and
        the grown arenas) on a fresh mesh; everything observable."""
        mesh = make_mesh(q, backend=backend, strict_memory=capacity is not None)
        sim = mesh.sim
        sim.tracer.enabled = traced
        if capacity is not None:
            for d in sim.devices:
                d.memory.capacity = capacity
        a, b = _operands(mesh, ALGOS[name], np.float32)
        if backend == "shape":
            a, b = (x.map(lambda s: ShapeArray(s.shape, s.dtype)) for x in (a, b))
        buffers = None
        if arena != "none":
            buffers = BufferManager(sim, managed=arena != "unmanaged")
        if arena == "warm":  # every workspace arena already holds a step's blocks
            big = 10 * (a.shard_nbytes() + b.shard_nbytes())
            buffers.hold_many("workspace", [(mesh.ranks, (big,))])
            buffers.reset_region("workspace")
        outs, oom = [], None
        try:
            for _ in range(2):
                c = getattr(summa, "summa_" + name)(mesh, a, b, buffers)
                outs.append(
                    [(r, id(s)) for r, s in c.shards.items()] if backend == "shape"
                    else {r: np.array(s) for r, s in c.shards.items()}
                )
        except OutOfDeviceMemory as e:
            oom = (e.rank, e.requested, e.current, e.capacity)
        if backend == "numpy":
            outs = [{r: x.tobytes() for r, x in out.items()} for out in outs]
        return {
            "outs": outs,
            "oom": oom,
            "events": sim.tracer.events,
            "spans": sim.tracer.spans,
            "watermarks": sim.watermarks(),
            "memory": [
                (dict(d.memory.by_tag), d.memory.num_allocs, d.memory.peak)
                for d in sim.devices
            ],
        }

    @pytest.mark.parametrize("arena", ARENAS)
    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("backend", ["numpy", "shape"])
    @pytest.mark.parametrize("q", [1, 2, 3, 8])
    @pytest.mark.parametrize("name", sorted(ALGOS))
    def test_replay_equals_the_forced_per_rank_path(
        self, monkeypatch, name, q, backend, traced, arena
    ):
        capacity = None
        if arena == "short":  # one byte short of the managed run's peak
            full = self._run(name, q, backend, traced, "cold")
            capacity = max(peak for _tags, _allocs, peak in full["memory"]) - 1
        stepped, lockstep = [], []
        real = summa._account_steps
        monkeypatch.setattr(
            summa, "_account_steps", lambda *args: stepped.append(1) or real(*args)
        )
        real_lockstep = Simulator._lockstep
        monkeypatch.setattr(Simulator, "_lockstep", staticmethod(
            lambda *args: lockstep.append(real_lockstep(*args)) or lockstep[-1]
        ))
        kind = "cold" if arena == "short" else arena
        got = self._run(name, q, backend, traced, kind, capacity)
        ran_lockstep = list(lockstep)
        with monkeypatch.context() as m:
            _forced_per_rank(m)
            want = self._run(name, q, backend, traced, kind, capacity)
        assert got == want
        assert (got["oom"] is not None) == (arena == "short")
        if traced and arena != "short":
            assert got["events"] and got["spans"]
        # which calls ran the step loop: none on q = 1 (the per-rank executor)
        # and where no arena grows; the first where arenas grow (the strict
        # run stops in it); both when unmanaged
        calls = {"none": 0, "cold": 1, "warm": 0, "unmanaged": 2, "short": 1}[arena]
        assert len(stepped) == (0 if q == 1 else calls)
        # every untraced replay ran in lockstep (a fresh mesh starts equal);
        # a traced one, the forced per-rank path and q = 3, whose plans have
        # no lockstep form (see below), never try
        replays = 0 if traced or q in (1, 3) else {"short": 0, "unmanaged": 0}.get(
            arena, 2 - calls
        )
        assert ran_lockstep == [True] * replays
        assert lockstep == ran_lockstep

    @pytest.mark.parametrize("q", [2, 3, 8])
    @pytest.mark.parametrize("name", sorted(ALGOS))
    def test_a_plan_has_a_lockstep_form_where_its_lines_are_priced_alike(self, name, q):
        """q = 3 puts 9 ranks on 4-GPU nodes, so rows and columns straddle
        node boundaries and pay different prices: its ranks do not run in
        step, and the plan carries no lockstep form."""
        mesh = make_mesh(q)
        a, b = _operands(mesh, ALGOS[name], np.float32)
        desc = summa._get_plan(mesh, ALGOS[name], a, b).batched
        assert (desc.lockstep is None) == (q == 3)
        if desc.lockstep is not None:
            assert desc.lockstep[0] == mesh.sim.devices

    def test_a_plan_compiles_one_program(self):
        """The program holds the q steps' entries in the executor's call
        order, spans included, and is built with the plan."""
        from repro.runtime.simulator import CLOSE, COLLECTIVES, COMPUTE, OPEN

        mesh = make_mesh(3)
        a, b = _operands(mesh, summa._ABT, np.float32)
        desc = summa._get_plan(mesh, summa._ABT, a, b).batched
        ops = [entry[0] for entry in desc.program]
        step = [OPEN, COLLECTIVES] + [COMPUTE, COLLECTIVES] * 3 + [CLOSE]
        assert ops == step * 3
        assert [e[4]["step"] for e in desc.program if e[0] == OPEN] == [0, 1, 2]

    @pytest.mark.parametrize("arrangement", ["bunched", "naive", "linear"])
    @pytest.mark.parametrize("backend", ["numpy", "shape"])
    @pytest.mark.parametrize("q", [2, 3, 4, 8])
    def test_the_one_step_proof_is_the_full_proof(self, q, backend, arrangement):
        """A plan proves lockstep on one of its q identical steps and tiles
        the chains; that equals the proof over the whole program, ``None``
        included, for every uniform plan the three products and their
        gradients build (mixed dtypes too), on a whole mesh and on a mesh at
        a rank offset whose other ranks are out of scope."""
        sims = [
            (Simulator.for_mesh(q=q, arrangement_kind=arrangement, backend=backend), 0),
            (Simulator.for_flat(p=q * q + 2, backend=backend), 2),
        ]
        forms = []
        for sim, offset in sims:
            mesh = Mesh(sim, q, rank_offset=offset)
            for name, algo in ALGOS.items():
                for dtypes in ((np.float32, np.float32), (np.float32, np.float64)):
                    a, b = (
                        x.map(lambda s, dt=dt: ShapeArray(s.shape, dt)) if backend == "shape"
                        else x.map(lambda s, dt=dt: s.astype(dt))
                        for x, dt in zip(_operands(mesh, algo, np.float64), dtypes)
                    )
                    c = getattr(summa, f"summa_{name}")(mesh, a, b)
                    getattr(summa, f"grads_of_{name}")(mesh, a, b, c)
            for plan in mesh._summa_plans.values():
                full = sim.lockstep(plan.batched.program, mesh.ranks)
                assert plan.batched.lockstep == full
                forms.append(full is not None)
        assert len(forms) > 2 * len(ALGOS)
        # q = 3 on 4-GPU nodes prices its lines apart (no form); a bunched
        # whole mesh of any other q runs in step
        if arrangement == "bunched":
            assert forms[0] == (q != 3)
        if q == 3:
            assert not any(forms)


class TestFuzzerComparesExecutors:
    SPEC = dict(
        q=2, p=2, batch=2, seq=4, heads=2, head_dim=2, layers=1,
        vocab=16, dtype="float64", optimizer="sgd", lr=0.05,
        momentum=0.0, weight_decay=0.0, param_seed=7, data_seed=11,
    )

    @pytest.mark.parametrize("contracts", [True, False])
    def test_trial_runs_both_executors(self, taken, contracts):
        from repro.check.fuzz import TrialSpec, run_trial

        result = run_trial(TrialSpec(**self.SPEC), strict=True, contracts=contracts)
        assert result.passed, result.failures
        half = len(taken) // 2  # harness Optimus run, then the batched one
        assert set(taken[:half]) == {"_run_per_rank"}
        assert set(taken[half:]) == {"_run_batched"}

    def test_a_diverging_batched_executor_fails_the_trial(self, monkeypatch):
        from repro.check.fuzz import TrialSpec, run_trial

        real = summa._run_batched

        def broken(*args):
            shards = real(*args)
            next(iter(shards.values()))[...] += 1e-3
            return shards

        monkeypatch.setattr(summa, "_run_batched", broken)
        result = run_trial(TrialSpec(**self.SPEC), strict=False, contracts=False)
        assert not result.passed
        assert any("batched" in f for f in result.failures)


class TestHybridEquivalence:
    def test_data_parallel_hybrid_bit_exact(self, cfg, params, rng, monkeypatch):
        """2 replicas x 2x2 meshes: the batched executor matches per-rank on
        the full hybrid forward/backward, numerics and accounting."""
        from repro.hardware.specs import frontera_rtx
        from repro.hybrid.data_parallel import DataParallel
        from repro.mesh.partition import assemble_any
        from repro.runtime.simulator import Simulator

        b = 8  # per-replica batch 4, divisible by q=2
        ids = rng.integers(0, cfg.vocab_size, size=(b, cfg.seq_len))
        labels = rng.integers(0, cfg.vocab_size, size=(b, cfg.seq_len))

        def run():
            sim = Simulator(frontera_rtx(2), num_ranks=8)
            dp = DataParallel(sim, cfg, params, num_replicas=2, q=2)
            loss = dp.forward_backward(ids, labels)
            grads = {
                p.name: np.asarray(assemble_any(p.grad))
                for p in dp.replicas[0].parameters()
            }
            return loss, grads, _state(sim)

        loss1, grads1, state1 = run()
        monkeypatch.setattr(summa, "_batched_ready", lambda sim: False)
        loss0, grads0, state0 = run()
        assert loss0 == loss1
        for name in grads0:
            assert np.array_equal(grads0[name], grads1[name]), name
        assert state0 == state1
