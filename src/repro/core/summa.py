"""SUMMA matrix products on a q×q mesh (paper §2.4, Algorithms 1–3).

All three products consume and produce ``BLOCKED_2D`` DTensors.  Following
the paper's key observation, the set {AB, ABᵀ, AᵀB} is closed under
differentiation (Eqs. 1–3):

    C = AB   →  dA = dC·Bᵀ (Alg. 2),  dB = Aᵀ·dC (Alg. 3)
    C = ABᵀ  →  dA = dC·B  (Alg. 1),  dB = dCᵀ·A (Alg. 3)
    C = AᵀB  →  dA = B·dCᵀ (Alg. 2*), dB = A·dC  (Alg. 1)

so every backward pass is again a composition of these three primitives —
no new communication patterns are needed (see :func:`grads_of_ab` etc.).

The three algorithms are one q-step loop with the broadcast and reduce roles
permuted; :data:`_AB`, :data:`_ABT` and :data:`_ATB` write the permutation
down as data and one planner and two executors loop over it:

====  =============  =================  =================  =================  =============
algo  operands       broadcast, step l  product on (i,j)   reduce             block written
====  =============  =================  =================  =================  =============
ab    A[M,K] B[K,N]  A_il along row i,  C_ij += A_il·B_lj  —                  (i,j), summed
                     B_lj along col j                                         over l
abt   A[M,K] B[N,K]  B_lj along col j   P_ij = A_ij·B_ljᵀ  Σ_j over row i     (i,l)
                                                           → column l
atb   A[K,M] B[K,N]  A_il along row i   P_ij = A_ilᵀ·B_ij  Σ_i over column j  (l,j)
                                                           → row l
====  =============  =================  =================  =================  =============

Each local block product charges ``2·m·k·n`` FLOPs; broadcast-received
blocks live in the buffer manager's workspace region (§3.2.3) for the
duration of the product.

**Plan.**  The schedule of a product (which group broadcasts which root's
block, the α–β price of every collective, per-rank FLOP and scratch-byte
counts) depends only on ``(mesh, algorithm, per-rank shapes and dtypes)``.
It is computed once per distinct key and cached on the mesh, and keeps
shapes and dtypes only, never an operand's data.  When each operand's
blocks share one shape and dtype the batched descriptor is built from the
mesh's lines and the per-rank schedule (q³ gemm entries) waits for a
per-rank run; a ragged plan builds the per-rank schedule at once.

**Executors.**  The *per-rank* executor issues every broadcast and reduce
through :mod:`repro.comm.collectives` and multiplies one rank's blocks at a
time (partials go through the simulator's
:class:`~repro.core.buffers.ArrayPool`).  The *batched* executor computes
all q² rank-local products of a step as one broadcasted ``np.matmul`` over
the blocks stacked along leading mesh axes (``ab``:
``(q,1,m,k) @ (1,q,k,n) → (q,q,m,n)``) — read as views ``A[:, l]`` /
``B[l]`` of the operands' block stacks
(:meth:`~repro.mesh.dtensor.DTensor.from_blocks`) — writes the output's
block stack (``abt``/``atb`` fold each reduced line into
``C[:, l]`` / ``C[l]`` as in-place adds in group-rank order), and *replays*
the accounting in the per-rank call order — so clocks, byte counters,
weighted volumes, memory peaks and trace events/spans are bit-identical
between the two.  The plan compiles its q steps (charge-only broadcasts, per
gemm group the compute charges and the reduce line, each step's span) into
one accounting program, and a call whose workspace arenas all hold a step's
received blocks already (or that has no buffers) is one
:meth:`~repro.runtime.simulator.Simulator.replay` of it, checked once per
call — run in lockstep (one rank's updates, copied to the mesh) when the plan
proved the program rank-symmetric and the ranks' counters start equal
(:meth:`~repro.runtime.simulator.Simulator.lockstep`); otherwise (an arena
must grow, unmanaged buffers) the steps are charged one by one, each gemm
group's holds, gemms and releases through the buffer manager.  The products
come after the accounting: numeric math reads no clock.  On a dryrun
(``ShapeArray``) plan there is no product to compute: the batched executor
*is* that replay, plus one output placeholder of the plan's block shape and
dtype shared by the q² ranks (placeholders are immutable) — the shape math is
derived once, the charges are made p times.

**Selection** is made per call from what the code observes, never from an
option: the batched executor runs whenever it is bit-exact, i.e. every
per-rank block of each operand shares one shape and dtype on a q > 1 mesh
(the plan's ``batched``), no fault injector is armed and the collectives are
unpatched (:func:`_batched_ready`), and numeric operands carry full block
stacks (:func:`_takes_batched`).  Everything else — ragged MoE shards
(numeric or dryrun), mixed per-shard dtypes, q = 1, an armed injector,
patched collectives (the contract checker), a numeric operand without a
stack — takes the per-rank executor, which is also the reference the tests
compare against.
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.backend import ops
from repro.backend.dtypes import as_dtype, result_float
from repro.backend.shape_array import ShapeArray, is_shape_array
from repro.comm import collectives as coll
from repro.core.buffers import ArrayPool, BufferManager
from repro.mesh.dtensor import DTensor, on_stacks
from repro.mesh.layouts import BLOCKED_2D
from repro.mesh.mesh import Mesh
from repro.runtime.events import NULL_SPAN
from repro.runtime.simulator import CLOSE, COLLECTIVES, COMPUTE, OPEN

#: the unpatched collectives entry points.  The batched executor bypasses
#: per-rank broadcast/reduce calls, so whenever these module attributes have
#: been replaced (collective contract checker, test monkey-patching) it must
#: fall back to the per-rank path or the patcher would observe nothing.
#: Module-level on purpose: a tracer that rebinds every attribute holding
#: the original function rebinds these too, and the comparison still holds.
_PRISTINE_BROADCAST = coll.broadcast
_PRISTINE_REDUCE = coll.reduce
_PRISTINE_ALL_REDUCE = coll.all_reduce


class _Algo(NamedTuple):
    """One row of the module-docstring table.  Operand 0 is A, 1 is B; line
    axis 0 is the mesh rows, 1 the columns (see :func:`_line`)."""

    name: str
    ta: bool  # the local product uses the A block transposed
    tb: bool  # the local product uses the B block transposed
    bcast: Tuple[int, ...]  # operands broadcast at step l, A along rows / B along columns
    reduce: Optional[int]  # partials summed along rows (0) or columns (1); None: accumulate over l


_AB = _Algo("ab", False, False, (0, 1), None)
_ABT = _Algo("abt", False, True, (1,), 0)
_ATB = _Algo("atb", True, False, (0,), 1)


def effective_flags() -> dict:
    """Read-only description for serve reports and hostbench: the plan cache, the
    scratch pool and batched execution (where eligible) are always on."""
    return {"plan_cache": True, "pool": True, "batched": True}


def _check_blocked(x: DTensor, name: str) -> None:
    if x.layout != BLOCKED_2D:
        raise ValueError(f"{name} must be BLOCKED_2D, got {x.layout}")
    if len(x.global_shape) != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got {x.global_shape}")


def _pool_of(sim) -> ArrayPool:
    pool = getattr(sim, "_array_pool", None)
    if pool is None:
        pool = sim._array_pool = ArrayPool()
    return pool


# ----------------------------------------------------------------------
# execution plans
# ----------------------------------------------------------------------
class _Block(NamedTuple):
    """What a plan keeps of an operand's block: never the block itself."""

    shape: tuple
    nbytes: int


class _Plan:
    """The precomputed schedule of one SUMMA product on one mesh.

    ``steps`` is the per-rank executor's schedule, per SUMMA step l
    ``(bcasts, groups)``:

    * ``bcasts`` — ``(operand, group, root, precost)`` in call order;
    * ``groups`` — ``(gemms, reduce)`` in call order, ``gemms`` a list of
      ``(rank, device, flops, scratch_nbytes, out_shape)`` and ``reduce``
      ``(group, root, precost)`` or ``None`` (``ab``: one group, no reduce).

    A precost is the ``(dt, nbytes, weighted)`` triple the collective would
    compute from the block's byte size, so charging is identical to
    unplanned execution.  A ragged plan builds ``steps`` with the plan; a
    uniform one keeps its operands' ``blocks`` (one :class:`_Block` each)
    and builds ``steps`` on the first per-rank run
    (:func:`_per_rank_steps`).  ``batched`` is the batched executor's
    :class:`_BatchedDesc` (uniform plans on q > 1), else None.
    """

    __slots__ = ("steps", "numeric", "out_dtype", "batched", "blocks")

    def __init__(self, steps, numeric, out_dtype, blocks=None, batched=None):
        self.steps = steps
        self.numeric = numeric
        self.out_dtype = out_dtype
        self.blocks = blocks
        self.batched = batched


def _dtype_sig(mesh: Mesh, x: DTensor, numeric: bool):
    # Per-rank dtypes, not just the DTensor-level (first shard's) dtype:
    # non-strict mode permits mixed per-shard dtypes, and a mixed tensor
    # colliding with the uniform plan would reuse the wrong out-dtype and
    # wrong scratch/broadcast byte counts (stale-cache bug, PR 7).
    # np.dtype objects key by value with a C-level hash (their ``.name`` is a
    # Python-level property); a placeholder's DType keys by its plain
    # ``name`` attribute rather than a dataclass __hash__ per rank.
    shards = x.shards
    if numeric:
        return tuple(shards[r].dtype for r in mesh.ranks)
    return tuple(shards[r].dtype.name for r in mesh.ranks)


def _shape_sig(mesh: Mesh, x: DTensor):
    # Per-rank local shapes, not just the global shape: ragged BLOCKED_2D
    # tensors (e.g. MoE expert blocks sized by routed token counts) share a
    # global shape across calls while their block shapes differ.
    shards = x.shards
    return tuple(shards[r].shape for r in mesh.ranks)


def _out_dtype(dtype_a, dtype_b, numeric: bool):
    if numeric:
        return np.result_type(dtype_a, dtype_b)
    return result_float(dtype_a, dtype_b)


def _itemsize(dtype, numeric: bool) -> int:
    return np.dtype(dtype).itemsize if numeric else as_dtype(dtype).itemsize


def _line(mesh: Mesh, axis: int, t: int, l: int):
    """The t-th row (axis 0) or column (axis 1) group and its member on the
    step-l diagonal: the root A_tl / B_lt is broadcast from, and the owner a
    reduce along that line delivers to."""
    if axis == 0:
        return mesh.row_groups[t], mesh.rank(t, l)
    return mesh.col_groups[t], mesh.rank(l, t)


def _inner_dims(algo: _Algo, rank: int, l: int, shape_a, shape_b):
    """``(m, k, n)`` of one local product; a bad partition raises here, since
    :func:`_summa` compares only the global K and no executor is bound to
    multiply the two blocks (a batched dryrun multiplies nothing)."""
    m, k = shape_a[::-1] if algo.ta else shape_a
    k2, n = shape_b[::-1] if algo.tb else shape_b
    if k != k2:
        raise ValueError(
            f"block inner dims mismatch for {algo.name} at rank {rank}, "
            f"step {l}: A block {shape_a}, B block {shape_b}"
        )
    return m, k, n


def _schedule(mesh: Mesh, algo: _Algo, block_of, itemsize: int) -> list:
    """The per-rank steps (see :class:`_Plan`); ``block_of(operand, rank)``
    is that rank's block of A (0) or B (1), anything with ``shape`` and
    ``nbytes``.  Every GEMM cell is checked."""
    q = mesh.q
    bcast_a, bcast_b = 0 in algo.bcast, 1 in algo.bcast
    if algo.reduce is None:
        cells = [[mesh.coords(rank) for rank in mesh.ranks]]
    else:  # one gemm group per reduced line, members in group-rank order
        cells = [
            [(t, s) if algo.reduce == 0 else (s, t) for s in range(q)]
            for t in range(q)
        ]
    steps = []
    for l in range(q):
        bcasts = []
        for op in algo.bcast:
            for t in range(q):
                group, root = _line(mesh, op, t, l)
                nb = int(block_of(op, root).nbytes)
                bcasts.append((op, group, root, group.model.price("broadcast", nb)))
        groups = []
        for t, cell in enumerate(cells):
            gemms = []
            m = n = 0
            for i, j in cell:
                rank = mesh.rank(i, j)
                ablk = block_of(0, mesh.rank(i, l) if bcast_a else rank)
                bblk = block_of(1, mesh.rank(l, j) if bcast_b else rank)
                m, k, n = _inner_dims(algo, rank, l, ablk.shape, bblk.shape)
                # workspace holds what this rank received, not what it owns
                scratch = (int(ablk.nbytes) if bcast_a else 0) + (
                    int(bblk.nbytes) if bcast_b else 0
                )
                gemms.append((rank, mesh.device(rank), 2.0 * m * k * n, scratch, (m, n)))
            reduce = None
            if algo.reduce is not None:
                group, root = _line(mesh, algo.reduce, t, l)
                reduce = (group, root, group.model.price("reduce", m * n * itemsize))
            groups.append((gemms, reduce))
        steps.append((bcasts, groups))
    return steps


def _build_plan(mesh: Mesh, algo: _Algo, a: DTensor, b: DTensor, numeric: bool) -> _Plan:
    """A plan with its per-rank schedule, read shard by shard (ragged
    operands)."""
    operands = (a.shards, b.shards)
    out_dtype = _out_dtype(
        next(iter(operands[0].values())).dtype, next(iter(operands[1].values())).dtype,
        numeric,
    )
    steps = _schedule(
        mesh, algo, lambda op, rank: operands[op][rank], _itemsize(out_dtype, numeric)
    )
    return _Plan(steps, numeric, out_dtype)


class _Structure(NamedTuple):
    """What a uniform plan derives in O(p) Python from its structure alone
    — the mesh's rank offset, the algorithm and which of its lines are
    priced alike (2q lines: the pattern gives q) — kept once per structure
    in a process (:data:`_STRUCTURES`) for every mesh that repeats it."""

    #: one step's lockstep proof held (:meth:`~repro.runtime.simulator.Simulator.in_step`)
    symmetric: bool
    owners: list  # see :class:`_BatchedDesc`
    order: list
    #: the program's entries as a dry-run layer tape reads them (its
    #: ``form``, see :class:`~repro.runtime.tape.Tape`): per entry the
    #: ranks and value slots, None for a span entry
    skeleton: tuple
    scope: tuple  # the mesh's ranks


#: every uniform plan's structure so far: ``(rank offset, algorithm, price
#: pattern)`` -> :class:`_Structure`
_STRUCTURES: dict = {}


def _uniform_plan(mesh: Mesh, algo: _Algo, sig_a, sig_b, numeric: bool) -> _Plan:
    """A plan for operands whose blocks share one ``(shape, dtype)`` each.

    Every gemm is alike, and every line of a step is priced from one block
    size, so the batched descriptor is built from the mesh's lines — O(q)
    Python, not a per-rank pass — and the per-rank ``steps`` wait for a
    per-rank run.  The inner dimensions are checked once, on the first cell
    (rank (0, 0), step 0) the per-rank schedule would check.

    What takes O(p) Python depends on the plan's structure only: the rank
    offset, the algorithm and the price pattern (which of the step's 2q
    lines are priced alike, a class per line in first-appearance order).
    That is the lockstep proof, the owners table and the reduce order,
    taken from :data:`_STRUCTURES` or derived once there; the values — the
    prices, the flops and their time, the representative's chains — are
    computed per mesh in O(lines) and bound to the mesh's groups and
    devices (``tests/test_shared_tables.py``).

    The q steps are one step's accounting q times over, so the lockstep
    form is proved on one step and its chains tiled q times.  That is the
    full proof (:meth:`~repro.runtime.simulator.Simulator.lockstep` of the
    whole program), ``None`` included: the proof's ids are hash-consed
    histories, so two ranks hold one id exactly when they applied equal
    increment sequences, whatever id they started from.  A step therefore
    meets every barrier and ends rank-symmetric from any common start id,
    or from none; the first step starts the scope equal, so if it ends
    equal each later step starts equal and repeats it, and if it fails
    (a barrier out of step, a rank outside the mesh, a split end) the full
    proof fails at the same point or, since histories that differ never
    merge, at its end."""
    q = mesh.q
    blocks = tuple(
        _Block(shape, prod(shape) * _itemsize(dtype, numeric))
        for shape, dtype in (sig_a, sig_b)
    )
    m, k, n = _inner_dims(algo, mesh.rank(0, 0), 0, blocks[0].shape, blocks[1].shape)
    out_dtype = _out_dtype(sig_a[1], sig_b[1], numeric)
    if q == 1:
        return _Plan(None, numeric, out_dtype, blocks)
    bcasts = []
    for op in algo.bcast:
        bcasts += _priced(mesh.row_groups if op == 0 else mesh.col_groups, "broadcast",
                          blocks[op].nbytes)
    if algo.reduce is None:  # ab: every block, mesh order
        groups = [(list(mesh.ranks), None)]
    else:  # one gemm group per reduced line; the line's root on the diagonal
        nb = m * n * _itemsize(out_dtype, numeric)
        lines = mesh.row_groups if algo.reduce == 0 else mesh.col_groups
        groups = [
            (list(line[0].ranks), (line,)) for line in _priced(lines, "reduce", nb)
        ]
    flops = 2.0 * m * k * n
    body = _step_body(mesh, bcasts, groups, flops)
    classes: dict = {}  # price -> its class, in first-appearance order
    pattern = tuple(
        [classes.setdefault(cost, len(classes)) for _, cost in bcasts]
        + [classes.setdefault(reduce[0][1], len(classes)) for _, reduce in groups if reduce]
    )
    key = (mesh.rank_offset, algo.name, pattern)
    shape = _STRUCTURES.get(key)
    if shape is None:
        shape = _STRUCTURES[key] = _structure(mesh, algo, body, pattern)
    lockstep = None
    if shape.symmetric:
        offset = mesh.rank_offset
        lockstep = (
            mesh.sim.devices[offset:offset + mesh.p],
            tuple([chain * q for chain in mesh.sim.chains(body, offset)]),
        )
    values = ((COMPUTE, tuple(body[1][2])),) + tuple((COLLECTIVES, cost) for cost in classes)
    desc = _BatchedDesc(
        [(bcasts, groups)] * q, flops, sum(blocks[op].nbytes for op in algo.bcast),
        _step_program(mesh, algo, body), lockstep, (q, q, m, n), shape.owners, shape.order,
        (("summa",) + key, shape.skeleton, shape.scope, values),
    )
    return _Plan(None, numeric, out_dtype, blocks, desc)


def _priced(groups: list, kind: str, nbytes: int) -> list:
    """``(group, price)`` of one ``kind`` collective of ``nbytes`` on each
    of ``groups``, each distinct model priced once (equal models are one
    object: :meth:`~repro.comm.cost.GroupCommModel.build`)."""
    prices: dict = {}  # id(model) -> price
    lines = []
    for group in groups:
        model = group.model
        cost = prices.get(id(model))
        if cost is None:
            cost = prices[id(model)] = model.price(kind, nbytes)
        lines.append((group, cost))
    return lines


def _structure(mesh: Mesh, algo: _Algo, body: list, pattern: tuple) -> _Structure:
    """The :class:`_Structure` of a uniform plan on ``mesh`` whose step is
    ``body`` (:func:`_step_body`), its lines priced in ``pattern``."""
    q = mesh.q
    if algo.reduce is None:
        order = list(mesh.ranks)
    else:
        order = [_line(mesh, algo.reduce, t, l)[1] for l in range(q) for t in range(q)]
    # value slot 0 is the gemm charge, slot 1 + c the lines of price class c
    slots = iter(pattern)
    step = []
    for entry in body:
        if entry[0] == COMPUTE:
            step.append((COMPUTE, tuple(entry[1]), 0))
        else:
            step.append((COLLECTIVES, entry[1], tuple(
                [(group.ranks, 1 + next(slots)) for group, _cost in entry[2]]
            )))
    return _Structure(
        mesh.sim.in_step(body, mesh.ranks),
        [(r, mesh.coords(r)) for r in order],
        order,
        tuple([None, *step, None] * q),
        tuple(mesh.ranks),
    )


def _per_rank_steps(mesh: Mesh, algo: _Algo, plan: _Plan) -> list:
    """``plan.steps``, built on first use from a uniform plan's blocks."""
    if plan.steps is None:
        blocks = plan.blocks
        plan.steps = _schedule(
            mesh, algo, lambda op, _rank: blocks[op],
            _itemsize(plan.out_dtype, plan.numeric),
        )
    return plan.steps


def _block_sig(x: DTensor, numeric: bool):
    """``(block shape, dtype)`` when every shard shares both — known in O(1)
    from a block stack, else checked shard by shard — or None (ragged)."""
    if x.blocks is not None:
        return x.blocks.shape[x.blocks.ndim - 2:], x.blocks.dtype
    sig = _uniform_sig(x)
    if sig is None or numeric:
        return sig
    return sig[0], sig[1].name


def _get_plan(mesh: Mesh, algo: _Algo, a: DTensor, b: DTensor) -> _Plan:
    numeric = a.blocks is not None or not is_shape_array(next(iter(a.shards.values())))
    cache = getattr(mesh, "_summa_plans", None)
    if cache is None:
        cache = mesh._summa_plans = {}
    sig_a = _block_sig(a, numeric)
    sig_b = _block_sig(b, numeric) if sig_a is not None else None
    if sig_b is not None:  # uniform blocks: one shape and dtype per operand
        key = (algo.name, a.global_shape, b.global_shape, sig_a, sig_b, numeric)
        plan = cache.get(key)
        if plan is None:
            plan = cache[key] = _uniform_plan(mesh, algo, sig_a, sig_b, numeric)
        return plan
    key = (
        "ragged",
        algo.name,
        a.global_shape,
        b.global_shape,
        _shape_sig(mesh, a),
        _shape_sig(mesh, b),
        _dtype_sig(mesh, a, numeric),
        _dtype_sig(mesh, b, numeric),
        numeric,
    )
    plan = cache.get(key)
    if plan is None:
        plan = cache[key] = _build_plan(mesh, algo, a, b, numeric)
    return plan


def plan_cache_size(mesh: Mesh) -> int:
    """Number of cached SUMMA plans on a mesh (observability/test hook)."""
    return len(getattr(mesh, "_summa_plans", ()))


# ----------------------------------------------------------------------
# the per-rank executor
# ----------------------------------------------------------------------
def _run_per_rank(mesh, algo, a, b, plan, buffers) -> dict:
    sim = mesh.sim
    tr = sim.tracer
    traced = tr.enabled
    # ShapeArray plans multiply out of place (there is nothing to pool).  q=1
    # with a reduce: the size-1 reduce is zero-copy, so a pooled partial
    # would become the output shard and never return to the pool (leak, PR 7)
    pooled = plan.numeric and (algo.reduce is None or mesh.q > 1)
    pool = _pool_of(sim) if pooled else None
    shards = (a.shards, b.shards)
    out_dtype = plan.out_dtype
    ta, tb = algo.ta, algo.tb
    c_shards = {}
    for l, (bcasts, groups) in enumerate(_per_rank_steps(mesh, algo, plan)):
        with tr.span(
            "summa_step", mesh.ranks, "summa", algo=algo.name, step=l
        ) if traced else NULL_SPAN:
            # the block each rank multiplies: received, or its own shard
            blocks = [{} if op in algo.bcast else shards[op] for op in (0, 1)]
            for op, group, root, cost in bcasts:
                blocks[op].update(coll.broadcast(group, shards[op][root], root, cost))
            ablks, bblks = blocks
            for gemms, reduce in groups:
                partials = {}
                for rank, dev, flops, scratch, out_shape in gemms:
                    ablk, bblk = ablks[rank], bblks[rank]
                    if ta:
                        ablk = ops.transpose(ablk)
                    if tb:
                        bblk = ops.transpose(bblk)
                    if buffers is not None:
                        buffers.hold("workspace", rank, scratch)
                    try:
                        acc = c_shards.get(rank) if reduce is None else None
                        if pool is None or (reduce is None and acc is None):
                            part = ablk @ bblk
                        else:
                            # bit-identical to the out-of-place product
                            part = pool.acquire(out_shape, out_dtype)
                            np.matmul(ablk, bblk, out=part)
                        if reduce is not None:
                            partials[rank] = part
                        elif acc is None:
                            c_shards[rank] = part
                        elif pool is None:
                            c_shards[rank] = acc + part
                        else:
                            np.add(acc, part, out=acc)
                            pool.release(part)
                        dev.compute(flops)
                    finally:
                        if buffers is not None:
                            buffers.release("workspace", rank, scratch)
                if reduce is not None:
                    rgroup, root, rcost = reduce
                    out = coll.reduce(rgroup, partials, root, "sum", rcost)[root]
                    c_shards[root] = out
                    if pool is not None:
                        for part in partials.values():
                            if part is not out:
                                pool.release(part)
    return c_shards


# ----------------------------------------------------------------------
# the batched executor
# ----------------------------------------------------------------------
class _BatchedDesc(NamedTuple):
    """Stacking descriptor for one plan."""

    #: the accounting of every step, in call order: its broadcast lines (the
    #: ``(group, precost)`` list of one ``charge_only``), then per gemm group
    #: the ranks and the reduce line after them (``((group, precost),)``, or
    #: None for ``ab``); uniform blocks give every gemm one (flops, scratch
    #: bytes)
    steps: list
    flops: float
    scratch: int
    #: ``steps`` compiled into one accounting program (:func:`_step_program`)
    program: list
    #: the program's lockstep form over the mesh, or None where the mesh's
    #: lines are priced apart (:meth:`~repro.runtime.simulator.Simulator.lockstep`)
    lockstep: Optional[tuple]
    stack_shape: tuple  # (q, q) + output block: the output's block stack
    #: ``(rank, (i, j))`` of every output block, in the per-rank executor's
    #: key order (downstream charge loops iterate it): mesh order for
    #: ``ab``, the reduce roots in call order otherwise
    owners: list
    order: list  # the owners' ranks
    #: the program as a dry-run layer tape keys it (``runtime.tape``):
    #: ``(key, skeleton, scope, values)`` — the structure's key and
    #: skeleton, the mesh's ranks, and per value slot the gemm charge or a
    #: price class's price
    form: tuple


def _uniform_sig(x: DTensor):
    """(shape, dtype) if every shard agrees on both, else None (ragged)."""
    it = iter(x.shards.values())
    first = next(it)
    shape, dtype = first.shape, first.dtype
    for s in it:
        # dtypes are interned: identity settles equal ones without a
        # Python-level ``DType.__eq__`` per placeholder shard
        if s.shape != shape or (s.dtype is not dtype and s.dtype != dtype):
            return None
    return tuple(shape), dtype


def _batched_ready(sim) -> bool:
    """Runtime gates the plan cannot capture: unpatched collectives and a
    disarmed fault injector (both need the per-rank call sequence).  The one
    gate of every host-side batched path, on both schemes: this executor,
    :func:`repro.mesh.dtensor.block_map`, the stacked collectives of
    :mod:`repro.comm.stacked` and :mod:`repro.core.layers` and the
    optimizer's stacked update."""
    inj = sim.fault_injector
    if inj is not None and inj.armed:
        return False
    return (
        coll.broadcast is _PRISTINE_BROADCAST
        and coll.reduce is _PRISTINE_REDUCE
        and coll.all_reduce is _PRISTINE_ALL_REDUCE
    )


def _takes_batched(mesh: Mesh, plan: _Plan, a: DTensor, b: DTensor) -> bool:
    """Whether an eligible plan runs batched: a shape plan whenever
    :func:`_batched_ready` holds; a numeric one when
    :func:`~repro.mesh.dtensor.on_stacks` holds for both operands and both
    stacks are full ``(q, q) + block`` ones (no axis shared along the mesh).
    Any other numeric operand takes the per-rank executor."""
    if not plan.numeric:
        return _batched_ready(mesh.sim)
    full = (mesh.q, mesh.q)
    return on_stacks(mesh, a, b) and a.blocks.shape[:2] == full == b.blocks.shape[:2]


def _step_body(mesh: Mesh, bcast_lines: list, groups: list, flops: float) -> list:
    """One step of a batched call (see :class:`_BatchedDesc`) as program
    entries: the broadcast lines, then per gemm group the gemm charges and
    the reduce line — the per-rank executor's call order."""
    body = [(COLLECTIVES, "broadcast", bcast_lines)]
    for ranks, reduce in groups:
        body.append(mesh.sim.compute_entry(ranks, ((flops, "gemm"),)))
        if reduce is not None:
            body.append((COLLECTIVES, "reduce", reduce))
    return body


def _step_program(mesh: Mesh, algo: _Algo, body: list) -> list:
    """The accounting of a batched call's q identical steps as one
    :meth:`~repro.runtime.simulator.Simulator.replay` program: per step its
    span around the step's ``body`` (:func:`_step_body`)."""
    program = []
    for l in range(mesh.q):
        program.append((OPEN, "summa_step", mesh.ranks, "summa", {"algo": algo.name, "step": l}))
        program += body
        program.append((CLOSE,))
    return program


def _account_steps(mesh, algo, buffers, desc) -> None:
    """A batched call's accounting step by step, each gemm group through the
    workspace (hold, gemm, release per rank while an arena grows or the
    buffers are unmanaged)."""
    tr = mesh.sim.tracer
    traced = tr.enabled
    flops, scratch = desc.flops, desc.scratch
    for l, (bcast_lines, groups) in enumerate(desc.steps):
        with tr.span(
            "summa_step", mesh.ranks, "summa", algo=algo.name, step=l
        ) if traced else NULL_SPAN:
            coll.charge_only("broadcast", bcast_lines)
            for ranks, reduce in groups:
                buffers.compute_in_workspace(ranks, scratch, flops)
                if reduce is not None:
                    coll.charge_only("reduce", reduce)


def _account(mesh, algo, buffers, desc) -> None:
    """A batched call's accounting: its program in one
    :meth:`~repro.runtime.simulator.Simulator.replay` when every workspace
    arena of the mesh already holds a step's received blocks (or there are no
    buffers), else :func:`_account_steps`.  A recording dry-run layer tape
    records the call with its program and the block its workspace must
    hold for the program to be the call (:class:`~repro.runtime.tape.Tape`)."""
    sim = mesh.sim
    if sim.tape is not None:
        return sim.tape.account(
            desc.program, desc.lockstep, desc.form, _account, (mesh, algo, buffers, desc),
            buffers, desc.scratch,
        )
    if buffers is None or buffers.fits("workspace", mesh.ranks, desc.scratch):
        sim.replay(desc.program, desc.lockstep)
    else:
        _account_steps(mesh, algo, buffers, desc)


def _run_batched(mesh, algo, a, b, plan, buffers, desc, out) -> dict:
    """The call's accounting (:func:`_account`), then the products, which
    read no clock.  Numeric plans read both operands' block stacks in place
    (A_il over rows i as ``A[:, l]``, B_lj over columns j as ``B[l]``) and
    write the output block stack ``out`` (``desc.stack_shape`` of
    ``plan.out_dtype``; None for a shape plan), returning its views keyed in
    the per-rank executor's order."""
    _account(mesh, algo, buffers, desc)
    if not plan.numeric:
        # one immutable output placeholder for the q² ranks (downstream
        # charge loops iterate the keys)
        return dict.fromkeys(desc.order, ShapeArray(desc.stack_shape[2:], plan.out_dtype))
    stack_a, stack_b = a.blocks, b.blocks
    part = None  # one scratch partial per call, reused by every step
    for l in range(mesh.q):
        # the step's q² rank-local products as one broadcasted matmul:
        # numpy dispatches every 2-D slice to the same BLAS gemm, on the
        # same (possibly transposed-view) operands, as the per-rank `@`.
        # A_il is stacked over rows i (shared by all j), B_lj over columns j
        x = stack_a[:, l, None] if 0 in algo.bcast else stack_a
        y = stack_b[None, l] if 1 in algo.bcast else stack_b
        if algo.ta:
            x = x.swapaxes(-1, -2)
        if algo.tb:
            y = y.swapaxes(-1, -2)
        if algo.reduce is None and l == 0:
            np.matmul(x, y, out=out)
            continue
        part = np.matmul(x, y, out=part)
        if algo.reduce is None:
            np.add(out, part, out=out)
        else:
            # fold the reduced line's members (stack axis j for a row
            # reduce, i for a column reduce) in group-rank order into the
            # step's output line (column l of C, resp. row l): copy-then-add
            # is exactly collectives._combine
            line = out[:, l] if algo.reduce == 0 else out[l]
            ops.fold_stack_sum(part, axis=1 - algo.reduce, out=line)
    return {rank: out[ij] for rank, ij in desc.owners}


# ----------------------------------------------------------------------
# the kernel and its three public faces
# ----------------------------------------------------------------------
def _summa(mesh: Mesh, algo: _Algo, a: DTensor, b: DTensor, buffers) -> DTensor:
    _check_blocked(a, "A")
    _check_blocked(b, "B")
    M, K = a.global_shape[::-1] if algo.ta else a.global_shape
    K2, N = b.global_shape[::-1] if algo.tb else b.global_shape
    if K != K2:
        raise ValueError(
            f"inner dims mismatch for {algo.name}: A {a.global_shape}, B {b.global_shape}"
        )
    plan = _get_plan(mesh, algo, a, b)
    desc = plan.batched
    tr = mesh.sim.tracer
    blocks = None
    with tr.span(
        "summa_" + algo.name, mesh.ranks, "op", M=M, K=K, N=N, q=mesh.q
    ) if tr.enabled else NULL_SPAN:
        if desc is not None and _takes_batched(mesh, plan, a, b):
            if plan.numeric:
                blocks = np.empty(desc.stack_shape, plan.out_dtype)
            c_shards = _run_batched(mesh, algo, a, b, plan, buffers, desc, blocks)
        else:
            c_shards = _run_per_rank(mesh, algo, a, b, plan, buffers)
    if blocks is not None:
        return DTensor.from_blocks(mesh, BLOCKED_2D, blocks, (M, N), desc.order)
    return DTensor(mesh, BLOCKED_2D, c_shards, (M, N))


def summa_ab(
    mesh: Mesh, a: DTensor, b: DTensor, buffers: Optional[BufferManager] = None
) -> DTensor:
    """Algorithm 1: ``C = A·B`` with A=[M,K], B=[K,N] both 2-D blocked."""
    return _summa(mesh, _AB, a, b, buffers)


def summa_abt(
    mesh: Mesh, a: DTensor, b: DTensor, buffers: Optional[BufferManager] = None
) -> DTensor:
    """Algorithm 2: ``C = A·Bᵀ`` with A=[M,K], B=[N,K]; C=[M,N]."""
    return _summa(mesh, _ABT, a, b, buffers)


def summa_atb(
    mesh: Mesh, a: DTensor, b: DTensor, buffers: Optional[BufferManager] = None
) -> DTensor:
    """Algorithm 3: ``C = Aᵀ·B`` with A=[K,M], B=[K,N]; C=[M,N]."""
    return _summa(mesh, _ATB, a, b, buffers)


# ----------------------------------------------------------------------
# closed-set backward identities (paper Eqs. 1–3)
# ----------------------------------------------------------------------
def grads_of_ab(mesh, a, b, dc, buffers=None):
    """(dA, dB) for ``C = A·B`` (Eq. 1): dA = dC·Bᵀ, dB = Aᵀ·dC."""
    da = summa_abt(mesh, dc, b, buffers)
    db = summa_atb(mesh, a, dc, buffers)
    return da, db


def grads_of_abt(mesh, a, b, dc, buffers=None):
    """(dA, dB) for ``C = A·Bᵀ`` (Eq. 3): dA = dC·B, dB = dCᵀ·A."""
    da = summa_ab(mesh, dc, b, buffers)
    db = summa_atb(mesh, dc, a, buffers)
    return da, db


def grads_of_atb(mesh, a, b, dc, buffers=None):
    """(dA, dB) for ``C = Aᵀ·B`` (Eq. 2): dA = B·dCᵀ, dB = A·dC."""
    da = summa_abt(mesh, b, dc, buffers)
    db = summa_ab(mesh, a, dc, buffers)
    return da, db
