"""Serving engine tests: traffic, KV cache, scheduler, decode equivalence,
report determinism and the ledger/dash/CLI integration."""

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.config import tiny_config
from repro.nn.init import init_transformer_params
from repro.obs.ledger import RunLedger, RunRecord, compact
from repro.reference.attention import attention_fwd, decode_attention_fwd
from repro.reference.functional import gelu, layernorm_fwd
from repro.runtime.simulator import Simulator
from repro.serving.engine import make_engine
from repro.serving.kvcache import (
    KV_MEMORY_TAG,
    HostSwapSpace,
    KVBlockPool,
    KVShardGroup,
    ShardedKVCache,
)
from repro.serving.report import (
    compare_reports,
    percentile,
    run_serve,
)
from repro.serving.scheduler import ContinuousBatchingScheduler, ServingOptions
from repro.serving.traffic import Request, TrafficGenerator

CFG = tiny_config(num_heads=4)
PARAMS = init_transformer_params(CFG, seed=1)


def _requests(specs):
    """specs: iterable of (arrival, prompt_tuple, max_new)."""
    return [
        Request(rid=i, arrival=a, prompt=tuple(p), max_new=m)
        for i, (a, p, m) in enumerate(specs)
    ]


def _flat_cache(sim, slots=4, block_size=4, blocks=16, layers=1, heads=2, d=3):
    groups = [KVShardGroup(gid=0, ranks=tuple(sim.ranks), slots=tuple(range(slots)))]
    return ShardedKVCache(
        sim,
        groups,
        num_layers=layers,
        heads_loc=heads,
        head_dim=d,
        block_size=block_size,
        blocks_per_group=blocks,
    )


# ----------------------------------------------------------------------
# traffic
# ----------------------------------------------------------------------
class TestTraffic:
    def test_same_seed_is_identical(self):
        a = TrafficGenerator(7, CFG.vocab_size).generate()
        b = TrafficGenerator(7, CFG.vocab_size).generate()
        assert a == b

    def test_different_seeds_differ(self):
        a = TrafficGenerator(7, CFG.vocab_size).generate()
        b = TrafficGenerator(8, CFG.vocab_size).generate()
        assert a != b

    def test_sorted_by_arrival(self):
        reqs = TrafficGenerator(0, CFG.vocab_size, num_requests=32).generate()
        assert [r.arrival for r in reqs] == sorted(r.arrival for r in reqs)

    def test_bursty_groups_arrivals(self):
        reqs = TrafficGenerator(
            0, CFG.vocab_size, arrival="bursty", burst_size=4, num_requests=12
        ).generate()
        arrivals = [r.arrival for r in reqs]
        for i in range(0, 12, 4):
            assert len(set(arrivals[i : i + 4])) == 1  # whole burst lands together
        assert len(set(arrivals)) == 3

    def test_tokens_in_vocab_and_kv_positions(self):
        for r in TrafficGenerator(3, CFG.vocab_size).generate():
            assert all(0 <= t < CFG.vocab_size for t in r.prompt)
            assert r.kv_positions == r.prompt_len + r.max_new - 1

    def test_rejects_bad_profile(self):
        with pytest.raises(ValueError):
            TrafficGenerator(0, 48, arrival="adversarial")


# ----------------------------------------------------------------------
# KV block pool + sharded cache
# ----------------------------------------------------------------------
class TestKVCache:
    def test_pool_exhaustion_raises(self):
        pool = KVBlockPool(0, 4)
        pool.allocate(3)
        with pytest.raises(RuntimeError, match="exhausted"):
            pool.allocate(2)

    def test_pool_lowest_id_first_and_peak(self):
        pool = KVBlockPool(0, 4)
        ids = pool.allocate(2)
        assert ids == [0, 1]
        pool.release([0])
        assert pool.allocate(1) == [0]  # reuses the lowest freed id
        assert pool.peak_in_use == 2

    def test_pool_double_free_raises(self):
        pool = KVBlockPool(0, 2)
        ids = pool.allocate(1)
        pool.release(ids)
        with pytest.raises(RuntimeError, match="double free"):
            pool.release(ids)

    def test_reserve_charges_and_free_refunds_device_memory(self):
        sim = Simulator.for_flat(2)
        cache = _flat_cache(sim, block_size=4, blocks=8)
        before = [sim.device(r).memory.current for r in sim.ranks]
        cache.reserve(0, kv_positions=10)  # 3 blocks of 4
        per_block = cache.bytes_per_rank_block()
        for r in sim.ranks:
            assert sim.device(r).memory.current == before[r] + 3 * per_block
        cache.free(0)
        for r in sim.ranks:
            assert sim.device(r).memory.current == before[r]
        assert cache.pools[0].in_use == 0

    def test_write_gather_round_trip_across_blocks(self):
        sim = Simulator.for_flat(1)
        cache = _flat_cache(sim, block_size=3, blocks=8, heads=2, d=3)
        cache.reserve(0, kv_positions=7)  # spans 3 blocks
        rng = np.random.default_rng(0)
        ks = rng.normal(size=(7, 2, 3))
        vs = rng.normal(size=(7, 2, 3))
        for pos in range(7):
            cache.write(0, 0, 0, pos, ks[pos], vs[pos])
            cache.commit(0)
        k_cat, v_cat = cache.gather(0, 0, 0, upto=7)
        assert k_cat.shape == (2, 7, 3)
        np.testing.assert_array_equal(k_cat, ks.transpose(1, 0, 2))
        np.testing.assert_array_equal(v_cat, vs.transpose(1, 0, 2))

    def test_swap_round_trip_through_reused_blocks_is_bit_exact(self):
        sim = Simulator.for_flat(2)
        cache = _flat_cache(sim, block_size=2, blocks=6, layers=2)
        swap = HostSwapSpace(8, cache.bytes_per_rank_block())
        rng = np.random.default_rng(3)

        def fill(slot, count):
            for pos in range(count):
                for layer in range(2):
                    for rank in sim.ranks:
                        cache.write(slot, layer, rank, pos, *rng.normal(size=(2, 2, 3)))
                cache.commit(slot)

        def snapshot(slot, count):
            return [
                cache.gather(slot, layer, rank, count)
                for layer in range(2)
                for rank in sim.ranks
            ]

        cache.reserve(0, kv_positions=5)  # blocks 0, 1, 2
        fill(0, 5)
        before = [(k.copy(), v.copy()) for k, v in snapshot(0, 5)]
        ticket = cache.swap_out(0, swap)
        cache.reserve(1, kv_positions=4)  # takes the freed blocks 0, 1 ...
        fill(1, 4)  # ... and overwrites what slot 0 left in them
        cache.swap_in(2, ticket, swap)
        assert cache._tables[2] == [2, 3, 4]  # not where it was swapped out from
        assert cache.length(2) == 5
        for (k0, v0), (k1, v1) in zip(before, snapshot(2, 5)):
            np.testing.assert_array_equal(k0, k1)
            np.testing.assert_array_equal(v0, v1)
        assert swap.meter.current == 0 and swap.blocks_held == 0

        cache.discard_ticket(cache.swap_out(1, swap), swap)
        cache.free(2)
        assert swap.meter.current == 0 and swap.blocks_held == 0
        assert all(sim.device(r).memory.by_tag.get(KV_MEMORY_TAG, 0) == 0 for r in sim.ranks)
        assert cache.pools[0].in_use == 0

    def test_equal_per_device_bytes_across_schemes(self):
        """The report's blocks scaling keeps per-device KV bytes equal."""
        q, blocks, bs = 2, 12, 8
        opt = make_engine("optimus", CFG, PARAMS, q, 8, bs, blocks)
        meg = make_engine("megatron", CFG, PARAMS, q, 8, bs, blocks * q)
        assert opt.cache.per_device_capacity_bytes() == meg.cache.per_device_capacity_bytes()
        # and the shard itself is O(bsh/p): q× thinner heads on q²/q× ranks
        assert meg.cache.bytes_per_rank_block() * q == opt.cache.bytes_per_rank_block()


class KVCacheMachine(RuleBasedStateMachine):
    """Whatever order blocks are drawn, grown, freed and swapped in,
    ``gather`` returns what was written and no block has two owners."""

    SLOTS, LAYERS, BS, BLOCKS = 3, 2, 2, 5

    def __init__(self):
        super().__init__()
        self.sim = Simulator.for_flat(2)
        self.cache = _flat_cache(
            self.sim,
            slots=self.SLOTS,
            block_size=self.BS,
            blocks=self.BLOCKS,
            layers=self.LAYERS,
            heads=2,
            d=3,
        )
        self.swap = HostSwapSpace(4, self.cache.bytes_per_rank_block())
        self.written = {}  # resident slot -> {(layer, rank): [(k, v) per position]}
        self.parked = []  # (ticket, what its slot had written)
        self.stamp = 0.0

    def _free_slots(self):
        return [s for s in range(self.SLOTS) if s not in self.written]

    @precondition(lambda self: self._free_slots())
    @rule(positions=st.integers(1, 4), pick=st.integers(0, 2))
    def reserve(self, positions, pick):
        free = self._free_slots()
        slot = free[pick % len(free)]
        if self.cache.can_reserve(slot, positions):
            self.cache.reserve(slot, positions)
            self.written[slot] = {
                (layer, r): [] for layer in range(self.LAYERS) for r in self.sim.ranks
            }

    @precondition(lambda self: self.written)
    @rule(pick=st.integers(0, 2))
    def append(self, pick):
        slot = sorted(self.written)[pick % len(self.written)]
        pos = self.cache.length(slot)
        if not self.cache.ensure_capacity(slot, pos + 1):
            return
        for (layer, rank), seen in self.written[slot].items():
            self.stamp += 1.0
            k = np.full((2, 3), self.stamp)
            self.cache.write(slot, layer, rank, pos, k, -k)
            seen.append((k, -k))
        self.cache.commit(slot)

    @precondition(lambda self: self.written)
    @rule(pick=st.integers(0, 2))
    def free(self, pick):
        slot = sorted(self.written)[pick % len(self.written)]
        self.cache.free(slot)
        del self.written[slot]

    @precondition(lambda self: self.written)
    @rule(pick=st.integers(0, 2))
    def swap_out(self, pick):
        slot = sorted(self.written)[pick % len(self.written)]
        if self.swap.can_hold(self.cache.blocks_of(slot)):
            self.parked.append((self.cache.swap_out(slot, self.swap), self.written.pop(slot)))

    @precondition(lambda self: self.parked and self._free_slots())
    @rule(pick=st.integers(0, 2))
    def swap_in(self, pick):
        free = self._free_slots()
        slot = free[pick % len(free)]
        ticket, seen = self.parked[0]
        if self.cache.can_swap_in(slot, ticket):
            self.cache.swap_in(slot, ticket, self.swap)
            self.written[slot] = seen
            self.parked.pop(0)

    @invariant()
    def gather_returns_what_was_written(self):
        for slot, shards in self.written.items():
            for (layer, rank), seen in shards.items():
                assert self.cache.length(slot) == len(seen)
                if seen:
                    k, v = self.cache.gather(slot, layer, rank, len(seen))
                    np.testing.assert_array_equal(k, np.stack([s[0] for s in seen], axis=1))
                    np.testing.assert_array_equal(v, np.stack([s[1] for s in seen], axis=1))

    @invariant()
    def no_block_in_two_tables(self):
        held = [b for slot in self.written for b in self.cache._tables[slot]]
        assert len(held) == len(set(held)) == self.cache.pools[0].in_use
        assert self.swap.blocks_held == sum(t.num_blocks for t, _ in self.parked)


KVCacheMachine.TestCase.settings = settings(max_examples=40, stateful_step_count=30, deadline=None)
TestKVCacheStateMachine = KVCacheMachine.TestCase


# ----------------------------------------------------------------------
# paged decode attention
# ----------------------------------------------------------------------
def _paged_lanes(lengths, bs=4, n=3, d=5, blocks=24, seed=0):
    """Ragged lanes scattered over shuffled blocks of fresh slabs: returns the
    kernel's arguments and each lane's dense ``(k, v)`` ``[n, ℓ, d]``."""
    rng = np.random.default_rng(seed)
    k_slab = rng.normal(size=(blocks, n, bs, d))  # stale contents everywhere
    v_slab = rng.normal(size=(blocks, n, bs, d))
    ids = iter(rng.permutation(blocks))
    nb = max(-(-ell // bs) for ell in lengths)
    table = np.zeros((len(lengths), nb), dtype=np.intp)
    dense = []
    for w, ell in enumerate(lengths):
        k, v = rng.normal(size=(2, n, ell, d))
        dense.append((k, v))
        for b in range(-(-ell // bs)):
            table[w, b] = next(ids)
            hi = min(bs, ell - b * bs)
            k_slab[table[w, b], :, :hi] = k[:, b * bs : b * bs + hi]
            v_slab[table[w, b], :, :hi] = v[:, b * bs : b * bs + hi]
    mask = np.arange(nb * bs) < np.asarray(lengths)[:, None]
    q = rng.normal(size=(len(lengths), n, d))
    return (q, k_slab, v_slab, table, mask), dense


class TestPagedDecodeAttention:
    LENGTHS = [1, 3, 4, 5, 9, 12, 13, 16, 1]  # 1–4 blocks of 4

    def test_matches_causal_attention_per_lane(self):
        args, dense = _paged_lanes(self.LENGTHS)
        ctx = decode_attention_fwd(*args)
        assert ctx.shape == (len(self.LENGTHS), 3, 5)
        for w, (k, v) in enumerate(dense):
            # the newest token sees every cached position: one query row of
            # plain attention over the lane's dense K/V
            want, _ = attention_fwd(args[0][w][None, :, None, :], k[None], v[None])
            np.testing.assert_allclose(ctx[w], want[0, :, 0, :], rtol=1e-12, atol=0)
            if k.shape[1] == 1:
                np.testing.assert_array_equal(ctx[w], v[:, 0, :])

    def test_single_lane_is_the_batch_of_one(self):
        args, _ = _paged_lanes(self.LENGTHS)
        q, k_slab, v_slab, table, mask = args
        ctx = decode_attention_fwd(*args)
        for w in range(len(self.LENGTHS)):
            lane = slice(w, w + 1)
            one = decode_attention_fwd(q[lane], k_slab, v_slab, table[lane], mask[lane])
            np.testing.assert_allclose(one[0], ctx[w], rtol=1e-12, atol=0)

    def test_stale_blocks_never_leak(self):
        """A reused block keeps its previous owner's K/V: nothing outside a
        lane's own ``[0, ℓ)`` may reach its context — not even NaN."""
        args, _ = _paged_lanes(self.LENGTHS)
        q, k_slab, v_slab, table, mask = args
        clean = decode_attention_fwd(*args)
        bs = k_slab.shape[2]
        poisoned = np.ones(k_slab.shape[:1] + (bs,), dtype=bool)  # [block, position]
        for w, ell in enumerate(self.LENGTHS):
            for b in range(-(-ell // bs)):
                poisoned[table[w, b], : min(bs, ell - b * bs)] = False
        for slab in (k_slab, v_slab):
            slab.transpose(0, 2, 1, 3)[poisoned] = np.nan
        assert np.isnan(k_slab).any() and np.isnan(v_slab).any()
        ctx = decode_attention_fwd(q, k_slab, v_slab, table, mask)
        assert np.isfinite(ctx).all()
        np.testing.assert_array_equal(ctx, clean)


# ----------------------------------------------------------------------
# scheduler
# ----------------------------------------------------------------------
class TestScheduler:
    def _sched(self, slots=2, block_size=4, blocks=4):
        sim = Simulator.for_flat(1)
        cache = _flat_cache(sim, slots=slots, block_size=block_size, blocks=blocks)
        return ContinuousBatchingScheduler(cache)

    def test_fcfs_admission_order_is_arrival_order(self):
        sched = self._sched(slots=2, blocks=16)
        reqs = _requests([(0.3, (1, 2), 2), (0.1, (3,), 1), (0.2, (4,), 1)])
        sched.load(reqs)
        admitted = sched.admit(now=1.0)
        assert [s.request.rid for s in admitted] == [1, 2]  # arrival order
        assert sched.pending == 1  # no free slot for rid 0 yet
        sched.finish(admitted[0].slot, now=1.5)
        again = sched.admit(now=1.5)
        assert [s.request.rid for s in again] == [0]  # head never skipped

    def test_capacity_never_exceeded_and_hol_counted(self):
        sched = self._sched(slots=1, blocks=16)
        sched.load(_requests([(0.0, (1,), 1), (0.0, (2,), 1)]))
        sched.admit(now=0.0)
        assert len(sched.active) == 1
        assert sched.stats["hol_blocked_steps"] == 1

    def test_block_shortage_blocks_head_not_later_requests(self):
        # 4 blocks of 4 positions; head needs 3 blocks, only 2 free
        sched = self._sched(slots=2, block_size=4, blocks=4)
        first = _requests([(0.0, tuple(range(8)), 1)])  # 8 positions → 2 blocks
        sched.load(first)
        sched.admit(now=0.0)
        big = Request(rid=9, arrival=0.1, prompt=tuple(range(10)), max_new=2)
        sched.queue.append(big)
        sched.admit(now=0.2)
        assert big.rid not in {s.request.rid for s in sched.active.values()}
        assert sched.stats["hol_blocked_steps"] == 1

    def test_evict_frees_blocks(self):
        sched = self._sched(slots=2, blocks=4)
        sched.load(_requests([(0.0, (1, 2, 3), 2)]))
        (state,) = sched.admit(now=0.0)
        assert sched.cache.pools[0].in_use == 1
        sched.finish(state.slot, now=1.0)
        assert sched.cache.pools[0].in_use == 0
        assert state.finish_time == 1.0

    def test_impossible_request_rejected_at_load(self):
        sched = self._sched(slots=1, block_size=4, blocks=2)
        huge = _requests([(0.0, tuple(range(30)), 4)])
        with pytest.raises(ValueError, match="never be admitted"):
            sched.load(huge)


# ----------------------------------------------------------------------
# latency statistics
# ----------------------------------------------------------------------
class TestPercentile:
    def test_hand_built_trace(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        assert percentile(xs, 50.0) == pytest.approx(5.5)
        assert percentile(xs, 99.0) == pytest.approx(9.91)
        assert percentile(xs, 0.0) == 1.0
        assert percentile(xs, 100.0) == 10.0

    def test_matches_numpy_linear(self):
        rng = np.random.default_rng(0)
        xs = rng.exponential(size=37).tolist()
        for p in (50.0, 90.0, 99.0):
            assert percentile(xs, p) == pytest.approx(float(np.percentile(xs, p)), rel=1e-12)

    def test_singleton_and_empty(self):
        assert percentile([3.25], 99.0) == 3.25
        with pytest.raises(ValueError):
            percentile([], 50.0)


# ----------------------------------------------------------------------
# decode equivalence: engines vs a naive full-recompute serial decoder
# ----------------------------------------------------------------------
def _serial_greedy_decode(cfg, params, prompt, max_new):
    """Full-recompute causal decode with plain numpy — no KV cache at all."""
    table = params["embedding.table"]
    tokens = list(prompt)
    n, d = cfg.num_heads, cfg.head_dim
    for _ in range(max_new):
        x = table[np.array(tokens)]  # [t, h]
        t = x.shape[0]
        mask = np.tril(np.ones((t, t), dtype=bool))
        for layer in range(cfg.num_layers):
            pre = f"layer{layer}."
            p = {k[len(pre) :]: v for k, v in params.items() if k.startswith(pre)}
            a, _, _ = layernorm_fwd(x, p["ln1.gamma"], p["ln1.beta"], cfg.ln_eps)
            qkv = (a @ p["attn.wqkv"] + p["attn.bqkv"]).reshape(t, n, 3, d)
            qh, kh, vh = qkv[:, :, 0], qkv[:, :, 1], qkv[:, :, 2]
            scores = np.einsum("ind,jnd->nij", qh, kh) / math.sqrt(d)
            scores = np.where(mask[None], scores, -np.inf)
            probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
            probs = probs / probs.sum(axis=-1, keepdims=True)
            ctx = np.einsum("nij,jnd->ind", probs, vh).reshape(t, n * d)
            x = x + ctx @ p["attn.wo"] + p["attn.bo"]
            m, _, _ = layernorm_fwd(x, p["ln2.gamma"], p["ln2.beta"], cfg.ln_eps)
            x = x + gelu(m @ p["mlp.w1"] + p["mlp.b1"]) @ p["mlp.w2"] + p["mlp.b2"]
        out, _, _ = layernorm_fwd(x, params["final_ln.gamma"], params["final_ln.beta"], cfg.ln_eps)
        logits = out[-1] @ table.T
        tokens.append(int(np.argmax(logits)))
    return tokens[len(prompt) :]


def _engine_tokens(scheme, requests, slots=8, blocks=16):
    engine = make_engine(scheme, CFG, PARAMS, 2, slots, 8, blocks)
    result = engine.run(requests)
    return {
        s.request.rid: list(s.generated)
        for s in sorted(result.completed, key=lambda s: s.request.rid)
    }


_EQUIV_SPECS = [
    (0.0, (5, 11, 23), 4),
    (0.0, (40, 1), 3),
    (0.0002, (7, 7, 7, 9, 13, 2, 30, 19, 44), 5),  # spans two KV blocks
]


class TestDecodeEquivalence:
    REQS = _requests(_EQUIV_SPECS)

    def test_optimus_matches_serial_reference(self):
        got = _engine_tokens("optimus", self.REQS)
        for r in self.REQS:
            expect = _serial_greedy_decode(CFG, PARAMS, r.prompt, r.max_new)
            assert got[r.rid] == expect, f"rid {r.rid}"

    def test_megatron_matches_serial_reference(self):
        got = _engine_tokens("megatron", self.REQS)
        for r in self.REQS:
            expect = _serial_greedy_decode(CFG, PARAMS, r.prompt, r.max_new)
            assert got[r.rid] == expect, f"rid {r.rid}"

    def test_float32_model_gets_a_float32_cache(self):
        """The KV cache holds what the model computes: a 4-byte model is not
        priced (device bytes, watermark, swap transfers) at 8 bytes."""
        params32 = init_transformer_params(CFG, seed=1, dtype="float32")
        engine = make_engine("optimus", CFG, params32, 2, 8, 8, 16)
        assert engine.cache.dtype == np.float32
        wide = make_engine("optimus", CFG, PARAMS, 2, 8, 8, 16).cache
        assert wide.dtype == np.float64  # every committed baseline
        assert 2 * engine.cache.bytes_per_rank_block() == wide.bytes_per_rank_block()
        result = engine.run(self.REQS)
        got = {s.request.rid: list(s.generated) for s in result.completed}
        for r in self.REQS:
            assert got[r.rid] == _serial_greedy_decode(CFG, params32, r.prompt, r.max_new)

    def test_batching_invariance(self):
        """slots=2 (sequential-ish) and slots=8 (batched) sample the same
        tokens — continuous batching must not change any request's output."""
        a = _engine_tokens("optimus", self.REQS, slots=2, blocks=16)
        b = _engine_tokens("optimus", self.REQS, slots=8, blocks=16)
        assert a == b

    def test_conservation_of_phase_attribution(self):
        engine = make_engine("optimus", CFG, PARAMS, 2, 8, 8, 16)
        result = engine.run(TrafficGenerator(0, CFG.vocab_size, num_requests=6).generate())
        assert sum(result.attribution.values()) == pytest.approx(result.clock, rel=1e-9)
        assert result.attribution["idle"] >= 0.0

    def test_kv_pool_drained_after_run(self):
        engine = make_engine("megatron", CFG, PARAMS, 2, 8, 8, 32)
        engine.run(TrafficGenerator(1, CFG.vocab_size, num_requests=6).generate())
        assert all(p.in_use == 0 for p in engine.cache.pools.values())
        assert all(p.peak_in_use > 0 for p in engine.cache.pools.values())
        for r in engine.sim.ranks:
            meter = engine.sim.device(r).memory
            assert meter.by_tag.get(KV_MEMORY_TAG, 0) == 0


# ----------------------------------------------------------------------
# report: determinism, executor equivalence, SLO gate
# ----------------------------------------------------------------------
class TestReport:
    def test_quick_report_is_byte_deterministic(self):
        a = run_serve(0, quick=True)
        b = run_serve(0, quick=True)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_full_report_matches_committed_baseline(self, tmp_path, capsys):
        """Both engines share one decode ``step()``: any drift in it moves a
        byte of the full profile."""
        from repro.cli import main

        out = tmp_path / "serve.json"
        assert main(["serve", "--seed", "0", "--out", str(out)]) == 0
        capsys.readouterr()
        root = pathlib.Path(__file__).resolve().parents[1]
        assert out.read_bytes() == (root / "benchmarks/serving_baseline.json").read_bytes()

    def test_schemes_agree_on_tokens(self):
        rep = run_serve(0, quick=True)
        by_scheme = {e["scheme"]: e for e in rep["schemes"]}
        assert by_scheme["optimus"]["tokens_sha256"] == by_scheme["megatron"]["tokens_sha256"]

    def test_report_identical_under_either_summa_executor(self, monkeypatch):
        """The decode forward rides SUMMA: forcing the per-rank executor for
        a whole run must not change the report by a byte."""
        from repro.core import summa
        from repro.obs.ledger import canonical_json

        default = run_serve(0, quick=True)
        monkeypatch.setattr(summa, "_batched_ready", lambda sim: False)
        per_rank = run_serve(0, quick=True)
        assert canonical_json(per_rank) == canonical_json(default)

    def test_slo_gate_passes_self_and_fails_regression(self):
        rep = run_serve(0, quick=True, requests=6)
        ok, _ = compare_reports(rep, rep, threshold=0.20)
        assert ok
        doctored = json.loads(json.dumps(rep))
        e = doctored["schemes"][0]
        e["e2e_s"]["p99"] /= 2.0  # current looks 2× slower than baseline
        ok, lines = compare_reports(rep, doctored, threshold=0.20)
        assert not ok
        assert any("p99" in line and "FAIL" in line for line in lines)
        e["goodput_tokens_per_s"] *= 10.0  # current goodput looks collapsed
        ok, lines = compare_reports(rep, doctored, threshold=0.20)
        assert any("goodput" in line and "FAIL" in line for line in lines)

    def test_missing_arm_fails_gate(self):
        rep = run_serve(0, quick=True, requests=6)
        partial = json.loads(json.dumps(rep))
        partial["schemes"] = partial["schemes"][:1]
        ok, lines = compare_reports(partial, rep, threshold=0.20)
        assert not ok and any("missing" in line for line in lines)


# ----------------------------------------------------------------------
# ledger + dash integration
# ----------------------------------------------------------------------
class TestLedgerServe:
    def test_serve_kind_accepted_with_extras(self, tmp_path):
        led = RunLedger(str(tmp_path / "ledger.jsonl"))
        report = run_serve(0, quick=True, requests=6, ledger=led)
        records = led.read()
        assert {r.kind for r in records} == {"serve"}
        assert {r.scheme for r in records} == {"optimus", "megatron"}
        for r, entry in zip(records, report["schemes"]):
            assert r.extra["num_requests"] == 6
            assert r.extra["traffic_seed"] == 0
            assert r.extra["arrival"] == entry["arrival"] == "poisson"
            assert r.extra["tokens_sha256"] == entry["tokens_sha256"]
            assert r.label == f"serve/{entry['scheme']}/poisson"
            assert r.counters["total_bytes_comm"] > 0

    def test_scheme_of_uses_engine_attribute(self):
        engine = make_engine("optimus", CFG, PARAMS, 2, 8, 8, 16)
        assert engine.scheme == "optimus"
        assert engine.model.scheme == "optimus"

    def test_compact_keeps_newest_per_traffic(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        led = RunLedger(path)
        run_serve(0, quick=True, requests=6, ledger=led)  # 2 arms
        run_serve(1, quick=True, requests=6, ledger=led)  # different seed: kept
        run_serve(0, quick=True, requests=6, ledger=led)  # same-key rerun: wins
        assert len(led.read()) == 6
        summary = compact(led)
        survivors = led.read()
        assert summary["dropped"] == 2  # only the seed-0 duplicates collapse
        assert len(survivors) == 4
        seeds = sorted(r.seed for r in survivors)
        assert seeds == [0, 0, 1, 1]

    def test_unknown_kind_still_rejected(self):
        with pytest.raises(ValueError, match="unknown run kind"):
            RunRecord(kind="deploy")

    def test_dash_serving_section(self, tmp_path):
        from repro.obs.claims import scorecard
        from repro.obs.dash import SECTIONS, render_html

        led = RunLedger(str(tmp_path / "ledger.jsonl"))
        run_serve(0, quick=True, requests=6, ledger=led)
        records = led.read()
        (serving,) = [s for s in SECTIONS if getattr(s, "title", None) == "Serving"]
        rows = serving.rows(records, {})
        arms = {(r.scheme, r.extra["arrival"]) for r in rows}
        assert arms == {("optimus", "poisson"), ("megatron", "poisson")}
        html_text = render_html(records, scorecard(records))
        assert "<h2>Serving</h2>" in html_text
        assert "tok/s" in html_text
        assert "<script" not in html_text


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestServeCLI:
    def test_quick_narrows_only_the_default_arrivals(self, tmp_path, capsys):
        """``--quick`` runs poisson when no arrival is named, and the
        arrival asked for when one is."""
        from repro.cli import main

        out = tmp_path / "s.json"
        argv = ["serve", "--quick", "--requests", "4", "--scheme", "optimus", "--out", str(out)]
        for arrival, ran in ([], ["poisson"]), (["--arrival", "bursty"], ["bursty"]):
            assert main(argv + arrival + ["--rate", "3000"]) == 0
            doc = json.loads(out.read_text())
            assert [t["arrival"] for t in doc["traffic"]] == ran
            assert [e["arrival"] for e in doc["schemes"]] == ran
        capsys.readouterr()

    def test_serve_writes_report_and_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        out1 = str(tmp_path / "a.json")
        out2 = str(tmp_path / "b.json")
        argv = ["serve", "--quick", "--seed", "0", "--requests", "6", "--out"]
        assert main(argv + [out1]) == 0
        assert main(argv + [out2]) == 0
        with open(out1) as f1, open(out2) as f2:
            assert f1.read() == f2.read()  # byte-identical across invocations

        # gate against self passes; doctored baseline fails
        assert main(argv + [out1, "--compare", out2]) == 0
        with open(out2) as f:
            doc = json.load(f)
        for e in doc["schemes"]:
            e["e2e_s"]["p99"] /= 10.0
            e["goodput_tokens_per_s"] *= 10.0
        with open(out2, "w") as f:
            json.dump(doc, f)
        assert main(argv + [out1, "--compare", out2]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("--sweep 500,8000 --compare B.json", "--compare cannot be combined with --sweep"),
            ("--sweep 500 --rate 2000", "--rate cannot be combined with --sweep"),
            ("--preempt-ab --compare B.json", "--compare cannot be combined with --preempt-ab"),
            ("--preempt-ab --ledger ledger", "--ledger cannot be combined with --preempt-ab"),
            (
                "--preempt-ab --metrics-port 0",
                "--metrics-port cannot be combined with --preempt-ab",
            ),
            ("--preempt-ab --threshold 0.5", "--threshold cannot be combined with --preempt-ab"),
            ("--sweep 500 --threshold 0.5", "--threshold requires --compare"),
            ("--threshold 0.5", "--threshold requires --compare"),
            ("--threshold 0.2", "--threshold requires --compare"),
            ("--metrics-hold 5", "--metrics-hold requires --metrics-port"),
        ],
        ids=[
            "sweep-compare",
            "sweep-rate",
            "preempt-ab-compare",
            "preempt-ab-ledger",
            "preempt-ab-metrics-port",
            "preempt-ab-threshold",
            "sweep-threshold",
            "threshold-without-compare",
            "default-threshold-without-compare",
            "metrics-hold-without-port",
        ],
    )
    def test_a_flag_the_campaign_would_drop_is_a_usage_error(
        self, argv, message, tmp_path, monkeypatch, capsys
    ):
        """The sweep has no baseline to gate (its SLO gate passed without
        reading one, even a missing file) and sets its own load; the
        preemption A/B runs a fixed profile and reads neither a baseline,
        a ledger nor a metrics endpoint; ``--threshold`` tunes only the
        ``--compare`` gate and ``--metrics-hold`` only the endpoint."""
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["serve", "--quick", "--scheme", "optimus", *argv.split()]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []  # nothing ran, nothing written

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--slo-ttft", "-1"], "--slo-ttft: must be positive, got -1.0"),
            (["--slo-tpot", "0"], "--slo-tpot: must be positive, got 0.0"),
            (["--retries", "-2"], "--retries: must be >= 0, got -2"),
            (["--swap-blocks", "-1"], "--swap-blocks: must be >= 0, got -1"),
            (["--swap-bw", "0"], "--swap-bw: must be positive, got 0.0"),
            (["--deadline", "-0.5"], "--deadline: must be positive, got -0.5"),
            (["--max-queue-depth", "0"], "--max-queue-depth: must be >= 1, got 0"),
            (["--sweep", "5,-3"], "--sweep: rates must be positive, got [5.0, -3.0]"),
            (["--sweep", "abc"], "--sweep expects comma-separated rates, got 'abc'"),
        ],
        ids=[
            "slo-ttft",
            "slo-tpot",
            "retries",
            "swap-blocks",
            "swap-bw",
            "deadline",
            "max-queue-depth",
            "sweep-negative",
            "sweep-malformed",
        ],
    )
    def test_a_bad_value_is_a_usage_error(self, argv, message, tmp_path, monkeypatch, capsys):
        """Checked before the metrics endpoint starts or any arm runs: no
        traceback, nothing printed to stdout, nothing written."""
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        argv = ["serve", "--quick", "--metrics-port", "0", "--out", "out.json", *argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flag, content, message",
        [
            ("--alert-rules", None, "alert-rules file {path!r} not found"),
            ("--alert-rules", "[{", "alert-rules file {path!r} is not valid JSON"),
            ("--alert-rules", '[{"name": "x", "nmetric": "y"}]', "alert-rules file {path!r}: "),
            ("--compare", '{"report": "other"}', "serving baseline {path!r} has no 'schemes'"),
        ],
        ids=["missing-file", "invalid-json", "bad-rule", "baseline-without-schemes"],
    )
    def test_an_unreadable_input_file_is_a_usage_error(
        self, flag, content, message, tmp_path, monkeypatch, capsys
    ):
        """Loaded before anything runs, like a bad value: exit 2 and an
        ``error:`` line, so exit 1 stays the SLO gate's verdict."""
        from repro.cli import main

        path = tmp_path / "file.json"
        if content is not None:
            path.write_text(content)
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        argv = ["serve", "--quick", "--metrics-port", "0", "--out", "out.json"]
        assert main([*argv, flag, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: " + message.format(path=str(path)))
        assert captured.out == ""
        assert list(run_dir.iterdir()) == []

    @pytest.mark.parametrize(
        "argv", [["serve", "--quick", "--ab"], ["check", "--trials", "1", "--no-batched"]]
    )
    def test_retired_executor_switches_are_rejected(self, argv, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# ----------------------------------------------------------------------
# lifecycle knobs: validation
# ----------------------------------------------------------------------
class TestServingOptions:
    @pytest.mark.parametrize(
        "kw, flag",
        [
            ({"policy": "spill"}, "--policy"),
            ({"swap_blocks": -1}, "--swap-blocks"),
            ({"swap_gbps": 0.0}, "--swap-bw"),
            ({"deadline_s": 0.0}, "--deadline"),
            ({"deadline_s": -1.0}, "--deadline"),
            ({"max_retries": -1}, "--retries"),
            ({"max_queue_depth": 0}, "--max-queue-depth"),
        ],
    )
    def test_bad_knob_names_the_flag(self, kw, flag):
        with pytest.raises(ValueError, match=flag):
            ServingOptions(**kw)

    def test_defaults_are_disabled(self):
        assert ServingOptions().enabled is False

    @pytest.mark.parametrize(
        "kw",
        [
            {"policy": "preempt"},
            {"deadline_s": 1.0},
            {"max_retries": 1},
            {"max_queue_depth": 4},
        ],
    )
    def test_any_lifecycle_knob_enables(self, kw):
        assert ServingOptions(**kw).enabled is True

    @pytest.mark.parametrize(
        "kw, flag",
        [({"slo_ttft": 0.0}, "--slo-ttft"), ({"slo_tpot": -1.0}, "--slo-tpot")],
    )
    def test_run_serve_validates_slo_targets(self, kw, flag):
        with pytest.raises(ValueError, match=flag):
            run_serve(0, quick=True, requests=4, **kw)


# ----------------------------------------------------------------------
# traffic edge cases
# ----------------------------------------------------------------------
class TestTrafficEdgeCases:
    def test_zero_length_prompt_rejected(self):
        with pytest.raises(ValueError, match="zero-length prompt"):
            Request(rid=0, arrival=0.0, prompt=(), max_new=2)

    def test_generator_rejects_zero_prompt_lengths(self):
        with pytest.raises(ValueError, match="zero-length"):
            TrafficGenerator(0, CFG.vocab_size, prompt_lengths=((0, 4), (0.5, 0.5)))

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline"):
            Request(rid=0, arrival=0.0, prompt=(1,), max_new=1, deadline_s=0.0)
        with pytest.raises(ValueError, match="deadline"):
            TrafficGenerator(0, CFG.vocab_size, deadline_s=-0.5)

    def test_output_exactly_at_kv_capacity_boundary(self):
        # pool: 4 blocks × 4 positions = 16 KV positions per group; the
        # request's kv_positions (prompt + max_new - 1) lands exactly on it
        req = Request(rid=0, arrival=0.0, prompt=tuple(range(1, 9)), max_new=9)
        assert req.kv_positions == 16
        engine = make_engine("optimus", CFG, PARAMS, 2, 2, 4, 4)
        result = engine.run([req])
        assert len(result.completed) == 1
        assert len(result.completed[0].generated) == 9
        assert all(p.in_use == 0 for p in engine.cache.pools.values())

    def test_one_past_kv_capacity_never_admits(self):
        req = Request(rid=0, arrival=0.0, prompt=tuple(range(1, 9)), max_new=10)
        engine = make_engine("optimus", CFG, PARAMS, 2, 2, 4, 4)
        with pytest.raises(ValueError, match="could never be admitted"):
            engine.run([req])

    def test_burst_beyond_queue_bound_sheds_deterministically(self):
        gen = TrafficGenerator(0, CFG.vocab_size, arrival="bursty", burst_size=8, num_requests=16)
        opts = ServingOptions(max_queue_depth=3)

        def shed():
            engine = make_engine("optimus", CFG, PARAMS, 2, 2, 8, 8, options=opts)
            result = engine.run(gen.generate())
            return result.lifecycle

        a, b = shed(), shed()
        assert a == b  # deterministic shed accounting
        assert a["rejected_shed"] > 0
        assert a["shed_rids"] == sorted(a["shed_rids"])  # reported lowest-rid first
        assert len(a["shed_rids"]) == a["rejected_shed"]


# ----------------------------------------------------------------------
# preemption: swap and recompute keep tokens identical
# ----------------------------------------------------------------------
class TestPreemption:
    # 6 requests whose full footprints cannot all be reserved up front:
    # conservative reservation serializes, preemption overlaps them
    REQS = _requests(
        [
            (0.0, (5, 11, 23, 8), 6),
            (0.0, (40, 1, 3), 7),
            (0.0, (7, 9, 13), 6),
            (0.0, (2, 30, 19), 7),
            (0.0, (22, 4), 6),
            (0.0, (17, 6, 2), 6),
        ]
    )

    def _run(self, options):
        engine = make_engine("optimus", CFG, PARAMS, 2, 6, 4, 4, options=options)
        result = engine.run(self.REQS)
        tokens = {
            s.request.rid: list(s.generated)
            for s in sorted(result.completed, key=lambda s: s.request.rid)
        }
        return tokens, result

    def test_swap_path_preserves_tokens(self):
        baseline, _ = self._run(None)
        opts = ServingOptions(policy="preempt", swap_blocks=16)
        tokens, result = self._run(opts)
        assert tokens == baseline
        lc = result.lifecycle
        assert lc["preempted"] > 0 and lc["swapped_out"] > 0
        assert lc["swapped_in"] == lc["swapped_out"]
        assert result.cache_stats["host_swap"]["swap_out_count"] == lc["swapped_out"]
        assert "swap" in result.attribution
        assert result.attribution["swap"] > 0.0

    def test_recompute_path_preserves_tokens(self):
        baseline, _ = self._run(None)
        opts = ServingOptions(policy="preempt", swap_blocks=0)
        tokens, result = self._run(opts)
        assert tokens == baseline
        lc = result.lifecycle
        assert lc["preempted"] > 0 and lc["recomputed"] > 0
        assert lc["recomputed_tokens"] > 0
        assert lc["swapped_out"] == 0

    def test_preempt_runs_are_deterministic(self):
        opts = ServingOptions(policy="preempt", swap_blocks=16)
        _, a = self._run(opts)
        _, b = self._run(opts)
        assert a.lifecycle == b.lifecycle
        assert a.attribution == b.attribution
        assert a.clock == b.clock

    def test_attribution_still_telescopes_under_preemption(self):
        for swap_blocks in (0, 16):
            opts = ServingOptions(policy="preempt", swap_blocks=swap_blocks)
            _, result = self._run(opts)
            assert sum(result.attribution.values()) == pytest.approx(result.clock, rel=1e-9)

    def test_swap_meters_drain(self):
        opts = ServingOptions(policy="preempt", swap_blocks=16)
        engine = make_engine("optimus", CFG, PARAMS, 2, 6, 4, 4, options=opts)
        engine.run(self.REQS)
        assert engine.swap is not None
        assert engine.swap.blocks_held == 0
        assert engine.swap.peak_blocks > 0
        assert engine.swap.meter.current == 0


# ----------------------------------------------------------------------
# deadlines, retries, backpressure
# ----------------------------------------------------------------------
class TestDeadlinesAndRetries:
    def test_queued_expiry_rejects_without_retry(self):
        # slot 0 is busy with a long request; rid 1's deadline lapses queued
        reqs = [
            Request(rid=0, arrival=0.0, prompt=(5, 11), max_new=12),
            Request(rid=1, arrival=0.0, prompt=(7,), max_new=2, deadline_s=1e-6),
        ]
        opts = ServingOptions(deadline_s=None)
        engine = make_engine("megatron", CFG, PARAMS, 2, 1, 8, 16, options=opts)
        result = engine.run(reqs)
        lc = result.lifecycle
        assert lc["rejected_deadline"] == 1
        assert lc["timeout_rids"] == [1]
        assert {s.request.rid for s in result.completed} == {0}

    def test_midflight_timeout_aborts_and_frees_kv(self):
        reqs = [Request(rid=0, arrival=0.0, prompt=(5, 11), max_new=50, deadline_s=1e-6)]
        opts = ServingOptions(max_retries=0, deadline_s=None)
        engine = make_engine("optimus", CFG, PARAMS, 2, 2, 8, 16, options=opts)
        result = engine.run(reqs)
        assert result.lifecycle["timed_out"] == 1
        assert not result.completed
        assert all(p.in_use == 0 for p in engine.cache.pools.values())

    def test_retry_budget_is_spent_then_exhausted(self):
        reqs = [Request(rid=0, arrival=0.0, prompt=(5,), max_new=50, deadline_s=1e-6)]
        opts = ServingOptions(max_retries=2)
        engine = make_engine("optimus", CFG, PARAMS, 2, 2, 8, 16, options=opts)
        result = engine.run(reqs)
        lc = result.lifecycle
        assert lc["retried"] == 2  # budget fully spent
        assert lc["timeout_rids"] == [0]  # then the request is abandoned

    def test_default_report_has_no_lifecycle_sections(self):
        rep = run_serve(0, quick=True, requests=4)
        assert "lifecycle" not in rep["serving"]
        for e in rep["schemes"]:
            assert "lifecycle" not in e
            assert "swap" not in e["phases_s"]
            assert "recovery" not in e["phases_s"]

    def test_lifecycle_report_sections_appear_when_enabled(self):
        rep = run_serve(
            0,
            quick=True,
            requests=4,
            policy="preempt",
            swap_blocks=8,
            deadline=5.0,
            retries=1,
            max_queue_depth=8,
        )
        assert rep["serving"]["lifecycle"]["policy"] == "preempt"
        assert rep["serving"]["lifecycle"]["swap_blocks"] == 8
        for e in rep["schemes"]:
            lc = e["lifecycle"]
            for key in ("rejected_shed", "rejected_deadline", "retried", "preempted", "timed_out"):
                assert key in lc
