"""The decode step's stacked embedding forward and greedy sampler equal their
per-rank paths: outputs bit for bit and the raw trace event list with ``==``
(forced per rank through the one gate, ``summa._batched_ready``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import collectives
from repro.comm.group import ProcessGroup
from repro.config import tiny_config
from repro.core import embedding as core_embedding
from repro.core import summa
from repro.core.buffers import BufferManager
from repro.core.embedding import Embedding2D
from repro.megatron import embedding as megatron_embedding
from repro.megatron.embedding import VocabParallelEmbedding
from repro.mesh.mesh import Mesh
from repro.mesh.partition import (
    assemble_any,
    distribute_blocked_2d,
    distribute_replicated_1d,
    distribute_row_blocked,
    distribute_sharded_1d,
)
from repro.nn.init import init_transformer_params
from repro.runtime.simulator import Simulator
from repro.serving.engine import LaneInput, make_engine

SCHEMES = ("optimus", "megatron")


def _force_per_rank(monkeypatch):
    monkeypatch.setattr(summa, "_batched_ready", lambda sim: False)


def _counted(monkeypatch, module, name):
    """Count the calls of ``module.name`` (which path ran)."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def _observed(sim):
    return sim.tracer.events, sim.watermarks()


# ----------------------------------------------------------------------
# embedding forward
# ----------------------------------------------------------------------
def _table(v, h):
    """Random rows, a few of them holding -0.0 (the lookup must add them
    onto zeros, which gives +0.0) and a zero row."""
    table = np.random.default_rng(3).standard_normal((v, h))
    table[1] = -0.0
    table[v - 1, ::2] = -0.0
    table[v // 2] = 0.0
    return table


def _ids(v, b, s):
    """Every stripe's tokens, the -0.0 rows, repeats and a mixed row."""
    ids = np.random.default_rng(4).integers(0, v, size=(b, s))
    ids[0, :3] = (1, v - 1, 1)
    ids[-1, -2:] = (v // 2, 0)
    return ids


def _embed(scheme, q):
    """Embedding forward on a fresh traced simulator: the output's global
    value, its key order, the buffers' usage and what the simulator saw."""
    cfg = tiny_config()
    if scheme == "optimus":
        v, h, b, s = 5 * q, 4 * q, 2 * q, 3
        sim = Simulator.for_mesh(q, trace=True)
        owner = Mesh(sim, q)
        layer = Embedding2D(owner, cfg, _table(v, h), BufferManager(sim))
        ids = distribute_row_blocked(owner, _ids(v, b, s))
    else:
        p = q * q
        v, h, b, s = 3 * p, 5, 2, 3
        sim = Simulator.for_flat(p, trace=True)
        owner = ProcessGroup(sim, range(p))
        layer = VocabParallelEmbedding(owner, cfg, _table(v, h), BufferManager(sim))
        ids = distribute_replicated_1d(owner, _ids(v, b, s))
    out = layer.forward(ids)
    usage = [layer.buffers.usage("forward", r) for r in sim.ranks]
    return assemble_any(out), list(out.ranks), usage, _observed(sim)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_stacked_embedding_forward_is_the_per_rank_one(scheme, q, monkeypatch):
    module = core_embedding if scheme == "optimus" else megatron_embedding
    lookups = _counted(monkeypatch, module, "stripe_lookup")
    stacked = _embed(scheme, q)
    assert not lookups  # one gather for the mesh or group
    _force_per_rank(monkeypatch)
    per_rank = _embed(scheme, q)
    assert len(lookups) == (q**3 if scheme == "optimus" else q * q)
    assert stacked[0].tobytes() == per_rank[0].tobytes()
    assert stacked[1:] == per_rank[1:]
    # the table's -0.0 entries are looked up as +0.0 on both paths
    assert (stacked[0] == 0).any() and not np.signbit(stacked[0][stacked[0] == 0]).any()


# ----------------------------------------------------------------------
# greedy sampler
# ----------------------------------------------------------------------
def _engine(scheme, q, cfg, dtype="float64", trace=True):
    params = init_transformer_params(cfg, seed=1, dtype=dtype)
    return make_engine(scheme, cfg, params, q, 2 * q, block_size=8, blocks_per_group=4, trace=trace)


def _lanes(engine, width):
    """``width`` lanes in every row (its slots), and the row lists."""
    rows = []
    for r in range(len(engine.rows)):
        first = r * engine.slots_per_row
        rows.append([LaneInput(slot=first + w, token=0, pos=0) for w in range(width)])
    return rows


def _logits(engine, values):
    owner = engine.model.owner
    if engine.scheme == "optimus":
        return distribute_blocked_2d(owner, values)
    return distribute_sharded_1d(owner, values, axis=1)


def _sample(scheme, q, values, cfg, width):
    engine = _engine(scheme, q, cfg, dtype=str(values.dtype))
    sampled = engine._sample_greedy(_logits(engine, values), _lanes(engine, width))
    return sampled, _observed(engine.sim)


def _decode_config(q):
    # Megatron runs p = q² ranks: heads, vocabulary and ffn divisible by p
    if q == 2:
        return tiny_config(num_heads=4)
    return tiny_config(hidden_size=36, num_heads=9, vocab_size=72)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_stacked_sampler_is_the_per_rank_one(scheme, q, monkeypatch):
    gathers = _counted(monkeypatch, collectives, "all_gather")
    cfg = _decode_config(q)
    width = 2
    rows = q if scheme == "optimus" else 1
    values = np.random.default_rng(5).standard_normal((rows * width, cfg.vocab_size))
    # ties across stripes (the lowest index wins), -0.0 tying +0.0, and a
    # winner in the last stripe
    values[0] = 0.0
    values[0, cfg.vocab_size - 1] = -0.0
    values[1, [2, cfg.vocab_size - 2]] = 9.0
    values[-1, -1] = 10.0
    stacked = _sample(scheme, q, values, cfg, width)
    assert not gathers  # the pairs' all-gathers are replayed charges
    _force_per_rank(monkeypatch)
    per_rank = _sample(scheme, q, values, cfg, width)
    assert len(gathers) == rows
    assert stacked == per_rank
    expect = values.argmax(axis=1)
    lanes = [e for row in _lanes(_engine(scheme, q, cfg, trace=False), width) for e in row]
    assert {e.slot: int(expect[k]) for k, e in enumerate(lanes)} == stacked[0]


@pytest.mark.parametrize("path", ["stacked", "per_rank"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_float16_greedy_decoding_stays_in_the_vocabulary(scheme, path, monkeypatch):
    """A float16 index holds integers exactly only up to 2048: the last
    token's index must not round up to the vocabulary size."""
    if path == "per_rank":
        _force_per_rank(monkeypatch)
    cfg = tiny_config(num_heads=4, vocab_size=4096)
    engine = _engine(scheme, 2, cfg, dtype="float16", trace=False)
    width = 1 if scheme == "optimus" else 2
    values = np.zeros((len(engine.rows) * width, cfg.vocab_size), np.float16)
    values[:, 4095] = 1.0
    sampled = engine._sample_greedy(_logits(engine, values), _lanes(engine, width))
    assert sorted(sampled.values()) == [4095] * len(values)
