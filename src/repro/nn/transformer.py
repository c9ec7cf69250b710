"""The transformer stack, written once for every tensor-parallel scheme.

The paper times the *same* N-layer architecture under both schemes (§5);
they differ only in how a matmul, a layer norm, the embedding / LM head and
the loss are sharded (§3.2 against the column/row split of §2.2).  So
everything above those leaves lives here — self-attention, the MLP, the
pre-LN layer, the model with its one checkpointed forward loop and one
backward loop, shared by the LM, classification and stem entry points — and
a scheme is a family of subclasses whose class attributes name its leaves
(``qkv_cls``, ``norm_cls``, ``embedding_cls``, …) plus the few accounting
rules that really differ, kept as overridable methods.  The leaves are
written once too (:mod:`repro.nn.leaves`), each scheme supplying their
products.
:mod:`repro.core` (Optimus 2-D) and :mod:`repro.megatron` (1-D) are the two
families; ``docs/parallelism.md`` tabulates them.  Leaves are class
attributes here; everything above the model reads the scheme's record in
:data:`repro.schemes.SCHEMES`, so a new scheme is one entry there plus its
leaves.

``owner`` throughout is what :class:`~repro.mesh.dtensor.DTensor` calls its
owner: the :class:`~repro.mesh.mesh.Mesh` or flat
:class:`~repro.comm.group.ProcessGroup` the shards live on — both expose
``.sim`` and ascending ``.ranks``.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Optional

import numpy as np

from repro.backend import ops
from repro.backend.shape_array import ShapeArray
from repro.config import ModelConfig
from repro.core.buffers import BufferManager
from repro.core.param import DistModule
from repro.mesh.dtensor import DTensor, on_stacks, one_placeholder, rank_map
from repro.reference import functional as F
from repro.reference.attention import (
    attention_bwd,
    attention_fwd,
    fused_attention_bwd,
    fused_attention_fwd,
)
from repro.runtime.events import NULL_SPAN
from repro.runtime.tape import Tape

#: clock-model cost (FLOPs per element) of fused elementwise kernels
ELEMWISE_COST = {"add": 1.0, "gelu": 10.0, "softmax": 8.0, "layernorm": 8.0}

_size = attrgetter("size")


def hold(buffers: Optional[BufferManager], region: str, dt: DTensor) -> None:
    """Account every shard of ``dt`` in a buffer region."""
    if buffers is None:
        return
    buffers.hold_many(region, [(ranks, (nbytes,)) for nbytes, ranks in dt.runs(ops.nbytes)])


def charge_elementwise(dt: DTensor, kind: str) -> None:
    """Charge one fused elementwise kernel over ``dt`` to each owning device."""
    cost = ELEMWISE_COST[kind]
    charge_compute = dt.owner.sim.charge_compute
    for size, ranks in dt.runs(_size):
        charge_compute(ranks, ((cost * size, "elementwise"),))


# ======================================================================
# self-attention — paper §3.2.1
# ======================================================================
def _stack_out(owner, layout, x: DTensor, cols: int, dtype, global_shape):
    """Where rank-local results of ``cols`` columns over ``x``'s blocks go
    when :func:`on_stacks` holds for ``x`` and they share its dtype: a new
    block stack shaped like ``x``'s, as a DTensor keyed in mesh order whose
    shards are the slots each rank writes.  Otherwise None, and each rank
    returns a fresh array."""
    if not on_stacks(owner, x) or x.blocks.dtype != dtype:
        return None
    blocks = np.empty(x.blocks.shape[:-1] + (cols,), dtype)
    return DTensor.from_blocks(owner, layout, blocks, global_shape, owner.ranks)


def _heads_to_rows(heads, slot):
    """``[b, n, s, d]`` head tensors (the context, or Q/K/V's three
    gradients) as the ``[b·s, n·k·d]`` rows a linear reads, heads
    interleaved as the QKV linear lays them out: written into ``slot`` (a
    block-stack slot), or a fresh array when it is None."""
    b, n, s, d = heads[0].shape
    k = len(heads)
    if slot is not None:
        rows = slot.reshape((b, s, n, k, d))
        for i, t in enumerate(heads):
            rows[:, :, :, i] = t.transpose(0, 2, 1, 3)
        return slot
    parts = [t.transpose(0, 2, 1, 3) for t in heads]
    rows = parts[0] if k == 1 else ops.stack(parts, axis=3)
    return rows.reshape((b * s, n * k * d))


class SelfAttention(DistModule):
    """QKV linear → head-local attention → output linear.

    Every scheme keeps s whole on a device, so ``softmax(QKᵀ)V`` is fully
    local: each rank attends over the ``b_loc`` sequences × ``n_loc`` heads
    it owns.  A scheme's ``forward(x, batch_size)`` states those two numbers
    and calls :meth:`_forward`.
    """

    qkv_cls = out_cls = None  #: the linear leaves
    layout = None  #: layout of the context and dQKV activations
    holds_dqkv = False  #: account the dQKV shards in the ``backward`` region

    _cache_attrs = ("_saved",)

    def __init__(
        self,
        owner,
        cfg: ModelConfig,
        name: str,
        wqkv,
        bqkv,
        wo,
        bo,
        buffers: Optional[BufferManager] = None,
        fused: bool = False,
        attention_chunk: int = 64,
    ):
        super().__init__()
        self.owner = owner
        self.cfg = cfg
        self.name = name
        self.buffers = buffers
        self.fused = fused
        self.attention_chunk = attention_chunk
        self.qkv_linear = self.register_module(
            self.qkv_cls(
                owner, f"{name}.qkv", wqkv, bqkv, buffers,
                weight_name=f"{name}.wqkv", bias_name=f"{name}.bqkv",
            )
        )
        self.out_linear = self.register_module(
            self.out_cls(
                owner, f"{name}.out", wo, bo, buffers,
                weight_name=f"{name}.wo", bias_name=f"{name}.bo",
            )
        )
        self._saved = None

    def _forward(self, x: DTensor, b_loc: int, n_loc: int) -> DTensor:
        s, d = self.cfg.seq_len, self.cfg.head_dim
        T, h = x.global_shape
        ranks = self.owner.ranks

        qkv = self.qkv_linear.forward(x)  # [T, 3h]
        out = _stack_out(self.owner, self.layout, qkv, n_loc * d, qkv.dtype, (T, h))

        def attend(local, slot=None):
            local = local.reshape((b_loc, s, n_loc, 3, d))
            qh = local[:, :, :, 0, :].transpose(0, 2, 1, 3)  # [b_loc, n_loc, s, d]
            kh = local[:, :, :, 1, :].transpose(0, 2, 1, 3)
            vh = local[:, :, :, 2, :].transpose(0, 2, 1, 3)
            if self.fused:
                ctx, m_stat, l_stat = fused_attention_fwd(
                    qh, kh, vh, chunk=self.attention_chunk
                )
                stats = (ctx, m_stat, l_stat)
            else:
                ctx, probs = attention_fwd(qh, kh, vh)
                stats = probs
            return (qh, kh, vh, stats), _heads_to_rows((ctx,), slot)

        saved, ctx_shards = {}, {}
        slots = () if out is None else (out.shards,)
        for rank, (fwd, ctx) in rank_map(attend, ranks, qkv.shards, *slots).items():
            saved[rank], ctx_shards[rank] = fwd, ctx
        # ``attend`` reshapes every rank's shard to the same [b_loc, n_loc, s, d]
        # heads, so one rank's statistics size every rank's charges
        stats = saved[ranks[0]][3]
        gemm = (2.0 * b_loc * n_loc * s * s * d, "gemm")  # QKᵀ, and probs·V
        if self.fused:
            held = ops.nbytes(stats[1]) + ops.nbytes(stats[2])
            charges = (gemm, gemm)
        else:
            held = ops.nbytes(stats)
            charges = ((ELEMWISE_COST["softmax"] * stats.size, "elementwise"), gemm, gemm)
        self.owner.sim.charge_compute(ranks, charges)
        if self.buffers is not None:
            ctx_bytes = ops.nbytes(ctx_shards[ranks[0]])
            self.buffers.hold_many("forward", [(ranks, (held, ctx_bytes))])
        self._saved = (saved, b_loc, s, n_loc, d)
        if out is None:
            out = DTensor(self.owner, self.layout, ctx_shards, (T, h))
        return self.out_linear.forward(out)

    def backward(self, dy: DTensor) -> DTensor:
        if self._saved is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        saved, b_loc, s, n_loc, d = self._saved
        T, h = dy.global_shape
        ranks = self.owner.ranks

        d_ctx = self.out_linear.backward(dy)  # [T, h]
        dtype = saved[ranks[0]][0].dtype  # of the QKV heads
        dqkv = _stack_out(self.owner, self.layout, d_ctx, n_loc * 3 * d, dtype, (T, 3 * h))

        def attend_bwd(dc, fwd, slot=None):
            qh, kh, vh, stats = fwd
            dc = dc.reshape((b_loc, s, n_loc, d)).transpose(0, 2, 1, 3)
            if self.fused:
                d_qkv = fused_attention_bwd(
                    qh, kh, vh, *stats, dc, chunk=self.attention_chunk
                )
            else:
                d_qkv = attention_bwd(qh, kh, vh, stats, dc)
            return _heads_to_rows(d_qkv, slot)

        slots = () if dqkv is None else (dqkv.shards,)
        shards = rank_map(attend_bwd, ranks, d_ctx.shards, saved, *slots)
        if dqkv is None:
            dqkv = DTensor(self.owner, self.layout, shards, (T, 3 * h))
        gemm = (2.0 * b_loc * n_loc * s * s * d, "gemm")
        if self.fused:  # score recompute + four gradient products
            charges = (gemm,) * 5
        else:
            probs = saved[ranks[0]][3]  # same size on every rank, see _forward
            charges = ((ELEMWISE_COST["softmax"] * probs.size, "elementwise"),) + (gemm,) * 4
        self.owner.sim.charge_compute(ranks, charges)
        if self.holds_dqkv:
            hold(self.buffers, "backward", dqkv)
        self._saved = None
        return self.qkv_linear.backward(dqkv)


# ======================================================================
# MLP
# ======================================================================
def _gelu(pre: DTensor):
    """GELU over ``pre`` and the ``1 + erf(x/√2)`` term its backward reuses,
    kept raw — ``pre``'s block stack's when it is on one, else ``{rank:
    term}`` — so a forward-only pass builds no second DTensor."""
    owner = pre.owner
    if on_stacks(owner, pre):
        act, term = F.gelu_fwd(pre.blocks)
        return DTensor.from_blocks(owner, pre.layout, act, pre.global_shape, pre.ranks), term
    parts = rank_map(F.gelu_fwd, pre.shards, pre.shards)
    act = {rank: a for rank, (a, _) in parts.items()}
    return DTensor(owner, pre.layout, act, pre.global_shape), {
        rank: term for rank, (_, term) in parts.items()
    }


def _gelu_backward(pre: DTensor, term, d_act: DTensor) -> DTensor:
    """d pre from :func:`_gelu`'s erf term, keyed like ``pre``."""
    owner = pre.owner
    if type(term) is not dict:  # the forward ran on pre's stack
        if on_stacks(owner, pre, d_act):
            d_pre = F.gelu_bwd_from(pre.blocks, term, d_act.blocks)
            return DTensor.from_blocks(owner, pre.layout, d_pre, pre.global_shape, pre.ranks)
        term = DTensor.from_blocks(owner, pre.layout, term, pre.global_shape, pre.ranks).shards
    shards = rank_map(F.gelu_bwd_from, pre.shards, pre.shards, term, d_act.shards)
    return DTensor(owner, pre.layout, shards, pre.global_shape)


class MLP(DistModule):
    """``h → 4h → h`` perceptron: linear, local GELU, linear."""

    fc1_cls = fc2_cls = None  #: the linear leaves

    _cache_attrs = ("_pre", "_gelu_term")

    def __init__(
        self,
        owner,
        name: str,
        w1,
        b1,
        w2,
        b2,
        buffers: Optional[BufferManager] = None,
    ):
        super().__init__()
        self.owner = owner
        self.name = name
        self.buffers = buffers
        self.fc1 = self.register_module(
            self.fc1_cls(
                owner, f"{name}.fc1", w1, b1, buffers,
                weight_name=f"{name}.w1", bias_name=f"{name}.b1",
            )
        )
        self.fc2 = self.register_module(
            self.fc2_cls(
                owner, f"{name}.fc2", w2, b2, buffers,
                weight_name=f"{name}.w2", bias_name=f"{name}.b2",
            )
        )
        self._pre: Optional[DTensor] = None
        self._gelu_term = None

    def forward(self, x: DTensor) -> DTensor:
        pre = self.fc1.forward(x)
        self._pre = pre
        act, self._gelu_term = _gelu(pre)
        charge_elementwise(act, "gelu")
        hold(self.buffers, "forward", act)
        return self.fc2.forward(act)

    def backward(self, dy: DTensor) -> DTensor:
        if self._pre is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        d_act = self.fc2.backward(dy)
        d_pre = _gelu_backward(self._pre, self._gelu_term, d_act)
        charge_elementwise(d_pre, "gelu")
        self._pre = self._gelu_term = None
        return self.fc1.backward(d_pre)


# ======================================================================
# transformer layer
# ======================================================================
class TransformerLayer(DistModule):
    """Pre-LN transformer layer: x + Attn(LN1(x)), then x + MLP(LN2(x))."""

    norm_cls = attn_cls = mlp_cls = None  #: the blocks

    def __init__(
        self,
        owner,
        cfg: ModelConfig,
        layer_index: int,
        params: dict,
        buffers: Optional[BufferManager] = None,
        fused_attention: bool = False,
        attention_chunk: int = 64,
    ):
        super().__init__()
        self.owner = owner
        self.cfg = cfg
        self.index = layer_index
        self.buffers = buffers
        pre = f"layer{layer_index}"
        self.ln1 = self.register_module(
            self.norm_cls(
                owner, f"{pre}.ln1", params[f"{pre}.ln1.gamma"],
                params[f"{pre}.ln1.beta"], cfg.ln_eps, buffers,
            )
        )
        self.attn = self.register_module(
            self.attn_cls(
                owner, cfg, f"{pre}.attn",
                params[f"{pre}.attn.wqkv"], params[f"{pre}.attn.bqkv"],
                params[f"{pre}.attn.wo"], params[f"{pre}.attn.bo"], buffers,
                fused=fused_attention, attention_chunk=attention_chunk,
            )
        )
        self.ln2 = self.register_module(
            self.norm_cls(
                owner, f"{pre}.ln2", params[f"{pre}.ln2.gamma"],
                params[f"{pre}.ln2.beta"], cfg.ln_eps, buffers,
            )
        )
        self.mlp = self.register_module(
            self.mlp_cls(
                owner, f"{pre}.mlp",
                params[f"{pre}.mlp.w1"], params[f"{pre}.mlp.b1"],
                params[f"{pre}.mlp.w2"], params[f"{pre}.mlp.b2"], buffers,
            )
        )

    def forward(self, x: DTensor, batch_size: int) -> DTensor:
        attn_out = self.attn.forward(self.ln1.forward(x), batch_size)
        x_mid = x + attn_out
        charge_elementwise(x_mid, "add")
        hold(self.buffers, "forward", x_mid)
        mlp_out = self.mlp.forward(self.ln2.forward(x_mid))
        out = x_mid + mlp_out
        charge_elementwise(out, "add")
        hold(self.buffers, "forward", out)
        return out

    def backward(self, dy: DTensor) -> DTensor:
        d_ln2_out = self.mlp.backward(dy)
        d_xmid = dy + self.ln2.backward(d_ln2_out)
        d_ln1_out = self.attn.backward(d_xmid)
        dx = d_xmid + self.ln1.backward(d_ln1_out)
        charge_elementwise(dx, "add")
        return dx


# ======================================================================
# the model
# ======================================================================
class TransformerModel(DistModule):
    """Embedding → N layers → final LN → tied LM head → cross-entropy, with
    activation checkpointing.

    With checkpointing (the paper's default) the forward keeps only each
    layer's *input* (``checkpoint`` region) and resets the ``forward``
    region after every layer; the backward recomputes each layer from its
    checkpoint before running its backward — the recompute re-pays the
    layer's communication, which is where Table 1's backward rows come from.

    On a dry run the layer passes of one iteration are taped
    (:meth:`_layer_pass`): identical layers and every checkpoint recompute
    replay the first forward's accounting instead of re-running the layer.
    """

    layer_cls = norm_cls = None  #: the blocks
    embedding_cls = lm_head_cls = loss_cls = cls_head_cls = None  #: the leaves

    def __init__(
        self,
        owner,
        cfg: ModelConfig,
        params_global: Dict[str, object],
        checkpoint_activations: bool = True,
        buffers: Optional[BufferManager] = None,
        stem_only: bool = False,
        fused_attention: bool = False,
        attention_chunk: int = 64,
    ):
        super().__init__()
        self.owner = owner
        self.sim = owner.sim
        self.cfg = cfg
        self.checkpoint = checkpoint_activations
        self.stem_only = stem_only
        self.fused_attention = fused_attention
        self.buffers = buffers if buffers is not None else BufferManager(
            self.sim, ranks=owner.ranks
        )
        self.embedding = None
        self.final_ln = None
        self.lm_head = None
        self.loss_fn = None
        self.cls_head = None
        if not stem_only:
            self.embedding = self.register_module(
                self.embedding_cls(
                    owner, cfg, params_global["embedding.table"], self.buffers
                )
            )
        self.layers: List[TransformerLayer] = [
            self.register_module(
                self.layer_cls(
                    owner, cfg, l, params_global, self.buffers,
                    fused_attention=fused_attention,
                    attention_chunk=attention_chunk,
                )
            )
            for l in range(cfg.num_layers)
        ]
        if not stem_only:
            self.final_ln = self.register_module(
                self.norm_cls(
                    owner, "final_ln", params_global["final_ln.gamma"],
                    params_global["final_ln.beta"], cfg.ln_eps, self.buffers,
                )
            )
            self.lm_head = self.register_module(
                self.lm_head_cls(owner, self.embedding, self.buffers)
            )
            self.loss_fn = self.loss_cls(owner, self.buffers)
            if "cls_head.weight" in params_global:
                self.cls_head = self.register_module(
                    self.cls_head_cls(
                        owner, cfg, params_global["cls_head.weight"],
                        params_global["cls_head.bias"], self.buffers,
                    )
                )

        self._ckpt_inputs: List[object] = []
        self._batch_size: Optional[int] = None
        self._stem_out: Optional[DTensor] = None
        #: this iteration's layer tapes (see :meth:`_layer_pass`), or None
        self._tapes: Optional[dict] = None

    # ------------------------------------------------------------------
    # per-scheme rules
    # ------------------------------------------------------------------
    def _validate(self, batch_size: int, include_vocab: bool) -> None:
        """Raise unless ``cfg`` and ``batch_size`` divide over the devices."""
        raise NotImplementedError

    def distribute_tokens(self, ids) -> DTensor:
        """Place a global integer array (ids ``[b, s]``, labels ``[b, s]`` or
        ``[b]``; numeric or ShapeArray) in the scheme's input layout."""
        raise NotImplementedError

    def _synthetic_activation(self, batch_size: int) -> DTensor:
        """A ``[b·s, h]`` stem input in the scheme's activation layout."""
        raise NotImplementedError

    def _store_checkpoint(self, x: DTensor):
        """Keep a layer input for the backward recompute; returns the entry
        :meth:`_restore_checkpoint` turns back into the input."""
        hold(self.buffers, "checkpoint", x)
        return x

    def _restore_checkpoint(self, entry) -> DTensor:
        return entry

    def _before_backward(self) -> None:
        """Runs once between the head's backward and the layer loop."""

    def _between_layers(self, dx: DTensor) -> DTensor:
        """Hand a layer's input gradient to the layer below."""
        return dx

    def _release_checkpoints(self) -> None:
        self.buffers.reset_region("checkpoint")

    # ------------------------------------------------------------------
    # the one forward loop and the one backward loop
    # ------------------------------------------------------------------
    def _begin_iteration(self, batch_size: int, include_vocab: bool = True) -> None:
        self._validate(batch_size, include_vocab)
        # §3.2.3: the param_grad region is reused every iteration, not grown
        self.buffers.reset_region("param_grad")
        self._batch_size = batch_size
        self._tapes = {} if self.sim.backend == "shape" else None

    def _layer_pass(
        self, layer: TransformerLayer, x: DTensor, batch_size: Optional[int]
    ) -> DTensor:
        """``layer.forward(x, batch_size)``, or ``layer.backward(x)`` when
        ``batch_size`` is None — from this iteration's tape of an identical
        pass when there is one.

        A dry-run pass changes simulated state only through the recorded
        entry points of :class:`~repro.runtime.tape.Tape`, so on an
        untraced, unchecked shape run whose ``x`` is one interned
        placeholder (:func:`~repro.mesh.dtensor.one_placeholder`, under the
        batched-execution gate) the first pass per key is recorded: the
        layer's class and parameter signature, ``x``'s layout, global shape
        and placeholder, whether the pass skips the matmul outputs (§3.2.3
        option 3: a recompute with ``skip_matmul_outputs`` on, the one
        reading of the recompute flag, in ``Linear2D``) and the direction.
        Any other checkpoint recompute is its layer's forward again and
        replays the forward's tape.  A later pass with the same key replays
        the tape onto its own parameters, then takes the recorded saved
        activations (forward) or drops its own (backward), and returns the
        recorded result.  A poisoned tape is not kept."""
        backward = batch_size is None
        tapes, sim = self._tapes, self.sim
        ph = None if tapes is None or sim.is_enabled else one_placeholder(self.owner, x)
        if ph is None:
            return layer.backward(x) if backward else layer.forward(x, batch_size)
        params = layer.parameters()
        buffers = self.buffers
        key = (
            type(layer),
            tuple((p.data.layout, p.data.global_shape, p.data.dtype) for p in params),
            x.layout, x.global_shape, ph,
            buffers.in_recompute and buffers.skip_matmul_outputs, backward,
        )
        taped = tapes.get(key)
        if taped is not None:
            tape, out, caches = taped
            tape.apply(params)
            if backward:
                layer.drop_caches()
            else:
                layer.restore_caches(caches)
            return out
        tape = sim.tape = Tape(sim, params)
        try:
            out = layer.backward(x) if backward else layer.forward(x, batch_size)
        except BaseException:
            if not tape.poisoned:
                tape.poison()  # make what the pass recorded before it raised
            raise
        finally:
            sim.tape = None
        if not tape.poisoned:
            tape.apply(params)
            tapes[key] = (tape, out, None if backward else layer.cache_state())
        return out

    def _layers_forward(self, x: DTensor) -> DTensor:
        b = self._batch_size
        tr = self.sim.tracer
        self._ckpt_inputs = []
        for layer in self.layers:
            if self.checkpoint:
                self._ckpt_inputs.append(self._store_checkpoint(x))
            with tr.span("layer", self.owner.ranks, "layer", index=layer.index,
                         phase="forward") if tr.enabled else NULL_SPAN:
                x = self._layer_pass(layer, x, b)
            if self.checkpoint:
                layer.drop_caches()
                self.buffers.reset_region("forward")
        return x

    def _layers_backward(self, dx: DTensor, on_layer_backward=None) -> DTensor:
        b = self._batch_size
        tr = self.sim.tracer
        for layer in reversed(self.layers):
            with tr.span("layer", self.owner.ranks, "layer", index=layer.index,
                         phase="backward") if tr.enabled else NULL_SPAN:
                if self.checkpoint:
                    x_in = self._restore_checkpoint(self._ckpt_inputs.pop())
                    self.buffers.in_recompute = True
                    self._layer_pass(layer, x_in, b)  # recompute (paper's 3× backward cost)
                    self.buffers.in_recompute = False
                dx = self._between_layers(self._layer_pass(layer, dx, None))
            if on_layer_backward is not None:
                on_layer_backward(layer)
            if self.checkpoint:
                self.buffers.reset_region("forward")
                self.buffers.reset_region("backward")
        return dx

    def _end_iteration(self) -> None:
        if self.checkpoint:
            self._release_checkpoints()
        self._batch_size = None
        self._tapes = None

    # ------------------------------------------------------------------
    # language modelling
    # ------------------------------------------------------------------
    def synthetic_batch(self, batch_size: int, seed: int = 0):
        """A reproducible (ids, labels) pair matching the simulator backend."""
        b, s, v = batch_size, self.cfg.seq_len, self.cfg.vocab_size
        if self.sim.backend == "shape":
            return ShapeArray((b, s), "int64"), ShapeArray((b, s), "int64")
        rng = np.random.default_rng(seed)
        return (
            rng.integers(0, v, size=(b, s)),
            rng.integers(0, v, size=(b, s)),
        )

    def _trunk(self, ids) -> DTensor:
        """Embedding → the N layers → final LN: what both heads read."""
        b, s = ids.shape
        if s != self.cfg.seq_len:
            raise ValueError(f"sequence length {s} != config seq_len {self.cfg.seq_len}")
        self._begin_iteration(b)
        x = self._layers_forward(self.embedding.forward(self.distribute_tokens(ids)))
        return self.final_ln.forward(x)

    def _backward_from(self, head_backward, on_layer_backward=None) -> None:
        """The one backward tail: the head's gradient (``head_backward()``)
        through the final LN, the layer loop and the embedding."""
        if self._batch_size is None:
            raise RuntimeError("backward before forward")
        dx = self.final_ln.backward(head_backward())
        self._before_backward()
        self.embedding.backward(self._layers_backward(dx, on_layer_backward))
        self._end_iteration()

    def forward(self, ids, labels=None):
        """ids/labels are global [b, s] arrays (numeric or ShapeArray).

        Returns the scalar mean loss when labels are given, else the logits
        DTensor.
        """
        logits = self.lm_head.forward(self._trunk(ids))
        if labels is None:
            return logits
        return self.loss_fn.forward(logits, self.distribute_tokens(labels))

    def backward(self, on_layer_backward=None) -> None:
        """Backward from the loss; parameter gradients accumulate in place.

        ``on_layer_backward(layer)``, when given, fires right after each
        transformer layer's backward completes — the hook behind §3.2.3
        option 2 (immediate per-layer parameter updates, which let the
        parameter-gradient buffer be reset layer by layer instead of
        accumulating all N layers' gradients).
        """
        self._backward_from(
            lambda: self.lm_head.backward(self.loss_fn.backward()), on_layer_backward
        )

    def loss_and_grads(self, ids, labels):
        """Convenience: one forward+backward; returns (loss, named grads)."""
        loss = self.forward(ids, labels)
        self.backward()
        return loss, {p.name: p.grad for p in self.parameters()}

    # ------------------------------------------------------------------
    # classification branch (paper Fig. 1, right side)
    # ------------------------------------------------------------------
    def forward_classification(self, ids, cls_labels=None):
        """Sequence classification via token-0 pooling (Fig. 1).

        ``cls_labels`` is a global [b] integer array; returns the mean loss
        (or the class-logits DTensor when labels are omitted).
        """
        if self.cls_head is None:
            raise RuntimeError(
                "model built without cls_head.* parameters "
                "(init_transformer_params(num_classes=...))"
            )
        out = self._trunk(ids)
        if cls_labels is None:
            return self.cls_head.forward(out)
        return self.cls_head.forward(out, self.distribute_tokens(cls_labels))

    def backward_classification(self) -> None:
        self._backward_from(self.cls_head.backward)

    # ------------------------------------------------------------------
    # stem-only execution (the paper's §5 measurement workload)
    # ------------------------------------------------------------------
    def stem_forward(self, batch_size: int) -> DTensor:
        """Run only the N transformer layers (Tables 2–3 workload)."""
        self._begin_iteration(batch_size, include_vocab=False)
        self._stem_out = self._layers_forward(self._synthetic_activation(batch_size))
        return self._stem_out

    def stem_backward(self) -> DTensor:
        """Backward through the stem from a synthetic output gradient."""
        if self._stem_out is None:
            raise RuntimeError("stem_backward before stem_forward")
        dx = self._stem_out.zeros_like()
        self._before_backward()
        dx = self._layers_backward(dx)
        self._end_iteration()
        self._stem_out = None
        return dx
