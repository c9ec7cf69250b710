"""The transformer's leaves — linear, layer norm, token embedding, tied LM
head, classification head — written once for every tensor-parallel scheme.

Optimus (§3.2) and Megatron (§2.2) differ only in how these are sharded.
A body here owns what both do alike: placing the parameters from the
class's declared layouts, checking inputs against them, the saved-input
cache and its "backward before forward" error, and adding the gradients.
A scheme's subclass declares the layouts and supplies its products as
*cells*, methods the body calls: SUMMA with the row-0 bias and statistics
collectives (:mod:`repro.core`), local GEMMs with the f / g line
all-reduces (:mod:`repro.megatron`).  A cell keeps its scheme's arithmetic
and the order of its charges and buffer holds (trace events and the memory
timeline are output), so it also buffers what it returns.  The layouts
decide the communication, as in Mesh-TensorFlow (arXiv 1811.02084).
``owner`` is the mesh or flat process group the shards live on.
"""

from __future__ import annotations

from typing import Optional

from repro.backend import ops
from repro.backend.shape_array import ShapeArray, is_shape_array
from repro.config import ModelConfig
from repro.core.buffers import BufferManager
from repro.core.param import DistModule, DistParam, charge_param_memory
from repro.mesh.dtensor import DTensor, block_map
from repro.mesh.partition import distribute
from repro.nn.transformer import hold
from repro.reference import functional as F


def require(name: str, what: str, x: DTensor, layout) -> None:
    """Raise unless ``x`` is in ``layout``: a leaf's math assumes where its
    operands live.  The bodies call it only when ``x.layout`` is not the
    very record (layouts are module constants), so a match costs no call."""
    if x.layout != layout:
        raise ValueError(f"{name}: {what} must be {layout}, got {x.layout}")


def place(module: DistModule, name: str, layout, a) -> DistParam:
    """``a`` placed in ``layout`` on ``module.owner``, registered as the
    module's parameter ``name``, its shard bytes charged to their devices."""
    param = module.register_param(DistParam(name, distribute(module.owner, layout, a)))
    charge_param_memory(param, module.owner.sim)
    return param


class Linear(DistModule):
    """``y = x·W + bias``: W in ``weight_layout``, the bias in
    ``bias_layout``, ``x`` in ``x_layout``, ``y`` and ``dy`` in ``y_layout``.
    Cells: ``_forward(x)`` returns ``y``; ``_bias_backward(dy)`` adds the
    bias gradient; ``_backward(x, dy)`` returns ``(dx, dW)``."""

    weight_layout = bias_layout = x_layout = y_layout = None

    _cache_attrs = ("_x",)

    def __init__(
        self,
        owner,
        name: str,
        weight_global,
        bias_global=None,
        buffers: Optional[BufferManager] = None,
        weight_name: Optional[str] = None,
        bias_name: Optional[str] = None,
    ):
        super().__init__()
        self.owner = owner
        self.name = name
        self.buffers = buffers
        weight_name = weight_name or f"{name}.weight"
        self.weight = place(self, weight_name, self.weight_layout, weight_global)
        self.bias: Optional[DistParam] = None
        if bias_global is not None:
            self.bias = place(self, bias_name or f"{name}.bias", self.bias_layout, bias_global)
        self._x: Optional[DTensor] = None

    def forward(self, x: DTensor) -> DTensor:
        if x.layout is not self.x_layout:
            require(self.name, "input", x, self.x_layout)
        self._x = x
        return self._forward(x)

    def backward(self, dy: DTensor) -> DTensor:
        x = self._x
        if x is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        if dy.layout is not self.y_layout:
            require(self.name, "output gradient", dy, self.y_layout)
        if self.bias is not None:
            self._bias_backward(dy)
        dx, dw = self._backward(x, dy)
        self.weight.add_grad(dw)
        self._x = None
        return dx


class LayerNorm(DistModule):
    """Layer normalization over the feature axis: γ and β in
    ``param_layout``, the input, output and their gradients in ``x_layout``.
    Cells: ``_forward(x)`` returns ``(out, saved)``; ``_backward(saved, dy)``
    returns ``(dx, dγ, dβ)``."""

    param_layout = x_layout = None

    _cache_attrs = ("_saved",)

    def __init__(self, owner, name: str, gamma_global, beta_global, eps: float = 1e-5,
                 buffers: Optional[BufferManager] = None):
        super().__init__()
        self.owner = owner
        self.name = name
        self.eps = eps
        self.buffers = buffers
        self.gamma = place(self, f"{name}.gamma", self.param_layout, gamma_global)
        self.beta = place(self, f"{name}.beta", self.param_layout, beta_global)
        self._saved = None

    def forward(self, x: DTensor) -> DTensor:
        if x.layout is not self.x_layout:
            require(self.name, "input", x, self.x_layout)
        out, self._saved = self._forward(x)
        return out

    def backward(self, dy: DTensor) -> DTensor:
        saved = self._saved
        if saved is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        if dy.layout is not self.x_layout:
            require(self.name, "output gradient", dy, self.x_layout)
        dx, dg, db = self._backward(saved, dy)
        self.gamma.add_grad(dg)
        self.beta.add_grad(db)
        self._saved = None
        return dx


class Embedding(DistModule):
    """Token embedding: ids ``[b, s]`` in ``ids_layout`` → activations
    ``[b·s, h]``, the table ``[v, h]`` in ``table_layout``.  Cells:
    ``_lookup(ids)`` returns the activations; ``_scatter(ids, d_out)`` the
    table's gradient."""

    name = "embedding"
    table_layout = ids_layout = None

    _cache_attrs = ("_ids",)

    def __init__(self, owner, cfg: ModelConfig, table_global,
                 buffers: Optional[BufferManager] = None):
        super().__init__()
        self.owner = owner
        self.cfg = cfg
        self.buffers = buffers
        self.table = place(self, "embedding.table", self.table_layout, table_global)
        self._ids: Optional[DTensor] = None

    def forward(self, ids: DTensor) -> DTensor:
        if ids.layout is not self.ids_layout:
            require(self.name, "ids", ids, self.ids_layout)
        self._ids = ids
        out = self._lookup(ids)
        hold(self.buffers, "forward", out)
        return out

    def backward(self, d_out: DTensor) -> None:
        ids = self._ids
        if ids is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        self.table.add_grad(self._scatter(ids, d_out))
        self._ids = None


class LMHead(DistModule):
    """Weight-tied language-model head, ``logits = X·Eᵀ`` over the
    embedding's table (not registered again), ``X`` in ``x_layout``.  Cells:
    ``_logits(x)``; ``_backward(x, dlogits)`` returns ``(dx, dE)``."""

    name = "lm-head"
    x_layout = None

    _cache_attrs = ("_x",)

    def __init__(self, owner, embedding: Embedding, buffers: Optional[BufferManager] = None):
        super().__init__()
        self.owner = owner
        self.embedding = embedding
        self.buffers = buffers
        self._x: Optional[DTensor] = None

    def forward(self, x: DTensor) -> DTensor:
        if x.layout is not self.x_layout:
            require(self.name, "input", x, self.x_layout)
        self._x = x
        logits = self._logits(x)
        hold(self.buffers, "forward", logits)
        return logits

    def backward(self, dlogits: DTensor) -> DTensor:
        x = self._x
        if x is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        dx, d_table = self._backward(x, dlogits)
        self.embedding.table.add_grad(d_table)
        self._x = None
        return dx


class ClassificationHead(DistModule):
    """The paper's Fig. 1 classification branch: token-0 pooling → dense
    ``[h, C]`` → softmax cross-entropy.  W in ``weight_layout``, the bias in
    ``bias_layout``, the final LayerNorm's output ``[b·s, h]`` and its
    gradient in ``x_layout``, labels ``[b]`` and the logits ``[b, C]`` in
    ``labels_layout``.  Cells: ``_logits(x)`` returns ``(logits, pooled)``;
    ``_loss_sum(losses)`` the sum of the per-sequence losses;
    ``_backward(pooled, dlogits, x)`` returns ``(dx, dW, dbias)``."""

    name = "cls_head"
    weight_layout = bias_layout = x_layout = labels_layout = None

    _cache_attrs = ("_saved",)

    def __init__(self, owner, cfg: ModelConfig, weight_global, bias_global,
                 buffers: Optional[BufferManager] = None):
        super().__init__()
        self.owner = owner
        self.cfg = cfg
        self.buffers = buffers
        self.num_classes = weight_global.shape[1]
        self.weight = place(self, "cls_head.weight", self.weight_layout, weight_global)
        self.bias = place(self, "cls_head.bias", self.bias_layout, bias_global)
        self._saved = None

    def forward(self, x: DTensor, labels: Optional[DTensor] = None):
        """The mean loss over the batch, or the logits when ``labels`` is None."""
        if x.layout is not self.x_layout:
            require(self.name, "input", x, self.x_layout)
        if labels is not None and labels.layout is not self.labels_layout:
            require(self.name, "labels", labels, self.labels_layout)
        self._saved = None
        logits, pooled = self._logits(x)
        if labels is None:
            return logits
        losses, probs = block_map(F.cross_entropy_fwd, self.owner, logits, labels)
        hold(self.buffers, "forward", probs)
        total = self._loss_sum(losses)
        b = labels.global_shape[0]
        self._saved = (pooled, probs, labels, b, x)
        if is_shape_array(total):
            return ShapeArray((), total.dtype)
        return float(total) / b

    def backward(self) -> DTensor:
        saved = self._saved
        if saved is None:
            raise RuntimeError("classification backward before forward with labels")
        pooled, probs, labels, b, x = saved
        scale = 1.0 / b

        def dlogits_of(p, lab):
            dl = ops.full((lab.shape[0],), scale, dtype=p.dtype, backend=ops.backend_of(p))
            return F.cross_entropy_bwd(p, lab, dl)

        dlogits = block_map(dlogits_of, self.owner, probs, labels)
        dx, dw, db = self._backward(pooled, dlogits, x)
        self.weight.add_grad(dw)
        self.bias.add_grad(db)
        self._saved = None
        return dx
