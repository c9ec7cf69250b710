"""Single-device transformer with analytic forward and backward.

Architecture (pre-LN, BERT-scale shapes, paper Fig. 1):

    ids [b,s] ──embedding──▶ x [b·s, h]
    for each of N layers:
        x ← x + AttnOut( SelfAttention( LN1(x) ) )
        x ← x + MLP( LN2(x) )
    x ← FinalLN(x)
    logits = x @ Eᵀ   (lm-head, weight-tied with the embedding, paper §3.2.1)
    loss = mean over tokens of softmax cross-entropy

Weight layout convention (shared with both parallel schemes so parameters
can be copied verbatim): the QKV projection's output columns are ordered
head-major, i.e. for head k the 3·d consecutive columns are
``[q_k | k_k | v_k]``.  Column-partitioning this matrix over q (or p)
devices therefore assigns whole heads to devices, exactly the property both
Megatron (§2.2) and Optimus (§3.2.1) rely on.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.backend import ops
from repro.config import ModelConfig
from repro.reference import functional as F
from repro.reference.stack import LayerStack


class ReferenceTransformer:
    """Ground-truth serial model operating on global parameter arrays:
    embedding, one :class:`~repro.reference.stack.LayerStack` over all N
    layers, and the LM / classification heads."""

    scheme = "serial"
    sim = None  #: the reference runs on no simulator

    def __init__(self, config: ModelConfig, params: Dict[str, object]):
        self.cfg = config
        self.params = params
        self.grads: Dict[str, object] = {}
        self.stack = LayerStack(config, params)
        self._final: dict = {}

    # ------------------------------------------------------------------
    # embedding → layers → final LN, shared by both heads
    # ------------------------------------------------------------------
    def _embed_and_run_layers(self, ids):
        """ids [b, s] → final-LN output [b·s, h]; starts a fresh ``_final``."""
        b, s = ids.shape
        x = ops.take_rows(self.params["embedding.table"], ids.reshape((b * s,)))
        x = self.stack.forward(x, b, s)
        out, x_hat, inv_std = F.layernorm_fwd(
            x, self.params["final_ln.gamma"], self.params["final_ln.beta"], self.cfg.ln_eps
        )
        self._final = {"ids": ids, "s": s, "ln": (x_hat, inv_std), "ln_out": out}
        return out

    def _layers_backward(self, d_ln_out):
        """Final-LN, layer and embedding-lookup backward; records every
        gradient but the table's and returns the lookup's scatter-added
        token gradients ``[v, h]`` for the head to combine."""
        fin = self._final
        x_hat, inv_std = fin["ln"]
        dx, dgamma, dbeta = F.layernorm_bwd(
            d_ln_out, x_hat, inv_std, self.params["final_ln.gamma"]
        )
        self.grads["final_ln.gamma"] = dgamma
        self.grads["final_ln.beta"] = dbeta
        # the stack accumulates (pipeline micro-batches); one iteration assigns
        self.stack.zero_grads()
        dx = self.stack.backward(dx)
        self.grads.update(self.stack.grads)
        d_table = ops.zeros_like(self.params["embedding.table"])
        ops.index_add(d_table, fin["ids"].reshape((dx.shape[0],)), dx)
        return d_table

    # ------------------------------------------------------------------
    # language modelling
    # ------------------------------------------------------------------
    def forward(self, ids, labels=None):
        """Run the full model.

        Returns the mean token loss (scalar) when ``labels`` is given,
        otherwise the logits ``[b·s, v]``.
        """
        out = self._embed_and_run_layers(ids)
        logits = out @ ops.transpose(self.params["embedding.table"])  # [T, v]
        if labels is None:
            return logits
        T = logits.shape[0]
        labels_flat = labels.reshape((T,))
        loss_tok, probs = F.cross_entropy_fwd(logits, labels_flat)
        self._final.update({"probs": probs, "labels": labels_flat})
        return ops.sum(loss_tok) / float(T)

    def backward(self) -> Dict[str, object]:
        """Backprop from the mean-token loss; fills and returns ``self.grads``."""
        fin = self._final
        if "probs" not in fin:
            raise RuntimeError("backward() requires a prior forward() with labels")
        T = fin["probs"].shape[0]
        table = self.params["embedding.table"]
        self.grads = {}

        dloss = ops.full((T,), 1.0 / T, dtype=fin["probs"].dtype.name
                         if hasattr(fin["probs"].dtype, "name") else "float64",
                         backend=ops.backend_of(fin["probs"]))
        dlogits = F.cross_entropy_bwd(fin["probs"], fin["labels"], dloss)  # [T, v]

        # lm-head: logits = ln_out @ tableᵀ, weight-tied with the lookup
        d_ln_out = dlogits @ table
        d_table = ops.transpose(dlogits) @ fin["ln_out"]  # [v, h]
        self.grads["embedding.table"] = d_table + self._layers_backward(d_ln_out)
        return self.grads

    # ------------------------------------------------------------------
    # classification branch (paper Fig. 1, right side)
    # ------------------------------------------------------------------
    def forward_classification(self, ids, cls_labels=None):
        """Sequence classification: select token 0's final embedding and
        project to ``num_classes`` logits (requires ``cls_head.*`` params).

        Returns the mean loss when ``cls_labels`` [b] is given, else the
        class logits [b, C].
        """
        if "cls_head.weight" not in self.params:
            raise KeyError("parameters lack cls_head.* (init with num_classes>0)")
        out = self._embed_and_run_layers(ids)
        x0 = out[:: self._final["s"]]  # token 0 of every sequence: rows 0, s, 2s, ...
        logits = x0 @ self.params["cls_head.weight"] + self.params["cls_head.bias"]
        self._final["cls_x0"] = x0
        if cls_labels is None:
            return logits
        loss_seq, probs = F.cross_entropy_fwd(logits, cls_labels)
        self._final.update({"cls_probs": probs, "cls_labels": cls_labels})
        return ops.sum(loss_seq) / float(logits.shape[0])

    def backward_classification(self) -> Dict[str, object]:
        fin = self._final
        if "cls_probs" not in fin:
            raise RuntimeError(
                "backward_classification() requires forward_classification() "
                "with labels"
            )
        b = fin["cls_probs"].shape[0]
        self.grads = {}
        dloss = ops.full(
            (b,), 1.0 / b, dtype="float64", backend=ops.backend_of(fin["cls_probs"])
        )
        dlogits = F.cross_entropy_bwd(fin["cls_probs"], fin["cls_labels"], dloss)
        w = self.params["cls_head.weight"]
        self.grads["cls_head.weight"] = ops.transpose(fin["cls_x0"]) @ dlogits
        self.grads["cls_head.bias"] = ops.sum(dlogits, axis=0)
        dx0 = dlogits @ ops.transpose(w)  # [b, h]
        d_ln_out = ops.zeros_like(fin["ln_out"])
        d_ln_out[:: fin["s"]] = dx0
        self.grads["embedding.table"] = self._layers_backward(d_ln_out)
        return self.grads

    # ------------------------------------------------------------------
    # utilities
    # ------------------------------------------------------------------
    def zero_grads(self) -> None:
        self.grads = {}

    def loss_and_grads(self, ids, labels) -> Tuple[object, Dict[str, object]]:
        loss = self.forward(ids, labels)
        return loss, self.backward()
