"""2D-parallel Mixture-of-Experts MLP — the paper's §6 MoE direction.

Layout design, following Optimus's own conventions:

* the gate ``[h, E]`` is a non-SUMMA parameter: hosted by mesh row 0, split
  along h over columns (Fig. 5), broadcast down columns in forward; gate
  logits are completed by a row all-reduce of the per-column partial
  products, leaving ``[T_loc, E]`` *replicated within each mesh row* — so
  every device of a row makes identical routing decisions for its own b/q
  sequences, with no extra communication;
* each expert's MLP weights are ordinary ``BLOCKED_2D`` SUMMA operands
  (reusing :class:`~repro.core.layers.Linear2D` verbatim), so an expert's
  sub-batch flows through the same Algorithm-1/2/3 machinery as the dense
  MLP.  SUMMA is indifferent to different mesh rows carrying different
  token counts — row broadcasts never leave their row — which is exactly
  what makes token routing compose with the 2D scheme;
* token dispatch itself is free of communication: tokens live in mesh rows,
  and routing only permutes rows *within* a row block.

This "streamlines the communication" as §6 asks: the only MoE-specific
traffic is the tiny gate all-reduce; everything else is the dense path's.

Dryrun note: routing is data-dependent, so the shape backend assumes
balanced expert load (T_loc/E tokens each) — the standard capacity-factor-1
assumption of Switch-style MoE cost models.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.backend import ops
from repro.backend.shape_array import ShapeArray, is_shape_array
from repro.comm.stacked import broadcast_down_columns, per_line
from repro.core.buffers import BufferManager
from repro.core.layers import Linear2D
from repro.core.param import DistModule, DistParam, charge_param_memory
from repro.mesh.dtensor import DTensor
from repro.mesh.layouts import BLOCKED_2D, ROW0_BLOCKROWS
from repro.mesh.mesh import Mesh
from repro.mesh.partition import distribute_row0_blockrows
from repro.reference import functional as F


def _balanced_counts(total: int, parts: int):
    base, rem = divmod(total, parts)
    return [base + (1 if k < rem else 0) for k in range(parts)]


class MoE2D(DistModule):
    """Top-1 routed expert MLP on a q×q mesh."""

    _cache_attrs = ("_saved",)

    def __init__(
        self,
        mesh: Mesh,
        params: Dict[str, object],
        num_experts: int,
        aux_loss_coef: float = 0.01,
        prefix: str = "moe",
        buffers: Optional[BufferManager] = None,
    ):
        super().__init__()
        self.mesh = mesh
        self.E = num_experts
        self.aux_loss_coef = aux_loss_coef
        self.prefix = prefix
        self.buffers = buffers
        self.gate = self.register_param(
            DistParam(
                f"{prefix}.gate.weight",
                distribute_row0_blockrows(mesh, params[f"{prefix}.gate.weight"]),
            )
        )
        charge_param_memory(self.gate, mesh.sim)
        self.experts = []
        for e in range(num_experts):
            fc1 = Linear2D(
                mesh, f"{prefix}.expert{e}.fc1",
                params[f"{prefix}.expert{e}.w1"], params[f"{prefix}.expert{e}.b1"],
                buffers,
                weight_name=f"{prefix}.expert{e}.w1",
                bias_name=f"{prefix}.expert{e}.b1",
            )
            fc2 = Linear2D(
                mesh, f"{prefix}.expert{e}.fc2",
                params[f"{prefix}.expert{e}.w2"], params[f"{prefix}.expert{e}.b2"],
                buffers,
                weight_name=f"{prefix}.expert{e}.w2",
                bias_name=f"{prefix}.expert{e}.b2",
            )
            self.register_module(fc1)
            self.register_module(fc2)
            self.experts.append((fc1, fc2))
        self._saved = None

    # ------------------------------------------------------------------
    # gate
    # ------------------------------------------------------------------
    def _gate_logits(self, x: DTensor):
        mesh = self.mesh
        w_local = broadcast_down_columns(mesh, self.gate).shards
        partial = {r: x.local(r) @ w_local[r] for r in mesh.ranks}
        rows, cols = x.local(mesh.rank(0, 0)).shape  # every rank's token block
        mesh.sim.charge_compute(mesh.ranks, ((2.0 * rows * cols * self.E, "gemm"),))
        return per_line(mesh.row_groups, "all_reduce", partial), w_local

    # ------------------------------------------------------------------
    def forward(self, x: DTensor) -> Tuple[DTensor, object]:
        """x BLOCKED_2D [T, h] → (output [T, h], auxiliary balance loss)."""
        mesh, q, E = self.mesh, self.mesh.q, self.E
        T, h = x.global_shape
        glogits, w_local = self._gate_logits(x)

        gprobs, sel, scale = {}, {}, {}
        for rank in mesh.ranks:
            p = F.softmax(glogits[rank])
            gprobs[rank] = p
            if is_shape_array(p):
                sel[rank] = None  # dryrun: balanced assumption below
                scale[rank] = ShapeArray((p.shape[0],), p.dtype)
            else:
                s = np.argmax(np.asarray(p), axis=-1)
                sel[rank] = s
                scale[rank] = np.asarray(p)[np.arange(p.shape[0]), s]
        # every rank holds a whole [T/q, h/q] token block: one charge serves all
        mesh.sim.charge_compute(mesh.ranks, ((8.0 * p.size, "elementwise"),))

        # dispatch: per mesh row, gather each expert's tokens and run its MLP
        out = {rank: ops.zeros_like(x.local(rank)) for rank in mesh.ranks}
        rows_by_expert = {}
        pre_by_expert = {}
        te_by_expert = {}
        for e in range(E):
            shards, rows = {}, {}
            any_tokens = False
            for rank in mesh.ranks:
                xl = x.local(rank)
                if is_shape_array(xl):
                    count = _balanced_counts(xl.shape[0], E)[e]
                    rows[rank] = count
                    shards[rank] = ShapeArray((count, xl.shape[1]), xl.dtype)
                    any_tokens = any_tokens or count > 0
                else:
                    r = np.nonzero(sel[rank] == e)[0]
                    rows[rank] = r
                    shards[rank] = np.asarray(xl)[r]
                    any_tokens = any_tokens or r.size > 0
            rows_by_expert[e] = rows
            # logical token count of this expert's sub-batch: one row-block
            # representative per mesh row (counts are row-uniform)
            t_e = 0
            for i in range(q):
                r0 = rows[mesh.rank(i, 0)]
                t_e += r0 if isinstance(r0, int) else int(np.size(r0))
            te_by_expert[e] = t_e
            if not any_tokens:
                pre_by_expert[e] = None
                continue
            fc1, fc2 = self.experts[e]
            sub = DTensor(mesh, BLOCKED_2D, shards, (t_e, h))
            pre = fc1.forward(sub)
            act = pre.map(F.gelu)
            pre_by_expert[e] = pre
            y_e = fc2.forward(act)
            for rank in mesh.ranks:
                self._scatter_rows(out[rank], rows[rank], y_e.local(rank))

        y_shards = {}
        for rank in mesh.ranks:
            if is_shape_array(out[rank]):
                y_shards[rank] = out[rank]
            else:
                y_shards[rank] = out[rank] * np.asarray(scale[rank])[:, None]
        mesh.sim.charge_compute(mesh.ranks, ((out[rank].size, "elementwise"),))
        y = DTensor(mesh, BLOCKED_2D, y_shards, (T, h))

        aux, frac = self._aux_loss(gprobs, sel, T)
        self._saved = (x, gprobs, sel, scale, out, rows_by_expert, pre_by_expert,
                       te_by_expert, w_local, frac, T)
        return y, aux

    @staticmethod
    def _scatter_rows(target, rows, values) -> None:
        if is_shape_array(target):
            return
        if np.size(rows):
            target[rows] = np.asarray(values)

    def _aux_loss(self, gprobs, sel, T: int):
        """Switch aux loss: E·Σₑ fₑ·mₑ over the *global* batch."""
        mesh, E = self.mesh, self.E
        stats = {}
        for rank in mesh.ranks:
            p = gprobs[rank]
            if is_shape_array(p):
                stats[rank] = ShapeArray((2, E), p.dtype)
            else:
                counts = np.bincount(sel[rank], minlength=E).astype(np.asarray(p).dtype)
                stats[rank] = np.stack([counts, np.asarray(p).sum(axis=0)])
        # each row's devices hold identical stats; one per-row copy summed
        # over rows via a column all-reduce gives the global statistics
        st = per_line(mesh.col_groups, "all_reduce", stats)[mesh.rank(0, 0)]
        if is_shape_array(st):
            return ShapeArray((), st.dtype), st
        frac = np.asarray(st)[0] / T
        mean_prob = np.asarray(st)[1] / T
        return self.aux_loss_coef * E * float(frac @ mean_prob), frac

    # ------------------------------------------------------------------
    def backward(self, dy: DTensor, d_aux: float = 1.0) -> DTensor:
        if self._saved is None:
            raise RuntimeError("MoE backward before forward")
        mesh, E = self.mesh, self.E
        (x, gprobs, sel, scale, out, rows_by_expert, pre_by_expert,
         te_by_expert, w_local, frac, T) = self._saved
        h = x.global_shape[1]

        d_out, d_scale = {}, {}
        for rank in mesh.ranks:
            dyl = dy.local(rank)
            if is_shape_array(dyl):
                d_out[rank] = dyl
                d_scale[rank] = ShapeArray((dyl.shape[0],), dyl.dtype)
            else:
                d_out[rank] = np.asarray(dyl) * np.asarray(scale[rank])[:, None]
                d_scale[rank] = (np.asarray(dyl) * out[rank]).sum(axis=-1)
        # d_scale needs the full h contraction: complete it across the row
        d_scale = per_line(mesh.row_groups, "all_reduce", d_scale)

        dx = {rank: ops.zeros_like(x.local(rank)) for rank in mesh.ranks}
        for e in range(E):
            if pre_by_expert[e] is None:
                continue
            fc1, fc2 = self.experts[e]
            rows = rows_by_expert[e]
            d_sub = {}
            for rank in mesh.ranks:
                d_sub[rank] = self._gather_rows(d_out[rank], rows[rank], E, e)
            d_oe = DTensor(mesh, BLOCKED_2D, d_sub, (te_by_expert[e], h))
            d_ae = fc2.backward(d_oe)
            d_pe = pre_by_expert[e].zip_map(d_ae, lambda pre, da: F.gelu_bwd(pre, da))
            d_xe = fc1.backward(d_pe)
            for rank in mesh.ranks:
                self._scatter_add_rows(dx[rank], rows[rank], d_xe.local(rank))

        # gate backward
        dw_partials = {}
        for rank in mesh.ranks:
            p = gprobs[rank]
            if is_shape_array(p):
                d_glogits = ShapeArray(p.shape, p.dtype)
            else:
                d_gp = np.zeros_like(np.asarray(p))
                d_gp[np.arange(p.shape[0]), sel[rank]] += np.asarray(d_scale[rank])
                d_gp += d_aux * self.aux_loss_coef * E * np.asarray(frac)[None, :] / T
                d_glogits = F.softmax_bwd(np.asarray(p), d_gp)
            xl = x.local(rank)
            dw_partials[rank] = ops.transpose(xl) @ d_glogits
            dx[rank] = dx[rank] + d_glogits @ ops.transpose(w_local[rank])
        rows, cols = xl.shape  # every rank's token block
        mesh.sim.charge_compute(
            mesh.ranks, ((2.0 * cols * rows * E, "gemm"), (2.0 * rows * E * cols, "gemm"))
        )
        dw = per_line(mesh.col_groups, "reduce", dw_partials)
        self.gate.add_grad(DTensor(mesh, ROW0_BLOCKROWS, dw, self.gate.data.global_shape))
        self._saved = None
        return DTensor(mesh, BLOCKED_2D, dx, x.global_shape)

    @staticmethod
    def _gather_rows(arr, rows, E: int, e: int):
        if is_shape_array(arr):
            count = rows if isinstance(rows, int) else 0
            return ShapeArray((count, arr.shape[1]), arr.dtype)
        return np.asarray(arr)[rows]

    @staticmethod
    def _scatter_add_rows(target, rows, values) -> None:
        if is_shape_array(target):
            return
        if np.size(rows):
            np.add.at(target, np.asarray(rows), np.asarray(values))
