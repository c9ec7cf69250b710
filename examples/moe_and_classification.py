#!/usr/bin/env python
"""The paper's extensions in action: MoE layers (§6) and the Fig. 1
classification branch, both on the 2D mesh.

Part 1 — Mixture of Experts: a top-1 routed expert MLP whose gate lives on
mesh row 0 and whose experts are ordinary SUMMA operands.  We verify the 2D
computation against the serial reference, look at the expert load balance,
and take a few gradient steps to watch the auxiliary loss push the router
toward balance.

Part 2 — Sequence classification: token-0 pooling + a tiny dense head,
trained on a synthetic first-token task until accuracy beats chance.

Run:  python examples/moe_and_classification.py
"""

import numpy as np

from repro.config import ModelConfig
from repro.core.model import OptimusModel
from repro.core.moe import MoE2D
from repro.mesh.mesh import Mesh
from repro.mesh.partition import assemble_blocked_2d, distribute_blocked_2d
from repro.nn.init import init_transformer_params
from repro.reference.moe import ReferenceMoE, init_moe_params
from repro.runtime.simulator import Simulator
from repro.training.optim import SGD


def moe_demo() -> None:
    print("=" * 64)
    print("Part 1 — 2D Mixture of Experts")
    print("=" * 64)
    h, E, T = 16, 4, 64
    rng = np.random.default_rng(0)
    params = init_moe_params(h, E, seed=3)
    x = rng.normal(size=(T, h))

    ref = ReferenceMoE(params, E)
    y_ref, aux_ref = ref.forward(x)

    sim = Simulator.for_mesh(q=2)
    mesh = Mesh(sim, 2)
    moe = MoE2D(mesh, params, E)
    y, aux = moe.forward(distribute_blocked_2d(mesh, x))
    err = np.abs(assemble_blocked_2d(y) - y_ref).max()
    print(f"2D vs serial output: max |diff| = {err:.2e}   aux loss = {aux:.4f}")
    print(f"expert load (tokens per expert): {list(ref.expert_load(x))}")

    # gate-only training on the aux loss balances the router
    opt = SGD(moe.parameters(), lr=100.0)  # only the tiny gate moves
    for step in range(30):
        opt.zero_grad()
        moe.forward(distribute_blocked_2d(mesh, x))
        moe.backward(distribute_blocked_2d(mesh, np.zeros_like(x)), d_aux=1.0)
        opt.step()
    _, aux_after = moe.forward(distribute_blocked_2d(mesh, x))
    moe.drop_caches()
    gathered = dict(params)
    gathered.update({p.name: _gather(p) for p in moe.parameters()})
    ref_after = ReferenceMoE(gathered, E)
    print(f"aux loss: {aux_ref:.4f} -> {float(aux_after):.4f} after 30 "
          f"balance-only gate steps (coef x 1.0 corresponds to balanced)")
    print(f"expert load now: {list(ref_after.expert_load(x))}\n")


def _gather(p):
    from repro.mesh.layouts import BLOCKED_2D
    from repro.mesh.partition import assemble_row0_blockrows, assemble_row0_cols

    if p.data.layout == BLOCKED_2D:
        return assemble_blocked_2d(p.data)
    if p.data.layout.kind == "row0_blockrows":
        return assemble_row0_blockrows(p.data)
    return assemble_row0_cols(p.data)


def classification_demo() -> None:
    print("=" * 64)
    print("Part 2 — sequence classification (Fig. 1 branch)")
    print("=" * 64)
    cfg = ModelConfig(vocab_size=32, hidden_size=32, num_heads=4,
                      num_layers=2, seq_len=16)
    def batch(b, seed):
        # class 1 iff the sequence's first token is in the upper half of the
        # vocabulary — learnable through the token-0 pooling path
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, cfg.vocab_size, size=(b, cfg.seq_len))
        labels = (ids[:, 0] >= cfg.vocab_size // 2).astype(np.int64)
        return ids, labels

    params = init_transformer_params(cfg, seed=0, num_classes=2)
    sim = Simulator.for_mesh(q=2)
    model = OptimusModel(Mesh(sim, 2), cfg, params)
    opt = SGD(model.parameters(), lr=0.4)

    for step in range(40):
        ids, labels = batch(8, seed=step)
        opt.zero_grad()
        loss = model.forward_classification(ids, labels)
        model.backward_classification()
        opt.step()
        if (step + 1) % 10 == 0:
            print(f"step {step + 1:3d}  loss {loss:.4f}")

    ids, labels = batch(64, seed=10_000)
    from repro.mesh.partition import assemble_row_blocked

    logits = assemble_row_blocked(model.forward_classification(ids))
    acc = float((np.argmax(logits, axis=1) == labels).mean())
    print(f"\nheld-out accuracy: {acc:.2%} "
          f"(chance = {max((labels == 0).mean(), (labels == 1).mean()):.2%})")


if __name__ == "__main__":
    moe_demo()
    classification_demo()
