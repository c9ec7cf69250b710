#!/usr/bin/env python
"""Train a character-level language model with 2D (Optimus) parallelism.

A complete training run on the simulated mesh: byte-level next-character
modelling on a small corpus, Adam with warmup-cosine schedule and gradient
clipping, distributed activation checkpointing on.  The distributed run is
numerically identical to serial training (the test suite proves it); here we
watch the loss fall and then sample greedily from the trained model.

Run:  python examples/train_language_model.py [--steps 60] [--q 2]
"""

import argparse

import numpy as np

from repro.config import ModelConfig
from repro.core.model import OptimusModel
from repro.mesh.mesh import Mesh
from repro.mesh.partition import assemble_blocked_2d
from repro.nn.init import init_transformer_params
from repro.runtime.simulator import Simulator
from repro.training.data import CharCorpus
from repro.training.optim import Adam
from repro.training.schedule import warmup_cosine
from repro.training.trainer import Trainer


def sample(model: OptimusModel, corpus: CharCorpus, prompt: str, length: int) -> str:
    """Greedy decoding with the distributed model."""
    cfg = model.cfg
    if len(prompt) < cfg.seq_len:
        raise ValueError(f"prompt must be at least seq_len={cfg.seq_len} characters")
    text = prompt
    for _ in range(length):
        ids = corpus.encode(text[-cfg.seq_len :])
        # batch must be divisible by q: replicate the prompt q times
        batch = np.stack([ids] * model.mesh.q)
        logits = model.forward(batch)  # [q·s, v] DTensor
        full = assemble_blocked_2d(logits)
        next_id = int(np.argmax(full[cfg.seq_len - 1]))
        text += corpus.decode([next_id])
    return text


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=int, default=60)
    ap.add_argument("--q", type=int, default=2, help="mesh dimension (p = q^2)")
    ap.add_argument("--batch", type=int, default=8)
    args = ap.parse_args()

    corpus = CharCorpus(vocab_size=48)
    cfg = ModelConfig(
        vocab_size=corpus.vocab_size,
        hidden_size=48,
        num_heads=4,
        num_layers=2,
        seq_len=24,
    )
    params = init_transformer_params(cfg, seed=0)
    sim = Simulator.for_mesh(q=args.q)
    model = OptimusModel(Mesh(sim, args.q), cfg, params, checkpoint_activations=True)
    optimizer = Adam(model.parameters(), lr=3e-3, sim=sim)

    trainer = Trainer(
        model,
        optimizer,
        corpus.batches(args.batch, cfg.seq_len, seed=0),
        lr_schedule=warmup_cosine(3e-3, warmup_steps=10, total_steps=args.steps),
        max_grad_norm=1.0,
        log_every=10,
    )
    print(
        f"training a {cfg.num_layers}-layer, h={cfg.hidden_size} char-LM on a "
        f"{args.q}x{args.q} simulated mesh ({args.q ** 2} devices)"
    )
    log = trainer.train_steps(args.steps)
    print(
        f"\nloss: {log.losses[0]:.3f} -> {log.losses[-1]:.3f} "
        f"after {args.steps} steps "
        f"(uniform-guess baseline = ln({cfg.vocab_size}) = "
        f"{np.log(cfg.vocab_size):.3f})"
    )
    print(f"simulated cluster time for the whole run: {sim.elapsed() * 1e3:.1f} ms")

    prompt = "lorem ipsum dolor sit am"  # seq_len characters
    completion = sample(model, corpus, prompt, length=24)
    print(f"\ngreedy sample:\n  {completion!r}")


if __name__ == "__main__":
    main()
