"""Synthetic and character-level data for the examples and tests.

The paper's experiments time randomly-initialized models on synthetic
batches (throughput, not accuracy, is the subject), so :func:`random_batch`
is the workhorse.  For the end-to-end training example we also provide a
byte-level character corpus (next-character language modelling on a fixed
text) and a copy task — both small enough to learn on a laptop yet real
enough to show the distributed training loop driving the loss down.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.config import ModelConfig

LOREM_TEXT = (
    "lorem ipsum dolor sit amet consectetur adipiscing elit sed do eiusmod "
    "tempor incididunt ut labore et dolore magna aliqua ut enim ad minim "
    "veniam quis nostrud exercitation ullamco laboris nisi ut aliquip ex ea "
    "commodo consequat duis aute irure dolor in reprehenderit in voluptate "
    "velit esse cillum dolore eu fugiat nulla pariatur excepteur sint "
    "occaecat cupidatat non proident sunt in culpa qui officia deserunt "
    "mollit anim id est laborum "
) * 8


def random_batch(
    cfg: ModelConfig, batch_size: int, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Uniformly random (ids, labels) of shape [b, s] — the timing workload."""
    rng = np.random.default_rng(seed)
    shape = (batch_size, cfg.seq_len)
    return (
        rng.integers(0, cfg.vocab_size, size=shape),
        rng.integers(0, cfg.vocab_size, size=shape),
    )


def copy_task_batch(
    cfg: ModelConfig, batch_size: int, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Predict the input token itself — the simplest learnable LM task."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, cfg.vocab_size, size=(batch_size, cfg.seq_len))
    return ids, ids.copy()


class BatchStream:
    """A resumable batch iterator: ``fn(seed, cursor)`` indexed by a cursor.

    Plain generators cannot be checkpointed; a :class:`BatchStream` makes
    the data position part of the training state — :meth:`state` captures
    the (seed, cursor) pair and :meth:`load_state` rewinds to it, so a
    restarted run replays exactly the batches the uninterrupted run saw.
    """

    def __init__(self, fn, seed: int = 0, cursor: int = 0):
        self.fn = fn
        self.seed = seed
        self.cursor = cursor

    def __iter__(self) -> "BatchStream":
        return self

    def __next__(self) -> Tuple[np.ndarray, np.ndarray]:
        batch = self.fn(self.seed, self.cursor)
        self.cursor += 1
        return batch

    def state(self) -> dict:
        return {"seed": self.seed, "cursor": self.cursor}

    def load_state(self, d: dict) -> None:
        self.seed = int(d["seed"])
        self.cursor = int(d["cursor"])

    # common constructions -------------------------------------------------
    @classmethod
    def random(cls, cfg: ModelConfig, batch_size: int, seed: int = 0) -> "BatchStream":
        return cls(lambda s, k: random_batch(cfg, batch_size, seed=s + k), seed=seed)

    @classmethod
    def copy_task(cls, cfg: ModelConfig, batch_size: int, seed: int = 0) -> "BatchStream":
        return cls(lambda s, k: copy_task_batch(cfg, batch_size, seed=s + k), seed=seed)


class CharCorpus:
    """Byte-level next-character language modelling on a fixed text.

    The character vocabulary is padded up to ``vocab_size`` so divisibility
    constraints of the parallel schemes (v % q == 0) are satisfied without
    changing the text.
    """

    def __init__(self, text: str = LOREM_TEXT, vocab_size: int = 48):
        chars = sorted(set(text))
        if len(chars) > vocab_size:
            raise ValueError(
                f"text uses {len(chars)} characters but vocab_size={vocab_size}"
            )
        self.vocab_size = vocab_size
        self.stoi = {c: i for i, c in enumerate(chars)}
        self.itos = {i: c for c, i in self.stoi.items()}
        self.data = np.array([self.stoi[c] for c in text], dtype=np.int64)

    def encode(self, s: str) -> np.ndarray:
        return np.array([self.stoi[c] for c in s], dtype=np.int64)

    def decode(self, ids) -> str:
        return "".join(self.itos.get(int(i), "?") for i in np.asarray(ids).ravel())

    def batch(
        self, batch_size: int, seq_len: int, seed: int = 0
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample windows; labels are the next character at every position."""
        rng = np.random.default_rng(seed)
        max_start = len(self.data) - seq_len - 1
        starts = rng.integers(0, max_start, size=batch_size)
        ids = np.stack([self.data[s : s + seq_len] for s in starts])
        labels = np.stack([self.data[s + 1 : s + seq_len + 1] for s in starts])
        return ids, labels

    def batches(
        self, batch_size: int, seq_len: int, seed: int = 0
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        step = 0
        while True:
            yield self.batch(batch_size, seq_len, seed=seed + step)
            step += 1
