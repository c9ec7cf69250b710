"""Model and run configurations, including the paper's experiment presets.

Conventions follow the paper (§2.1):

    b — batch size            s — sequence length
    h — hidden size           n — number of attention heads
    v — vocabulary size       N — number of transformer layers
    p — number of devices     q — SUMMA mesh dimension (p = q²)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class ModelConfig:
    """Architecture of the transformer used in all experiments."""

    vocab_size: int = 3200
    hidden_size: int = 64
    num_heads: int = 4
    num_layers: int = 2
    seq_len: int = 16
    mlp_ratio: int = 4
    ln_eps: float = 1e-5
    dtype: str = "float32"

    def __post_init__(self):
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden size {self.hidden_size} not divisible by "
                f"{self.num_heads} heads"
            )

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads

    @property
    def ffn_hidden(self) -> int:
        return self.mlp_ratio * self.hidden_size

    # ------------------------------------------------------------------
    # divisibility requirements of the two schemes (paper §5.2 discusses
    # exactly these constraints when choosing Table 3 settings)
    # ------------------------------------------------------------------
    def validate_for_optimus(self, q: int, batch_size: int, include_vocab: bool = True) -> None:
        """Optimus needs b, h (and v, when the embedding/LM head is used)
        divisible by q, and n divisible by q."""
        problems = []
        if batch_size % q:
            problems.append(f"batch {batch_size} % q={q}")
        if self.hidden_size % q:
            problems.append(f"hidden {self.hidden_size} % q={q}")
        if self.num_heads % q:
            problems.append(f"heads {self.num_heads} % q={q}")
        if include_vocab and self.vocab_size % q:
            problems.append(f"vocab {self.vocab_size} % q={q}")
        # n % q == 0 together with h % n == 0 (enforced at construction)
        # guarantees each 3h/q column block covers whole heads.
        if problems:
            raise ValueError("config invalid for Optimus mesh: " + ", ".join(problems))

    def validate_for_megatron(self, p: int, batch_size: int, include_vocab: bool = True) -> None:
        """Megatron needs n (and v, when the embedding is used) divisible by
        p — the paper's §5.2 point about having to tweak h and n."""
        problems = []
        if self.num_heads % p:
            problems.append(f"heads {self.num_heads} % p={p}")
        if include_vocab and self.vocab_size % p:
            problems.append(f"vocab {self.vocab_size} % p={p}")
        if self.ffn_hidden % p:
            problems.append(f"ffn {self.ffn_hidden} % p={p}")
        if problems:
            raise ValueError("config invalid for Megatron: " + ", ".join(problems))

    def params_per_layer(self) -> int:
        """Parameter count of one transformer layer (weights + biases + LN)."""
        h, f = self.hidden_size, self.ffn_hidden
        attn = h * 3 * h + 3 * h + h * h + h
        mlp = h * f + f + f * h + h
        ln = 4 * h  # two layernorms, affine
        return attn + mlp + ln

    def total_params(self, include_embedding: bool = True) -> int:
        n = self.num_layers * self.params_per_layer() + 2 * self.hidden_size
        if include_embedding:
            n += self.vocab_size * self.hidden_size
        return n


@dataclass(frozen=True)
class RunConfig:
    """One experiment row: a model, a device count, a batch size."""

    model: ModelConfig
    num_devices: int
    batch_size: int
    label: str = ""

    @property
    def q(self) -> int:
        from repro.schemes import mesh_side

        return mesh_side(self.num_devices)


def _weak_model(h: int, n: int) -> ModelConfig:
    return ModelConfig(
        vocab_size=51200, hidden_size=h, num_heads=n, num_layers=24, seq_len=512
    )


def table2_weak_scaling() -> List[dict]:
    """Table 2 settings: fixed params/device, h ∝ q, N=24, s=512.

    Batch sizes are the paper's: Optimus scales b with q; Megatron must
    *shrink* b as p grows to stay in memory.
    """
    rows = []
    for p, h, n, b_meg, b_opt in [
        (4, 2048, 32, 60, 96),
        (16, 4096, 64, 60, 192),
        (36, 6120, 72, 40, 288),
        (64, 8192, 128, 30, 384),
    ]:
        rows.append(
            {
                "num_devices": p,
                "model_megatron": _weak_model(h, n),
                "model_optimus": _weak_model(h if h != 6120 else 6120, n),
                "batch_megatron": b_meg,
                "batch_optimus": b_opt,
            }
        )
    return rows


def table3_strong_scaling() -> List[dict]:
    """Table 3 settings: fixed problem size h≈3072, b=12 (Megatron) / 24."""
    rows = []
    for p, h_meg, n_meg in [(4, 3072, 64), (16, 3072, 64), (36, 3096, 72), (64, 3072, 64)]:
        rows.append(
            {
                "num_devices": p,
                "model_megatron": _weak_model(h_meg, n_meg),
                "model_optimus": _weak_model(3072, 24),
                "batch_megatron": 12,
                "batch_optimus": 24,
            }
        )
    return rows


def tiny_config(**overrides) -> ModelConfig:
    """A small config that runs numerically in tests (divisible by q∈{1,2,3})."""
    base = dict(
        vocab_size=48,
        hidden_size=24,
        num_heads=6,
        num_layers=2,
        seq_len=8,
    )
    base.update(overrides)
    return ModelConfig(**base)
