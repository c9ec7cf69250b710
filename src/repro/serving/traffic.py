"""Seeded synthetic traffic for the serving engine.

A :class:`TrafficGenerator` produces a fixed-length list of
:class:`Request` objects with arrival times on the *simulated* clock,
prompt token ids, and output-length targets.  Everything is drawn from one
``numpy`` generator seeded explicitly, in a fixed order (arrival gap,
prompt length, output length, prompt tokens — per request), so the same
seed always yields byte-identical traffic: the serving report's
determinism rests on this.

Two arrival processes are supported:

* ``poisson`` — i.i.d. exponential inter-arrival gaps at ``rate_rps``;
* ``bursty``  — bursts of ``burst_size`` simultaneous arrivals, with
  exponential gaps between bursts sized so the *mean* offered load matches
  the same ``rate_rps``.

Prompt and output lengths are drawn from small mixed (choice) distributions
— short chat-like and longer completion-like requests interleaved — the
shape continuous batching exists to handle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

ARRIVAL_PROFILES = ("poisson", "bursty")

#: (lengths, weights) for the mixed prompt/output distributions
PROMPT_LENGTHS: Tuple[Tuple[int, ...], Tuple[float, ...]] = (
    (4, 8, 12, 16),
    (0.35, 0.30, 0.20, 0.15),
)
OUTPUT_LENGTHS: Tuple[Tuple[int, ...], Tuple[float, ...]] = (
    (4, 8, 16),
    (0.40, 0.40, 0.20),
)


@dataclass(frozen=True)
class Request:
    """One inference request on the simulated clock."""

    rid: int
    arrival: float  # simulated seconds
    prompt: tuple = field(repr=False)  # token ids, length >= 1
    max_new: int = 1  # output tokens to generate, >= 1
    priority: int = 0  # higher = more important (preemption picks the lowest)
    deadline_s: Optional[float] = None  # e2e deadline relative to arrival

    def __post_init__(self):
        if len(self.prompt) < 1:
            raise ValueError(f"request {self.rid}: zero-length prompt (prompts need >= 1 token)")
        if self.max_new < 1:
            raise ValueError(f"request {self.rid}: max_new must be >= 1, got {self.max_new}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"request {self.rid}: deadline_s must be positive, got {self.deadline_s}"
            )

    @property
    def prompt_len(self) -> int:
        return len(self.prompt)

    @property
    def kv_positions(self) -> int:
        """KV-cache positions the request occupies: every token except the
        final sampled one is appended to the cache."""
        return self.prompt_len + self.max_new - 1


class TrafficGenerator:
    """Deterministic request stream for one serving run."""

    def __init__(
        self,
        seed: int,
        vocab_size: int,
        arrival: str = "poisson",
        rate_rps: float = 100.0,
        num_requests: int = 16,
        burst_size: int = 4,
        prompt_lengths: Optional[Sequence[Tuple]] = None,
        output_lengths: Optional[Sequence[Tuple]] = None,
        deadline_s: Optional[float] = None,
    ):
        if arrival not in ARRIVAL_PROFILES:
            raise ValueError(
                f"unknown arrival profile {arrival!r} (choose from {ARRIVAL_PROFILES})"
            )
        if rate_rps <= 0:
            raise ValueError(f"rate_rps must be positive, got {rate_rps}")
        if num_requests < 1:
            raise ValueError(f"num_requests must be >= 1, got {num_requests}")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {deadline_s}")
        self.seed = seed
        self.vocab_size = vocab_size
        self.arrival = arrival
        self.rate_rps = float(rate_rps)
        self.num_requests = num_requests
        self.burst_size = max(1, burst_size)
        self.prompt_lengths = tuple(prompt_lengths) if prompt_lengths else PROMPT_LENGTHS
        self.output_lengths = tuple(output_lengths) if output_lengths else OUTPUT_LENGTHS
        self.deadline_s = deadline_s
        for plen in self.prompt_lengths[0]:
            if plen < 1:
                raise ValueError(
                    f"prompt length distribution contains {plen}: zero-length "
                    "prompts are invalid (every prompt needs >= 1 token)"
                )
        for olen in self.output_lengths[0]:
            if olen < 1:
                raise ValueError(
                    f"output length distribution contains {olen}: every request "
                    "must generate >= 1 token"
                )

    # ------------------------------------------------------------------
    def generate(self) -> List[Request]:
        """The request list, sorted by (arrival, rid)."""
        rng = np.random.default_rng(self.seed)
        plen_vals, plen_w = self.prompt_lengths
        olen_vals, olen_w = self.output_lengths
        requests: List[Request] = []
        t = 0.0
        for rid in range(self.num_requests):
            if self.arrival == "poisson":
                t += float(rng.exponential(1.0 / self.rate_rps))
            else:  # bursty: a gap before each burst, none inside it
                if rid % self.burst_size == 0:
                    t += float(rng.exponential(self.burst_size / self.rate_rps))
            prompt_len = int(rng.choice(plen_vals, p=plen_w))
            max_new = int(rng.choice(olen_vals, p=olen_w))
            prompt = tuple(int(x) for x in rng.integers(0, self.vocab_size, size=prompt_len))
            requests.append(
                Request(
                    rid=rid,
                    arrival=t,
                    prompt=prompt,
                    max_new=max_new,
                    deadline_s=self.deadline_s,
                )
            )
        requests.sort(key=lambda r: (r.arrival, r.rid))
        return requests

    def describe(self) -> dict:
        """JSON-safe description of the traffic (goes into the report)."""
        doc = {
            "seed": self.seed,
            "arrival": self.arrival,
            "rate_rps": self.rate_rps,
            "num_requests": self.num_requests,
            "burst_size": self.burst_size if self.arrival == "bursty" else None,
            "prompt_lengths": [list(self.prompt_lengths[0]), list(self.prompt_lengths[1])],
            "output_lengths": [list(self.output_lengths[0]), list(self.output_lengths[1])],
        }
        # only present when set: the default document stays byte-identical
        if self.deadline_s is not None:
            doc["deadline_s"] = self.deadline_s
        return doc
