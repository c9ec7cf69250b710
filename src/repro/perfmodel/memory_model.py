"""Per-device memory model and the Fig. 9 max-batch-size search.

Ground truth is :func:`measure_peak_bytes`: a dryrun of the checkpointed
stem on the byte-accurate allocator (two layers suffice — the per-layer
working set repeats, only the checkpoint region grows with N, so deeper
stems are extrapolated exactly).  :func:`estimate_peak_bytes` is the
closed-form companion whose coefficients mirror what the implementation
actually buffers; the test suite keeps the two within tolerance.

The asymmetry the paper exploits is visible directly in the formulas (the
per-scheme terms are the ``param_vectors`` / ``working_scalars`` fields of
:data:`repro.schemes.SCHEMES`): every working-set term of Optimus carries
``1/p``, while Megatron's replicated activations contribute ``O(bsh)`` per
device no matter how many devices are added (§3.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ModelConfig
from repro.schemes import lookup


@dataclass(frozen=True)
class MemoryBreakdown:
    """Per-device bytes by category."""

    params: float
    grads: float
    optimizer: float
    checkpoints: float
    working: float

    @property
    def total(self) -> float:
        return self.params + self.grads + self.optimizer + self.checkpoints + self.working


def _param_scalars_per_device(cfg: ModelConfig, p: int, scheme: str) -> float:
    h = cfg.hidden_size
    weights = 12.0 * h * h / p  # qkv + proj + fc1 + fc2, both schemes shard all
    return cfg.num_layers * (weights + lookup(scheme).param_vectors(h, p))


def estimate_peak_bytes(
    scheme: str,
    cfg: ModelConfig,
    num_devices: int,
    batch_size: int,
    elem_size: int = 4,
    optimizer_slots: int = 0,
) -> MemoryBreakdown:
    """Closed-form per-device peak of one checkpointed fwd+bwd iteration."""
    rec = lookup(scheme)
    p = num_devices
    b, s, h, n, N = batch_size, cfg.seq_len, cfg.hidden_size, cfg.num_heads, cfg.num_layers
    bsh = float(b) * s * h
    probs = float(b) * n * s * s  # attention score tensors of one layer

    params = _param_scalars_per_device(cfg, p, scheme) * elem_size
    grads = params
    optimizer = optimizer_slots * params
    checkpoints = N * bsh / p * elem_size

    return MemoryBreakdown(
        params=params,
        grads=grads,
        optimizer=optimizer,
        checkpoints=checkpoints,
        working=rec.working_scalars(bsh, probs, h, p) * elem_size,
    )


def measure_peak_bytes(
    scheme: str,
    cfg: ModelConfig,
    num_devices: int,
    batch_size: int,
    optimizer_slots: int = 0,
) -> float:
    """Dryrun-measured per-device peak, extrapolated to the full depth.

    Runs a 2-layer checkpointed stem on the shape backend (seconds even at
    paper scale) and adds what the deeper model would hold on top: the
    ``(N−2)·bsh/p`` checkpoint bytes, the extra layers' parameters and
    accumulated parameter gradients, and optimizer state.  Working-set
    buffers are layer-independent (the whole point of §3.2.3), so they need
    no extrapolation.
    """
    import dataclasses

    from repro.experiments.runner import run_stem

    depth = min(cfg.num_layers, 2)
    small = dataclasses.replace(cfg, num_layers=depth)
    res = run_stem(scheme, small, num_devices, batch_size)
    elem = 4  # stems run in float32
    extra_layers = cfg.num_layers - depth
    ckpt_per_layer = float(batch_size) * cfg.seq_len * cfg.hidden_size / num_devices * elem
    params_per_layer = (
        _param_scalars_per_device(cfg, num_devices, scheme) / cfg.num_layers * elem
    )
    extra = extra_layers * (ckpt_per_layer + 2 * params_per_layer)  # params + grads
    opt_state = optimizer_slots * _param_scalars_per_device(cfg, num_devices, scheme) * elem
    return res.peak_memory_bytes + extra + opt_state


def max_batch_size(
    scheme: str,
    cfg: ModelConfig,
    num_devices: int,
    capacity_bytes: float,
    granularity: int = 0,
    method: str = "measure",
    optimizer_slots: int = 0,
    max_batch: int = 4096,
) -> int:
    """Largest batch whose per-device peak fits in ``capacity_bytes`` (Fig 9).

    Exponential probe then bisection; ``granularity`` defaults to the
    scheme's batch granularity (:mod:`repro.schemes`).
    """
    if granularity <= 0:
        granularity = lookup(scheme).batch_granularity(num_devices)

    def peak(b: int) -> float:
        if method == "measure":
            return measure_peak_bytes(scheme, cfg, num_devices, b, optimizer_slots)
        return estimate_peak_bytes(
            scheme, cfg, num_devices, b, optimizer_slots=optimizer_slots
        ).total

    if peak(granularity) > capacity_bytes:
        return 0
    lo = 1  # in units of granularity
    hi = 1
    while hi * granularity < max_batch and peak(2 * hi * granularity) <= capacity_bytes:
        hi *= 2
    lo, hi = hi, min(2 * hi, max_batch // granularity)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if peak(mid * granularity) <= capacity_bytes:
            lo = mid
        else:
            hi = mid - 1
    return lo * granularity
