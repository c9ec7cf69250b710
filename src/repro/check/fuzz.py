"""Seeded shape-fuzzing equivalence runner (``python -m repro check``).

Draws random model/mesh configurations — mesh dimension q, Megatron degree
p, batch, sequence length, hidden size, head count, layer count, vocabulary,
parameter dtype, and optimizer hyper-parameters — subject to the two
schemes' divisibility constraints, then runs one forward / backward /
optimizer step of

* the serial :class:`~repro.reference.model.ReferenceTransformer`,
* Optimus on a q×q mesh,
* Megatron on a flat p-rank group,

and diffs losses, every named gradient, and every named post-step parameter
across the three.  A trial passes only when all three agree to the dtype's
tolerance (float64: rtol 1e-9 — distributed summation order is the only
allowed difference; float32: rtol 1e-4).

While the distributed models run, the fuzzer keeps the full correctness
harness engaged: the collective contract checker
(:mod:`repro.check.contracts`) wraps every collective and the simulators
run with strict layout-invariant mode (:mod:`repro.check.invariants`), so
a fuzzed configuration that breaks an internal contract fails loudly at
the offending call rather than as an unexplained numeric diff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

from repro.config import ModelConfig
from repro.utils import UsageError

#: (rtol, atol) per parameter dtype
TOLERANCES = {
    "float64": (1e-9, 1e-12),
    "float32": (1e-4, 1e-6),
}


@dataclass(frozen=True)
class TrialSpec:
    """One fuzzed configuration (all divisibility constraints satisfied)."""

    q: int            # Optimus mesh dimension (p_optimus = q²)
    p: int            # Megatron tensor-parallel degree
    batch: int
    seq: int
    heads: int
    head_dim: int
    layers: int
    vocab: int
    dtype: str
    optimizer: str    # "sgd" | "adam"
    lr: float
    momentum: float
    weight_decay: float
    param_seed: int
    data_seed: int

    @property
    def hidden(self) -> int:
        return self.heads * self.head_dim

    def describe(self) -> str:
        opt = self.optimizer
        if self.momentum:
            opt += f"(m={self.momentum})"
        if self.weight_decay:
            opt += f"(wd={self.weight_decay})"
        return (
            f"q={self.q} p={self.p} b={self.batch} s={self.seq} "
            f"h={self.hidden} n={self.heads} N={self.layers} v={self.vocab} "
            f"{self.dtype} {opt}"
        )


def _divisors(n: int, lo: int, hi: int) -> List[int]:
    return [d for d in range(lo, hi + 1) if n % d == 0]


def draw_spec(rng: np.random.Generator, trial: int) -> TrialSpec:
    """Draw one valid configuration from a seeded generator.

    Constraints (see ``ModelConfig.validate_for_*``): Optimus needs
    b, h, n, v divisible by q; Megatron needs n, v, 4h divisible by p
    (4h % p follows from n % p since h = n·head_dim).
    """
    q = int(rng.choice([1, 2, 2, 3, 3]))
    heads = q * int(rng.integers(1, 3))          # n ∈ {q, 2q}
    p_candidates = _divisors(heads, 2, 4) or [1]
    p = int(rng.choice(p_candidates))
    head_dim = int(rng.choice([2, 4]))
    batch = q * int(rng.integers(1, 3))
    seq = int(rng.choice([4, 8]))
    layers = int(rng.integers(1, 3))
    lcm = q * p // math.gcd(q, p)
    vocab = lcm * int(rng.integers(8, 17))       # small but non-trivial
    dtype = str(rng.choice(["float64", "float64", "float32"]))
    optimizer = str(rng.choice(["sgd", "sgd", "adam"]))
    if optimizer == "adam":
        # Adam's ε-regularized rescaling m̂/(√v̂+ε) amplifies float32
        # rounding on near-zero-gradient params (e.g. fresh biases) to
        # O(lr)-sized update differences — no tolerance separates that
        # noise from a real bug, so Adam trials compare in float64.
        dtype = "float64"
    momentum = float(rng.choice([0.0, 0.9])) if optimizer == "sgd" else 0.0
    weight_decay = float(rng.choice([0.0, 0.01]))
    lr = 0.05 if optimizer == "sgd" else 1e-3
    return TrialSpec(
        q=q, p=p, batch=batch, seq=seq, heads=heads, head_dim=head_dim,
        layers=layers, vocab=vocab, dtype=dtype, optimizer=optimizer,
        lr=lr, momentum=momentum, weight_decay=weight_decay,
        param_seed=1000 + trial, data_seed=2000 + trial,
    )


@dataclass
class TrialResult:
    spec: TrialSpec
    passed: bool
    failures: List[str] = field(default_factory=list)
    max_loss_diff: float = 0.0
    max_grad_diff: float = 0.0
    max_param_diff: float = 0.0


# ----------------------------------------------------------------------
# one trial
# ----------------------------------------------------------------------
def _make_serial_optimizer(spec: TrialSpec, params):
    from repro.training.optim import SerialAdam, SerialSGD

    if spec.optimizer == "adam":
        return SerialAdam(params, lr=spec.lr, weight_decay=spec.weight_decay)
    return SerialSGD(
        params, lr=spec.lr, momentum=spec.momentum, weight_decay=spec.weight_decay
    )


def _make_dist_optimizer(spec: TrialSpec, model):
    from repro.training.optim import Adam, SGD

    if spec.optimizer == "adam":
        return Adam(model.parameters(), lr=spec.lr, weight_decay=spec.weight_decay)
    return SGD(
        model.parameters(), lr=spec.lr,
        momentum=spec.momentum, weight_decay=spec.weight_decay,
    )


def _run_distributed(spec: TrialSpec, cfg, ids, labels, scheme: str, p: int, strict: bool):
    """One forward/backward/step of a distributed scheme on ``p`` devices;
    returns (loss, assembled grads, assembled post-step params)."""
    from repro.mesh.partition import assemble_any
    from repro.nn.init import init_transformer_params
    from repro.schemes import SCHEMES

    params = init_transformer_params(cfg, seed=spec.param_seed, dtype=spec.dtype)
    rec = SCHEMES[scheme]
    sim = rec.simulator(p, trace=True, strict_invariants=strict)
    model = rec.model(sim, cfg, params)
    loss = float(model.forward(ids, labels))
    model.backward()
    named = model.named_parameters()
    grads = {name: np.asarray(assemble_any(p.grad)) for name, p in named.items()}
    opt = _make_dist_optimizer(spec, model)
    opt.step()
    if strict:
        model.validate_invariants()
    post = {name: np.asarray(assemble_any(p.data)) for name, p in named.items()}
    return loss, grads, post, sim


def _sim_state(sim) -> dict:
    """Every per-rank counter the batched engine must reproduce exactly."""
    fields = (
        "clock", "flops", "flops_gemm", "bytes_comm", "weighted_comm_volume",
        "compute_time", "comm_time", "num_collectives",
    )
    return {
        r: tuple(getattr(sim.device(r), f) for f in fields)
        + (sim.device(r).memory.current, sim.device(r).memory.peak)
        for r in sim.ranks
    }


def _diff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, dtype="float64")
                               - np.asarray(b, dtype="float64"))))


def run_trial(
    spec: TrialSpec,
    strict: bool = True,
    contracts: bool = True,
) -> TrialResult:
    """Serial vs Optimus vs Megatron on one fuzzed configuration, with
    Optimus run under both SUMMA executors.

    The Optimus run under the correctness harness is pinned to the per-rank
    SUMMA executor; a second Optimus run outside the harness takes the
    batched executor wherever it is eligible, and must agree with the first
    *bit-exactly* — numerics, per-rank clocks, bytes, memory peaks.  (The
    second run cannot happen under the contract checker: patched
    collectives force the per-rank executor, so it would silently compare
    per-rank against per-rank.)
    """
    from repro.check.contracts import CollectiveContractChecker
    from repro.core import summa
    from repro.nn.init import init_transformer_params
    from repro.reference.model import ReferenceTransformer

    cfg = ModelConfig(
        vocab_size=spec.vocab,
        hidden_size=spec.hidden,
        num_heads=spec.heads,
        num_layers=spec.layers,
        seq_len=spec.seq,
        dtype=spec.dtype,
    )
    rng = np.random.default_rng(spec.data_seed)
    ids = rng.integers(0, cfg.vocab_size, size=(spec.batch, cfg.seq_len))
    labels = rng.integers(0, cfg.vocab_size, size=(spec.batch, cfg.seq_len))

    # --- serial ground truth -----------------------------------------
    params_ref = init_transformer_params(cfg, seed=spec.param_seed, dtype=spec.dtype)
    ref = ReferenceTransformer(cfg, params_ref)
    ref_loss, ref_grads = ref.loss_and_grads(ids, labels)
    ref_loss = float(ref_loss)
    ref_grads = {k: np.asarray(v) for k, v in ref_grads.items()}
    _make_serial_optimizer(spec, params_ref).step(ref_grads)

    # --- distributed schemes, under the full correctness harness -----
    # The checker's patched collectives already force the per-rank SUMMA
    # executor; pinning it here keeps this arm the per-rank reference when
    # the checker is off as well.
    checker = CollectiveContractChecker() if contracts else None
    batched_ready = summa._batched_ready
    schemes = {}
    try:
        summa._batched_ready = lambda sim: False
        if checker is not None:
            checker.install()
        for scheme, p in (("optimus", spec.q**2), ("megatron", spec.p)):
            schemes[scheme] = _run_distributed(spec, cfg, ids, labels, scheme, p, strict)
    finally:
        if checker is not None:
            checker.uninstall()
        summa._batched_ready = batched_ready

    # --- the batched executor, outside the checker (see docstring) ---
    batched = _run_distributed(spec, cfg, ids, labels, "optimus", spec.q**2, strict)

    # --- diff everything ---------------------------------------------
    rtol, atol = TOLERANCES[spec.dtype]
    result = TrialResult(spec=spec, passed=True)
    for scheme, (loss, grads, post, _sim) in schemes.items():
        dl = abs(loss - ref_loss)
        result.max_loss_diff = max(result.max_loss_diff, dl)
        if not np.isclose(loss, ref_loss, rtol=rtol, atol=atol):
            result.failures.append(
                f"{scheme}: loss {loss!r} != serial {ref_loss!r} (diff {dl:.3e})"
            )
        if set(grads) != set(ref_grads):
            result.failures.append(
                f"{scheme}: parameter names {sorted(grads)} != serial "
                f"{sorted(ref_grads)}"
            )
            continue
        for name, g_ref in ref_grads.items():
            d = _diff(grads[name], g_ref)
            result.max_grad_diff = max(result.max_grad_diff, d)
            if not np.allclose(grads[name], g_ref, rtol=rtol, atol=atol):
                result.failures.append(
                    f"{scheme}: grad {name} max diff {d:.3e}"
                )
        for name, p_ref in params_ref.items():
            d = _diff(post[name], p_ref)
            result.max_param_diff = max(result.max_param_diff, d)
            if not np.allclose(post[name], p_ref, rtol=rtol, atol=atol):
                result.failures.append(
                    f"{scheme}: post-step param {name} max diff {d:.3e}"
                )

    l0, g0, p0, sim0 = schemes["optimus"]
    l1, g1, p1, sim1 = batched
    if l0 != l1:
        result.failures.append(
            f"batched: loss {l1!r} != per-rank {l0!r} (must be bit-exact)"
        )
    for label, ref_d, got_d in (("grad", g0, g1), ("post-step param", p0, p1)):
        for name in ref_d:
            if not np.array_equal(ref_d[name], got_d[name]):
                d = _diff(got_d[name], ref_d[name])
                result.failures.append(
                    f"batched: {label} {name} not bit-exact "
                    f"(max diff {d:.3e})"
                )
    s0, s1 = _sim_state(sim0), _sim_state(sim1)
    if s0 != s1:
        bad = [r for r in s0 if s0[r] != s1[r]]
        result.failures.append(
            f"batched: per-rank accounting diverges on ranks {bad}: "
            f"{s0[bad[0]]} != {s1[bad[0]]}"
        )
    result.passed = not result.failures
    return result


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
def run_check(
    seed: int = 0,
    trials: int = 5,
    strict: bool = True,
    contracts: bool = True,
    printer: Callable[[str], None] = print,
) -> bool:
    """Run ``trials`` fuzzed equivalence trials; True when all pass."""
    if trials < 1:  # zero trials would pass with nothing checked
        raise UsageError(f"--trials: must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    all_ok = True
    for t in range(trials):
        spec = draw_spec(rng, trial=seed * 10_000 + t)
        try:
            result = run_trial(spec, strict=strict, contracts=contracts)
        except Exception as exc:  # contract/invariant violations included
            all_ok = False
            printer(f"trial {t}: {spec.describe()}")
            printer(f"  ERROR {type(exc).__name__}: {exc}")
            continue
        status = "ok" if result.passed else "FAIL"
        printer(
            f"trial {t}: {spec.describe()}  [{status}]  "
            f"max diffs: loss {result.max_loss_diff:.2e} "
            f"grad {result.max_grad_diff:.2e} "
            f"param {result.max_param_diff:.2e}"
        )
        for f in result.failures:
            printer(f"  {f}")
        all_ok = all_ok and result.passed
    printer(
        "repro check: all trials passed (Optimus ≡ Megatron ≡ serial ≡ batched)"
        if all_ok
        else "repro check: EQUIVALENCE FAILURES (see above)"
    )
    return all_ok


def main(
    seed: int = 0,
    trials: int = 5,
    strict: bool = True,
    contracts: bool = True,
) -> int:
    """CLI entry point for ``python -m repro check``."""
    return 0 if run_check(seed=seed, trials=trials, strict=strict,
                          contracts=contracts) else 1
