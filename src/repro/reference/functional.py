"""Functional ops with analytic gradients, on the dispatching backend.

These are the *local* (no-communication) pieces shared by the serial
reference model and by the per-device code of both parallel schemes: GELU,
softmax, layer normalization (the paper's §3.2.2 formulas), and softmax
cross-entropy from logits.

Each ``*_bwd`` consumes the values its ``*_fwd`` returned (never recomputing
data-dependent quantities), matching how the paper's buffering scheme saves
``X̂`` and ``1/√(Var+ε)`` in forward for use in backward.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.backend import ops

_SQRT_2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


# ----------------------------------------------------------------------
# GELU (exact erf formulation, as in BERT/Megatron)
# ----------------------------------------------------------------------
def _erf_term(x):
    return 1.0 + ops.erf(x / _SQRT_2)


def gelu(x):
    """GELU(x) = 0.5 · x · (1 + erf(x/√2))."""
    return 0.5 * x * _erf_term(x)


def gelu_fwd(x):
    """``(GELU(x), 1 + erf(x/√2))``: the activation and the erf term
    :func:`gelu_bwd_from` consumes, so the backward evaluates no second erf."""
    term = _erf_term(x)
    return 0.5 * x * term, term


def _gelu_grad(x, term):
    cdf = 0.5 * term
    pdf = _INV_SQRT_2PI * ops.exp(-0.5 * x * x)
    return cdf + x * pdf


def gelu_grad(x):
    """dGELU/dx = Φ(x) + x·φ(x) with Φ the normal CDF, φ the pdf."""
    return _gelu_grad(x, _erf_term(x))


def gelu_bwd(x, dy):
    return dy * gelu_grad(x)


def gelu_bwd_from(x, term, dy):
    """:func:`gelu_bwd` from the erf term :func:`gelu_fwd` returned."""
    return dy * _gelu_grad(x, term)


# ----------------------------------------------------------------------
# softmax over the last axis
# ----------------------------------------------------------------------
def softmax(x):
    """Numerically-stable softmax along the last axis."""
    z = x - ops.max(x, axis=-1, keepdims=True)
    e = ops.exp(z)
    return e / ops.sum(e, axis=-1, keepdims=True)


def softmax_bwd(y, dy):
    """Backward given the forward *output* y: dx = y ⊙ (dy − Σ y·dy)."""
    s = ops.sum(y * dy, axis=-1, keepdims=True)
    return y * (dy - s)


# ----------------------------------------------------------------------
# layer normalization over the last axis (paper §3.2.2)
# ----------------------------------------------------------------------
def layernorm_fwd(x, gamma, beta, eps: float = 1e-5):
    """Returns (out, x_hat, inv_std); the latter two are saved for backward."""
    mean = ops.mean(x, axis=-1, keepdims=True)
    var = ops.mean(x * x, axis=-1, keepdims=True) - mean * mean
    inv_std = 1.0 / ops.sqrt(var + eps)
    x_hat = (x - mean) * inv_std
    return x_hat * gamma + beta, x_hat, inv_std


def layernorm_bwd(dy, x_hat, inv_std, gamma):
    """The paper's gradient formula.

    dX = inv_std · [ dŶ − (1/h)·Σ dŶ − (1/h)·(Σ X̂·dŶ)·X̂ ]  with dŶ = γ·dy.

    Returns (dx, dgamma, dbeta) where dgamma/dbeta are *unreduced over
    tokens* only in the sense that we already sum over every leading axis —
    callers in the distributed setting re-reduce across devices as needed.
    """
    h = x_hat.shape[-1]
    dy_hat = dy * gamma
    m1 = ops.mean(dy_hat, axis=-1, keepdims=True)
    m2 = ops.mean(dy_hat * x_hat, axis=-1, keepdims=True)
    dx = inv_std * (dy_hat - m1 - x_hat * m2)
    reduce_axes = tuple(range(x_hat.ndim - 1))
    dgamma = ops.sum(dy * x_hat, axis=reduce_axes) if reduce_axes else dy * x_hat
    dbeta = ops.sum(dy, axis=reduce_axes) if reduce_axes else dy
    return dx, dgamma, dbeta


# ----------------------------------------------------------------------
# softmax cross-entropy from logits (paper §3.2.2)
# ----------------------------------------------------------------------
def cross_entropy_fwd(logits, labels) -> Tuple[object, object]:
    """Token-wise loss H = log Σᵢ eˣⁱ − x_l on 2-D logits [T, v].

    Returns (loss_per_token [T], softmax probs [T, v] saved for backward).
    """
    z = logits - ops.max(logits, axis=-1, keepdims=True)
    e = ops.exp(z)
    denom = ops.sum(e, axis=-1, keepdims=True)
    probs = e / denom
    log_denom = ops.log(denom)
    picked = ops.take_along_rows(z, labels)
    loss = log_denom.reshape((logits.shape[0],)) - picked
    return loss, probs


def cross_entropy_bwd(probs, labels, dloss):
    """d logits: qⱼ (j≠l), q_l − 1, scaled by the per-token upstream dloss."""
    if dloss.ndim == 1:
        dloss = dloss.reshape((dloss.shape[0], 1))
    grad = probs * dloss
    ones = ops.ones_like(ops.take_along_rows(probs, labels))
    ops.put_along_rows_add(grad, labels, -ones * dloss.reshape((dloss.shape[0],)))
    return grad
