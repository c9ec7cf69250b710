"""Isoefficiency analysis (paper §3.1.2).

Following the paper's setup: b and n scale proportionally to h while s and
N stay fixed, so the serial work is ``W ~ h³`` (MLP-dominated).  Efficiency
is ``E = 1 / (1 + p·T_comm/W)``.  Holding E fixed and solving for h gives
the isoefficiency curve; asymptotically

    Megatron:  W ~ p³
    Optimus:   W ~ (√p · log p)³

i.e. Optimus needs a much smaller problem to stay efficient, which is the
paper's headline scalability claim.
"""

from __future__ import annotations

import math

from repro.perfmodel.costs import TABLE1


def _work(h: float, s: float) -> float:
    """Serial MACs per layer with b = h (the paper's proportionality).

    The attention term ``2bs²h`` is dropped, exactly as in the paper's
    derivation ("with MLP dominating the total computation") — keeping it
    would give efficiency a nonzero floor as h → 0 and break the analysis.
    """
    return 12.0 * h * s * h * h


def _efficiency(scheme: str, h: float, p: int, s: float, beta_over_mac: float) -> float:
    """E = 1/(1 + p·T_comm/W), T_comm the scheme's Table 1 forward row
    (β-weighted scalars) at b = h."""
    if p <= 1:
        return 1.0
    comm = TABLE1[scheme].forward_comm(h, s, h, p)
    return 1.0 / (1.0 + p * beta_over_mac * comm / _work(h, s))


def efficiency_megatron(h: float, p: int, s: float = 512.0, beta_over_mac: float = 1.0) -> float:
    return _efficiency("megatron", h, p, s, beta_over_mac)


def efficiency_optimus(h: float, p: int, s: float = 512.0, beta_over_mac: float = 1.0) -> float:
    return _efficiency("optimus", h, p, s, beta_over_mac)


def isoefficiency_hidden(
    scheme: str,
    p: int,
    target_efficiency: float = 0.8,
    s: float = 512.0,
    beta_over_mac: float = 1.0,
) -> float:
    """The hidden size h at which the scheme reaches the target efficiency.

    Solved with scipy's Brent root finder; E(h) is monotonically increasing
    in h for both schemes (more compute per communicated byte), so the root
    is unique.
    """
    from scipy import optimize  # deferred: only this solve needs it

    if p <= 1:
        return 1.0

    def f(log_h):
        return _efficiency(scheme, math.exp(log_h), p, s, beta_over_mac) - target_efficiency

    lo, hi = math.log(1e-3), math.log(1e15)
    if f(hi) < 0:  # pragma: no cover - unreachable for sane targets
        raise ValueError("target efficiency unreachable")
    return math.exp(optimize.brentq(f, lo, hi, xtol=1e-12))


def isoefficiency_work(
    scheme: str,
    p: int,
    target_efficiency: float = 0.8,
    s: float = 512.0,
    beta_over_mac: float = 1.0,
) -> float:
    """W(p) on the isoefficiency curve (serial MACs per layer)."""
    h = isoefficiency_hidden(scheme, p, target_efficiency, s, beta_over_mac)
    return _work(h, s)


def asymptotic_work_megatron(p: float) -> float:
    """The paper's asymptotic law W ~ p³ (up to a constant)."""
    return float(p) ** 3


def asymptotic_work_optimus(p: float) -> float:
    """The paper's asymptotic law W ~ (√p·log p)³ (up to a constant)."""
    if p <= 1:
        return 1.0
    return (math.sqrt(p) * math.log2(p)) ** 3
