"""Shared neural-network utilities: parameter initialization and gradient
checking.  Both parallel schemes and the serial reference consume the *same*
globally-initialized parameter dict, which is what makes bit-level
equivalence testing between the three implementations possible.

:mod:`repro.nn.transformer` holds the transformer stack and
:mod:`repro.nn.leaves` its leaves, both of which the parallel schemes
subclass; import them by their full names (they build on ``repro.core``'s
parameter and buffer classes, which this package must not pull in).
"""

from repro.nn.gradcheck import check_grad, numerical_grad
from repro.nn.init import init_transformer_params, spectral_scale

__all__ = [
    "init_transformer_params",
    "spectral_scale",
    "numerical_grad",
    "check_grad",
]
