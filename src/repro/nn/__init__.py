"""Shared neural-network utilities: parameter initialization and gradient
checking.  Both parallel schemes and the serial reference consume the *same*
globally-initialized parameter dict (:mod:`repro.nn.init`), which is what
makes bit-level equivalence testing between the three implementations
possible; :mod:`repro.nn.gradcheck` holds the finite-difference checker.

:mod:`repro.nn.transformer` holds the transformer stack and
:mod:`repro.nn.leaves` its leaves, both of which the parallel schemes
subclass.
"""
