"""Serial (single-device) reference transformer.

This package is the numerical ground truth: the distributed Optimus and
Megatron implementations must match its forward values and parameter/input
gradients exactly (up to float round-off) when given the same global
parameters.  Gradients are analytic, verified by finite differences in the
test suite.
"""
