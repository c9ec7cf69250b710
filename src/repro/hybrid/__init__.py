"""Hybrid data × tensor parallelism.

Production systems (including Colossal-AI, where Optimus landed) compose
tensor parallelism *within* a replica with data parallelism *across*
replicas: each replica processes its slice of the global batch, and
parameter gradients are all-reduced shard-by-shard across replicas before
the (purely local) optimizer step.  :class:`DataParallel` provides exactly
that composition over this library's tensor-parallel models.
"""
