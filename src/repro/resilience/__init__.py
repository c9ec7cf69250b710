"""Fault injection and recovery: the simulator's unhappy path.

The paper's target jobs run for weeks on 64-GPU clusters, where rank
crashes, link flaps, stragglers and silent data corruption are routine.
This package adds a deterministic, seeded fault injector wired into the
collectives (:mod:`repro.resilience.injector`), a declarative fault model
(:mod:`repro.resilience.faults`), a trainer with checkpoint/restart and
SDC guards (:mod:`repro.resilience.trainer`), and seeded chaos campaigns
that prove recovery is lossless (:mod:`repro.resilience.chaos`, surfaced
as ``python -m repro chaos``).  With no injector installed the whole
machinery costs one attribute read per collective — the same
zero-overhead-when-off bar as ``repro.check``.
"""
