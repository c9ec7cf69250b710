"""Correctness tooling: collective contracts, layout invariants, fuzzing.

Three layers, each usable on its own:

* :mod:`repro.check.contracts` — wrap every collective in
  :mod:`repro.comm.collectives` and assert MPI semantics against a serial
  oracle plus byte/clock conservation laws after every call;
* :mod:`repro.check.invariants` — validate any DTensor against its layout
  contract (tiling, ownership partition, replica bit-identity); installed
  as the simulator's *strict mode* (``strict_mode``);
* :mod:`repro.check.fuzz` — the ``python -m repro check`` seeded
  shape-fuzzing equivalence runner (Optimus vs Megatron vs serial).
"""
