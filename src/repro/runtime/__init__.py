"""Simulated multi-device runtime.

A :class:`Simulator` owns one :class:`SimDevice` per rank.  Devices carry a
bulk-synchronous-parallel clock, FLOP and communication counters, and a
byte-accurate :class:`MemoryMeter`.  Collectives (in :mod:`repro.comm`)
advance and synchronize clocks using the α–β cost model; local compute
charges ``flops / effective_flops`` seconds.

The same runtime backs both execution modes: in numeric mode device shards
hold real numpy data, in dryrun mode they hold ShapeArray placeholders — the
accounting is identical because it is driven by shapes, not data.
"""
