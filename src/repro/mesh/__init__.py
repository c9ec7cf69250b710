"""Device mesh and distributed-tensor representation.

Optimus arranges ``p = q²`` devices into a ``q × q`` mesh (§2.4).  A
:class:`Mesh` owns the row, column and world process groups (with sibling
information so the cost model prices the q concurrent row/column collectives
of a SUMMA step correctly).  A :class:`DTensor` is a layout descriptor plus
one local shard per rank; the layout is a :class:`Layout` record
(:mod:`repro.mesh.layouts`) whose queries every reader derives from, and
:mod:`repro.mesh.partition` converts between global numpy arrays and shards
for tests and I/O.
"""
