"""Array backends for the Optimus reproduction.

Two interchangeable backends execute the same module code:

* the **numpy backend** operates on real :class:`numpy.ndarray` data and is
  used for numerical-correctness work (tests, examples, training);
* the **shape backend** operates on :class:`ShapeArray` placeholders that
  carry only ``shape``/``dtype``.  It lets the full distributed model run at
  paper scale (h=8192, b=384, 64 devices) without allocating any data while
  still exercising the identical code paths, so FLOP/byte/memory accounting
  is shared between modes.

All module code goes through :mod:`repro.backend.ops`, which dispatches on
array type.
"""
