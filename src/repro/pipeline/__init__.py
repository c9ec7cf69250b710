"""Pipeline parallelism — the other model-parallel family of the paper's §1.

"Pipeline parallelism [GPipe, PipeDream] is to partition the whole model by
layer in a serial manner, so that the input batch is processed on one
device at a time, and then sent to the next device."

We implement it as a comparison substrate on the same simulated runtime as
the tensor-parallel schemes: each simulated device hosts a contiguous slice
of transformer layers (a serial :class:`~repro.reference.stack.LayerStack`),
activations move between stages with point-to-point transfers, the batch is
split into micro-batches, and two schedules are provided:

* **GPipe**: all micro-batch forwards, then all backwards — simple, but all
  m micro-batches' activations are live at the peak;
* **1F1B** (PipeDream-flush): steady-state alternation of one forward and
  one backward — identical bubble fraction ``(S−1)/(m+S−1)``, but at most
  S micro-batches in flight, so much lower activation memory.

Numerics are exact (the loss and gradients equal full-batch serial
training); the test suite checks both that and the schedule properties
(bubble fraction, memory ordering).
"""
