"""hostbench — the host-time benchmark of the simulator (see README.md).

Drives ``repro`` through public functions only, from one process at a time,
and attributes host time to the repo's layers from outside.  Nothing under
``src/`` imports this package.
"""
