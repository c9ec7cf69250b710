"""Stateful hypothesis test of the §3.2.3 buffer manager.

Drives random sequences of hold/release/reset/trim against a simple python
model of the intended semantics and checks the invariants that the memory
accounting of the whole reproduction rests on:

* managed-arena capacity equals the high-water mark of usage since the last
  trim, and is exactly what the device allocator was charged;
* unmanaged usage is charged 1:1;
* the device meter never goes negative and always balances at teardown.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.buffers import REGIONS, BufferManager
from repro.runtime.simulator import Simulator

_REGION = st.sampled_from([r for r in REGIONS if r != "backward"])
_BYTES = st.integers(1, 10_000)


class BufferMachine(RuleBasedStateMachine):
    @initialize(managed=st.booleans())
    def setup(self, managed):
        self.sim = Simulator.for_flat(p=1)
        self.managed = managed
        self.mgr = BufferManager(self.sim, managed=managed)
        self.usage = {r: 0 for r in REGIONS}
        self.capacity = {r: 0 for r in REGIONS}

    # ------------------------------------------------------------------
    @rule(region=_REGION, nbytes=_BYTES)
    def hold(self, region, nbytes):
        self.mgr.hold(region, 0, nbytes)
        self.usage[region] += nbytes
        self.capacity[region] = max(self.capacity[region], self.usage[region])

    @rule(region=_REGION, frac=st.floats(0.0, 1.0))
    def release_some(self, region, frac):
        amount = int(self.usage[region] * frac)
        if amount:
            self.mgr.release(region, 0, amount)
            self.usage[region] -= amount

    @rule(region=_REGION)
    def reset(self, region):
        self.mgr.reset_region(region)
        self.usage[region] = 0
        if not self.managed:
            self.capacity[region] = 0

    @rule(region=_REGION)
    def trim(self, region):
        self.mgr.trim_region(region)
        if self.managed:
            self.capacity[region] = max(self.usage[region], 0)
        if not self.managed:
            self.capacity[region] = self.usage[region]

    @rule(region=_REGION, nbytes=_BYTES)
    def over_release_rejected(self, region, nbytes):
        excess = self.usage[region] + nbytes
        with pytest.raises(ValueError):
            self.mgr.release(region, 0, excess)

    # ------------------------------------------------------------------
    @invariant()
    def usage_matches(self):
        for region in REGIONS:
            if region == "backward":
                continue
            assert self.mgr.usage(region, 0) == self.usage[region]

    @invariant()
    def charged_bytes_match_model(self):
        mem = self.sim.device(0).memory
        if self.managed:
            expected = sum(self.capacity.values())
        else:
            expected = sum(self.usage.values())
        assert mem.current == expected

    @invariant()
    def capacity_reported_correctly(self):
        for region in REGIONS:
            if region == "backward":
                continue
            if self.managed:
                assert self.mgr.capacity(region, 0) == self.capacity[region]
            else:
                assert self.mgr.capacity(region, 0) == self.usage[region]

    def teardown(self):
        self.mgr.release_all()
        assert self.sim.device(0).memory.current == 0


BufferMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestBufferMachine = BufferMachine.TestCase
