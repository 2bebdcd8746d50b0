"""Stateful property testing of circuit switching.

A hypothesis rule-based state machine drives a MultistageNetwork
through arbitrary interleavings of circuit establishment, release
(by handle or by an equal copy), link/box failure and repair, and path
search, checking after every step that the physical invariants hold:

- the set of occupied links is exactly the union of active circuits'
  links (no leaks, no double-occupancy);
- every derived switch setting is an injective partial matching, and
  the settings are exactly the active circuits' consecutive link pairs
  (``tests.helpers.checked_switch_settings``);
- `find_free_path` never returns occupied or unusable links, so
  establishing its result always succeeds;
- a full `release_all` returns the network to pristine state.
"""

import copy

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.networks import benes, gamma, omega
from tests.helpers import checked_switch_settings


class CircuitMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.net = None
        self.circuits = []

    @rule(kind=st.sampled_from(["omega", "benes", "gamma"]))
    @precondition(lambda self: self.net is None)
    def build(self, kind):
        self.net = {"omega": omega, "benes": benes, "gamma": gamma}[kind](8)
        self.circuits = []

    @rule(p=st.integers(0, 7), r=st.integers(0, 7))
    @precondition(lambda self: self.net is not None)
    def establish(self, p, r):
        path = self.net.find_free_path(p, r)
        if path is None:
            return
        # The path handed back must be entirely free and healthy right now.
        assert all(not link.occupied and self.net.link_usable(link) for link in path)
        circuit = self.net.establish_circuit(path)
        self.circuits.append(circuit)

    @rule(idx=st.integers(0, 30))
    @precondition(lambda self: self.net is not None and self.circuits)
    def release(self, idx):
        circuit = self.circuits.pop(idx % len(self.circuits))
        self.net.release_circuit(circuit)

    @rule(idx=st.integers(0, 30))
    @precondition(lambda self: self.net is not None and self.circuits)
    def release_equal_copy(self, idx):
        circuit = self.circuits.pop(idx % len(self.circuits))
        self.net.release_circuit(copy.deepcopy(circuit))
        assert all(not link.occupied for link in circuit.links)

    @rule(idx=st.integers(0, 200))
    @precondition(lambda self: self.net is not None)
    def fail_link(self, idx):
        self.net.links[idx % len(self.net.links)].failed = True

    @rule(idx=st.integers(0, 200))
    @precondition(lambda self: self.net is not None)
    def fail_box(self, idx):
        boxes = list(self.net.boxes())
        boxes[idx % len(boxes)].failed = True

    @rule(idx=st.integers(0, 200))
    @precondition(lambda self: self.net is not None)
    def repair_link(self, idx):
        self.net.links[idx % len(self.net.links)].failed = False

    @rule()
    @precondition(lambda self: self.net is not None)
    def repair_everything(self):
        for link in self.net.links:
            link.failed = False
        for box in self.net.boxes():
            box.failed = False

    @rule()
    @precondition(lambda self: self.net is not None)
    def release_everything(self):
        self.net.release_all()
        self.circuits = []
        assert self.net.occupancy() == 0.0
        assert self.net.switch_settings() == {}

    @invariant()
    def occupancy_equals_circuit_links(self):
        if self.net is None:
            return
        from_circuits = set()
        for c in self.net.circuits:
            for link in c.links:
                assert link.index not in from_circuits, "link shared by circuits"
                from_circuits.add(link.index)
        occupied = {l.index for l in self.net.links if l.occupied}
        assert occupied == from_circuits

    @invariant()
    def switch_settings_follow_circuits(self):
        if self.net is None:
            return
        checked_switch_settings(self.net)

    @invariant()
    def circuit_count_consistent(self):
        if self.net is None:
            return
        assert len(self.net.circuits) == len(self.circuits)


TestCircuitMachine = CircuitMachine.TestCase
TestCircuitMachine.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
