"""Property tests for the atomic batch establish.

``establish_circuits`` is the scheduling cycle's grant primitive (one
pass over the hop table per path).  Hypothesis drives it over
omega/benes/clos networks carrying random pre-established circuits and
failed links and boxes, with batches that are valid, blocked, or
malformed:

- on success the network ends in exactly the state sequential
  ``establish_circuit`` calls produce (links, the derived switch
  settings, ``circuits`` order);
- on any failing path it raises ``ValueError`` with the message of the
  reference check order below — shape, then links, then switches, path
  by path, as ``establish_circuit`` has always reported — and leaves
  the network bit-for-bit untouched.

Link occupancy is the only circuit state, so the reference still asks
for free switch ports (read off the derived settings) but never finds
one busy: a busy port is an occupied link, reported first.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.networks import benes, clos, omega
from tests.helpers import checked_switch_settings

BUILDERS = {
    "omega": lambda: omega(8),
    "benes": lambda: benes(8),
    "clos": lambda: clos(3, 2, 4),
}


def reference_error(net, paths):
    """The first violation in the documented order, or ``None``.

    Deliberately the slow, literal formulation over ``PortRef``
    coordinates: three loops per path, one check per line.
    """
    seen = set()
    held = net.switch_settings()
    for links in paths:
        if not links:
            return "empty path"
        if links[0].src.kind != "proc":
            return f"path must start at a processor, got {links[0].src}"
        if links[-1].dst.kind != "res":
            return f"path must end at a resource, got {links[-1].dst}"
        for a, b in zip(links, links[1:]):
            if a.dst.kind != "box_in" or b.src.kind != "box_out":
                return f"links {a.index} and {b.index} do not meet at a box"
            if (a.dst.stage, a.dst.box) != (b.src.stage, b.src.box):
                return (
                    f"links {a.index} and {b.index} meet different boxes "
                    f"({a.dst.stage},{a.dst.box}) vs ({b.src.stage},{b.src.box})"
                )
        for link in links:
            if link.occupied:
                return f"link {link.index} already occupied"
            if link.failed:
                return f"link {link.index} has failed"
            if link.index in seen:
                return f"two paths share link {link.index}"
            seen.add(link.index)
        for a, b in zip(links, links[1:]):
            box = net.box(a.dst.stage, a.dst.box)
            if box.failed:
                return f"{box} has failed"
            setting = held.get(box, {})
            if a.dst.port in setting:
                return f"{box} input {a.dst.port} busy"
            if b.src.port in setting.values():
                return f"{box} output {b.src.port} busy"
    return None


def state(net):
    """Everything circuit switching may touch, as plain values."""
    return (
        [(link.occupied, link.failed) for link in net.links],
        [box.failed for box in net.boxes()],
        checked_switch_settings(net),
        [
            (c.processor, c.resource, [link.index for link in c.links])
            for c in net.circuits
        ],
    )


@st.composite
def scenarios(draw):
    """A network in a random state plus a batch of candidate paths."""
    kind = draw(st.sampled_from(sorted(BUILDERS)))
    net, twin = BUILDERS[kind](), BUILDERS[kind]()
    n = net.n_processors
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for p, r in draw(st.lists(pairs, max_size=4)):
        path = net.find_free_path(p, r)
        if path is not None:
            net.establish_circuit(path)
    for index in draw(st.lists(st.integers(0, len(net.links) - 1), max_size=2)):
        net.links[index].failed = True
    boxes = list(net.boxes())
    for index in draw(st.lists(st.integers(0, len(boxes) - 1), max_size=1)):
        boxes[index].failed = True
    # Candidate paths come from a pristine twin, so they are well formed
    # and mutually disjoint but know nothing of the real network's state.
    paths = []
    for p, r in draw(st.lists(pairs, min_size=1, max_size=4)):
        found = twin.find_free_path(p, r)
        if found is not None:
            twin.establish_circuit(found)
            paths.append([net.links[link.index] for link in found])
    for _ in range(draw(st.integers(0, 1)) if paths else 0):
        victim = draw(st.integers(0, len(paths) - 1))
        path = paths[victim]
        cut = draw(st.integers(0, len(path) - 1))
        mutation = draw(st.sampled_from(
            ["empty", "drop", "reverse", "repeat", "swap", "splice", "headless", "tailless"]
        ))
        if mutation == "empty":
            paths[victim] = []
        elif mutation == "drop":
            paths[victim] = path[:cut] + path[cut + 1:]
        elif mutation == "reverse":
            paths[victim] = path[::-1]
        elif mutation == "repeat":
            paths.append(list(path))
        elif mutation == "swap":
            other = draw(st.integers(0, len(net.links) - 1))
            paths[victim] = path[:cut] + [net.links[other]] + path[cut + 1:]
        elif mutation == "splice":  # a second processor link mid-path
            paths[victim] = path[:cut + 1] + [net.processor_link(0)] + path[cut + 1:]
        elif mutation == "headless":
            paths[victim] = path[1:]
        else:
            paths[victim] = path[:-1]
    return net, paths


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_batch_establish_matches_sequential_or_leaves_network_untouched(scenario):
    net, paths = scenario
    expected = reference_error(net, paths)
    before = state(net)
    if expected is not None:
        with pytest.raises(ValueError) as raised:
            net.establish_circuits(paths)
        assert str(raised.value) == expected
        assert state(net) == before
        return
    sequential = copy.deepcopy(net)
    for path in paths:
        sequential.establish_circuit([sequential.links[link.index] for link in path])
    circuits = net.establish_circuits(paths)
    assert state(net) == state(sequential)
    assert net.circuits[len(net.circuits) - len(paths):] == circuits
    for circuit, path in zip(circuits, paths):
        assert circuit.links == tuple(path)
        assert (circuit.processor, circuit.resource) == (path[0].src.box, path[-1].dst.box)
    for circuit in circuits:
        net.release_circuit(circuit)
    assert state(net) == before


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_single_establish_reports_the_same_errors(scenario):
    net, paths = scenario
    for path in paths:
        expected = reference_error(net, [path])
        before = state(net)
        if expected is None:
            net.establish_circuit(path)
        else:
            with pytest.raises(ValueError) as raised:
                net.establish_circuit(path)
            assert str(raised.value) == expected
            assert state(net) == before
