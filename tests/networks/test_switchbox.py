"""Unit tests for the non-broadcast switchbox.

A box holds no setting of its own: its setting is read off the
circuits through it (``MultistageNetwork.switch_settings``, Theorem 1).
So the connection cases run on a one-box network whose processor ``i``
feeds input ``i`` and whose output ``o`` feeds resource ``o``; a busy
port is an occupied link, and a second claim on it is the link error.
"""

import pytest

from repro.networks.permutations import identity
from repro.networks.switchbox import Switchbox
from repro.networks.topology import MultistageNetwork, PortRef, assemble


def one_box(n_in=2, n_out=2):
    return assemble("box", n_in, n_out, [[(n_in, n_out)]], [identity, identity])


def connect(net, i, o):
    """Set input ``i`` -> output ``o`` by establishing its circuit."""
    return net.establish_circuit([net.processor_link(i), net.resource_link(o)])


class TestConnections:
    def test_connect_and_query(self):
        net = one_box()
        connect(net, 0, 1)
        assert net.switch_settings() == {net.box(0, 0): {0: 1}}
        assert net.processor_link(0).occupied and net.resource_link(1).occupied
        assert not net.processor_link(1).occupied and not net.resource_link(0).occupied

    def test_non_broadcast_input(self):
        net = one_box()
        connect(net, 0, 0)
        busy = net.processor_link(0).index
        with pytest.raises(ValueError, match=f"^link {busy} already occupied$"):
            connect(net, 0, 1)
        assert net.switch_settings() == {net.box(0, 0): {0: 0}}

    def test_non_broadcast_output(self):
        net = one_box()
        connect(net, 0, 0)
        busy = net.resource_link(0).index
        with pytest.raises(ValueError, match=f"^link {busy} already occupied$"):
            connect(net, 1, 0)
        assert net.switch_settings() == {net.box(0, 0): {0: 0}}

    def test_disconnect(self):
        net = one_box()
        circuit = connect(net, 0, 1)
        net.release_circuit(circuit)
        assert net.switch_settings() == {}
        assert net.occupancy() == 0.0
        with pytest.raises(ValueError, match="not active"):
            net.release_circuit(circuit)

    def test_reset(self):
        net = one_box()
        connect(net, 0, 1)
        connect(net, 1, 0)
        net.release_all()
        assert net.switch_settings() == {}
        assert net.circuits == []

    def test_port_bounds(self):
        net = MultistageNetwork("box", 1, 1)
        net.add_stage([(2, 3)])
        with pytest.raises(ValueError, match="names no switchbox port"):
            net.add_link(PortRef.processor(0), PortRef.box_in(0, 0, 2))
        with pytest.raises(ValueError, match="names no switchbox port"):
            net.add_link(PortRef.box_out(0, 0, 3), PortRef.resource(0))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            Switchbox(0, 0, 0, 2)


class TestNamedSettings:
    def test_straight_and_exchange(self):
        """Fig. 2's two named settings are a 2x2 box's two complete ones."""
        straight, exchange = {0: 0, 1: 1}, {0: 1, 1: 0}
        for setting in (straight, exchange):
            net = one_box()
            for i, o in setting.items():
                connect(net, i, o)
            assert net.switch_settings() == {net.box(0, 0): setting}
        assert sorted(one_box().box(0, 0).legal_settings(), key=str) == [straight, exchange]


class TestLegalSettings:
    def test_2x2_has_two_complete_settings(self):
        box = Switchbox(0, 0, 2, 2)
        settings = list(box.legal_settings())
        assert {frozenset(s.items()) for s in settings} == {
            frozenset({(0, 0), (1, 1)}),
            frozenset({(0, 1), (1, 0)}),
        }

    def test_rectangular_counts(self):
        # 2x3: inject 2 inputs into 3 outputs: 3P2 = 6 settings.
        assert len(list(Switchbox(0, 0, 2, 3).legal_settings())) == 6
        # 3x2: choose which 2 inputs map onto the 2 outputs: 3P2 = 6.
        assert len(list(Switchbox(0, 0, 3, 2).legal_settings())) == 6

    def test_settings_are_injective_matchings(self):
        net = one_box(3, 3)
        for setting in net.box(0, 0).legal_settings():
            assert len(set(setting.values())) == len(setting)
            for i, o in setting.items():
                connect(net, i, o)  # must never raise
            assert net.switch_settings() == {net.box(0, 0): setting}
            net.release_all()
