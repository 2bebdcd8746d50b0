"""Unit tests for the non-broadcast switchbox."""

import pytest

from repro.networks.switchbox import Switchbox


class TestConnections:
    def test_connect_and_query(self):
        box = Switchbox(0, 0, 2, 2)
        box.connect(0, 1)
        assert box.output_for(0) == 1
        assert box.connections == {0: 1}
        assert not box.input_free(0)
        assert not box.output_free(1)
        assert box.input_free(1)
        assert box.output_free(0)

    def test_non_broadcast_input(self):
        box = Switchbox(0, 0, 2, 2)
        box.connect(0, 0)
        with pytest.raises(ValueError, match="non-broadcast"):
            box.connect(0, 1)

    def test_non_broadcast_output(self):
        box = Switchbox(0, 0, 2, 2)
        box.connect(0, 0)
        with pytest.raises(ValueError, match="non-broadcast"):
            box.connect(1, 0)

    def test_disconnect(self):
        box = Switchbox(0, 0, 2, 2)
        box.connect(0, 1)
        box.disconnect(0)
        assert box.input_free(0) and box.output_free(1)
        with pytest.raises(ValueError, match="not connected"):
            box.disconnect(0)

    def test_reset(self):
        box = Switchbox(0, 0, 2, 2)
        box.connect(0, 1)
        box.connect(1, 0)
        box.reset()
        assert box.n_connected == 0

    def test_port_bounds(self):
        box = Switchbox(0, 0, 2, 3)
        with pytest.raises(ValueError):
            box.connect(2, 0)
        with pytest.raises(ValueError):
            box.connect(0, 3)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            Switchbox(0, 0, 0, 2)


class TestNamedSettings:
    def test_straight_and_exchange(self):
        box = Switchbox(0, 0, 2, 2)
        box.connect(0, 0)
        box.connect(1, 1)
        assert box.is_straight and not box.is_exchange
        box.reset()
        box.connect(0, 1)
        box.connect(1, 0)
        assert box.is_exchange and not box.is_straight

    def test_non_2x2_never_straight(self):
        box = Switchbox(0, 0, 3, 3)
        box.connect(0, 0)
        box.connect(1, 1)
        assert not box.is_straight


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
        box = Switchbox(0, 0, 3, 3)
        for setting in box.legal_settings():
            assert len(set(setting.values())) == len(setting)
            box.reset()
            for i, o in setting.items():
                box.connect(i, o)  # must never raise
