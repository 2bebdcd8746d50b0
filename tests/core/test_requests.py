"""Unit tests for Request / Resource value objects."""

import pytest

from repro.core.requests import DEFAULT_TYPE, Request, Resource


class TestRequest:
    def test_defaults(self):
        req = Request(3)
        assert req.resource_type == DEFAULT_TYPE
        assert req.priority == 1

    def test_negative_processor_rejected(self):
        with pytest.raises(ValueError):
            Request(-1)

    def test_priority_floor(self):
        with pytest.raises(ValueError):
            Request(0, priority=0)

    @pytest.mark.parametrize("level", [2.5, float("nan"), float("inf")])
    def test_priority_must_be_integral(self, level):
        # Annotated int, but nothing checked: a fractional level used to
        # surface as a non-integral arc cost deep inside a solver.
        with pytest.raises(ValueError, match="priority .* must be an integer >= 1"):
            Request(0, priority=level)
        assert Request(0, priority=2.0).priority == 2  # integral value: fine

    def test_tag_excluded_from_equality(self):
        assert Request(1, tag="a") == Request(1, tag="b")

    def test_frozen(self):
        req = Request(1)
        with pytest.raises(AttributeError):
            req.processor = 2  # type: ignore[misc]


class TestResource:
    def test_defaults(self):
        res = Resource(0)
        assert res.available and not res.busy
        assert res.preference == 1

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            Resource(-2)

    def test_preference_floor(self):
        with pytest.raises(ValueError):
            Resource(0, preference=0)

    @pytest.mark.parametrize("value", [1.5, float("nan")])
    def test_preference_must_be_integral(self, value):
        with pytest.raises(ValueError, match="preference .* must be an integer >= 1"):
            Resource(0, preference=value)

    def test_busy_means_unavailable(self):
        res = Resource(0)
        res.busy = True
        assert not res.available
