"""Wire-protocol tests: every frame kind round-trips through
encode/decode, and every class of malformed input is rejected with a
:class:`ProtocolError` (never anything else)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.wire import protocol
from repro.wire.protocol import (
    PUSH_ID,
    REPLY_KINDS,
    REQUEST_KINDS,
    WIRE_VERSION,
    Frame,
    ProtocolError,
    decode,
    encode,
)

ids = st.integers(0, 2**31)
reasons = st.text(max_size=40)


def frames() -> st.SearchStrategy[Frame]:
    """A strategy generating every frame kind via its constructor."""
    return st.one_of(
        st.builds(
            protocol.make_acquire,
            ids,
            st.integers(0, 1023),
            resource_type=st.one_of(st.text(min_size=1, max_size=8), st.integers(0, 9)),
            priority=st.integers(1, 8),
            timeout=st.one_of(st.none(), st.floats(0.001, 100.0)),
        ),
        st.builds(protocol.make_release, ids, ids),
        st.builds(protocol.make_end_tx, ids, ids),
        st.builds(protocol.make_ping, ids),
        st.builds(protocol.make_stats, ids),
        st.builds(
            protocol.make_lease, ids, ids, st.integers(0, 1023),
            st.floats(0.0, 1000.0),
        ),
        st.builds(protocol.make_rejected, ids, reasons),
        st.builds(protocol.make_timeout, ids, reasons),
        st.builds(protocol.make_revoked, ids, ids, reasons),
        st.builds(protocol.make_error, ids, reasons),
        st.builds(protocol.make_ok, ids),
        st.builds(protocol.make_pong, ids),
    )


class TestRoundTrip:
    @given(frame=frames())
    @settings(max_examples=400, deadline=None)
    def test_every_frame_kind_round_trips(self, frame):
        """Property: decode(encode(f)) == f for every constructor-built
        frame — kinds, ids, and payloads all survive the wire."""
        assert decode(encode(frame)) == frame

    @given(frame=frames())
    @settings(max_examples=100, deadline=None)
    def test_encoding_is_one_json_line(self, frame):
        line = encode(frame)
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1
        document = json.loads(line)
        assert document["v"] == WIRE_VERSION
        assert document["kind"] == frame.kind
        assert document["id"] == frame.request_id

    @given(
        payload=st.dictionaries(
            st.text(max_size=8).filter(lambda key: key not in ("v", "kind", "id")),
            st.text(st.sampled_from("a\n\r\u2028\u2029\x0b\x0c\x1c\x85\\\""), max_size=12),
            max_size=4,
        ),
        reason=st.text(st.sampled_from("\n\r\u2028x"), min_size=1, max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_line_breaks_in_payload_strings_never_break_the_frame(self, payload, reason):
        """``encode`` has no newline guard: ``json.dumps`` escapes every
        control character and, with ASCII output, every line separator,
        so the frame's only raw ``\\n`` is its terminator."""
        for frame in (Frame("OK", 1, payload), protocol.make_error(2, reason)):
            line = encode(frame)
            assert line.count(b"\n") == 1 and line.endswith(b"\n")
            assert b"\r" not in line and "\u2028".encode() not in line
            assert decode(line) == frame

    def test_all_kinds_covered_by_constructors(self):
        """The constructors must span the full kind vocabulary — a new
        kind without a constructor would silently dodge the round-trip
        property above."""
        built = {
            protocol.make_acquire(1, 0).kind,
            protocol.make_release(1, 1).kind,
            protocol.make_end_tx(1, 1).kind,
            protocol.make_ping(1).kind,
            protocol.make_stats(1).kind,
            protocol.make_lease(1, 1, 0, 0.0).kind,
            protocol.make_rejected(1, "r").kind,
            protocol.make_timeout(1, "r").kind,
            protocol.make_revoked(PUSH_ID, 1, "r").kind,
            protocol.make_error(1, "m").kind,
            protocol.make_ok(1).kind,
            protocol.make_pong(1).kind,
        }
        assert built == set(REQUEST_KINDS) | set(REPLY_KINDS)


def test_reply_schema_pairs_request_kinds_with_reply_kinds():
    """The table lint rule R008 checks the server against names only
    real kinds (it is a literal, so this covers every import of it)."""
    assert set(protocol.REPLY_SCHEMA) == set(REQUEST_KINDS)
    for replies in protocol.REPLY_SCHEMA.values():
        assert replies and set(replies) <= set(REPLY_KINDS)


class TestMalformedInput:
    @pytest.mark.parametrize(
        "line, fragment",
        [
            (b"", "empty"),
            (b"   \n", "empty"),
            (b"\xff\xfe{", "UTF-8"),
            (b"{not json}\n", "JSON"),
            (b"[1,2,3]\n", "object"),
            (b"42\n", "object"),
            (b'{"kind":"PING","id":1}\n', "version"),
            (b'{"v":99,"kind":"PING","id":1}\n', "version"),
            (b'{"v":1,"kind":"NOPE","id":1}\n', "kind"),
            (b'{"v":1,"id":1}\n', "kind"),
            (b'{"v":1,"kind":"PING"}\n', "id"),
            (b'{"v":1,"kind":"PING","id":-1}\n', "id"),
            (b'{"v":1,"kind":"PING","id":"7"}\n', "id"),
            (b'{"v":1,"kind":"PING","id":true}\n', "id"),
        ],
    )
    def test_each_defect_raises_protocol_error(self, line, fragment):
        with pytest.raises(ProtocolError, match=fragment):
            decode(line)

    @given(junk=st.binary(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_never_raise_anything_else(self, junk):
        """Property: hostile input produces ProtocolError or a Frame,
        never any other exception (the server turns ProtocolError into
        an ERROR reply; anything else would kill the connection)."""
        try:
            frame = decode(junk)
        except ProtocolError:
            return
        assert isinstance(frame, Frame)

    def test_text_input_accepted(self):
        frame = decode('{"v":1,"kind":"PING","id":3}')
        assert frame == protocol.make_ping(3)


class TestFrameValidation:
    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ProtocolError, match="kind"):
            Frame("BOGUS", 1)

    def test_bad_request_ids_rejected(self):
        with pytest.raises(ProtocolError):
            Frame("PING", -1)
        with pytest.raises(ProtocolError):
            Frame("PING", True)
        with pytest.raises(ProtocolError):
            Frame("PING", "7")

    def test_payload_may_not_shadow_envelope(self):
        with pytest.raises(ProtocolError, match="shadow"):
            Frame("OK", 1, {"kind": "LEASE"})

    def test_unencodable_payload_raises_protocol_error(self):
        with pytest.raises(ProtocolError, match="unencodable"):
            encode(Frame("OK", 1, {"bad": object()}))

    def test_get_reads_payload_with_default(self):
        frame = protocol.make_acquire(1, 5, priority=3)
        assert frame.get("processor") == 5
        assert frame.get("priority") == 3
        assert frame.get("missing", "d") == "d"
