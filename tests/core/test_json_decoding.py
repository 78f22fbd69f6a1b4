"""One JSON decoder for frames, WAL records and checkpoints.

:func:`repro.core.wire.decode_json` reads with orjson and falls back to
the stdlib for bytes orjson could get wrong: a run of 19 or more digits
(orjson turns an integer beyond 64 bits into a float) and anything
orjson refuses (a lone surrogate, ``NaN``, ``1e400``, malformed text).
These tests check that every frame decodes to the value and the types
the stdlib gives, that integers beyond 64 bits survive a WAL segment
and a checkpoint, that non-finite numbers are refused on the wire, and
that an ordinary ``query`` reply never reaches the stdlib.
"""

from __future__ import annotations

import json
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Journal, JournalServer, Observation, RemoteClient, wire
from repro.core.durability import JournalStore
from repro.core.records import Attribute, InterfaceRecord

#: the integers either side of what orjson holds exactly (signed and
#: unsigned 64 bits) and of the 19-digit rule
BOUNDARY_INTS = [
    2**63 - 1, 2**63, -(2**63), -(2**63) - 1,
    2**64 - 1, 2**64, -(2**64), 2**70,
    10**17, 10**18 - 1, -(10**18 - 1),  # 18 digits
    10**18, 10**19 - 1, -(10**18),  # 19 digits
    10**19, 2**64 + 1, -(10**19),  # 20 digits
]

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from(BOUNDARY_INTS),
    st.floats(allow_nan=False, allow_infinity=False),
    # st.characters() includes lone surrogates
    st.text(alphabet=st.characters(), max_size=8),
)

JSON = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=20,
)


def _typed(value):
    """*value* with every scalar as ``(type, repr)``: an int that came
    back as a float, or ``-0.0`` as ``0.0``, compares unequal."""
    if isinstance(value, dict):
        return {key: _typed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_typed(item) for item in value]
    return (type(value).__name__, repr(value))


def _store(directory):
    return JournalStore(
        str(directory), fsync="never", checkpoint_ops=None,
        checkpoint_bytes=None, checkpoint_age=None,
    )


class TestDecoder:
    @settings(max_examples=400, deadline=None)
    @given(JSON)
    def test_decodes_what_the_stdlib_decodes(self, value):
        line = wire.encode_message({"v": value})
        expected = json.loads(line.decode("utf-8"))
        assert _typed(wire.decode_message(line)) == _typed(expected)

    @pytest.mark.parametrize("value", BOUNDARY_INTS, ids=str)
    def test_an_integer_stays_an_integer(self, value):
        decoded = wire.decode_message(wire.encode_message({"v": value, "w": [value]}))
        assert decoded == {"v": value, "w": [value]}
        assert type(decoded["v"]) is int and type(decoded["w"][0]) is int

    @pytest.mark.parametrize("text", ["\ud800", "a\udfffb", "bücher", "日本", "😀"])
    def test_text_round_trips(self, text):
        assert wire.decode_message(wire.encode_message({"v": text})) == {"v": text}

    def test_a_long_digit_run_in_a_string_is_still_a_string(self):
        line = b'{"v":"' + b"1" * 40 + b'"}\n'
        assert wire.decode_message(line) == {"v": "1" * 40}

    @pytest.mark.parametrize("literal", [b"1e400", b"-1e400", b"1E999", b"[2.5e308]"])
    def test_an_overflowing_number_is_refused(self, literal):
        with pytest.raises(wire.WireError, match="non-finite"):
            wire.decode_message(b'{"op":"negative_put","ttl":%s}\n' % literal)

    @pytest.mark.parametrize("line, message", [
        (b"[1,2]\n", "message must be a JSON object"),
        (b'{"op":\n', "malformed message"),
        (b'{"op":"\xff"}\n', "malformed message"),
        (b"[" + b"9" * 30 + b"]\n", "message must be a JSON object"),
    ])
    def test_what_neither_decodes_raises_the_stdlibs_wire_error(self, line, message):
        with pytest.raises(wire.WireError, match=message):
            wire.decode_message(line)

    def test_the_wal_fallback_stays_permissive(self):
        """A WAL record or checkpoint is read as the stdlib read it before
        orjson: non-finite constants load, as they always did."""
        assert wire.decode_json(b'{"x":NaN,"y":1e400}')["y"] == float("inf")


class TestDurableFilesHoldBigIntegers:
    """An integer beyond 64 bits (here an attribute value the wire does
    not constrain) survives a WAL replay and a checkpoint load."""

    def _live(self, directory):
        store = _store(directory)
        journal = store.recover(clock=iter(float(t) for t in range(1, 100)).__next__)
        journal.submit(Observation(source="ARPwatch", ip="10.0.0.2", mac="08:00:20:00:00:02"))
        foreign = InterfaceRecord()
        foreign.attributes = {
            "ip": Attribute("10.0.0.3", 1.0, 1.0, 1.0, "replica"),
            "vendor": Attribute(2**70, 1.0, 1.0, 1.0, "replica"),
            "serial": Attribute(-(2**63) - 1, 1.0, 1.0, 1.0, "replica"),
        }
        journal.absorb_interface(foreign)
        return store, journal

    @staticmethod
    def _check(recovered, journal):
        assert recovered.identity_state() == journal.identity_state()
        (record,) = recovered.interfaces_by_ip("10.0.0.3")
        assert type(record.attributes["vendor"].value) is int
        assert record.attributes["vendor"].value == 2**70
        assert record.attributes["serial"].value == -(2**63) - 1

    def test_a_wal_segment(self, tmp_path):
        store, journal = self._live(tmp_path)
        store.close(checkpoint=False)
        store = _store(tmp_path)
        recovered = store.recover(clock=lambda: 0.0)
        assert store.last_recovery.recovered_records == 2
        self._check(recovered, journal)
        store.close(checkpoint=False)

    def test_a_checkpoint(self, tmp_path):
        store, journal = self._live(tmp_path)
        store.checkpoint()
        store.close(checkpoint=False)
        store = _store(tmp_path)
        recovered = store.recover(clock=lambda: 0.0)
        assert store.last_recovery.checkpoint_loaded
        assert store.last_recovery.recovered_records == 0
        self._check(recovered, journal)
        store.close(checkpoint=False)


def test_an_integer_past_the_stdlibs_digit_limit_is_a_malformed_frame():
    """The stdlib refuses to convert an integer of more than 4300 digits
    with a bare ValueError; the server answers ``ok: false`` and keeps
    serving, as for any other malformed frame."""
    server = JournalServer(Journal())
    server.start()
    try:
        with socket.create_connection(server.address, timeout=5) as sock:
            reader = wire.FrameReader(sock)
            sock.sendall(b'{"op":"ping","id":' + b"9" * 5000 + b"}\n")
            reply = reader.read(5.0)
            assert reply["ok"] is False and "malformed message" in reply["error"]
            sock.sendall(wire.encode_message({"op": "ping", "id": 1}))
            assert reader.read(5.0)["ok"] is True
    finally:
        server.stop()


class _NoStdlibDecoder:
    """The ``json`` module, but with a ``loads`` that fails the test."""

    def __getattr__(self, name):
        return getattr(json, name)

    @staticmethod
    def loads(*args, **kwargs):
        raise AssertionError("the stdlib decoder was called")


def test_a_query_reply_takes_the_orjson_path(monkeypatch):
    journal = Journal()
    for index in range(50):
        journal.submit(Observation(
            source="ARPwatch", ip=f"10.0.0.{index + 1}",
            mac="08:00:20:00:00:{:02x}".format(index), dns_name=f"höst-{index}.example",
        ))
    server = JournalServer(journal)
    server.start()
    client = RemoteClient(*server.address)
    try:
        monkeypatch.setattr(wire, "json", _NoStdlibDecoder())
        records = client.query("interfaces")
        assert len(records) == 50
        assert records[0].last_verified == journal.interfaces[records[0].record_id].last_verified
    finally:
        monkeypatch.undo()
        client.close()
        server.stop()
