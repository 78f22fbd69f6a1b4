"""The record codec: attributes as positional rows.

Every record crosses the wire (and lands in checkpoints and saved
journals) with each attribute as a row ``[value, first, changed,
verified, source, quality, verified_by, verified_live]``, plus its
history as a ninth item when it has one.  These tests check that every
record kind survives the trip exactly, that malformed rows are refused
with :class:`~repro.core.wire.WireError`, that object-form attributes
(checkpoint format 1) still recover, and that the frame reader splits a
byte stream into the same frames wherever ``recv`` cuts it.
"""

from __future__ import annotations

import json
import socket
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import wire
from repro.core.durability import JournalStore
from repro.core.records import (
    Attribute,
    GatewayRecord,
    InterfaceRecord,
    Observation,
    Quality,
    SubnetRecord,
)

SOURCES = ["ARPwatch", "DNS", "RIPwatch", "Traceroute"]
TIMES = st.one_of(
    st.floats(min_value=0.0, max_value=1e10, allow_nan=False), st.integers(0, 10**10)
)
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**53), 2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
)
SUBNET_KEYS = ["10.0.1.0/24", "10.0.2.0/24", "128.138.243.0/24"]


@st.composite
def attributes(draw, values=VALUES):
    """Any attribute: a passive source may keep ``verified_live`` None,
    either quality, with or without history."""
    attribute = Attribute(
        value=draw(values),
        first_discovered=draw(TIMES),
        last_changed=draw(TIMES),
        last_verified=draw(TIMES),
        source=draw(st.sampled_from(SOURCES)),
        quality=draw(st.sampled_from([Quality.GOOD, Quality.QUESTIONABLE])),
        verified_by=draw(st.sampled_from(SOURCES)),
        last_verified_live=draw(st.one_of(st.none(), TIMES)),
    )
    attribute.history = draw(st.lists(st.tuples(values, TIMES), max_size=3))
    return attribute


def _base(draw, record, names):
    record.record_id = draw(st.integers(1, 2**40))
    record.created_at = draw(st.one_of(st.none(), TIMES))
    record.last_modified = draw(TIMES)
    record.revision = draw(st.integers(0, 10**9))
    record.attributes = draw(
        st.dictionaries(st.sampled_from(names), attributes(), max_size=len(names))
    )
    return record


@st.composite
def interfaces(draw):
    names = ["ip", "mac", "dns_name", "subnet_mask", "vendor", "gateway_id"]
    return _base(draw, InterfaceRecord(), names)


@st.composite
def gateways(draw):
    record = _base(draw, GatewayRecord(), ["name"])
    record.interface_ids = draw(st.lists(st.integers(1, 2**40), max_size=4))
    record.connected_subnets = draw(
        st.dictionaries(st.sampled_from(SUBNET_KEYS), attributes(), max_size=3)
    )
    return record


@st.composite
def subnets(draw):
    # The DNS census statistics ride as ordinary attributes.
    names = ["subnet", "mask", "host_count", "lowest_address", "highest_address"]
    record = _base(draw, SubnetRecord(), names)
    record.gateway_ids = draw(st.lists(st.integers(1, 2**40), max_size=4))
    return record


CODECS = {
    InterfaceRecord: (wire.interface_to_dict, wire.interface_from_dict),
    GatewayRecord: (wire.gateway_to_dict, wire.gateway_from_dict),
    SubnetRecord: (wire.subnet_to_dict, wire.subnet_from_dict),
}


def _state(record) -> str:
    # repr tells 1 from 1.0 and a tuple from a list, which == does not.
    return repr(vars(record))


def _object_form(row):
    """An attribute row as the object that ``fremont-checkpoint-1``
    files carry."""
    value, first, changed, verified, source, quality, verified_by, live = row[:8]
    data = {
        "value": value, "first": first, "changed": changed, "verified": verified,
        "source": source, "quality": quality, "verified_by": verified_by,
    }
    if live is not None:
        data["verified_live"] = live
    if len(row) == 9:
        data["history"] = row[8]
    return data


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(interfaces(), gateways(), subnets()))
    def test_every_record_kind_survives_the_wire_exactly(self, record):
        encode, decode = CODECS[type(record)]
        line = wire.encode_message(encode(record))
        back = decode(wire.decode_message(line))
        assert type(back) is type(record)
        assert _state(back) == _state(record)

    @settings(max_examples=100, deadline=None)
    @given(attributes())
    def test_row_carries_history_only_when_there_is_one(self, attribute):
        row = wire.attribute_to_dict(attribute)
        assert len(row) == (9 if attribute.history else 8)
        assert row[7] == attribute.last_verified_live

    @settings(max_examples=100, deadline=None)
    @given(attributes())
    def test_object_form_attribute_still_decodes(self, attribute):
        legacy = json.loads(json.dumps(_object_form(wire.attribute_to_dict(attribute))))
        assert repr(wire.attribute_from_dict(legacy)) == repr(attribute)

    def test_passive_attribute_keeps_no_live_verification(self):
        attribute = Attribute.new("h.test", 5.0, "DNS")
        assert attribute.last_verified_live is None
        back = wire.attribute_from_dict(wire.attribute_to_dict(attribute))
        assert back.last_verified_live is None and back == attribute


GOOD_ROW = ["10.0.0.1", 1.0, 1.0, 2.0, "ARPwatch", "good", "ARPwatch", 2.0]
MALFORMED_ROWS = [
    GOOD_ROW[:7],
    GOOD_ROW + [[], "extra"],
    "10.0.0.1",
    7,
    None,
    tuple(GOOD_ROW),
    ["10.0.0.1", True, 1.0, 2.0, "ARPwatch", "good", "ARPwatch", 2.0],
    ["10.0.0.1", "1.0", 1.0, 2.0, "ARPwatch", "good", "ARPwatch", 2.0],
    ["10.0.0.1", 1.0, 1.0, 2.0, 5, "good", "ARPwatch", 2.0],
    ["10.0.0.1", 1.0, 1.0, 2.0, "ARPwatch", None, "ARPwatch", 2.0],
    ["10.0.0.1", 1.0, 1.0, 2.0, "ARPwatch", "good", "ARPwatch", "late"],
    GOOD_ROW + ["not a history"],
    GOOD_ROW + [[["10.0.0.9"]]],
    GOOD_ROW + [[["10.0.0.9", "when"]]],
]


class TestMalformed:
    @pytest.mark.parametrize("row", MALFORMED_ROWS, ids=repr)
    def test_malformed_row_raises_wire_error(self, row):
        with pytest.raises(wire.WireError):
            wire.attribute_from_dict(row)
        with pytest.raises(wire.WireError):
            wire.interface_from_dict({"record_id": 1, "attributes": {"ip": row}})
        with pytest.raises(wire.WireError):
            wire.gateway_from_dict({"record_id": 1, "connected_subnets": {"10.0.0.0/24": row}})

    @pytest.mark.parametrize(
        "data",
        [
            ["record_id", 1],
            {"attributes": {}},
            {"record_id": "1"},
            {"record_id": 1, "attributes": [GOOD_ROW]},
        ],
        ids=repr,
    )
    def test_malformed_record_raises_wire_error(self, data):
        for decode in (wire.interface_from_dict, wire.subnet_from_dict):
            with pytest.raises(wire.WireError):
                decode(data)

    def test_connected_subnets_must_be_an_object(self):
        with pytest.raises(wire.WireError):
            wire.gateway_from_dict({"record_id": 1, "connected_subnets": [GOOD_ROW]})

    @pytest.mark.parametrize("op", ["absorb_interface", "absorb_subnet"])
    def test_record_of_the_wrong_kind_raises_wire_error(self, op):
        wrong = wire.gateway_to_dict(GatewayRecord())
        with pytest.raises(wire.WireError):
            wire.JournalCall(op).arguments({"op": op, "foreign": wrong})


def _campaign(journal):
    """Every attribute shape a campaign makes: live and passive
    sources, questionable quality, history from a changed value and
    from a gateway merge, subnet statistics and gateway links."""
    a, _ = journal.observe_interface(
        Observation(source="ARPwatch", ip="10.0.1.1", mac="08:00:20:00:00:01")
    )
    b, _ = journal.observe_interface(
        Observation(source="ARPwatch", ip="10.0.1.2", mac="08:00:20:00:00:02")
    )
    journal.observe_interface(Observation(source="DNS", ip="10.0.1.3", dns_name="c.test"))
    journal.observe_interface(
        Observation(source="ARPwatch", ip="10.0.1.1", mac="08:00:20:00:00:09")
    )
    journal.observe_interface(
        Observation(source="RIPwatch", ip="10.0.2.1", quality=Quality.QUESTIONABLE)
    )
    first, _ = journal.ensure_gateway(source="t", name="gw-a", interface_ids=[a.record_id])
    second, _ = journal.ensure_gateway(source="t", name="gw-b", interface_ids=[b.record_id])
    journal.rename_gateway(second.record_id, "gw-a", source="t")
    journal.link_gateway_subnet(second.record_id, "10.0.1.0/24", source="Traceroute")
    journal.ensure_subnet(
        "10.0.1.0/24", source="DNS", host_count=3,
        lowest_address="10.0.1.1", highest_address="10.0.1.3",
    )


def _records(journal):
    data = journal.to_dict()
    return {table: data[table] for table in ("interfaces", "gateways", "subnets")}


class TestCheckpointFormats:
    def test_checkpoint_is_format_2_with_attribute_rows(self, tmp_path):
        store = JournalStore(str(tmp_path), fsync="never")
        _campaign(store.recover())
        store.checkpoint()
        store.close(checkpoint=False)
        with open(tmp_path / "checkpoint.json", "rb") as handle:
            header = json.loads(handle.readline())
            body = json.loads(handle.read())
        assert header["format"] == "fremont-checkpoint-2"
        assert body["format"] == "fremont-journal-2"
        rows = [
            row for record in body["interfaces"] for row in record["attributes"].values()
        ]
        assert rows and all(isinstance(row, list) for row in rows)

    def test_format_1_checkpoint_recovers_the_same_journal(self, tmp_path):
        """A checkpoint written before attributes became rows: object
        attributes, ``fremont-checkpoint-1`` header."""
        store = JournalStore(str(tmp_path), fsync="never")
        journal = store.recover()
        _campaign(journal)
        store.checkpoint()
        store.close(checkpoint=False)
        expected_state, expected_records = journal.identity_state(), _records(journal)
        merged = [
            record for record in expected_records["interfaces"]
            if len(record["attributes"].get("gateway_id", ())) == 9
        ]
        assert merged, "the campaign left no gateway_id history"

        path = tmp_path / "checkpoint.json"
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            body = json.loads(handle.read())
        body["format"] = "fremont-journal-1"
        for table in ("interfaces", "gateways", "subnets"):
            for record in body[table]:
                for name, row in record["attributes"].items():
                    record["attributes"][name] = _object_form(row)
                for key, row in record.get("connected_subnets", {}).items():
                    record["connected_subnets"][key] = _object_form(row)
        text = json.dumps(body, separators=(",", ":"), sort_keys=True).encode("utf-8")
        header.update(format="fremont-checkpoint-1", crc32=zlib.crc32(text))
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + text)

        reopened = JournalStore(str(tmp_path), fsync="never")
        recovered = reopened.recover()
        try:
            assert reopened.last_recovery.checkpoint_loaded
            assert recovered.identity_state() == expected_state
            assert _records(recovered) == expected_records
        finally:
            reopened.close(checkpoint=False)


class _ChunkedSocket:
    """Feeds a :class:`~repro.core.wire.FrameReader` a byte stream in
    the pieces given, then EOF.  (A reader with no deadline never
    polls; the socket pair only lends it a descriptor to register.)"""

    def __init__(self, chunks):
        self._chunks = list(chunks)
        self._pair = socket.socketpair()

    def fileno(self) -> int:
        return self._pair[0].fileno()

    def recv(self, _size: int) -> bytes:
        return self._chunks.pop(0) if self._chunks else b""

    def close(self) -> None:
        for end in self._pair:
            end.close()


FRAMES = st.lists(
    st.dictionaries(st.text(max_size=5), st.one_of(VALUES, st.lists(st.integers()))),
    min_size=1,
    max_size=6,
)


class TestFrameReader:
    @settings(max_examples=150, deadline=None)
    @given(FRAMES, st.data())
    def test_stream_cut_anywhere_decodes_to_the_same_frames(self, frames, data):
        stream = b"".join(wire.encode_message(frame) for frame in frames)
        cuts = sorted(data.draw(st.sets(st.integers(1, len(stream) - 1), max_size=12)))
        bounds = [0, *cuts, len(stream)]
        sock = _ChunkedSocket(stream[lo:hi] for lo, hi in zip(bounds, bounds[1:]))
        try:
            reader = wire.FrameReader(sock)
            assert [reader.read(None) for _ in frames] == frames
            assert not reader.pending()
            with pytest.raises(ConnectionError):
                reader.read(None)
        finally:
            sock.close()

    def test_large_frame_in_many_chunks(self):
        frame = {"records": ["x" * 100] * 5000}
        line = wire.encode_message(frame) + wire.encode_message({"op": "ping"})
        chunks = [line[i:i + 65536] for i in range(0, len(line), 65536)]
        sock = _ChunkedSocket(chunks)
        try:
            reader = wire.FrameReader(sock)
            assert reader.read(None) == frame
            assert reader.pending()
            assert reader.read(None) == {"op": "ping"}
        finally:
            sock.close()
