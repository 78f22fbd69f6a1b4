"""Predicate query engine: semantics, planner, codec, and the wire op.

The one law everything here enforces: ``journal.query(kind, where)`` is
byte-identical to dump-then-filter (``[r for r in all if
where.matches(r)]``), no matter which secondary index the planner picks.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Journal, JournalServer, RemoteClient
from repro.core import query as q
from repro.core.records import Observation, Quality
from repro.core.wire import WireError, predicate_from_dict, predicate_to_dict


def _clock():
    state = {"now": 0.0}
    return (lambda: state["now"]), state


@pytest.fixture
def journal():
    clock, state = _clock()
    journal = Journal(clock=clock)
    journal._clock_state = state  # test hook
    return journal


def _observe(journal, **kwargs):
    source = kwargs.pop("source", "ARPwatch")
    quality = kwargs.pop("quality", Quality.GOOD)
    record, _ = journal.observe_interface(
        Observation(source=source, quality=quality, **kwargs)
    )
    return record


def _dump_filter(journal, kind, predicate):
    table = {
        "interfaces": journal.all_interfaces,
        "gateways": journal.all_gateways,
        "subnets": journal.all_subnets,
    }[kind]()
    if predicate is None:
        return table
    return [record for record in table if predicate.matches(record)]


def _seed(journal):
    state = journal._clock_state
    for index in range(1, 6):
        state["now"] = 10.0 * index
        _observe(
            journal,
            ip=f"10.1.1.{index}",
            mac=f"08:00:20:00:00:{index:02x}",
            dns_name=f"sun{index}.test",
        )
    for index in range(1, 4):
        state["now"] = 100.0 + index
        _observe(journal, ip=f"10.2.2.{index}", mac=f"aa:00:04:00:00:{index:02x}")
    state["now"] = 200.0
    _observe(journal, ip="10.1.1.200")  # no mac, no name


class TestLeafSemantics:
    def test_in_subnet(self, journal):
        _seed(journal)
        hits = journal.query("interfaces", q.InSubnet("10.1.1.0/24"))
        assert [r.ip for r in hits] == [
            "10.1.1.1", "10.1.1.2", "10.1.1.3", "10.1.1.4", "10.1.1.5",
            "10.1.1.200",
        ]

    def test_in_subnet_skips_recordless_ips(self, journal):
        _seed(journal)
        assert journal.query("interfaces", q.InSubnet("10.9.9.0/24")) == []

    def test_mac_prefix(self, journal):
        _seed(journal)
        hits = journal.query("interfaces", q.MacPrefix("08:00:20"))
        assert len(hits) == 5
        assert all(r.mac.startswith("08:00:20") for r in hits)

    def test_mac_vendor_lookup(self):
        predicate = q.MacPrefix.vendor("Sun")
        assert predicate.prefix == "08:00:20"
        with pytest.raises(ValueError):
            q.MacPrefix.vendor("nonesuch")

    def test_field_equals_uses_identity_index(self, journal):
        _seed(journal)
        hits = journal.query("interfaces", q.FieldEquals("ip", "10.2.2.1"))
        assert [r.ip for r in hits] == ["10.2.2.1"]
        hits = journal.query("interfaces", q.FieldEquals("dns_name", "sun3.test"))
        assert [r.dns_name for r in hits] == ["sun3.test"]

    def test_has_field(self, journal):
        _seed(journal)
        hits = journal.query("interfaces", ~q.HasField("mac"))
        assert [r.ip for r in hits] == ["10.1.1.200"]

    def test_modified_since(self, journal):
        _seed(journal)
        predicate = q.ModifiedSince(100.0)
        assert journal.query("interfaces", predicate) == _dump_filter(
            journal, "interfaces", predicate
        )
        assert len(journal.query("interfaces", predicate)) == 4

    def test_modified_since_sees_verify_only_refreshes(self, journal):
        """A re-observation that changes nothing still advances
        last_modified (no revision is spent) — the modified index must
        follow, or freshness-driven consumers miss live hosts."""
        _seed(journal)
        journal._clock_state["now"] = 500.0
        record = _observe(journal, ip="10.1.1.1", mac="08:00:20:00:00:01")
        assert record.last_modified == 500.0
        hits = journal.query("interfaces", q.ModifiedSince(499.0))
        assert [r.ip for r in hits] == ["10.1.1.1"]

    def test_since_revision(self, journal):
        _seed(journal)
        cursor = journal.revision
        journal._clock_state["now"] = 300.0
        _observe(journal, ip="10.3.3.3")
        hits = journal.query("interfaces", q.SinceRevision(cursor))
        assert [r.ip for r in hits] == ["10.3.3.3"]

    def test_since_revision_survives_change_log_pruning(self, journal):
        _seed(journal)
        predicate = q.SinceRevision(0)
        before = journal.query("interfaces", predicate)
        journal.prune_changes(journal.revision)
        assert journal.query("interfaces", predicate) == before

    def test_stale(self, journal):
        _seed(journal)
        predicate = q.Stale(45.0)
        hits = journal.query("interfaces", predicate)
        assert hits == _dump_filter(journal, "interfaces", predicate)
        assert {r.ip for r in hits} == {
            "10.1.1.1", "10.1.1.2", "10.1.1.3", "10.1.1.4",
        }

    def test_confidence(self, journal):
        _seed(journal)
        _observe(
            journal, ip="10.4.4.4", subnet_mask="255.0.0.0",
            quality=Quality.QUESTIONABLE,
        )
        doubtful = journal.query("interfaces", q.Confidence("questionable"))
        assert [r.ip for r in doubtful] == ["10.4.4.4"]
        good = journal.query("interfaces", q.Confidence("good"))
        assert len(good) == len(journal.all_interfaces()) - 1
        with pytest.raises(ValueError):
            q.Confidence("excellent")

    def test_record_ids(self, journal):
        _seed(journal)
        wanted = [r.record_id for r in journal.all_interfaces()[:3]]
        hits = journal.query("interfaces", q.RecordIds(wanted))
        assert sorted(r.record_id for r in hits) == sorted(wanted)

    def test_combinators(self, journal):
        _seed(journal)
        predicate = q.InSubnet("10.1.1.0/24") & q.MacPrefix("08:00:20")
        assert len(journal.query("interfaces", predicate)) == 5
        predicate = q.FieldEquals("ip", "10.1.1.1") | q.FieldEquals(
            "ip", "10.2.2.1"
        )
        assert len(journal.query("interfaces", predicate)) == 2
        predicate = q.InSubnet("10.1.1.0/24") & ~q.HasField("dns_name")
        assert [r.ip for r in journal.query("interfaces", predicate)] == [
            "10.1.1.200"
        ]

    def test_subnet_and_gateway_kinds(self, journal):
        _seed(journal)
        journal.ensure_subnet("10.1.1.0/24", source="x")
        journal.ensure_subnet("10.2.2.0/24", source="x")
        hits = journal.query("subnets", q.FieldEquals("subnet", "10.1.1.0/24"))
        assert [r.subnet for r in hits] == ["10.1.1.0/24"]
        record = journal.all_interfaces()[0]
        journal.ensure_gateway(source="x", name="gw", interface_ids=[record.record_id])
        assert len(journal.query("gateways", None)) == 1
        # singular spellings are accepted
        assert len(journal.query("gateway", None)) == 1

    def test_unknown_kind_rejected(self, journal):
        with pytest.raises(ValueError):
            journal.query("routers", None)

    def test_counts_queries_served(self, journal):
        base = journal.counts()["queries_served"]
        journal.query("interfaces", None)
        journal.query("interfaces", q.InSubnet("10.1.1.0/24"))
        assert journal.counts()["queries_served"] == base + 2


class TestPlannerEquivalence:
    PREDICATES = [
        None,
        q.InSubnet("10.1.0.0/16"),
        q.InSubnet("10.1.1.0/24"),
        q.MacPrefix("08:00:20"),
        q.ModifiedSince(50.0),
        q.SinceRevision(3),
        q.VerifiedBefore(100.0),
        q.Stale(60.0),
        q.FieldEquals("ip", "10.1.1.2"),
        q.FieldEquals("mac", "aa:00:04:00:00:01"),
        q.HasField("dns_name"),
        q.InSubnet("10.1.1.0/24") & q.MacPrefix("08:00:20"),
        q.InSubnet("10.1.1.0/24") | q.InSubnet("10.2.2.0/24"),
        ~q.InSubnet("10.1.1.0/24"),
        (q.MacPrefix("08") | q.MacPrefix("aa")) & ~q.FieldEquals("ip", "10.1.1.1"),
    ]

    @pytest.mark.parametrize("predicate", PREDICATES, ids=lambda p: q.cache_key(p))
    def test_query_equals_dump_then_filter(self, journal, predicate):
        _seed(journal)
        assert journal.query("interfaces", predicate) == _dump_filter(
            journal, "interfaces", predicate
        )

    def test_candidates_are_a_superset(self, journal):
        _seed(journal)
        for predicate in self.PREDICATES:
            if predicate is None:
                continue
            ids = predicate.candidates(journal, "interfaces")
            if ids is None:
                continue
            matched = {
                r.record_id for r in _dump_filter(journal, "interfaces", predicate)
            }
            assert matched <= set(ids)


_IPS = st.tuples(st.integers(0, 2), st.integers(1, 6)).map(
    lambda t: f"10.0.{t[0]}.{t[1]}"
)
_MACS = st.tuples(
    st.sampled_from(["08:00:20", "aa:00:04", "00:00:0c"]), st.integers(0, 4)
).map(lambda t: f"{t[0]}:00:00:{t[1]:02x}")
_NAMES = st.sampled_from(["a.test", "b.test", "c.test"])

_LEAVES = st.one_of(
    st.builds(
        q.InSubnet,
        st.sampled_from(["10.0.0.0/24", "10.0.1.0/24", "10.0.0.0/16"]),
    ),
    st.builds(q.IpRange, _IPS, _IPS),
    st.builds(q.MacPrefix, st.sampled_from(["08:00:20", "aa:00", "00"])),
    st.builds(q.ModifiedSince, st.integers(0, 15).map(float)),
    st.builds(q.SinceRevision, st.integers(0, 20)),
    st.builds(q.Stale, st.integers(0, 15).map(float)),
    st.builds(q.VerifiedBefore, st.integers(0, 15).map(float)),
    st.builds(
        q.FieldEquals,
        st.just("ip"),
        # the zero-padded spelling names the same address
        st.one_of(_IPS, _IPS.map(q.ip_key)),
    ),
    st.builds(q.HasField, st.sampled_from(["mac", "dns_name"])),
)
_ASTS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.builds(lambda a, b: q.And(a, b), children, children),
        st.builds(lambda a, b: q.Or(a, b), children, children),
        st.builds(q.Not, children),
    ),
    max_leaves=6,
)
_SIGHTINGS = st.lists(
    st.tuples(
        _IPS, st.one_of(st.none(), _MACS), st.one_of(st.none(), _NAMES)
    ),
    max_size=12,
)


def _build(sightings):
    clock, state = _clock()
    journal = Journal(clock=clock)
    for step, (ip, mac, name) in enumerate(sightings):
        state["now"] = float(step)
        journal.observe_interface(
            Observation(source="prop", ip=ip, mac=mac, dns_name=name)
        )
    return journal


class TestQueryProperties:
    @settings(max_examples=60, deadline=None)
    @given(sightings=_SIGHTINGS, predicate=_ASTS)
    def test_query_equals_dump_then_filter(self, sightings, predicate):
        journal = _build(sightings)
        expected = [
            r for r in journal.all_interfaces() if predicate.matches(r)
        ]
        assert journal.query("interfaces", predicate) == expected

    @settings(max_examples=60, deadline=None)
    @given(predicate=_ASTS)
    def test_codec_round_trips(self, predicate):
        rebuilt = predicate_from_dict(predicate_to_dict(predicate))
        assert rebuilt == predicate
        assert q.cache_key(rebuilt) == q.cache_key(predicate)

    @settings(max_examples=60, deadline=None)
    @given(sightings=_SIGHTINGS, predicate=_ASTS)
    def test_rebuilt_predicate_queries_identically(self, sightings, predicate):
        journal = _build(sightings)
        rebuilt = predicate_from_dict(predicate_to_dict(predicate))
        assert journal.query("interfaces", rebuilt) == journal.query(
            "interfaces", predicate
        )


class TestCodecErrors:
    def test_unknown_tag(self):
        with pytest.raises(WireError):
            predicate_from_dict({"t": "regex", "pattern": ".*"})

    def test_not_a_dict(self):
        with pytest.raises(WireError):
            predicate_from_dict(["and"])

    def test_missing_field(self):
        with pytest.raises(WireError):
            predicate_from_dict({"t": "in_subnet"})

    def test_malformed_value(self):
        with pytest.raises(WireError):
            predicate_from_dict({"t": "in_subnet", "subnet": "not-a-subnet"})

    def test_depth_cap(self):
        bomb = {"t": "has_field", "field": "ip"}
        for _ in range(64):
            bomb = {"t": "not", "of": bomb}
        with pytest.raises(WireError):
            predicate_from_dict(bomb)


class TestCacheMetadata:
    def test_cacheable_classification(self):
        assert q.cacheable(None)
        assert q.cacheable(q.InSubnet("10.0.0.0/24"))
        assert q.cacheable(q.MacPrefix("08:00:20"))
        assert q.cacheable(q.RecordIds([1, 2]))
        assert not q.cacheable(q.ModifiedSince(1.0))
        assert not q.cacheable(q.VerifiedBefore(1.0))
        assert not q.cacheable(q.Stale(1.0))
        assert not q.cacheable(q.Confidence("good"))
        # combinators inherit the weakest child
        assert q.cacheable(q.InSubnet("10.0.0.0/24") & q.MacPrefix("08"))
        assert not q.cacheable(q.InSubnet("10.0.0.0/24") & q.Stale(1.0))
        assert not q.cacheable(~q.Stale(1.0))

    def test_cache_key_is_canonical(self):
        a = q.InSubnet("10.0.0.0/24") & q.MacPrefix("08:00:20")
        b = q.And(q.InSubnet("10.0.0.0/24"), q.MacPrefix("08:00:20"))
        assert q.cache_key(a) == q.cache_key(b)
        assert q.cache_key(None) == "*"


class TestQueryWireOp:
    def test_remote_query_matches_local(self):
        clock, state = _clock()
        journal = Journal(clock=clock)
        state["now"] = 10.0
        for index in range(1, 6):
            _observe(journal, ip=f"10.1.1.{index}", mac=f"08:00:20:00:00:{index:02x}")
        _observe(journal, ip="10.2.2.1", mac="aa:00:04:00:00:01")
        server = JournalServer(journal)
        server.start()
        try:
            with RemoteClient(*server.address) as client:
                predicate = q.InSubnet("10.1.1.0/24")
                remote = client.query("interfaces", predicate)
                local = journal.query("interfaces", predicate)
                assert [r.ip for r in remote] == [r.ip for r in local]
                assert [r.record_id for r in remote] == [
                    r.record_id for r in local
                ]
                # record revisions ride the wire (the replication cursor)
                assert [r.revision for r in remote] == [
                    r.revision for r in local
                ]
        finally:
            server.stop()

    def test_bad_predicate_is_a_wire_error_not_a_crash(self):
        journal = Journal()
        server = JournalServer(journal)
        server.start()
        try:
            with RemoteClient(*server.address) as client:
                with pytest.raises(RuntimeError, match="unknown predicate"):
                    client._call(
                        {
                            "op": "query",
                            "kind": "interfaces",
                            "where": {"t": "bogus"},
                        }
                    )
                with pytest.raises(RuntimeError, match="query kind"):
                    client._call({"op": "query", "kind": "routers"})
                # the connection survives
                assert client.counts()["interfaces"] == 0
        finally:
            server.stop()
