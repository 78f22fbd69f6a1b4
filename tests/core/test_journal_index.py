"""The Journal's SortedIndex against the paper's AVL tree, and the
Journal's indexes against linear filters over its record tables.

``AvlTree`` is the oracle for the index itself: any sequence of
inserts and removes must leave both structures answering ``get``,
``range``, ``items``, ``keys`` and ``len`` identically.  The Journal
model test then drives random write sequences — sightings with
conflicts, deletions, gateway merges and renames, subnet links and
replicated absorbs with foreign timestamps — and checks every indexed
read against a scan of ``journal.interfaces``/``gateways``/``subnets``.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import journal as journal_module
from repro.core.avl import AvlTree
from repro.core.journal import Journal, SortedIndex, ip_key
from repro.core.query import InSubnet, MacPrefix
from repro.core.records import Observation

# -- the index against the AVL oracle ---------------------------------------

STR_KEYS = st.sampled_from(
    ["", "a", "ab", "b", "ba", "c", "010.000.000.001", "010.000.000.002", "z\xff"]
)
TIME_KEYS = st.tuples(
    st.sampled_from([0.0, 1.0, 1.5, 2.0, 7.0]), st.integers(min_value=0, max_value=6)
)


def index_ops(keys):
    return st.lists(
        st.tuples(
            st.sampled_from(["insert", "insert", "remove"]),
            keys,
            st.integers(min_value=0, max_value=3),  # values repeat on purpose
        ),
        max_size=150,
    )


def assert_same(index: SortedIndex, tree: AvlTree, probes) -> None:
    assert len(index) == len(tree)
    assert list(index.keys()) == list(tree.keys())
    assert list(index.items()) == list(tree.items())
    for key in probes:
        assert index.get(key) == tree.get(key)
    for low in probes:
        for high in probes:
            assert list(index.range(low, high)) == list(tree.range(low, high))


def run_against_oracle(ops, probes) -> None:
    index, tree = SortedIndex(), AvlTree()
    for op, key, value in ops:
        if op == "insert":
            index.insert(key, value)
            tree.insert(key, value)
        else:
            # Removing a pair that is absent must report False on both.
            assert index.remove(key, value) == tree.remove(key, value)
    assert_same(index, tree, probes)


class TestSortedIndexAgainstAvl:
    @settings(max_examples=80, deadline=None)
    @given(index_ops(STR_KEYS), st.lists(STR_KEYS, min_size=1, max_size=4))
    def test_str_keys(self, ops, probes):
        # A tiny block size makes every split and emptied-block path
        # reachable with a few dozen keys.
        with mock.patch.object(journal_module, "_BLOCK", 2):
            run_against_oracle(ops, probes)

    @settings(max_examples=80, deadline=None)
    @given(index_ops(TIME_KEYS), st.lists(TIME_KEYS, min_size=1, max_size=4))
    def test_time_id_keys(self, ops, probes):
        with mock.patch.object(journal_module, "_BLOCK", 2):
            run_against_oracle(ops, probes)

    @settings(max_examples=30, deadline=None)
    @given(index_ops(TIME_KEYS))
    def test_default_block_size(self, ops):
        run_against_oracle(ops, [(0.0, 0), (2.0, 3), (7.0, 6)])

    def test_churn_across_many_blocks(self):
        """Modified-index churn at more than one block's worth of keys:
        each round moves a key from the middle to the end."""
        index, tree = SortedIndex(), AvlTree()
        current = {}
        for rid in range(5000):
            current[rid] = (float(rid), rid)
            index.insert(current[rid], rid)
            tree.insert(current[rid], rid)
        clock = 5000.0
        for step in range(6000):
            rid = (step * 7919) % 5000
            assert index.remove(current[rid], rid) and tree.remove(current[rid], rid)
            clock += 0.5 if step % 3 else 0.0  # ties on time split by id
            current[rid] = (clock, rid)
            index.insert(current[rid], rid)
            tree.insert(current[rid], rid)
        assert_same(index, tree, [(0.0, 0), (2500.0, 0), (6000.0, 0), (9e9, 0)])


# -- the Journal against linear filters --------------------------------------

IPS = [f"10.0.{third}.{fourth}" for third in (0, 1, 3) for fourth in (1, 2, 200)]
MACS = [f"08:00:20:00:00:0{n}" for n in range(4)] + ["aa:00:04:00:00:01"]
NAMES = ["h1.test", "h2.test", "h3.test"]
GATEWAY_NAMES = ["gw-a", "gw-b", "gw-c"]
SUBNETS = ["10.0.0.0", "10.0.1.0", "10.0.3.0"]


class SettableClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def maybe(values):
    return st.one_of(st.none(), st.sampled_from(values))


pick = st.integers(min_value=0, max_value=50)

JOURNAL_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), maybe(IPS), maybe(MACS), maybe(NAMES)),
        st.tuples(st.just("delete"), pick),
        st.tuples(
            st.just("gateway"), maybe(GATEWAY_NAMES), st.lists(pick, max_size=3)
        ),
        st.tuples(st.just("rename"), pick, st.sampled_from(GATEWAY_NAMES)),
        st.tuples(st.just("subnet"), st.sampled_from(SUBNETS)),
        st.tuples(st.just("link"), pick, st.sampled_from(SUBNETS)),
        # absorb a foreign sighting stamped at an offset from our clock:
        # negative offsets land keys behind newer local ones
        st.tuples(
            st.just("absorb"),
            maybe(IPS),
            maybe(MACS),
            st.sampled_from([-50.0, -0.5, 0.0, 3.0, 80.0]),
        ),
        st.tuples(st.just("tick"), st.sampled_from([0.0, 0.0, 0.25, 1.0])),
    ),
    max_size=60,
)


def apply_ops(ops) -> Journal:
    clock = SettableClock()
    journal = Journal(clock=clock)
    for op in ops:
        kind = op[0]
        interface_ids = sorted(journal.interfaces)
        gateway_ids = sorted(journal.gateways)
        if kind == "observe":
            _, ip, mac, name = op
            if ip or mac or name:
                journal.observe_interface(
                    Observation(source="t", ip=ip, mac=mac, dns_name=name)
                )
        elif kind == "delete" and interface_ids:
            journal.delete_interface(interface_ids[op[1] % len(interface_ids)])
        elif kind == "gateway":
            _, name, picks = op
            members = (
                [interface_ids[p % len(interface_ids)] for p in picks]
                if interface_ids
                else []
            )
            if name is not None or members:
                journal.ensure_gateway(source="t", name=name, interface_ids=members)
        elif kind == "rename" and gateway_ids:
            journal.rename_gateway(
                gateway_ids[op[1] % len(gateway_ids)], op[2], source="t"
            )
        elif kind == "subnet":
            journal.ensure_subnet(op[1], source="t")
        elif kind == "link" and gateway_ids:
            journal.link_gateway_subnet(
                gateway_ids[op[1] % len(gateway_ids)], op[2], source="t"
            )
        elif kind == "absorb" and (op[1] or op[2]):
            _, ip, mac, offset = op
            foreign = Journal(clock=lambda: clock.now + offset)
            record, _ = foreign.observe_interface(Observation(source="far", ip=ip, mac=mac))
            journal.absorb_interface(record)
        elif kind == "tick":
            clock.now += op[1]
        clock.now += 0.5 if kind != "tick" else 0.0
    return journal


def by_modified(records):
    return sorted(records, key=lambda r: (r.last_modified, r.record_id))


def ids(records):
    return [r.record_id for r in records]


class TestJournalIndexesMatchScans:
    @settings(max_examples=120, deadline=None)
    @given(JOURNAL_OPS)
    def test_indexed_reads_equal_linear_filters(self, ops):
        journal = apply_ops(ops)
        interfaces = list(journal.interfaces.values())

        # Each identity index holds exactly the records' current keys.
        for index, field, normalise in (
            (journal.by_ip, "ip", ip_key),
            (journal.by_mac, "mac", str),
            (journal.by_name, "dns_name", str),
        ):
            expected = sorted(
                (normalise(r.get(field)), r.record_id)
                for r in interfaces
                if r.get(field) is not None
            )
            assert sorted(index.items()) == expected
            assert list(index.keys()) == sorted({key for key, _ in expected})
        assert sorted(journal.by_subnet.items()) == sorted(
            (s.subnet, s.record_id) for s in journal.subnets.values()
        )

        # IP range scans: key order, and exactly the records in range.
        for low, high in (("10.0.0.1", "10.0.0.200"), ("10.0.0.2", "10.0.3.1"),
                          ("10.0.1.0", "10.0.1.255"), ("10.0.3.200", "10.0.0.1")):
            scanned = journal.interfaces_in_ip_range(low, high)
            keys = [ip_key(r.ip) for r in scanned]
            assert keys == sorted(keys)
            assert sorted(ids(scanned)) == sorted(
                r.record_id
                for r in interfaces
                if r.ip is not None and ip_key(low) <= ip_key(r.ip) <= ip_key(high)
            )

        # Planned queries equal dump-then-filter.
        for subnet in ("10.0.0.0/24", "10.0.1.0/24", "10.0.0.0/16", "10.0.2.0/24"):
            predicate = InSubnet(subnet)
            assert ids(journal.query("interfaces", predicate)) == ids(
                by_modified(r for r in interfaces if predicate.matches(r))
            )
        for prefix in ("08:00:20", "08:00:20:00:00:02", "aa", "ff"):
            predicate = MacPrefix(prefix)
            assert ids(journal.query("interfaces", predicate)) == ids(
                by_modified(r for r in interfaces if predicate.matches(r))
            )

        # The by-last-modified indexes: full order, and every suffix.
        tables = {
            "interface": journal.interfaces,
            "gateway": journal.gateways,
            "subnet": journal.subnets,
        }
        for kind, table in tables.items():
            ordered = by_modified(table.values())
            assert [rid for _key, rid in journal._modified_index[kind].items()] == ids(
                ordered
            )
        times = {r.last_modified for t in tables.values() for r in t.values()}
        for when in sorted(times | {-1.0, 1e9}):
            for since, table in (
                (journal.interfaces_modified_since, journal.interfaces),
                (journal.gateways_modified_since, journal.gateways),
                (journal.subnets_modified_since, journal.subnets),
            ):
                assert ids(since(when)) == ids(
                    by_modified(r for r in table.values() if r.last_modified > when)
                )

        # Name -> gateway resolution equals a scan, in table order.
        for name in GATEWAY_NAMES:
            assert journal._gateways_named(name) == [
                g for g in journal.gateways.values() if g.name == name
            ]
        scanned_names = {}
        for gateway in journal.gateways.values():
            if gateway.name is not None:
                scanned_names.setdefault(gateway.name, set()).add(gateway.record_id)
        assert journal._gateways_by_name == scanned_names

        # Membership: the reverse map agrees with every gateway's members.
        for record in interfaces:
            owners = [
                g for g in journal.gateways.values() if record.record_id in g.interface_ids
            ]
            assert len(owners) <= 1
            assert journal.gateway_for_interface(record.record_id) == (
                owners[0] if owners else None
            )

    @settings(max_examples=40, deadline=None)
    @given(JOURNAL_OPS)
    def test_bulk_load_rebuilds_the_same_indexes(self, ops):
        journal = apply_ops(ops)
        loaded = Journal.from_dict(journal.to_dict())
        for name in ("by_ip", "by_mac", "by_name", "by_subnet"):
            assert sorted(getattr(loaded, name).items()) == sorted(
                getattr(journal, name).items()
            )
        for kind in ("interface", "gateway", "subnet"):
            assert list(loaded._modified_index[kind].items()) == list(
                journal._modified_index[kind].items()
            )
        assert loaded._gateways_by_name == journal._gateways_by_name
