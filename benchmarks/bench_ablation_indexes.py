"""Ablation B — indexed lookups vs linear scans.

The paper indexes interface records "by three AVL trees ... This allows
quick access to individual data records, as well as access to ranges of
records."  This ablation measures what indexing buys at the paper's own
scale (the 16k-interface class-B scenario of Table 2): point lookups and
range scans against the naive alternative, a walk of the record table.

Three structures are compared over the same journal:

* the paper's AVL tree (:class:`~repro.core.avl.AvlTree`), built here
  from the journal's by-IP and by-last-modified keys;
* the Journal's own :class:`~repro.core.journal.SortedIndex` (a hash map
  plus a blocked sorted key list), which replaced the trees on the
  write path;
* a linear scan.

Run as a gate with ``python -m pytest benchmarks/bench_ablation_indexes.py
-q --benchmark-disable``.
"""

from __future__ import annotations

import time

import pytest

from repro.core import Journal
from repro.core.avl import AvlTree
from repro.core.journal import SortedIndex, ip_key
from repro.core.records import Observation

from . import paper

SCALE = 16384
RANGE = ("128.138.7.1", "128.138.8.254")  # two /24s: 508 interfaces
CHURN_ROUNDS = 4000


@pytest.fixture(scope="module")
def big_journal():
    journal = Journal()
    for index in range(SCALE):
        third, fourth = divmod(index, 254)
        journal.observe_interface(
            Observation(
                source="bench",
                ip=f"128.138.{third}.{fourth + 1}",
                mac=f"08:00:20:{(index >> 16) & 0xFF:02x}:"
                f"{(index >> 8) & 0xFF:02x}:{index & 0xFF:02x}",
            )
        )
    return journal


@pytest.fixture(scope="module")
def ip_tree(big_journal):
    """The paper's structure over the same by-IP keys."""
    tree = AvlTree()
    for key, record_id in big_journal.by_ip.items():
        tree.insert(key, record_id)
    return tree


def _linear_by_ip(journal, ip):
    return [r for r in journal.interfaces.values() if r.ip == ip]


def _linear_range(journal, low, high):
    low_key, high_key = ip_key(low), ip_key(high)
    return [
        r
        for r in journal.interfaces.values()
        if r.ip is not None and low_key <= ip_key(r.ip) <= high_key
    ]


def _timed(function, repeat=7):
    """Best-of-*repeat* wall time: the least disturbed run."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def _churn(index, keys, rounds):
    """Move *rounds* records to the newest timestamp, as every verify-
    only sighting does to the by-last-modified index."""
    clock = max(keys.values())[0]
    for step in range(rounds):
        record_id = (step * 7919) % len(keys)
        clock += 1.0
        index.remove(keys[record_id], record_id)
        keys[record_id] = (clock, record_id)
        index.insert(keys[record_id], record_id)


def _churn_seconds(cls, journal):
    """Best-of-5 churn time on a fresh copy of the modified index."""
    best = float("inf")
    for _ in range(5):
        index = cls()
        keys = {}
        for position, (key, _rid) in enumerate(journal._modified_index["interface"].items()):
            keys[position] = (key[0], position)
            index.insert(keys[position], position)
        start = time.perf_counter()
        _churn(index, keys, CHURN_ROUNDS)
        best = min(best, time.perf_counter() - start)
    return best


PROBE_IPS = [f"128.138.{(i * 13) % 64}.{(i * 7) % 253 + 1}" for i in range(64)]
PROBE_KEYS = [ip_key(ip) for ip in PROBE_IPS]


class TestIndexAblation:
    def test_point_lookup_indexed(self, big_journal, benchmark):
        def lookups():
            return sum(len(big_journal.interfaces_by_ip(ip)) for ip in PROBE_IPS)

        found = benchmark(lookups)
        assert found == len(PROBE_IPS)

    def test_point_lookup_linear(self, big_journal, benchmark):
        def lookups():
            return sum(len(_linear_by_ip(big_journal, ip)) for ip in PROBE_IPS)

        found = benchmark(lookups)
        assert found == len(PROBE_IPS)

    def test_range_scan_indexed(self, big_journal, benchmark):
        result = benchmark(lambda: big_journal.interfaces_in_ip_range(*RANGE))
        assert len(result) == 508

    def test_range_scan_linear(self, big_journal, benchmark):
        result = benchmark(lambda: _linear_range(big_journal, *RANGE))
        assert len(result) == 508

    def test_structures_agree(self, big_journal, ip_tree):
        low, high = ip_key(RANGE[0]), ip_key(RANGE[1])
        assert list(big_journal.by_ip.range(low, high)) == list(ip_tree.range(low, high))
        assert [big_journal.by_ip.get(k) for k in PROBE_KEYS] == [
            ip_tree.get(k) for k in PROBE_KEYS
        ]

    def test_indexes_win_and_report(self, big_journal, ip_tree, benchmark):
        """Head-to-head, reported as a table (the benchmark rows above
        carry the precise timings)."""
        index = big_journal.by_ip
        low, high = ip_key(RANGE[0]), ip_key(RANGE[1])
        linear_point = _timed(lambda: [_linear_by_ip(big_journal, ip) for ip in PROBE_IPS])
        avl_point = _timed(lambda: [ip_tree.get(key) for key in PROBE_KEYS])
        index_point = _timed(lambda: [index.get(key) for key in PROBE_KEYS])
        linear_range = _timed(lambda: _linear_range(big_journal, *RANGE))
        avl_range = _timed(lambda: list(ip_tree.range(low, high)))
        index_range = _timed(lambda: list(index.range(low, high)))
        avl_churn = _churn_seconds(AvlTree, big_journal)
        index_churn = _churn_seconds(SortedIndex, big_journal)
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        paper.report(
            f"Ablation B: indexed vs linear ({SCALE} interfaces)",
            [
                ("64 point lookups", f"{linear_point * 1e3:.1f} ms",
                 f"{avl_point * 1e3:.3f} ms", f"{index_point * 1e3:.3f} ms"),
                ("range scan (2 subnets)", f"{linear_range * 1e3:.1f} ms",
                 f"{avl_range * 1e3:.3f} ms", f"{index_range * 1e3:.3f} ms"),
                (f"{CHURN_ROUNDS} modified-index moves", "-",
                 f"{avl_churn * 1e3:.1f} ms", f"{index_churn * 1e3:.1f} ms"),
                ("point speedup vs linear", "-",
                 f"{linear_point / avl_point:.0f}x", f"{linear_point / index_point:.0f}x"),
                ("tree height", "-", f"{ip_tree.height} (O(log n) = 14-20)", "-"),
            ],
            columns=("linear scan", "AVL (paper)", "SortedIndex (Journal)"),
        )
        # The paper's claim: an index beats a scan by an order of magnitude.
        assert avl_point < linear_point / 10, "AVL must beat linear by >10x"
        assert ip_tree.height <= 20
        # Why the Journal no longer uses the tree.
        assert index_churn * 3 <= avl_churn, "SortedIndex churn must be >=3x AVL"
        assert index_point * 2 <= avl_point, "SortedIndex get must be >=2x AVL"
        assert index_range <= avl_range, "SortedIndex range must not be slower than AVL"
