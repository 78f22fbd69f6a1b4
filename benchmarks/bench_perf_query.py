"""Perf benchmark: predicate queries vs dump-and-filter.

The paper's Future Work: "supporting predicate-based queries to limit
exchanged data to the parts that are needed."  The point of the query
engine's index planner is that a filtered read costs O(result), not
O(journal): the by-IP AVL range scan touches only the records inside
the requested subnet, while the old consumer pattern (dump every
interface, filter client-side) touches all of them.

This harness grows a journal across several sizes while holding one
target subnet at a fixed ~100 interfaces, then times

* ``journal.query(InSubnet(target))``  (indexed), and
* ``all_interfaces()`` + predicate filter  (dump-and-filter),

and measures the QueryCache hit path against a live Journal Server —
including the number of wire round trips a hit costs (it must be 0) —
and a served miss: one ``RemoteClient`` query of the target subnet,
with the reply's wire bytes per record.

Results land in ``BENCH_query.json``.  ``--check`` enforces the PR
gates: >= 5x speedup at the largest size, query latency flat in
journal size (largest/smallest ratio < 2.5) for the fixed result set,
and a served record at most 60% of the bytes it took when attributes
crossed the wire as objects with named keys.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_query.py
    PYTHONPATH=src python benchmarks/bench_perf_query.py --quick --check

(Not a pytest module: run it directly.)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional

from repro.core import Journal, JournalServer, QueryCache, RemoteClient
from repro.core import query as q
from repro.core import wire
from repro.core.records import Observation

TARGET_SUBNET = "10.200.0.0/24"
TARGET_HOSTS = 100
#: wire bytes per served target record when every attribute was an
#: object with named keys (``fremont-checkpoint-1`` era); the bench
#: clock is fixed, so the byte count is deterministic (412.5 at both
#: the --quick and the full size)
OBJECT_FORM_BYTES_PER_RECORD = 412.5
#: --check: a served record must cost at most this share of that
WIRE_BYTES_GATE = 0.6


def build_journal(total: int) -> Journal:
    """A journal with *total* interfaces, exactly TARGET_HOSTS of them
    inside TARGET_SUBNET (the fixed result set)."""
    state = {"now": 0.0}
    journal = Journal(clock=lambda: state["now"])
    for index in range(TARGET_HOSTS):
        state["now"] += 1.0
        journal.observe_interface(
            Observation(
                source="bench",
                ip=f"10.200.0.{index + 1}",
                mac=f"08:00:20:00:{index // 250:02x}:{index % 250:02x}",
            )
        )
    filler = total - TARGET_HOSTS
    for index in range(filler):
        state["now"] += 1.0
        journal.observe_interface(
            Observation(
                source="bench",
                ip=f"10.{index // 62500}.{(index // 250) % 250}.{index % 250 + 1}",
                mac=f"aa:00:04:{index // 62500:02x}:{(index // 250) % 250:02x}:{index % 250:02x}",
            )
        )
    return journal


def _time_per_call(fn, repeats: int) -> float:
    begun = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - begun) / repeats


def measure_size(total: int, *, repeats: int) -> Dict[str, object]:
    journal = build_journal(total)
    predicate = q.InSubnet(TARGET_SUBNET)

    hits = journal.query("interfaces", predicate)
    baseline = [r for r in journal.all_interfaces() if predicate.matches(r)]
    assert hits == baseline, "query must equal dump-then-filter"
    assert len(hits) == TARGET_HOSTS

    query_s = _time_per_call(
        lambda: journal.query("interfaces", predicate), repeats
    )
    dump_s = _time_per_call(
        lambda: [r for r in journal.all_interfaces() if predicate.matches(r)],
        max(repeats // 10, 3),
    )
    return {
        "interfaces": total,
        "result_size": len(hits),
        "query_us": round(query_s * 1e6, 2),
        "dump_filter_us": round(dump_s * 1e6, 2),
        "speedup": round(dump_s / query_s, 2) if query_s else None,
    }


def measure_served_miss(client: RemoteClient, predicate, *, repeats: int) -> Dict[str, object]:
    """One uncached ``query`` of the target: its latency and the wire
    bytes of its reply per record (every frame read off a socket passes
    through ``wire.decode_message``)."""
    frames: List[int] = []
    decode = wire.decode_message

    def counting(line: bytes):
        frames.append(len(line))
        return decode(line)

    wire.decode_message = counting
    try:
        records = client.query("interfaces", predicate)
    finally:
        wire.decode_message = decode
    assert len(records) == TARGET_HOSTS
    # The server runs in this process and decodes the request through
    # the same function first; the reply is the last frame decoded.
    reply_bytes = frames[-1]
    miss_s = _time_per_call(lambda: client.query("interfaces", predicate), repeats)
    return {
        "served_miss_us": round(miss_s * 1e6, 2),
        "reply_bytes": reply_bytes,
        "bytes_per_record": round(reply_bytes / len(records), 2),
    }


def measure_cache(total: int, *, repeats: int) -> Dict[str, object]:
    """A served miss and the QueryCache against a live server: latency
    and wire cost."""
    journal = build_journal(total)
    predicate = q.InSubnet(TARGET_SUBNET)
    server = JournalServer(journal)
    server.start()
    try:
        with RemoteClient(*server.address) as client:
            served = measure_served_miss(client, predicate, repeats=repeats)
            with QueryCache(client) as cache:
                miss_begun = time.perf_counter()
                cache.query("interfaces", predicate)
                miss_s = time.perf_counter() - miss_begun
                ids_before = client._next_id
                hit_s = _time_per_call(
                    lambda: cache.query("interfaces", predicate), repeats
                )
                round_trips = client._next_id - ids_before
                return {
                    "interfaces": total,
                    "remote_miss_us": round(miss_s * 1e6, 2),
                    "remote_hit_us": round(hit_s * 1e6, 2),
                    "hit_round_trips": round_trips,
                    "hits": cache.hits,
                    **served,
                }
    finally:
        server.stop()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small run for CI smoke testing")
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[2000, 5000, 10000],
                        help="journal sizes (interfaces)")
    parser.add_argument("--repeats", type=int, default=200,
                        help="timed query calls per size")
    parser.add_argument(
        "--check", action="store_true",
        help="fail unless indexed queries beat dump-and-filter >= 5x at "
        "the largest size, stay flat in journal size (ratio < 2.5 for "
        "the fixed result set), cache hits cost zero round trips, and "
        "a served record is at most 60%% of its object-form bytes",
    )
    parser.add_argument("--output", default="BENCH_query.json",
                        help="result file path (default: %(default)s)")
    args = parser.parse_args(argv)

    if args.quick:
        args.sizes = [1000, 4000]
        args.repeats = min(args.repeats, 50)

    sizes: List[Dict[str, object]] = []
    for total in args.sizes:
        entry = measure_size(total, repeats=args.repeats)
        sizes.append(entry)
        print(
            f"{total:>7} interfaces: query {entry['query_us']:>9} us, "
            f"dump+filter {entry['dump_filter_us']:>10} us "
            f"({entry['speedup']}x)"
        )

    smallest, largest = sizes[0], sizes[-1]
    flatness = (
        round(largest["query_us"] / smallest["query_us"], 2)
        if smallest["query_us"]
        else None
    )
    print(
        f"query latency growth {smallest['interfaces']} -> "
        f"{largest['interfaces']} interfaces: {flatness}x "
        f"(result size fixed at {TARGET_HOSTS})"
    )

    cache = measure_cache(args.sizes[-1], repeats=args.repeats)
    print(
        f"cache: remote miss {cache['remote_miss_us']} us, "
        f"hit {cache['remote_hit_us']} us, "
        f"{cache['hit_round_trips']} wire round trips across "
        f"{cache['hits']} hits"
    )
    wire_share = round(cache["bytes_per_record"] / OBJECT_FORM_BYTES_PER_RECORD, 3)
    print(
        f"served miss: {cache['served_miss_us']} us, "
        f"{cache['bytes_per_record']} wire bytes per record "
        f"({wire_share:.0%} of the object form's {OBJECT_FORM_BYTES_PER_RECORD})"
    )

    result = {
        "benchmark": "predicate query engine",
        "quick": args.quick,
        "target_subnet": TARGET_SUBNET,
        "result_size": TARGET_HOSTS,
        "sizes": sizes,
        "flatness_ratio": flatness,
        "largest_speedup": largest["speedup"],
        "cache": cache,
        "wire_share_of_object_form": wire_share,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    if args.check:
        if largest["speedup"] is None or largest["speedup"] < 5.0:
            raise SystemExit(
                f"FAIL: indexed query only {largest['speedup']}x faster "
                f"than dump-and-filter at {largest['interfaces']} interfaces"
            )
        if flatness is None or flatness >= 2.5:
            raise SystemExit(
                f"FAIL: query latency grew {flatness}x from "
                f"{smallest['interfaces']} to {largest['interfaces']} "
                "interfaces despite a fixed result size"
            )
        if cache["hit_round_trips"] != 0:
            raise SystemExit(
                f"FAIL: cache hits cost {cache['hit_round_trips']} "
                "wire round trips (expected 0)"
            )
        if wire_share > WIRE_BYTES_GATE:
            raise SystemExit(
                f"FAIL: a served record costs {cache['bytes_per_record']} wire "
                f"bytes, {wire_share:.0%} of the object form "
                f"(gate {WIRE_BYTES_GATE:.0%})"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
