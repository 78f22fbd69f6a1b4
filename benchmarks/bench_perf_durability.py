"""Perf benchmark: the Journal durability layer.

Durability is bought with I/O, and the bill depends on the fsync
policy.  This harness measures both sides of the ledger:

* **Ingest overhead per fsync policy** — an identical write stream
  (sightings, with every other write op interleaved: ``ensure_subnet``,
  ``ensure_gateway``, ``rename_gateway``, ``link_gateway_subnet``,
  ``delete_interface`` and ``negative_put``) is applied to a bare
  in-memory Journal (baseline) and to WAL-attached Journals under
  ``never``, ``interval``, and ``always`` fsync.  Writes/sec and the
  overhead ratio vs baseline are reported for each; ``always`` is expected to be much slower — that is
  the price of losing nothing — while ``never``/``interval`` should
  stay within a small factor of baseline.

* **Recovery time vs journal size** — WAL-only recovery (replay every
  record) and checkpoint+tail recovery (load snapshot, replay a short
  tail) are timed at increasing journal sizes.  Checkpoints exist
  precisely to keep restart time bounded as a campaign grows, and the
  numbers show it.

* **WAL bytes per op** — the records the stream's WAL holds, and their
  bytes, per op.

Every recovered Journal is checked for canonical equivalence against
the in-memory reference — a benchmark that recovered the wrong state
measures nothing.  Results land in ``BENCH_durability.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_durability.py
    PYTHONPATH=src python benchmarks/bench_perf_durability.py --quick
    PYTHONPATH=src python benchmarks/bench_perf_durability.py --check

(Not a pytest module: run it directly.)
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import sys
import tempfile
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core import Journal, JournalStore
from repro.core.durability import SEGMENT_MAGIC, scan_segment
from repro.core.records import Observation

SOURCE = "bench"

#: one write of the stream: a sighting, or (op, host index)
Step = Union[Observation, Tuple[str, int]]


def _ip(index: int) -> str:
    return f"10.{index // 2500}.{(index // 10) % 250}.{index % 250 + 1}"


def _subnet(index: int) -> str:
    return f"10.{index // 2500}.{(index // 10) % 250}.0/24"


def _member(journal: Journal, index: int) -> int:
    return journal.interfaces_by_ip(_ip(index))[0].record_id


def _gateway(journal: Journal, index: int) -> int:
    return journal.gateway_for_interface(_member(journal, index)).record_id


#: the writes interleaved after every tenth host's sightings, in order;
#: each names its records through the host it follows
WRITES: Dict[str, Callable[[Journal, int], object]] = {
    "ensure_subnet": lambda journal, index: journal.ensure_subnet(
        _subnet(index), source=SOURCE, host_count=index
    ),
    "ensure_gateway": lambda journal, index: journal.ensure_gateway(
        source=SOURCE, name=f"gw-{index}", interface_ids=[_member(journal, index)]
    ),
    "rename_gateway": lambda journal, index: journal.rename_gateway(
        _gateway(journal, index), f"router-{index}", source=SOURCE
    ),
    "link_gateway_subnet": lambda journal, index: journal.link_gateway_subnet(
        _gateway(journal, index), _subnet(index), source=SOURCE
    ),
    "delete_interface": lambda journal, index: journal.delete_interface(
        _member(journal, index - 1)
    ),
    "negative_put": lambda journal, index: journal.negative_put(
        "ip", f"10.255.{index // 250}.{index % 250 + 1}", ttl=3600.0
    ),
}


def build_stream(hosts: int, repeats: int) -> List[Step]:
    """Deterministic stream with the redundancy of real watchers, and
    every other write op after each tenth host."""
    stream: List[Step] = []
    for index in range(hosts):
        mac = "08:00:20:{:02x}:{:02x}:{:02x}".format(
            (index >> 16) & 0xFF, (index >> 8) & 0xFF, index & 0xFF
        )
        for repeat in range(repeats):
            stream.append(
                Observation(
                    source=SOURCE,
                    ip=_ip(index),
                    mac=mac,
                    subnet_mask="255.255.255.0" if repeat else None,
                )
            )
        if index % 10 == 9:
            stream.extend((op, index) for op in WRITES)
    return stream


def _ingest(journal: Journal, stream: List[Step]) -> float:
    started = time.perf_counter()
    for step in stream:
        if isinstance(step, Observation):
            journal.submit(step)
        else:
            op, index = step
            WRITES[op](journal, index)
    return time.perf_counter() - started


def bench_ingest_policies(stream: List[Step], *, trials: int) -> Dict[str, object]:
    print(f"ingest throughput per fsync policy ({len(stream)} writes, "
          f"best of {trials} trials):")
    results: Dict[str, object] = {}
    reference = None
    for policy in ("baseline", "never", "interval", "always"):
        best = None
        for _ in range(trials):
            workdir = tempfile.mkdtemp(prefix="bench-durability-")
            try:
                if policy == "baseline":
                    journal = Journal()
                    store = None
                else:
                    # Thresholds off: this measures pure WAL overhead,
                    # not checkpoint scheduling.
                    store = JournalStore(
                        workdir, fsync=policy, checkpoint_ops=None,
                        checkpoint_bytes=None, checkpoint_age=None,
                    )
                    journal = store.recover()
                elapsed = _ingest(journal, stream)
                if store is not None:
                    store.close(checkpoint=False)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            best = elapsed if best is None else min(best, elapsed)
        if policy == "baseline":
            reference = journal.canonical_state()
        rate = len(stream) / best if best > 0 else float("inf")
        results[policy] = {
            "seconds": round(best, 6),
            "writes_per_sec": round(rate, 1),
            "equivalent_state": journal.canonical_state() == reference,
        }
        print(f"  {policy:<10} {len(stream):>6} writes in {best * 1e3:8.1f} ms "
              f"= {rate:9.0f} writes/s")
    base_rate = results["baseline"]["writes_per_sec"]
    for policy in ("never", "interval", "always"):
        rate = results[policy]["writes_per_sec"]
        results[policy]["overhead_vs_baseline"] = (
            round(base_rate / rate, 2) if rate else None
        )
    print("  overhead vs baseline: " + ", ".join(
        f"{p}={results[p]['overhead_vs_baseline']}x"
        for p in ("never", "interval", "always")
    ))
    return results


def bench_recovery(sizes: List[int], *, repeats: int) -> List[Dict[str, object]]:
    print(f"recovery time vs journal size (sizes {sizes}):")
    rows: List[Dict[str, object]] = []
    for hosts in sizes:
        stream = build_stream(hosts, repeats)
        row: Dict[str, object] = {"hosts": hosts, "writes": len(stream)}
        for variant in ("wal_only", "checkpoint_tail"):
            workdir = tempfile.mkdtemp(prefix="bench-recovery-")
            try:
                store = JournalStore(
                    workdir, fsync="never", checkpoint_ops=None,
                    checkpoint_bytes=None, checkpoint_age=None,
                )
                journal = store.recover()
                if variant == "checkpoint_tail":
                    # Bulk of the stream in the snapshot, short tail in
                    # the WAL — the steady state a policy-driven server
                    # converges to.
                    split = max(1, len(stream) - len(stream) // 20)
                    _ingest(journal, stream[:split])
                    store.checkpoint()
                    _ingest(journal, stream[split:])
                else:
                    _ingest(journal, stream)
                reference = journal.canonical_state()
                store.close(checkpoint=False)

                recovery_store = JournalStore(workdir)
                started = time.perf_counter()
                recovered = recovery_store.recover()
                elapsed = time.perf_counter() - started
                equivalent = recovered.canonical_state() == reference
                recovery_store.close(checkpoint=False)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            row[variant] = {
                "seconds": round(elapsed, 6),
                "equivalent_state": equivalent,
            }
            print(f"  {hosts:>6} hosts  {variant:<16} "
                  f"{elapsed * 1e3:8.1f} ms (equivalent={equivalent})")
        rows.append(row)
    return rows


def bench_wal_bytes(stream: List[Step]) -> Dict[str, Dict[str, float]]:
    """Records and bytes per op in the stream's WAL."""
    print("WAL bytes per op:")
    workdir = tempfile.mkdtemp(prefix="bench-wal-bytes-")
    try:
        store = JournalStore(
            workdir, fsync="never", checkpoint_ops=None,
            checkpoint_bytes=None, checkpoint_age=None,
        )
        _ingest(store.recover(), stream)
        store.close(checkpoint=False)
        # No checkpoint ran, so the one segment holds the whole stream.
        (segment,) = glob.glob(os.path.join(workdir, "wal-*.log"))
        scan = scan_segment(segment)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    records: Counter = Counter()
    sizes: Counter = Counter()
    starts = [len(SEGMENT_MAGIC), *scan.end_offsets]
    for entry, start, end in zip(scan.entries, starts, scan.end_offsets):
        records[entry["op"]] += 1
        sizes[entry["op"]] += end - start
    rows = {}
    for op in sorted(records):
        rows[op] = {
            "records": records[op],
            "bytes": sizes[op],
            "bytes_per_record": round(sizes[op] / records[op], 1),
        }
        print(f"  {op:<20} {records[op]:>6} records "
              f"{rows[op]['bytes_per_record']:7.1f} B each")
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small run for CI smoke testing",
    )
    parser.add_argument("--hosts", type=int, default=500)
    parser.add_argument("--repeats", type=int, default=4,
                        help="consecutive sightings per host")
    parser.add_argument("--trials", type=int, default=3,
                        help="ingest repetitions; the best rate is kept")
    parser.add_argument(
        "--recovery-sizes", type=int, nargs="+", default=[200, 1000, 3000],
        help="journal sizes (hosts) for the recovery timing",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail unless every recovered/WAL-attached journal is "
        "canonically equivalent and recovery stays under 60s",
    )
    parser.add_argument("--output", default="BENCH_durability.json",
                        help="result file path (default: %(default)s)")
    args = parser.parse_args(argv)

    if args.quick:
        args.hosts = min(args.hosts, 120)
        args.trials = min(args.trials, 2)
        args.recovery_sizes = [min(size, 400) for size in args.recovery_sizes[:2]]

    result: Dict[str, object] = {
        "benchmark": "journal durability layer",
        "stream": {"hosts": args.hosts, "repeats": args.repeats},
        "quick": args.quick,
    }
    stream = build_stream(args.hosts, args.repeats)
    result["ingest"] = bench_ingest_policies(stream, trials=args.trials)
    result["recovery"] = bench_recovery(args.recovery_sizes, repeats=args.repeats)
    result["wal_bytes_per_op"] = bench_wal_bytes(stream)

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    equivalent = all(
        result["ingest"][policy]["equivalent_state"]
        for policy in ("baseline", "never", "interval", "always")
    ) and all(
        row[variant]["equivalent_state"]
        for row in result["recovery"]
        for variant in ("wal_only", "checkpoint_tail")
    )
    if not equivalent:
        raise SystemExit("FAIL: a durable/recovered journal diverged")
    if args.check:
        # Loose floors: catch pathologies, not machine-speed variance.
        never_overhead = result["ingest"]["never"]["overhead_vs_baseline"]
        if never_overhead is None or never_overhead > 25.0:
            raise SystemExit(
                f"FAIL: fsync=never WAL overhead {never_overhead}x vs "
                "baseline — logging itself is pathologically slow"
            )
        slowest = max(
            row[variant]["seconds"]
            for row in result["recovery"]
            for variant in ("wal_only", "checkpoint_tail")
        )
        if slowest > 60.0:
            raise SystemExit(f"FAIL: recovery took {slowest:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
