"""Perf benchmark: the observation ingest pipeline.

Explorer Modules used to push one observation per Journal Server round
trip.  This harness measures the batched pipeline and how cheap reads
fare beside whole-journal reads:

* **Ingest throughput** — an identical observation stream (with the
  adjacent duplicate sightings a real watcher produces) is ingested
  four ways: direct calls on a local Journal, a coalescing
  :class:`BatchingSink` over a local client, per-observation round
  trips to a Journal Server, and a BatchingSink flushing through the
  server's ``batch`` op.  All four must converge to the same canonical
  Journal state; observations/sec is reported for each.

* **Read latency under load** — a fast reader samples ``counts`` while
  heavy readers (``dump`` ops serialising the whole journal) and
  writers hammer the same server.  The server's loop answers a cheap
  read as soon as it reads it and runs a ``dump`` on a later loop turn,
  so a ``counts`` waits only for a dump already running.

Results land in ``BENCH_ingest.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_ingest.py
    PYTHONPATH=src python benchmarks/bench_perf_ingest.py --quick
    PYTHONPATH=src python benchmarks/bench_perf_ingest.py --check

(Not a pytest module: run it directly.)
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import threading
import time
from typing import Dict, List, Optional

from repro.core import (
    BatchingSink,
    Journal,
    JournalServer,
    LocalClient,
    RemoteClient,
)
from repro.core.records import Observation

SOURCE = "bench"


def build_stream(hosts: int, repeats: int) -> List[Observation]:
    """A deterministic stream with the redundancy of real watchers:
    each host is sighted *repeats* times in a row (an ARP watcher
    reporting the same conversation), then once more per extra round."""
    stream: List[Observation] = []
    for index in range(hosts):
        ip = f"10.{index // 2500}.{(index // 10) % 250}.{index % 250 + 1}"
        mac = "08:00:20:{:02x}:{:02x}:{:02x}".format(
            (index >> 16) & 0xFF, (index >> 8) & 0xFF, index & 0xFF
        )
        for repeat in range(repeats):
            stream.append(
                Observation(
                    source=SOURCE,
                    ip=ip,
                    mac=mac,
                    subnet_mask="255.255.255.0" if repeat else None,
                )
            )
    return stream


def _ingest_local(journal: Journal, stream: List[Observation]) -> float:
    started = time.perf_counter()
    for observation in stream:
        journal.submit(observation)
    return time.perf_counter() - started


def _ingest_batched_local(
    journal: Journal, stream: List[Observation], max_batch: int
) -> float:
    sink = BatchingSink(LocalClient(journal), max_batch=max_batch)
    started = time.perf_counter()
    for observation in stream:
        sink.submit(observation)
    sink.close()
    return time.perf_counter() - started


def _ingest_remote(
    journal: Journal, stream: List[Observation], max_batch: Optional[int]
) -> float:
    # Server/connection setup stays outside the timed window: the
    # measurement is observations/sec through an established session.
    server = JournalServer(journal)
    server.start()
    try:
        host, port = server.address
        with RemoteClient(host, port) as client:
            if max_batch is None:
                started = time.perf_counter()
                for observation in stream:
                    client.observe_interface(observation)
                return time.perf_counter() - started
            sink = BatchingSink(client, max_batch=max_batch)
            started = time.perf_counter()
            for observation in stream:
                sink.submit(observation)
            sink.close()
            return time.perf_counter() - started
    finally:
        server.stop()


def bench_ingest(
    stream: List[Observation], *, max_batch: int, trials: int
) -> Dict[str, object]:
    print(f"ingest throughput ({len(stream)} observations, "
          f"best of {trials} trials):")
    journals: Dict[str, Journal] = {}
    results: Dict[str, object] = {}
    modes = (
        ("direct_local", lambda j: _ingest_local(j, stream)),
        ("batched_local", lambda j: _ingest_batched_local(j, stream, max_batch)),
        ("direct_remote", lambda j: _ingest_remote(j, stream, None)),
        ("batched_remote", lambda j: _ingest_remote(j, stream, max_batch)),
    )
    for mode, ingest in modes:
        best = None
        for _ in range(trials):
            journal = Journal()
            elapsed = ingest(journal)
            best = elapsed if best is None else min(best, elapsed)
        journals[mode] = journal
        rate = len(stream) / best if best > 0 else float("inf")
        results[mode] = {"seconds": round(best, 6),
                         "obs_per_sec": round(rate, 1)}
        print(f"  {mode.replace('_', '-'):<16} {len(stream):>6} obs in "
              f"{best * 1e3:8.1f} ms = {rate:9.0f} obs/s")

    reference = journals["direct_local"].canonical_state()
    results["equivalent_states"] = all(
        journal.canonical_state() == reference for journal in journals.values()
    )
    direct = results["direct_remote"]["obs_per_sec"]
    batched = results["batched_remote"]["obs_per_sec"]
    results["remote_batching_speedup"] = round(batched / direct, 2) if direct else None
    results["pipeline_counts"] = {
        mode: {
            key: journals[mode].counts()[key]
            for key in (
                "observations_submitted",
                "observations_applied",
                "observations_coalesced",
                "batches_flushed",
            )
        }
        for mode in journals
    }
    print(f"  remote batching speedup: {results['remote_batching_speedup']}x, "
          f"equivalent={results['equivalent_states']}")
    return results


def bench_read_latency(
    *, records: int, samples: int, dump_readers: int, writers: int
) -> Dict[str, object]:
    """Fast-read (counts) latency while heavy reads and writes are in
    flight.  The heavy read is the ``dump`` op: it serialises the whole
    journal on the server's loop."""
    print(f"read latency under load ({records} records, {samples} samples):")
    journal = Journal()
    for observation in build_stream(records, 1):
        journal.submit(observation)
    server = JournalServer(journal)
    server.start()
    stop = threading.Event()
    dumps_done = [0]
    threads: List[threading.Thread] = []
    host, port = server.address

    def dump_loop():
        with RemoteClient(host, port) as client:
            while not stop.is_set():
                client._call({"op": "dump"})
                dumps_done[0] += 1

    def write_loop():
        with RemoteClient(host, port) as client:
            serial = 0
            while not stop.is_set():
                serial += 1
                client.submit(
                    Observation(source=SOURCE, ip=f"10.200.0.{serial % 250 + 1}")
                )
                # Real explorers flush batches at a gentle cadence;
                # this measures reads beside writes, not writer
                # pressure.
                time.sleep(0.01)

    try:
        for _ in range(dump_readers):
            threads.append(threading.Thread(target=dump_loop, daemon=True))
        for _ in range(writers):
            threads.append(threading.Thread(target=write_loop, daemon=True))
        for thread in threads:
            thread.start()
        time.sleep(0.1)  # let the load settle
        latencies: List[float] = []
        with RemoteClient(host, port) as client:
            for _ in range(samples):
                started = time.perf_counter()
                client.counts()
                latencies.append(time.perf_counter() - started)
                time.sleep(0.002)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=5.0)
        server.stop()
    median_ms = statistics.median(latencies) * 1e3
    p95_ms = sorted(latencies)[int(len(latencies) * 0.95)] * 1e3
    print(f"  counts median={median_ms:7.3f} ms "
          f"p95={p95_ms:7.3f} ms (dumps={dumps_done[0]})")
    return {
        "counts_ms_median": round(median_ms, 3),
        "counts_ms_p95": round(p95_ms, 3),
        "dumps_completed": dumps_done[0],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small run for CI smoke testing",
    )
    parser.add_argument("--hosts", type=int, default=600)
    parser.add_argument("--repeats", type=int, default=4,
                        help="consecutive sightings per host")
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument("--trials", type=int, default=3,
                        help="ingest repetitions; the best rate is kept")
    parser.add_argument("--latency-records", type=int, default=1500)
    parser.add_argument("--latency-samples", type=int, default=120)
    parser.add_argument("--dump-readers", type=int, default=3)
    parser.add_argument("--writers", type=int, default=1)
    parser.add_argument(
        "--check", action="store_true",
        help="fail unless batched remote ingest is >= 5x per-observation "
        "remote",
    )
    parser.add_argument("--output", default="BENCH_ingest.json",
                        help="result file path (default: %(default)s)")
    args = parser.parse_args(argv)

    if args.quick:
        args.hosts = min(args.hosts, 150)
        args.trials = min(args.trials, 2)
        args.latency_records = min(args.latency_records, 400)
        args.latency_samples = min(args.latency_samples, 40)

    result: Dict[str, object] = {
        "benchmark": "observation ingest pipeline",
        "stream": {"hosts": args.hosts, "repeats": args.repeats,
                   "max_batch": args.max_batch},
        "quick": args.quick,
    }
    stream = build_stream(args.hosts, args.repeats)
    result["ingest"] = bench_ingest(
        stream, max_batch=args.max_batch, trials=args.trials
    )
    result["read_latency"] = bench_read_latency(
        records=args.latency_records,
        samples=args.latency_samples,
        dump_readers=args.dump_readers,
        writers=args.writers,
    )

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    if not result["ingest"]["equivalent_states"]:
        raise SystemExit("FAIL: ingest paths diverged")
    if args.check:
        speedup = result["ingest"]["remote_batching_speedup"]
        if speedup is None or speedup < 5.0:
            raise SystemExit(
                f"FAIL: batched remote ingest speedup {speedup}x below 5x"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
