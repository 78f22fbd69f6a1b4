"""Perf benchmark: connection fan-in on the Journal Server.

The paper's Journal Server fields every Explorer Module and every UI
client in the site at once.  The server multiplexes every socket onto
one event loop and lets clients pipeline requests (tagged ids,
out-of-order completion).

This harness opens *N* concurrent client connections and drives a
mixed workload (~90% ``observe`` writes, ~10% ``counts`` reads, plus a
sprinkling of change-feed subscribers), then reports sustained ops/sec
and the ``counts`` read p95 per fan-in level, up to thousands of
connections.

Results land in ``BENCH_fanin.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_fanin.py
    PYTHONPATH=src python benchmarks/bench_perf_fanin.py --quick
    PYTHONPATH=src python benchmarks/bench_perf_fanin.py --check

(Not a pytest module: run it directly.)
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from typing import Dict, List, Optional

from repro.core import Journal, JournalServer, RemoteClient

SOURCE = "fanin"
DRIVERS = 8


def _open_clients(host: str, port: int, count: int) -> List[RemoteClient]:
    clients: List[Optional[RemoteClient]] = [None] * count
    errors: List[BaseException] = []

    def opener(start: int, step: int) -> None:
        for index in range(start, count, step):
            try:
                clients[index] = RemoteClient(host, port, timeout=30.0)
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)
                return

    threads = [
        threading.Thread(target=opener, args=(start, DRIVERS), daemon=True)
        for start in range(DRIVERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return [client for client in clients if client is not None]


def _close_clients(clients: List[RemoteClient]) -> None:
    def closer(start: int) -> None:
        for client in clients[start::DRIVERS]:
            try:
                client.close()
            except Exception:
                pass

    threads = [
        threading.Thread(target=closer, args=(start,), daemon=True)
        for start in range(DRIVERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def measure_level(
    n_clients: int,
    *,
    duration: float,
    depth: int,
    subscribers: Optional[int] = None,
) -> Dict[str, object]:
    journal = Journal()
    server = JournalServer(journal)
    server.start()
    host, port = server.address
    feeds = []
    clients: List[RemoteClient] = []
    try:
        clients = _open_clients(host, port, n_clients)
        # ~0.5% of connections are UI/watcher subscribers on the push feed.
        if subscribers is None:
            subscribers = max(1, n_clients // 200)
        for _ in range(subscribers):
            subscriber = RemoteClient(host, port, timeout=30.0)
            feeds.append((subscriber, subscriber.subscribe(since=0)))

        deadline = time.monotonic() + duration
        ops_done = [0] * DRIVERS
        read_latencies: List[List[float]] = [[] for _ in range(DRIVERS)]
        errors: List[BaseException] = []
        started = threading.Barrier(DRIVERS + 1)

        def driver(driver_id: int) -> None:
            mine = clients[driver_id::DRIVERS]
            latencies = read_latencies[driver_id]
            started.wait()
            serial = 0
            try:
                while time.monotonic() < deadline:
                    client = mine[serial % len(mine)]
                    serial += 1
                    # Pipelined write burst, framed as one socket write.
                    replies = client.begin_many(
                        [
                            {
                                "op": "observe",
                                "observation": {
                                    "source": SOURCE,
                                    "ip": "10.{}.{}.{}".format(
                                        driver_id,
                                        serial % 250,
                                        burst % 250 + 1,
                                    ),
                                },
                            }
                            for burst in range(depth)
                        ]
                    )
                    for reply in replies:
                        reply.wait()
                    ops_done[driver_id] += depth
                    if serial % 10 == 0:
                        begun = time.perf_counter()
                        client.begin({"op": "counts"}).wait()
                        latencies.append(time.perf_counter() - begun)
                        ops_done[driver_id] += 1
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [
            threading.Thread(target=driver, args=(index,), daemon=True)
            for index in range(DRIVERS)
        ]
        for thread in threads:
            thread.start()
        started.wait()
        timed_start = time.monotonic()
        for thread in threads:
            thread.join(timeout=duration + 60.0)
        elapsed = time.monotonic() - timed_start
        if errors:
            raise errors[0]

        # Drain whatever the feed pushed while the load ran.
        feed_frames = 0
        for _subscriber, feed in feeds:
            while feed.poll(0.0) is not None:
                feed_frames += 1

        total_ops = sum(ops_done)
        latencies = sorted(value for chunk in read_latencies for value in chunk)
        p95 = latencies[int(len(latencies) * 0.95)] if latencies else None
        return {
            "clients": n_clients,
            "subscribers": len(feeds),
            "duration_s": round(elapsed, 3),
            "ops": total_ops,
            "ops_per_sec": round(total_ops / elapsed, 1) if elapsed else None,
            "counts_p95_ms": round(p95 * 1e3, 3) if p95 is not None else None,
            "counts_samples": len(latencies),
            "feed_frames": feed_frames,
            "pipeline_depth": depth,
            "requests_served": server.requests_served,
            "interfaces": journal.counts()["interfaces"],
        }
    finally:
        for _subscriber, feed in feeds:
            try:
                feed.close()
            except Exception:
                pass
        for subscriber, _feed in feeds:
            try:
                subscriber.close()
            except Exception:
                pass
        _close_clients(clients)
        server.stop()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small run for CI smoke testing",
    )
    parser.add_argument(
        "--async-levels", type=int, nargs="+", default=[100, 1000, 5000],
        help="concurrent client connections per level",
    )
    parser.add_argument("--duration", type=float, default=6.0,
                        help="seconds of sustained load per level")
    parser.add_argument("--depth", type=int, default=8,
                        help="pipeline depth per client burst")
    parser.add_argument(
        "--check", action="store_true",
        help="fail unless the server sustained >= 1000 concurrent async "
        "clients (full run only)",
    )
    parser.add_argument("--output", default="BENCH_fanin.json",
                        help="result file path (default: %(default)s)")
    args = parser.parse_args(argv)

    if args.quick:
        args.async_levels = [50, 150]
        args.duration = min(args.duration, 2.0)

    levels: List[Dict[str, object]] = []
    for n_clients in args.async_levels:
        print(f"async x {n_clients} clients ...", end=" ", flush=True)
        level = measure_level(n_clients, duration=args.duration, depth=args.depth)
        levels.append(level)
        print(f"{level['ops_per_sec']:>9} ops/s, "
              f"counts p95 {level['counts_p95_ms']} ms")

    result = {
        "benchmark": "connection fan-in",
        "quick": args.quick,
        "drivers": DRIVERS,
        "levels": levels,
        "max_async_clients": max(
            (entry["clients"] for entry in levels), default=0
        ),
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    if args.check:
        if not args.quick and result["max_async_clients"] < 1000:
            raise SystemExit(
                f"FAIL: the server only reached "
                f"{result['max_async_clients']} concurrent async clients"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
