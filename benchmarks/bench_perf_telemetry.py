"""Perf benchmark: telemetry overhead on the ingest hot path.

The observability layer instruments every layer of the pipeline —
per-observation counters in the Journal, batch histograms in the
BatchingSink, per-op latency histograms and spans in the server.  Its
overhead budget is **<5% of ingest throughput** (see DESIGN.md §9).
This harness measures the same deterministic observation stream
ingested with telemetry fully on (``MetricsRegistry(enabled=True)``,
the default) and with histograms/spans disabled
(``MetricsRegistry(enabled=False)``, the no-op baseline), local and
batched, and reports the relative slowdown.

It also measures the cost of *reading* telemetry under load: the time
to render a Prometheus exposition and to take a ``snapshot()`` of a
registry populated by a full ingest run — both must stay cheap enough
to scrape every few seconds.

Results land in ``BENCH_telemetry.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_telemetry.py
    PYTHONPATH=src python benchmarks/bench_perf_telemetry.py --quick
    PYTHONPATH=src python benchmarks/bench_perf_telemetry.py --check

(Not a pytest module: run it directly.)
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from typing import Dict, List, Optional

from repro.core import BatchingSink, Journal, MetricsRegistry, connect
from repro.core.records import Observation

SOURCE = "bench"

#: --check bound: the documented budget is 5%; the gate allows 10% so a
#: noisy CI runner doesn't flap while a real regression (spans on the
#: per-observation path, say, at ~40%) still fails loudly.
CHECK_LIMIT = 0.10


def build_stream(hosts: int, repeats: int) -> List[Observation]:
    """Deterministic stream with watcher-like adjacent duplicates."""
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


def _ingest_direct(stream: List[Observation], *, enabled: bool) -> float:
    journal = Journal(telemetry=MetricsRegistry(enabled=enabled))
    started = time.process_time()
    for observation in stream:
        journal.submit(observation)
    journal.flush()
    return time.process_time() - started


def _ingest_batched(
    stream: List[Observation], *, enabled: bool, max_batch: int
) -> float:
    journal = Journal(telemetry=MetricsRegistry(enabled=enabled))
    sink = connect(journal, batching=max_batch)
    assert isinstance(sink, BatchingSink)
    started = time.process_time()
    for observation in stream:
        sink.submit(observation)
    sink.close()
    return time.process_time() - started


def bench_overhead(
    stream: List[Observation], *, max_batch: int, trials: int
) -> Dict[str, object]:
    """Each trial runs both arms back to back, in alternating order, and
    each arm is timed in process CPU time: a descheduled or co-tenanted
    stretch then lands on neither arm, or on both, instead of moving the
    ratio by tens of percent."""
    print(f"telemetry overhead ({len(stream)} observations, "
          f"best of {trials} interleaved trials, CPU time):")
    results: Dict[str, object] = {}
    modes = (
        ("direct", lambda enabled: _ingest_direct(stream, enabled=enabled)),
        ("batched", lambda enabled: _ingest_batched(
            stream, enabled=enabled, max_batch=max_batch)),
    )
    for mode, ingest in modes:
        timings: Dict[str, float] = {}
        for trial in range(trials):
            arms = (("off", False), ("on", True))
            for state, enabled in arms if trial % 2 == 0 else arms[::-1]:
                gc.collect()
                elapsed = ingest(enabled)
                timings[state] = min(timings.get(state, elapsed), elapsed)
        overhead = (timings["on"] - timings["off"]) / timings["off"]
        rate_on = len(stream) / timings["on"]
        rate_off = len(stream) / timings["off"]
        results[mode] = {
            "seconds_off": round(timings["off"], 6),
            "seconds_on": round(timings["on"], 6),
            "obs_per_sec_off": round(rate_off, 1),
            "obs_per_sec_on": round(rate_on, 1),
            "overhead_fraction": round(overhead, 4),
        }
        print(f"  {mode:<8} off={rate_off:9.0f} obs/s  on={rate_on:9.0f} obs/s"
              f"  overhead={overhead * 100:+5.1f}%")
    worst = max(entry["overhead_fraction"] for entry in results.values())
    results["worst_overhead_fraction"] = worst
    print(f"  worst overhead: {worst * 100:+.1f}% "
          f"(budget 5%, check limit {CHECK_LIMIT * 100:.0f}%)")
    return results


def bench_exposition(stream: List[Observation], *, samples: int) -> Dict[str, object]:
    """Cost of reading a registry populated by a full ingest run."""
    journal = Journal()
    sink = connect(journal, batching=64)
    for observation in stream:
        sink.submit(observation)
    sink.close()
    registry = journal.telemetry

    def best_of(action) -> float:
        best = None
        for _ in range(samples):
            started = time.perf_counter()
            action()
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        return best

    render = best_of(registry.render_prometheus)
    snapshot = best_of(lambda: registry.snapshot(spans=50))
    print(f"exposition: render_prometheus={render * 1e3:.3f} ms, "
          f"snapshot={snapshot * 1e3:.3f} ms")
    return {
        "render_prometheus_ms": round(render * 1e3, 4),
        "snapshot_ms": round(snapshot * 1e3, 4),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small run for CI smoke testing")
    parser.add_argument("--hosts", type=int, default=1200)
    parser.add_argument("--repeats", type=int, default=4,
                        help="consecutive sightings per host")
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument("--trials", type=int, default=9,
                        help="interleaved off/on ingest pairs; each arm's best "
                        "CPU time is kept")
    parser.add_argument("--exposition-samples", type=int, default=20)
    parser.add_argument(
        "--check", action="store_true",
        help=f"fail if telemetry-on ingest is more than "
        f"{CHECK_LIMIT * 100:.0f}%% slower than telemetry-off",
    )
    parser.add_argument("--output", default="BENCH_telemetry.json",
                        help="result file path (default: %(default)s)")
    args = parser.parse_args(argv)

    if args.quick:
        args.hosts = min(args.hosts, 300)
        args.exposition_samples = min(args.exposition_samples, 5)

    result: Dict[str, object] = {
        "benchmark": "telemetry overhead on ingest",
        "stream": {"hosts": args.hosts, "repeats": args.repeats,
                   "max_batch": args.max_batch},
        "quick": args.quick,
        "check_limit": CHECK_LIMIT,
    }
    stream = build_stream(args.hosts, args.repeats)
    result["overhead"] = bench_overhead(
        stream, max_batch=args.max_batch, trials=args.trials
    )
    result["exposition"] = bench_exposition(
        stream, samples=args.exposition_samples
    )

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    if args.check:
        worst = result["overhead"]["worst_overhead_fraction"]
        if worst > CHECK_LIMIT:
            raise SystemExit(
                f"FAIL: telemetry overhead {worst * 100:.1f}% exceeds "
                f"{CHECK_LIMIT * 100:.0f}% check limit"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
