"""Perf benchmark: ingest across a sharded Journal fleet under
change-feed fan-out.

The paper's Journal serves every watcher in the site: each UI monitor
subscribes to the change feed and the server pays one frame
serialisation + socket write per subscriber per mutation.  A
monolithic Journal cannot scope a subscription — a monitor that only
cares about one region still receives (and the server still ships)
every record in the site.  Sharding fixes the fan-out structurally:
a region's monitors subscribe to the shard that owns the region, so
each acknowledged write is pushed to ``S/N`` subscribers instead of
``S``.

This harness launches *N* durable shard server processes (``serve
--shard k/N --durable DIR``), attaches ``S`` monitor processes spread
round-robin across the fleet (all ``S`` hang off the single server in
the baseline — there is nowhere else to subscribe), pre-partitions a
subnet universe with the same ``ShardMap`` the router uses, and
drives pipelined ``observe`` bursts from one loader process per
shard.  It reports sustained acknowledged writes/sec per fleet size
and the speedup of the largest fleet over the single-journal
baseline.

It also times a composed change feed: a consumer loops on ``poll()``
over a ``shard://`` router's feed while writes land on the last shard
of the largest fleet, and the time from each write to its delta's
delivery is reported.  ``--check`` fails when its p50 exceeds
``FEED_DELIVERY_GATE_MS``: a composed feed waits on every member's
stream at once, so a delta is handed over when it lands, whichever
shard it lands on.

It also embeds the federation correctness check: the same operation
campaign applied through a ``ShardedClient`` and through a single
``Journal`` must produce identical ``identity_state()`` snapshots and
identical scatter-gather read order.  ``--check`` enforces the
equivalence always, and the ingest speedup in full (non ``--quick``)
runs.

Shard processes can only overlap their CPU work when the host has
cores to run them on.  On a single-core host the fleet still wins —
every write is pushed to a quarter of the subscribers — but the win
is capped well below the value a real deployment sees, so the
``--check`` speedup gate applies only when the host has at least as
many CPUs as the largest fleet (the result records ``cpus`` and flags
``cpu_limited`` either way).

Results land in ``BENCH_sharding.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_sharding.py
    PYTHONPATH=src python benchmarks/bench_perf_sharding.py --quick --check

(Not a pytest module: run it directly.)
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.core import (  # noqa: E402
    Journal,
    Observation,
    ShardMap,
    connect,
)

SOURCE = "bench-shard"
LISTEN_RE = re.compile(r"listening on ([\d.]+):(\d+)")
#: ``--check`` bound on the p50 delivery time of last-shard deltas
#: through a composed feed (loopback, idle fleet)
FEED_DELIVERY_GATE_MS = 10.0


def _batch_schedule() -> None:
    """Ask the kernel for batch scheduling (longer timeslices, fewer
    preemptions).  Best-effort: many of this harness's processes share
    one core, and reducing involuntary context switches keeps the
    measurement about the protocol work, not the scheduler."""
    try:
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    except (AttributeError, OSError, PermissionError):
        pass


def _subnets_for_shard(shard: int, total: int, count: int) -> List[Tuple[int, int]]:
    """Pick ``count`` /24s out of 10.b.c.0/24 that the fleet's ShardMap
    places on ``shard`` — loaders pre-partition exactly the way the
    router would route."""
    shard_map = ShardMap(total)
    picked: List[Tuple[int, int]] = []
    for b in range(1, 250):
        for c in range(0, 250):
            if shard_map.shard_for_subnet(f"10.{b}.{c}.0/24") == shard:
                picked.append((b, c))
                if len(picked) >= count:
                    return picked
    return picked


def _monitor_main(args: argparse.Namespace) -> int:
    """Monitor subprocess: open ``--count`` change-feed subscriptions
    against one shard and drain them until killed — stand-ins for a
    region's UI watchers (one process per shard keeps the scheduler
    load representative of a real monitor host)."""
    import threading

    from repro.core import RemoteClient

    _batch_schedule()
    host, port = args.monitor_target.rsplit(":", 1)

    def watch() -> None:
        client = RemoteClient(host, int(port), timeout=60.0)
        feed = client.subscribe(since=0)
        ready.release()
        while True:
            feed.poll(0.5)

    ready = threading.Semaphore(0)
    for _ in range(args.count):
        threading.Thread(target=watch, daemon=True).start()
    for _ in range(args.count):
        ready.acquire()
    print("subscribed", flush=True)
    while True:
        time.sleep(60.0)


def _driver_main(args: argparse.Namespace) -> int:
    """Loader subprocess: pipelined observe bursts against one shard —
    the per-shard stream a ``ShardedClient`` router's placement
    produces."""
    from repro.core import RemoteClient

    _batch_schedule()
    host, port = args.target.rsplit(":", 1)
    client = RemoteClient(host, int(port), timeout=60.0)
    subnets = _subnets_for_shard(args.shard, args.total, 32)
    ops = args.ops
    depth = args.depth
    done = 0
    # Barrier: every loader spins up (interpreter, import, connect)
    # before the measured window opens, so process start-up cost never
    # pollutes the throughput numbers.
    if args.start_at:
        delay = args.start_at - time.time()
        if delay > 0:
            time.sleep(delay)
    started = time.perf_counter()
    while done < ops:
        burst = min(depth, ops - done)
        requests = []
        for i in range(burst):
            b, c = subnets[(done + i) // 200 % len(subnets)]
            host_octet = (done + i) % 200 + 1
            requests.append(
                {
                    "op": "observe",
                    "observation": {
                        "source": SOURCE,
                        "ip": f"10.{b}.{c}.{host_octet}",
                        "mac": f"08:00:2b:{b:02x}:{c:02x}:{host_octet:02x}",
                        "dns_name": f"host-{b}-{c}-{host_octet}.example.edu",
                        "vendor": "dec",
                        "subnet_mask": "255.255.255.0",
                    },
                }
            )
        replies = client.begin_many(requests)
        for reply in replies:
            reply.wait()
        done += burst
    elapsed = time.perf_counter() - started
    client.close()
    print(json.dumps({"ops": done, "elapsed": elapsed}))
    return 0


def _spawn_shard(
    index: int, total: int, base_dir: str, *, fsync: str
) -> Tuple[subprocess.Popen, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [
        sys.executable, "-u", "-m", "repro", "serve",
        "--durable", base_dir, "--fsync", fsync, "--port", "0",
    ]
    if shutil.which("chrt"):
        # Same batch scheduling class as the loaders and monitors —
        # a uniform policy across the whole harness.
        cmd = ["chrt", "-b", "0"] + cmd
    if total > 1:
        cmd += ["--shard", f"{index}/{total}"]
    proc = subprocess.Popen(
        cmd, env=env, cwd=REPO_ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.monotonic() + 30.0
    lines: List[str] = []
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        lines.append(line)
        match = LISTEN_RE.search(line)
        if match:
            return proc, f"{match.group(1)}:{match.group(2)}"
    proc.kill()
    raise RuntimeError(
        f"shard {index}/{total} never announced its port:\n" + "".join(lines)
    )


def measure_fleet(
    shards: int, *, ops: int, depth: int, fsync: str, monitors: int
) -> Dict[str, object]:
    base = tempfile.mkdtemp(prefix=f"bench-shard-{shards}-")
    servers: List[subprocess.Popen] = []
    drivers: List[subprocess.Popen] = []
    watcher_procs: List[subprocess.Popen] = []
    try:
        endpoints: List[str] = []
        for index in range(shards):
            proc, endpoint = _spawn_shard(index, shards, base, fsync=fsync)
            servers.append(proc)
            endpoints.append(endpoint)

        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")

        # Region monitors, one process per watcher, spread round-robin
        # across the fleet.  The baseline fleet has one server, so
        # every watcher subscribes there (a monolith cannot scope a
        # subscription to a region).
        for index in range(monitors):
            watcher_procs.append(
                subprocess.Popen(
                    [
                        sys.executable, os.path.abspath(__file__),
                        "--_monitor", endpoints[index % shards],
                        "--count", "1",
                    ],
                    env=env, cwd=REPO_ROOT,
                    stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                    text=True,
                )
            )
        for watcher in watcher_procs:
            if "subscribed" not in watcher.stdout.readline():
                raise RuntimeError("monitor failed to subscribe")

        per_driver = ops // shards
        start_at = time.time() + 2.0 + 0.5 * shards
        for index, endpoint in enumerate(endpoints):
            drivers.append(
                subprocess.Popen(
                    [
                        sys.executable, os.path.abspath(__file__),
                        "--_driver", endpoint,
                        "--shard", str(index), "--total", str(shards),
                        "--ops", str(per_driver), "--depth", str(depth),
                        "--start-at", repr(start_at),
                    ],
                    env=env, cwd=REPO_ROOT,
                    stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                    text=True,
                )
            )
        total_ops = 0
        wall = 0.0
        for driver in drivers:
            out, _ = driver.communicate(timeout=600.0)
            if driver.returncode != 0:
                raise RuntimeError(f"loader failed:\n{out}")
            report = json.loads(out.strip().splitlines()[-1])
            total_ops += report["ops"]
            wall = max(wall, report["elapsed"])

        # A lagged watcher silently falls back to polling, which makes
        # the push-cost numbers incomparable — surface the counter.
        fallbacks = 0
        subscribers = 0
        from repro.core import RemoteClient

        for endpoint in endpoints:
            host, port = endpoint.rsplit(":", 1)
            probe = RemoteClient(host, int(port), timeout=10.0)
            try:
                snapshot = probe.metrics(spans=0)
            finally:
                probe.close()
            for metric in snapshot.get("metrics", []):
                total = sum(
                    sample.get("value", 0)
                    for sample in metric.get("samples", [])
                )
                if "feed_fallbacks" in metric["name"]:
                    fallbacks += int(total)
                elif metric["name"] == "fremont_feed_subscribers":
                    subscribers += int(total)

        # The writes were acknowledged durable: every shard's WAL must
        # exist and be non-empty.
        wal_bytes = 0
        for root, _dirs, files in os.walk(base):
            wal_bytes += sum(
                os.path.getsize(os.path.join(root, name))
                for name in files if name.startswith("wal-")
            )
        return {
            "shards": shards,
            "ops": total_ops,
            "duration_s": round(wall, 3),
            "ops_per_sec": round(total_ops / wall, 1) if wall else None,
            "pipeline_depth": depth,
            "fsync": fsync,
            "monitors": monitors,
            "monitors_per_shard": monitors // shards if shards else 0,
            "feed_fallbacks": fallbacks,
            "live_subscribers": subscribers,
            "wal_bytes": wal_bytes,
        }
    finally:
        for driver in drivers:
            if driver.poll() is None:
                driver.kill()
        for watcher in watcher_procs:
            watcher.kill()
        for server in servers:
            server.terminate()
        for server in servers:
            try:
                server.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                server.kill()
        shutil.rmtree(base, ignore_errors=True)


def measure_feed_delivery(shards: int, *, writes: int, fsync: str) -> Dict[str, object]:
    """Per write on the fleet's last shard, the time from sending it to
    a composed feed handing over its delta.  The consumer loops on
    ``poll()`` with the default timeout, as a monitor does; a feed that
    waited on the other shards' streams first would hold the delta
    back for as long as it waited there."""
    base = tempfile.mkdtemp(prefix=f"bench-shard-feed-{shards}-")
    servers: List[subprocess.Popen] = []
    try:
        endpoints: List[str] = []
        for index in range(shards):
            proc, endpoint = _spawn_shard(index, shards, base, fsync=fsync)
            servers.append(proc)
            endpoints.append(endpoint)
        router = connect("shard://" + ",".join(endpoints))
        feed = router.subscribe(since=0)
        arrived: Dict[int, float] = {}

        def consume() -> None:
            while True:
                try:
                    delta = feed.poll()
                except ConnectionError:
                    return  # closed below
                now = time.perf_counter()
                for record_id in delta.interfaces if delta else ():
                    arrived.setdefault(record_id, now)

        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        (b, c), = _subnets_for_shard(shards - 1, shards, 1)
        sent: Dict[int, float] = {}
        for host in range(1, writes + 1):
            time.sleep(0.03)
            started = time.perf_counter()
            record, _ = router.observe_interface(
                Observation(source=SOURCE, ip=f"10.{b}.{c}.{host}")
            )
            sent[record.record_id] = started
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and not sent.keys() <= arrived.keys():
            time.sleep(0.01)
        feed.close()
        consumer.join(timeout=5.0)
        router.close()
        delays = sorted(
            (arrived[record_id] - at) * 1000.0
            for record_id, at in sent.items() if record_id in arrived
        )
        return {
            "shards": shards,
            "writes": writes,
            "delivered": len(delays),
            "p50_ms": round(statistics.median(delays), 3) if delays else None,
            "p90_ms": round(delays[int(0.9 * (len(delays) - 1))], 3) if delays else None,
            "max_ms": round(delays[-1], 3) if delays else None,
        }
    finally:
        for server in servers:
            server.terminate()
        for server in servers:
            try:
                server.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                server.kill()
        shutil.rmtree(base, ignore_errors=True)


def check_equivalence(shards: int) -> Dict[str, object]:
    """Apply one campaign through a ShardedClient and through a single
    Journal; the merged fleet view must be indistinguishable."""
    def step_clock():
        state = {"now": 0.0}

        def clock() -> float:
            state["now"] += 1.0
            return state["now"]

        return clock

    # One shared clock per side: the scatter-gather merge orders by
    # (last_modified, record_id), so shard journals must draw their
    # timestamps from a single monotone source to be comparable with
    # the unsharded run.
    fleet_clock = step_clock()
    journals = [Journal(clock=fleet_clock) for _ in range(shards)]
    router = connect([connect(journal) for journal in journals])
    single = Journal(clock=step_clock())

    def campaign(client) -> None:
        gateways: Dict[str, int] = {}
        for step in range(240):
            subnet = step % 12
            ip = f"10.{subnet + 1}.{subnet + 1}.{step % 200 + 1}"
            record, _ = client.observe_interface(
                Observation(
                    source=SOURCE, ip=ip,
                    mac=f"08:00:2b:00:{subnet:02x}:{step % 200:02x}",
                    subnet_mask="255.255.255.0" if step % 3 == 0 else None,
                )
            )
            if step % 17 == 0:
                name = f"gw-{step % 5}"
                gateway, _ = client.ensure_gateway(
                    source=SOURCE, name=name,
                    interface_ids=(record.record_id,),
                )
                gateways[name] = gateway.record_id
            if step % 29 == 0 and gateways:
                name = sorted(gateways)[step % len(gateways)]
                client.link_gateway_subnet(
                    gateways[name],
                    f"10.{subnet + 1}.{subnet + 1}.0/24",
                    source=SOURCE,
                )

    campaign(router)
    campaign(single)

    scatter = [
        (rec.ip, rec.mac) for rec in router.query("interfaces")
    ]
    base = [(rec.ip, rec.mac) for rec in single.query("interfaces")]
    ordered = scatter == base
    identical = router.snapshot().identity_state() == single.identity_state()
    router.close()
    return {
        "shards": shards,
        "scatter_order_matches": ordered,
        "identity_state_matches": identical,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--_driver", dest="target", help=argparse.SUPPRESS)
    parser.add_argument("--_monitor", dest="monitor_target",
                        help=argparse.SUPPRESS)
    parser.add_argument("--count", type=int, default=1,
                        help=argparse.SUPPRESS)
    parser.add_argument("--shard", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--total", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--start-at", type=float, default=0.0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--quick", action="store_true",
                        help="small run for CI smoke testing")
    parser.add_argument("--fleets", type=int, nargs="+", default=[1, 2, 4],
                        help="fleet sizes to measure")
    parser.add_argument("--ops", type=int, default=8000,
                        help="durable writes per fleet measurement")
    parser.add_argument("--depth", type=int, default=32,
                        help="pipeline depth per loader burst")
    parser.add_argument("--fsync", default="interval",
                        help="WAL fsync policy for every shard")
    parser.add_argument("--monitors", type=int, default=16,
                        help="change-feed watcher processes across the fleet")
    parser.add_argument(
        "--check", action="store_true",
        help="fail unless scatter-gather matches the single-journal run "
        "and a composed feed hands over last-shard deltas within "
        f"{FEED_DELIVERY_GATE_MS:g} ms p50 (always), and the largest "
        "fleet beats one shard by >= 2.5x ingest (full runs on hosts "
        "with enough CPUs to run the fleet in parallel)",
    )
    parser.add_argument("--output", default="BENCH_sharding.json",
                        help="result file path (default: %(default)s)")
    args = parser.parse_args(argv)

    if args.target:
        return _driver_main(args)
    if args.monitor_target:
        return _monitor_main(args)

    if args.quick:
        args.fleets = [1, 2]
        args.ops = min(args.ops, 1200)
        args.monitors = min(args.monitors, 4)

    equivalence = check_equivalence(max(args.fleets))
    print(
        f"equivalence at {equivalence['shards']} shards: "
        f"order={equivalence['scatter_order_matches']} "
        f"identity={equivalence['identity_state_matches']}"
    )

    delivery = measure_feed_delivery(
        max(args.fleets), writes=20 if args.quick else 60, fsync=args.fsync
    )
    print(
        f"composed feed over {delivery['shards']} shards: last-shard "
        f"deltas {delivery['delivered']}/{delivery['writes']}, p50 "
        f"{delivery['p50_ms']} ms, p90 {delivery['p90_ms']} ms, max "
        f"{delivery['max_ms']} ms"
    )

    fleets: List[Dict[str, object]] = []
    for shards in args.fleets:
        print(f"{shards} shard(s) x {args.ops} writes, "
              f"{args.monitors} monitors ...", end=" ", flush=True)
        level = measure_fleet(
            shards, ops=args.ops, depth=args.depth, fsync=args.fsync,
            monitors=args.monitors,
        )
        fleets.append(level)
        print(f"{level['ops_per_sec']:>9} writes/s")

    by_size = {entry["shards"]: entry for entry in fleets}
    base_rate = by_size[min(by_size)]["ops_per_sec"]
    peak = by_size[max(by_size)]
    speedup = (
        round(peak["ops_per_sec"] / base_rate, 2) if base_rate else None
    )
    print(f"{peak['shards']} shards vs {min(by_size)}: {speedup}x")

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    cpu_limited = cpus < peak["shards"]
    if cpu_limited:
        print(
            f"note: {cpus} CPU(s) for a {peak['shards']}-shard fleet — "
            f"shard processes cannot overlap their CPU work; the "
            f"measured speedup is scheduler-bound, not the deployment "
            f"ceiling"
        )

    result = {
        "benchmark": "sharded ingest under change-feed fan-out",
        "quick": args.quick,
        "cpus": cpus,
        "fleets": fleets,
        "speedup": {
            "baseline_shards": min(by_size),
            "peak_shards": peak["shards"],
            "value": speedup,
            "cpu_limited": cpu_limited,
        },
        "equivalence": equivalence,
        "feed_delivery": delivery,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    if args.check:
        if not (
            equivalence["scatter_order_matches"]
            and equivalence["identity_state_matches"]
        ):
            raise SystemExit(
                "FAIL: sharded fleet diverged from the single-journal run"
            )
        if delivery["delivered"] < delivery["writes"] or not (
            delivery["p50_ms"] <= FEED_DELIVERY_GATE_MS
        ):
            raise SystemExit(
                f"FAIL: composed feed delivered {delivery['delivered']}/"
                f"{delivery['writes']} last-shard deltas, p50 "
                f"{delivery['p50_ms']} ms (gate {FEED_DELIVERY_GATE_MS:g} ms)"
            )
        if args.quick or cpu_limited:
            if cpu_limited:
                print(
                    "check: speedup gate skipped (host cannot run the "
                    "fleet in parallel); equivalence enforced"
                )
        elif speedup is None or speedup < 2.5:
            raise SystemExit(
                f"FAIL: {peak['shards']}-shard ingest speedup {speedup}x "
                f"below 2.5x"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
