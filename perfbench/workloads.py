"""The workloads: build the served stack, replay, measure, check.

Every workload runs the same pass — set up, replay the measured
program (campaign and operator segments, alternating), pull counters,
SIGKILL, recover — with its own programs and fleet size, so each
end-to-end metric exists on each workload while the share of work per
layer differs:

* ``ingest``: one server; mostly discovery campaign, with short
  operator segments.
* ``fleet``: two shards behind the router; a preloaded campus (the
  preload is the set-up), then routed campaign segments and
  scatter-gather operator segments.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core import BatchingSink, Journal, JournalStore, LocalClient, RemoteClient, ShardedClient

import programs
import stack as stacklib
import tracing
from replay import Chunk, FeedWatch, Replayer, Tally

pc = time.perf_counter

READ_KINDS = ("lookup", "query", "path", "impact")
#: timed recoveries per run: at least this many, and more until
#: RECOVERY_SECONDS have passed, so they span more than one stretch of
#: host speed
RECOVERIES = 5
RECOVERY_SECONDS = 4.0
#: write/read segment pairs in the measured program; the timing
#: metrics are medians over segments (see ``chunk_median``)
SEGMENTS = 20


#: with two or more CPUs, servers run on the last one and the client
#: on the others, so the scheduler cannot vary their placement from run
#: to run
_ALLOWED = sorted(os.sched_getaffinity(0))
SERVER_CPUS = {_ALLOWED[-1]} if len(_ALLOWED) > 1 else None
CLIENT_CPUS = set(_ALLOWED[:-1]) if len(_ALLOWED) > 1 else None
STEAL = stacklib.StealMeter(_ALLOWED)


@dataclass(frozen=True)
class Spec:
    shards: int
    #: campaign ops per second of ``--seconds``
    campaign_rate: int
    #: operator reads per second of ``--seconds``
    read_rate: int
    #: set-ups per untraced run (set-up time is their median)
    setups: int
    #: hosts preloaded during set-up
    preload_hosts: int = 0


#: campus size (leaf /24s, host addresses) and operator reads per churn
#: write (assumed, like the operator read mix)
SUBNETS = 300
HOSTS = 10000
CHURN_EVERY = 8


SPECS: Dict[str, Spec] = {
    "ingest": Spec(shards=1, campaign_rate=900, read_rate=110, setups=9),
    "fleet": Spec(shards=2, campaign_rate=240, read_rate=100, setups=5, preload_hosts=3000),
}


@dataclass
class Programs:
    preload: List[tuple]
    #: the measured program: ("write", campaign ops) and ("read",
    #: operator ops) segments, alternating, so both kinds of work are
    #: sampled across the whole run
    segments: List[Tuple[str, List[tuple]]]
    edges: frozenset

    def measured(self, phase: Optional[str] = None) -> List[tuple]:
        return [op for kind, ops in self.segments if phase in (None, kind) for op in ops]


def build_programs(spec: Spec, seed: int, seconds: int) -> Programs:
    rng = random.Random(seed)
    campus = programs.Campus.generate(rng, subnets=SUBNETS, hosts=HOSTS)
    model = programs.Model(campus, random.Random(rng.random()))
    preload = programs.preload(model, spec.preload_hosts) if spec.preload_hosts else []
    segments: List[Tuple[str, List[tuple]]] = []
    for _ in range(SEGMENTS):
        segments.append(("write", programs.campaign(model, spec.campaign_rate * seconds // SEGMENTS)))
        segments.append(("read", programs.operator(
            model, spec.read_rate * seconds // SEGMENTS, CHURN_EVERY)))
    edges = programs.linked_pairs(preload + [op for _kind, ops in segments for op in ops])
    return Programs(preload, segments, edges)


def describe(progs: Programs) -> Dict[str, Any]:
    """Op counts per kind and the campaign's sighting shares."""
    return {
        "preload": programs.kinds(progs.preload),
        "campaign": programs.kinds(progs.measured("write")),
        "operator": programs.kinds(progs.measured("read")),
        "sightings": programs.sighting_shares(progs.measured("write")),
    }


# -- the served stack --------------------------------------------------------


class Stack:
    """Server process(es) plus the client side: one request connection
    and one feed connection per server."""

    def __init__(self, root: str, workdir: str, shards: int, edges,
                 spans_dir: Optional[str] = None) -> None:
        self.directory = tempfile.mkdtemp(prefix="stack-", dir=workdir)
        self.servers: List[stacklib.ServerProcess] = []
        self.watch: Optional[FeedWatch] = None
        self.clients: List[RemoteClient] = []
        try:
            for index in range(shards):
                spans = None if spans_dir is None else os.path.join(spans_dir, f"server-{index}.json")
                self.servers.append(stacklib.ServerProcess(
                    root, self.directory, spans_path=spans,
                    shard=f"{index}/{shards}" if shards > 1 else None,
                    cpus=SERVER_CPUS,
                ))
            for server in self.servers:
                host, port = server.address.rsplit(":", 1)
                self.clients.append(RemoteClient(host, int(port), timeout=60.0))
            self.client = self.clients[0] if shards == 1 else ShardedClient(self.clients)
            self.sink = BatchingSink(self.client, max_batch=64, pipeline_depth=4)
            self.watch = FeedWatch(self.client.subscribe())
            self.replayer = Replayer(self.client, self.sink, edges=edges, watch=self.watch,
                                     requests=self.requests if shards > 1 else None,
                                     meter=STEAL)
            for _ in range(20):  # warm the connections and handler caches
                self.client.counts()
            # The topology stores are built on first use: build them now.
            self.client.path(programs.BACKBONE, programs.BACKBONE)
        except BaseException:
            self.destroy()
            raise

    def registries(self) -> list:
        """Client-side metric registries: each connection's, plus the
        router's on a fleet (where the sink's metrics land)."""
        routers = [] if self.client is self.clients[0] else [self.client]
        return [client.telemetry for client in self.clients + routers]

    def cpu_seconds(self) -> float:
        return sum(server.cpu_seconds() for server in self.servers)

    def requests(self) -> int:
        """Requests sent so far over the request connections: the
        client's next wire request id counts them, at no cost."""
        return sum(client._next_id for client in self.clients)

    def roundtrips(self) -> int:
        return sum(
            stacklib.histogram(client.telemetry.snapshot(spans=0),
                               "fremont_client_roundtrip_seconds")["count"]
            for client in self.clients
        )

    def close_clients(self) -> None:
        if self.watch is not None:
            self.watch.stop()
            self.watch = None
        for client in self.clients:
            client.close()
        self.clients = []

    def kill(self) -> None:
        for server in self.servers:
            server.kill()

    def destroy(self) -> None:
        self.close_clients()
        self.kill()
        shutil.rmtree(self.directory, ignore_errors=True)


# -- one pass ----------------------------------------------------------------


def pct(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (q in [0, 1]); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def durable_ratio(acked: Dict[str, Any], recovered: Dict[str, Any]) -> tuple:
    """(records acknowledged, of them present and equal after recovery)."""
    total = matched = 0
    for section in ("interfaces", "gateways", "subnets"):
        want = Counter(repr(entry) for entry in acked[section])
        have = Counter(repr(entry) for entry in recovered[section])
        total += sum(want.values())
        matched += sum((want & have).values())
    return total, matched


@dataclass
class PassResult:
    setups: List[Chunk]
    tally: Tally
    write_wall: float
    read_wall: float
    roundtrips: int
    server_cpu: float
    rss_mib: float
    snapshots: List[Dict[str, Any]]
    client_snapshots: List[Dict[str, Any]]
    visible: List[tuple]
    feed_deltas: int
    feed_keys: int
    served_state: Dict[str, Any]
    recover_times: List[float]
    replayed: int
    acked_records: int
    durable_records: int
    server_spans: List[list]
    probe_ms: float

    @property
    def wall(self) -> float:
        return self.write_wall + self.read_wall


def run_pass(root: str, workdir: str, spec: Spec, progs: Programs, *, setups: int,
             time_recovery: bool = False, spans_dir: Optional[str] = None,
             recorder: Optional[tracing.Recorder] = None) -> PassResult:
    probe = stacklib.HostProbe(_ALLOWED)
    probe.sample()
    setup_chunks: List[Chunk] = []
    setup_tally = Tally()

    def set_up(spans: Optional[str] = None) -> Stack:
        probed = probe.last
        mark = STEAL.read()
        started = pc()
        stack = Stack(root, workdir, spec.shards, progs.edges, spans_dir=spans)
        try:
            if progs.preload:
                stack.replayer.run(progs.preload, setup_tally, phase="preload")
                # Preloaded sightings are set-up: let the feed catch
                # up, then time only the measured phase's sightings.
                stack.watch.wait_all(10.0)
                stack.watch.submitted.clear()
        except BaseException:
            stack.destroy()
            raise
        chunk = Chunk("setup", wall=pc() - started, share=STEAL.share(mark, STEAL.read()))
        chunk.probe_ms = (probed + probe.sample()) / 2
        setup_chunks.append(chunk)
        return stack

    # The first set-up builds the measured stack.  The others run
    # between segments, spread over the measured program, so that their
    # median, like the segments', outlasts a stretch of host noise.
    # Each builds and tears down a stack of its own; the measured stack
    # sits idle meanwhile.
    extra = {len(progs.segments) * (k + 1) // setups - 1 for k in range(setups - 1)}
    stack = set_up(spans_dir)
    try:
        if spans_dir is not None:
            for server in stack.servers:
                server.clear_spans()
        if recorder is not None:
            tracing.install_client_spans(recorder)
        tally = Tally()
        before = [client.metrics(spans=0) for client in stack.clients]
        client_before = [registry.snapshot(spans=0) for registry in stack.registries()]
        roundtrips_before = stack.roundtrips()
        cpu_before = stack.cpu_seconds()
        walls = {"write": 0.0, "read": 0.0}
        for index, (phase, ops) in enumerate(progs.segments):
            probed = probe.last
            walls[phase] += stack.replayer.run(ops, tally, phase=phase)
            tally.chunks[-1].probe_ms = (probed + probe.sample()) / 2
            if index in extra:
                set_up().destroy()
        cpu = stack.cpu_seconds() - cpu_before
        roundtrips_after = stack.roundtrips()
        if recorder is not None:
            recorder.unwrap_all()
        stack.watch.wait_all(5.0)
        watch = stack.watch
        visible, missing = watch.latencies(), watch.missing()
        deltas, keys = watch.deltas, watch.keys
        tally.attempted += len(watch.submitted) + setup_tally.attempted
        tally.failed += setup_tally.failed
        tally.failures.extend(setup_tally.failures)
        for _ in range(missing):
            tally.fail("a first sighting never reached the change feed")
        for _chunk, latency in visible:
            if latency < 0:
                tally.fail("feed delta stamped before its submission")
        client_snapshots = [
            stacklib.delta(registry.snapshot(spans=0), earlier)
            for registry, earlier in zip(stack.registries(), client_before)
        ]
        snapshots = [
            stacklib.delta(client.metrics(spans=0), earlier)
            for client, earlier in zip(stack.clients, before)
        ]
        rss = sum(server.rss_mib() for server in stack.servers)
        shard_states = [client.snapshot().identity_state() for client in stack.clients]
        served_state = (
            shard_states[0] if spec.shards == 1 else stack.client.snapshot().identity_state()
        )
        server_spans: List[list] = []
        if spans_dir is not None:
            for server in stack.servers:
                server.dump_spans()
                with open(server.spans_path, "r", encoding="utf-8") as handle:
                    server_spans.append(json.load(handle))
        stack.close_clients()
        stack.kill()
        recover_times, replayed, acked, durable = recover(
            root, stack, shard_states, workdir, timed=time_recovery)
    finally:
        if recorder is not None:
            recorder.unwrap_all()
        stack.destroy()
    return PassResult(
        setups=setup_chunks, tally=tally,
        write_wall=walls["write"], read_wall=walls["read"],
        roundtrips=roundtrips_after - roundtrips_before,
        server_cpu=cpu, rss_mib=rss, snapshots=snapshots, probe_ms=probe.median(),
        client_snapshots=client_snapshots, visible=visible,
        feed_deltas=deltas, feed_keys=keys, served_state=served_state,
        recover_times=recover_times, replayed=replayed, acked_records=acked,
        durable_records=durable, server_spans=server_spans,
    )


def recover(root: str, stack: Stack, shard_states: List[Dict[str, Any]], workdir: str, *,
            timed: bool) -> tuple:
    """Recover every killed server's directory: once here, to compare
    with what was acknowledged, then, if *timed*, repeatedly in fresh
    processes on fresh copies, timed.  Returns (times, replayed, acked,
    durable)."""
    sources = [server_dir(stack, index) for index in range(len(stack.servers))]
    replayed = acked = durable = 0
    for index, source in enumerate(sources):
        with tempfile.TemporaryDirectory(prefix="recover-", dir=workdir) as copy:
            target = os.path.join(copy, "store")
            shutil.copytree(source, target)
            store = JournalStore(target, fsync="interval")
            journal = store.recover()
            replayed += store.last_recovery.recovered_records
            total, matched = durable_ratio(shard_states[index], journal.identity_state())
            acked += total
            durable += matched
            store.close(checkpoint=False)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    probe = os.path.join(root, "perfbench", "recover_once.py")
    times: List[float] = []
    started = pc()
    while timed and (len(times) < RECOVERIES or pc() - started < RECOVERY_SECONDS):
        elapsed = 0.0
        for source in sources:
            with tempfile.TemporaryDirectory(prefix="recover-", dir=workdir) as copy:
                target = os.path.join(copy, "store")
                shutil.copytree(source, target)
                output = subprocess.run(
                    [sys.executable, probe, target], env=env, cwd=root, check=True,
                    capture_output=True, text=True, timeout=120,
                ).stdout
                elapsed += float(output.strip().splitlines()[-1])
        times.append(elapsed)
    return times, replayed, acked, durable


def server_dir(stack: Stack, index: int) -> str:
    if len(stack.servers) == 1:
        return stack.directory
    from repro.core import shard_store_path

    return shard_store_path(stack.directory, index)


def reference_state(progs: Programs) -> Dict[str, Any]:
    """The end state of an in-process Journal fed the same programs."""
    journal = Journal()
    client = LocalClient(journal)
    replayer = Replayer(client, BatchingSink(client, max_batch=64), reads=False)
    tally = Tally()
    replayer.run(progs.preload + progs.measured(), tally)
    if tally.failed:
        raise RuntimeError(f"reference replay failed: {tally.failures}")
    return journal.identity_state()


# -- metrics -----------------------------------------------------------------


def chunk_median(pairs: List[tuple], stat, *, least: int = 5, scale=None) -> float:
    """Median over chunks of ``stat(values) * scale(chunk)`` for
    (chunk, value) pairs (*scale* defaults to 1); chunks with fewer than
    *least* values are skipped unless none has that many.

    Co-tenants on a small VM slow this host by a third for seconds at
    a time.  Segments spread over the whole run, and the median over
    them keeps such stretches from dominating the figure."""
    by_chunk: Dict[int, List[float]] = defaultdict(list)
    for chunk, value in pairs:
        by_chunk[chunk].append(value)
    factor = scale or (lambda _chunk: 1.0)
    stats = [stat(values) * factor(chunk) for chunk, values in by_chunk.items()
             if len(values) >= least]
    if not stats and pairs:
        shares = statistics.median(factor(chunk) for chunk in by_chunk)
        stats = [stat([value for _chunk, value in pairs]) * shares]
    return statistics.median(stats) if stats else 0.0


def p50_ms(values: List[float]) -> float:
    return pct(values, 0.5) * 1e3


def p90_ms(values: List[float]) -> float:
    return pct(values, 0.9) * 1e3


#: host-probe reading (ms) that the timing metrics are scaled to: about
#: what the probe reads on the 2-CPU VM this benchmark was tuned on,
#: with its co-tenants quiet
REFERENCE_PROBE_MS = 2.0


def host_factor(chunk: Chunk) -> float:
    """The share of *chunk*'s wall time a quiet, unshared reference
    host would have needed: the steal removed (``StealMeter``), and the
    CPU time scaled from the host probe's reading around the chunk to
    ``REFERENCE_PROBE_MS`` (``HostProbe``).  Co-tenants slow this VM by
    a third or more for minutes at a time, which no amount of work in
    one run averages out (see README)."""
    return chunk.share * REFERENCE_PROBE_MS / chunk.probe_ms


def in_phase(pairs: List[tuple], tally: Tally, phase: str) -> List[tuple]:
    """The (chunk, value) pairs sampled in *phase* segments."""
    return [(chunk, value) for chunk, value in pairs if tally.chunks[chunk].phase == phase]


def timings(result: PassResult, *, corrected: bool = True) -> Dict[str, float]:
    """The timed end-to-end metrics; *corrected* applies each set-up's
    and segment's ``host_factor``.  Each metric is sampled from one
    kind of segment, so a median over segments never mixes two
    populations: writes, first sightings and the ingest rate from the
    campaign segments, reads from the operator segments."""
    tally = result.tally

    def factor(chunk: Chunk) -> float:
        return host_factor(chunk) if corrected else 1.0

    def median_over(pairs: List[tuple], phase: str, stat) -> float:
        return chunk_median(in_phase(pairs, tally, phase), stat,
                            scale=lambda index: factor(tally.chunks[index]))

    samples = tally.samples
    values = {
        "setup_s": statistics.median(chunk.wall * factor(chunk) for chunk in result.setups),
        "ingest_obs_per_s": statistics.median(
            chunk.observations / (chunk.wall * factor(chunk))
            for chunk in tally.chunks if chunk.phase == "write"),
        "write_p50_ms": median_over(samples.get("write", []), "write", p50_ms),
        "visible_p50_ms": median_over(result.visible, "write", p50_ms),
    }
    for kind in READ_KINDS:
        values[f"{kind}_p50_ms"] = median_over(samples.get(kind, []), "read", p50_ms)
    return values


def end_to_end(result: PassResult, failed: int) -> Dict[str, float]:
    """The end-to-end metrics: host-corrected timings, and the ratios
    and memory as measured."""
    metrics = timings(result)
    attempted = result.tally.attempted + 1  # + the end-state check
    metrics.update({
        "acked_durable_ratio": result.durable_records / max(1, result.acked_records),
        "server_rss_mb": result.rss_mib,
        "ops_ok_ratio": (attempted - failed) / attempted,
    })
    return metrics


def phases(result: PassResult) -> Dict[str, Any]:
    """Where a run's wall time went (seconds)."""
    return {
        "setup": [chunk.wall for chunk in result.setups],
        "share_min": min(chunk.share for chunk in result.setups + result.tally.chunks),
        "write": result.write_wall,
        "read": result.read_wall,
        "server_cpu": result.server_cpu,
        "probe_ms": result.probe_ms,
    }


def counts(result: PassResult) -> Dict[str, float]:
    """Deterministic per-layer counts: a fixed seed must repeat them."""
    wal = sum(stacklib.counter(s, "fremont_wal_appends_total") for s in result.snapshots)
    checkpoints = sum(stacklib.counter(s, "fremont_wal_checkpoints_total") for s in result.snapshots)
    reads = sum(len(result.tally.samples.get(kind, [])) for kind in READ_KINDS)
    return {
        "durability.wal_appends": wal,
        "durability.checkpoints": checkpoints,
        "durability.replayed_records": float(result.replayed),
        "client.roundtrips": float(result.roundtrips),
        "shard.fanout_per_read": result.tally.read_requests / max(1, reads),
    }


def per_layer(plain: PassResult, traced: PassResult, recorder: tracing.Recorder,
              progs: Programs, ref_loop_ms: float) -> Dict[str, float]:
    table = tracing.SpanTable([recorder.spans] + traced.server_spans)
    tally = plain.tally
    reads = [pair for kind in READ_KINDS for pair in tally.samples.get(kind, [])]
    snaps = plain.snapshots
    ops = len(progs.measured())
    obs_applied = sum(stacklib.counter(s, "fremont_observations_applied_total") for s in snaps)
    sink_size = stacklib.merge_histograms(
        [stacklib.histogram(s, "fremont_sink_batch_size") for s in plain.client_snapshots])
    submitted = sum(stacklib.counter(s, "fremont_observations_submitted_total") for s in snaps)
    coalesced = sum(stacklib.counter(s, "fremont_observations_coalesced_total") for s in snaps)
    roundtrip = stacklib.merge_histograms(
        [stacklib.histogram(s, "fremont_client_roundtrip_seconds") for s in plain.client_snapshots])
    lock_wait = stacklib.merge_histograms(
        [stacklib.histogram(s, "fremont_server_lock_wait_seconds") for s in snaps])
    fsync = stacklib.merge_histograms([stacklib.histogram(s, "fremont_wal_fsync_seconds") for s in snaps])
    checkpoint = stacklib.merge_histograms(
        [stacklib.histogram(s, "fremont_checkpoint_seconds") for s in snaps])
    client_bytes = sum(
        note for name, _s, _e, _i, _p, _r, note in recorder.spans
        if name == "wire.encode" and note is not None
    )
    refresh_modes = Counter(table.notes.get("topology.refresh", []))
    results = table.notes.get("query.execute", [])
    metrics: Dict[str, float] = {
        "sink.coalesce_ratio": coalesced / max(1.0, submitted),
        "sink.batch_size_mean": sink_size["sum"] / max(1, sink_size["count"]),
        "sink.settle_wait_ms": plain.tally.settle_wait * 1e3,
        "sink.self_ms": table.layer_self_ms("sink"),
        "client.roundtrips_per_op": plain.roundtrips / ops,
        "client.bytes_per_obs": client_bytes / max(1, traced.tally.observations),
        "client.roundtrip_p50_ms": stacklib.quantile(roundtrip, 0.5) * 1e3,
        "client.self_ms": table.layer_self_ms("client"),
        "wire.encode_us_per_op": table.mean_ms("wire.encode") * 1e3,
        "wire.decode_us_per_op": table.mean_ms("wire.decode") * 1e3,
        "wire.self_ms": table.layer_self_ms("wire"),
        "server.cpu_ms_per_kop": plain.server_cpu * 1e3 / (ops / 1e3),
        "server.lock_wait_ms_p90": stacklib.quantile(lock_wait, 0.9) * 1e3,
        "server.self_ms": table.layer_self_ms("server"),
        "journal.apply_us_per_obs": table.mean_ms("journal.observe_interface") * 1e3,
        "journal.self_ms": table.layer_self_ms("journal"),
        "avl.ops_per_obs": table.calls("avl.insert", "avl.remove") / max(1.0, obs_applied),
        "avl.us_per_obs": table.total_ms("avl.insert", "avl.remove") * 1e3 / max(1.0, obs_applied),
        "avl.self_ms": table.layer_self_ms("avl"),
        "durability.wal_bytes_per_obs":
            sum(stacklib.counter(s, "fremont_wal_bytes_total") for s in snaps) / max(1.0, obs_applied),
        "durability.fsyncs": float(fsync["count"]),
        "durability.fsync_ms_p50": stacklib.quantile(fsync, 0.5) * 1e3,
        "durability.checkpoint_ms": checkpoint["sum"] * 1e3,
        "durability.self_ms": table.layer_self_ms("durability"),
        "durability.recover_s": statistics.median(plain.recover_times),
        "feed.publish_ms": table.total_ms("feed.publish"),
        "feed.deltas": float(plain.feed_deltas),
        "feed.keys_per_delta": plain.feed_keys / max(1, plain.feed_deltas),
        "feed.fallbacks": sum(stacklib.counter(s, "fremont_server_feed_fallbacks_total") for s in snaps),
        "feed.self_ms": table.layer_self_ms("feed"),
        "feed.visible_p90_ms": chunk_median(in_phase(plain.visible, tally, "write"), p90_ms),
        "query.exec_ms": table.mean_ms("query.execute", own=True),
        "query.results_per_call": sum(results) / max(1, len(results)),
        "query.self_ms": table.layer_self_ms("query"),
        "topology.refresh_ms": table.mean_ms("topology.refresh"),
        "topology.incremental_refreshes": float(refresh_modes.get("incremental", 0)),
        "topology.full_refreshes": float(refresh_modes.get("full", 0)),
        "topology.path_ms": table.mean_ms("topology.path"),
        "topology.impact_ms": table.mean_ms("topology.impact"),
        "topology.self_ms": table.layer_self_ms("topology"),
        "shard.merge_ms": table.total_ms("shard.merge"),
        "shard.self_ms": table.layer_self_ms("shard"),
        "replicate.federated_sync_ms": table.total_ms("replicate.federated_refresh"),
        "operator.reads_per_s": statistics.median(
            chunk.reads / chunk.wall for chunk in tally.chunks if chunk.phase == "read"),
        "operator.read_p90_ms": chunk_median(in_phase(reads, tally, "read"), p90_ms),
        "host.ref_loop_ms": ref_loop_ms,
        "host.probe_ms": plain.probe_ms,
        "trace.overhead_ratio": traced.wall / plain.wall - 1.0,
        "trace.spans": float(table.spans),
    }
    for op in ("observe_batch", "get_interfaces", "ensure_gateway", "query", "path", "impact"):
        hist = stacklib.merge_histograms(
            [stacklib.histogram(s, "fremont_server_op_seconds", op=op) for s in snaps])
        metrics[f"server.dispatch_us_p50.{op}"] = stacklib.quantile(hist, 0.5) * 1e6
    metrics.update(counts(plain))
    return metrics
