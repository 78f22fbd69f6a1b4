"""Replay a program against a client stack, timing and checking every op."""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import Observation
from repro.core.journal import ip_key
from repro.core.query import InSubnet

SOURCE = "perfbench"
MASK = "255.255.255.0"
NEGATIVE_TTL = 3600.0

pc = time.perf_counter

READS = frozenset({"lookup", "negchk", "query", "path", "impact"})


@dataclass
class Chunk:
    """One slice of a program: its phase, wall time and work done."""

    phase: str
    wall: float = 0.0
    observations: int = 0
    reads: int = 0
    #: share of the CPU time wanted that the host gave (see StealMeter)
    share: float = 1.0
    #: host probe (ms) around the chunk: the mean of the samples taken
    #: just before and just after it (see HostProbe)
    probe_ms: float = 0.0


@dataclass
class Tally:
    """Samples and outcomes of program runs (times in seconds).

    Programs run in chunks; every sample keeps the index of the chunk
    it came from, so metrics can be medians over chunks — a burst of
    host noise then spoils a few chunks, not the whole figure."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    observations: int = 0
    settle_wait: float = 0.0
    #: requests the shards received during reads (fleet only)
    read_requests: int = 0
    chunks: List[Chunk] = field(default_factory=list)
    #: kind -> [(chunk index, seconds)]
    samples: Dict[str, List[Tuple[int, float]]] = field(default_factory=dict)

    @property
    def chunk(self) -> int:
        return len(self.chunks) - 1

    def sample(self, kind: str, seconds: float) -> None:
        self.samples.setdefault(kind, []).append((self.chunk, seconds))

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 8:
            self.failures.append(message)


class FeedWatch:
    """Drains a change feed on its own thread and stamps the first
    delta naming each ``ip:`` key; the replayer stamps submissions."""

    def __init__(self, feed) -> None:
        self.feed = feed
        #: key -> (submit time, chunk index)
        self.submitted: Dict[str, Tuple[float, int]] = {}
        self.seen: Dict[str, float] = {}
        self.deltas = 0
        self.keys = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="feed-watch", daemon=True)
        self._thread.start()

    def submit(self, ip: str, chunk: int) -> None:
        self.submitted["ip:" + ip_key(ip)] = (pc(), chunk)

    def _run(self) -> None:
        while not self._stop.is_set():
            # A short timeout: a composed shard feed polls its members
            # in slices of this wait, which would otherwise delay deltas.
            delta = self.feed.poll(0.005)
            if delta is None:
                continue
            now = pc()
            self.deltas += 1
            self.keys += len(delta.keys)
            for key in delta.keys:
                if key.startswith("ip:") and key not in self.seen:
                    self.seen[key] = now

    def wait_all(self, timeout: float) -> None:
        deadline = pc() + timeout
        while pc() < deadline and any(k not in self.seen for k in self.submitted):
            time.sleep(0.005)

    def latencies(self) -> List[Tuple[int, float]]:
        """(chunk index, seconds) from submission to feed delivery."""
        return [
            (chunk, self.seen[key] - at)
            for key, (at, chunk) in self.submitted.items() if key in self.seen
        ]

    def missing(self) -> int:
        return sum(1 for key in self.submitted if key not in self.seen)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.feed.close()


def _observation(ip: str, mac: str, dns: str) -> Observation:
    return Observation(source=SOURCE, ip=ip, mac=mac, dns_name=dns, subnet_mask=MASK)


def _path_ok(op: tuple, result, edges) -> bool:
    _kind, a, b, expected = op
    if result.found != expected:
        return False
    if not expected:
        return True
    nodes = result.nodes
    if not nodes or nodes[0] != a or nodes[-1] != b:
        return False
    for x, y in zip(nodes, nodes[1:]):
        if (x, y) not in edges and (y, x) not in edges:
            return False
    return True


class Replayer:
    """Runs ops through ``sink`` (a BatchingSink over ``client``).

    ``reads=False`` skips read ops — the in-process reference replay
    only needs the mutations."""

    def __init__(self, client, sink, *, edges=frozenset(), watch: Optional[FeedWatch] = None,
                 reads: bool = True, requests: Optional[Callable[[], int]] = None,
                 meter=None) -> None:
        self.client = client
        self.sink = sink
        self.edges = edges
        self.watch = watch
        self.reads = reads
        #: requests sent so far, summed over the shards' connections
        self.requests = requests
        self.meter = meter
        self.gateway_ids: Dict[str, int] = {}
        #: addresses submitted to the sink since its last settle
        self._dirty: set = set()

    def settle(self, tally: Tally) -> None:
        started = pc()
        self.sink.flush()
        self.sink.settle()
        tally.settle_wait += pc() - started
        self._dirty.clear()

    def run(self, program: List[tuple], tally: Tally, *, phase: str = "", chunks: int = 1) -> float:
        """Replay *program* in *chunks* equal slices; returns its wall
        time with the sink settled (the last chunk includes the settle)."""
        started = pc()
        size = -(-len(program) // chunks) if program else 0
        for first in range(0, max(len(program), 1), max(size, 1)):
            chunk = Chunk(phase)
            tally.chunks.append(chunk)
            observations = tally.observations
            mark = self.meter.read() if self.meter is not None else None
            chunk_started = pc()
            for op in program[first:first + size]:
                kind = op[0]
                if kind in READS:
                    if not self.reads:
                        continue
                    chunk.reads += kind != "negchk"
                tally.attempted += 1
                try:
                    if not self._step(kind, op, tally):
                        tally.fail(f"wrong answer: {op!r:.160}")
                except Exception as error:  # an op that raises is a failed op
                    tally.fail(f"{type(error).__name__}: {error} in {op!r:.120}")
            if first + size >= len(program):
                self.settle(tally)
            chunk.wall = pc() - chunk_started
            if mark is not None:
                chunk.share = self.meter.share(mark, self.meter.read())
            chunk.observations = tally.observations - observations
        return pc() - started

    def _write(self, tally: Tally, call, *args, **kwargs):
        started = pc()
        result = call(*args, **kwargs)
        tally.sample("write", pc() - started)
        return result

    def _read(self, tally: Tally, kind: str, call, *args):
        before = self.requests() if self.requests is not None else 0
        started = pc()
        result = call(*args)
        tally.sample(kind, pc() - started)
        if self.requests is not None:
            tally.read_requests += self.requests() - before
        return result

    def _step(self, kind: str, op: tuple, tally: Tally) -> bool:
        client, sink = self.client, self.sink
        if kind == "obs":
            _kind, ip, mac, dns, new = op
            if new and self.watch is not None:
                self.watch.submit(ip, tally.chunk)
            sink.submit(_observation(ip, mac, dns))
            self._dirty.add(ip)
            tally.observations += 1
            return True
        if kind == "resolve":
            _kind, ip, mac, dns, new = op
            if new and self.watch is not None:
                self.watch.submit(ip, tally.chunk)
            record, _changed = self._write(tally, sink.resolve, _observation(ip, mac, dns))
            tally.observations += 1
            # A synchronous write is ordered after every earlier write
            # on the connection, so nothing before it is still pending.
            self._dirty.clear()
            return record.ip == ip and record.mac == mac
        if kind == "gw":
            _kind, name, ip, mac = op
            member, _changed = self._write(
                tally, sink.resolve, _observation(ip, mac, name + ".cs.example.edu")
            )
            tally.observations += 1
            self._dirty.clear()
            gateway, _changed = self._write(
                tally, client.ensure_gateway, source=SOURCE, name=name,
                interface_ids=(member.record_id,),
            )
            self.gateway_ids[name] = gateway.record_id
            return gateway.name == name
        if kind == "link":
            _kind, name, subnet = op
            self._write(
                tally, client.link_gateway_subnet, self.gateway_ids[name], subnet,
                source=SOURCE,
            )
            return True
        if kind == "subnet":
            record, _changed = self._write(tally, client.ensure_subnet, op[1], source=SOURCE)
            return record.subnet == op[1]
        if kind == "negput":
            client.negative_put("arp", op[1], ttl=NEGATIVE_TTL)
            return True
        if kind == "negchk":
            return client.negative_check("arp", op[1]) == op[2]
        if kind == "lookup":
            _kind, ip, mac = op
            if ip in self._dirty:
                # On one connection a read may overtake pipelined
                # writes still in flight: settle them first.
                self.settle(tally)
            records = self._read(tally, "lookup", client.interfaces_by_ip, ip)
            if mac is None:
                return not records
            return any(record.mac == mac for record in records)
        if kind == "query":
            records = self._read(tally, "query", client.query, "interfaces", InSubnet(op[1]))
            return {record.ip for record in records} == op[2]
        if kind == "path":
            result = self._read(tally, "path", client.path, op[1], op[2])
            return _path_ok(op, result, self.edges)
        if kind == "impact":
            result = self._read(tally, "impact", client.impact, op[1])
            return (
                result.found and result.kind == "gateway"
                and op[2] <= set(result.component_subnets)
            )
        raise ValueError(f"unknown op kind {kind!r}")
