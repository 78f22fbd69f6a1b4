"""Journal Server processes as deployed, observed from outside.

Each server is a real ``fremont serve --durable DIR --fsync interval``
process (optionally one shard of a fleet, optionally started through
the span-recording launcher).  Its CPU time and resident memory come
from ``/proc``; its own counters come from the ``metrics`` wire op.
"""

from __future__ import annotations

import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

LISTEN_RE = re.compile(r"listening on ([\d.]+):(\d+)")
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class ServerProcess:
    """One durable Journal Server process."""

    def __init__(self, root: str, directory: str, *, shard: Optional[str] = None,
                 spans_path: Optional[str] = None, cpus: Optional[set] = None) -> None:
        self.directory = directory
        self.spans_path = spans_path
        serve = ["serve", "--durable", directory, "--fsync", "interval",
                 "--port", "0", "--host", "127.0.0.1"]
        if shard is not None:
            serve += ["--shard", shard]
        if spans_path is None:
            command = [sys.executable, "-u", "-m", "repro"] + serve
        else:
            launcher = os.path.join(root, "perfbench", "launch.py")
            command = [sys.executable, "-u", launcher, "--spans", spans_path, "--"] + serve
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.proc = subprocess.Popen(
            command, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        if cpus:
            # Still importing, single-threaded: every thread the server
            # starts later inherits this.
            os.sched_setaffinity(self.proc.pid, cpus)
        lines: List[str] = []
        while True:
            line = self.proc.stdout.readline()
            if not line:
                self.kill()
                raise RuntimeError("server exited before listening:\n" + "".join(lines))
            lines.append(line)
            match = LISTEN_RE.search(line)
            if match:
                self.address = f"{match.group(1)}:{match.group(2)}"
                return

    @property
    def pid(self) -> int:
        return self.proc.pid

    def cpu_seconds(self) -> float:
        """User + system CPU of the whole process (all threads)."""
        with open(f"/proc/{self.pid}/stat", "r", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS

    def rss_mib(self) -> float:
        with open(f"/proc/{self.pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmRSS missing from /proc status")

    def _signal_traced(self, signum: int, marker: str, timeout: float = 60.0) -> None:
        os.kill(self.pid, signum)
        deadline = time.monotonic() + timeout
        while not os.path.exists(marker):
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("traced server did not answer its signal")
            time.sleep(0.005)

    def clear_spans(self) -> None:
        """Drop a traced server's spans recorded so far (set-up)."""
        self._signal_traced(signal.SIGUSR2, self.spans_path + ".cleared")

    def dump_spans(self) -> None:
        """Ask a traced server to write its spans, and wait for them."""
        self._signal_traced(signal.SIGUSR1, self.spans_path + ".done")

    def kill(self) -> None:
        """SIGKILL: the crash the durability check recovers from."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30.0)
        self.proc.stdout.close()


class HostProbe:
    """Times fixed work, a JSON round trip of a fixed document through
    the standard library, on each CPU the benchmark uses.  It runs no
    code of the program, so a change to the program cannot move it.
    Of the probes tried, this one tracked a fixed in-process Journal
    workload best, and by about as much as that workload varied.

    :meth:`sample` is called only while the servers are idle: before
    the first set-up and after each set-up and each segment, with the
    sink settled and a short pause.  So neither the load under test nor
    its cache pressure can move the probe, and no probe runs inside a
    timed op.  Thread CPU time leaves out time spent waiting to be
    scheduled, so the samples track how fast the host executes our
    code right now."""

    DOCUMENT = {"records": [
        {"ip": f"10.0.{index}.1", "mac": f"08:00:2b:00:00:{index % 256:02x}", "seen": index}
        for index in range(300)
    ]}
    REPEATS = 3
    ROUNDS = 3
    PAUSE = 0.02

    def __init__(self, cpus) -> None:
        self.cpus = sorted(cpus)
        self.samples: List[float] = []
        #: the median of the latest round (ms)
        self.last = 0.0

    def sample(self) -> float:
        """Take one round of samples; returns their median (ms)."""
        time.sleep(self.PAUSE)  # let the servers finish publishing
        home = os.sched_getaffinity(0)
        first = len(self.samples)
        try:
            for _ in range(self.ROUNDS):
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})  # the calling thread only
                    started = time.thread_time()
                    for _ in range(self.REPEATS):
                        json.loads(json.dumps(self.DOCUMENT))
                    self.samples.append((time.thread_time() - started) * 1e3)
        finally:
            os.sched_setaffinity(0, home)
        self.last = statistics.median(self.samples[first:])
        return self.last

    def median(self) -> float:
        """The median sample (ms)."""
        ordered = sorted(self.samples)
        return ordered[len(ordered) // 2] if ordered else 0.0


class StealMeter:
    """How much of the CPU time the benchmark's CPUs asked for the host
    gave them, from the busy and steal ticks of ``/proc/stat``.

    On a shared VM the hypervisor runs other guests on our virtual
    CPUs while they are runnable; that time is *steal*.  It lengthens
    every wall-clock figure but is no cost of the program.  Over an
    interval, ``share = busy / (busy + steal)``: multiplying a wall
    time by it removes the stolen part.  A program that needs more CPU
    keeps its share, so a real slowdown still shows in full."""

    def __init__(self, cpus) -> None:
        self.names = {f"cpu{cpu}" for cpu in cpus}

    def read(self) -> Tuple[int, int]:
        """(busy, steal) ticks so far, summed over the CPUs."""
        busy = steal = 0
        with open("/proc/stat", "r", encoding="ascii") as handle:
            for line in handle:
                fields = line.split()
                if fields[0] in self.names:
                    user, nice, system, _idle, _iowait, irq, softirq, stolen = map(int, fields[1:9])
                    busy += user + nice + system + irq + softirq
                    steal += stolen
        return busy, steal

    @staticmethod
    def share(before: Tuple[int, int], after: Tuple[int, int]) -> float:
        busy, steal = after[0] - before[0], after[1] - before[1]
        return busy / (busy + steal) if busy + steal > 0 else 1.0


# -- metrics-op snapshots ---------------------------------------------------


def families(snapshot: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    return {metric["name"]: metric for metric in snapshot.get("metrics", [])}


def counter(snapshot: Dict[str, Any], name: str) -> float:
    metric = families(snapshot).get(name)
    if metric is None:
        return 0.0
    return float(sum(sample.get("value", 0.0) for sample in metric["samples"]))


def histogram(snapshot: Dict[str, Any], name: str, **labels: str) -> Dict[str, Any]:
    """One histogram, samples whose labels match merged: ``count``,
    ``sum`` and cumulative ``buckets``."""
    metric = families(snapshot).get(name)
    merged: Dict[str, Any] = {"count": 0, "sum": 0.0, "buckets": []}
    if metric is None:
        return merged
    for sample in metric["samples"]:
        if any(sample["labels"].get(key) != value for key, value in labels.items()):
            continue
        merged["count"] += sample["count"]
        merged["sum"] += sample["sum"]
        if not merged["buckets"]:
            merged["buckets"] = [[bound, total] for bound, total in sample["buckets"]]
        else:
            for slot, (_bound, total) in zip(merged["buckets"], sample["buckets"]):
                slot[1] += total
    return merged


def delta(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    """The counters and histograms of *after* minus those of *before*."""
    earlier = {}
    for metric in before.get("metrics", []):
        for sample in metric["samples"]:
            earlier[(metric["name"], tuple(sorted(sample["labels"].items())))] = sample
    metrics = []
    for metric in after.get("metrics", []):
        samples = []
        for sample in metric["samples"]:
            old = earlier.get((metric["name"], tuple(sorted(sample["labels"].items()))))
            sample = dict(sample)
            if old is not None and "value" in sample:
                sample["value"] = sample["value"] - old["value"]
            elif old is not None and "count" in sample:
                sample["count"] -= old["count"]
                sample["sum"] -= old["sum"]
                sample["buckets"] = [
                    [bound, total - prior]
                    for (bound, total), (_b, prior) in zip(sample["buckets"], old["buckets"])
                ]
            samples.append(sample)
        metrics.append({**metric, "samples": samples})
    return {"metrics": metrics}


def merge_histograms(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    merged: Dict[str, Any] = {"count": 0, "sum": 0.0, "buckets": []}
    for part in parts:
        merged["count"] += part["count"]
        merged["sum"] += part["sum"]
        if not part["buckets"]:
            continue
        if not merged["buckets"]:
            merged["buckets"] = [list(slot) for slot in part["buckets"]]
        else:
            for slot, (_bound, total) in zip(merged["buckets"], part["buckets"]):
                slot[1] += total
    return merged


def quantile(hist: Dict[str, Any], q: float) -> float:
    """Bucket-interpolated quantile of a merged histogram (seconds)."""
    total = hist["count"]
    if not total:
        return 0.0
    rank = q * total
    lower, below = 0.0, 0
    for bound, cumulative in hist["buckets"]:
        upper = lower if bound == "+Inf" else float(bound)
        if cumulative >= rank:
            inside = cumulative - below
            if inside <= 0 or bound == "+Inf":
                return upper
            return lower + (upper - lower) * (rank - below) / inside
        lower, below = upper, cumulative
    return lower
