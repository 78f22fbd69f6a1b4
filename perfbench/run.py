"""End-to-end benchmark of the served Journal.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` runs the workload twice — plain, then with span
recorders in the server and the client — and prints the per-layer
metrics instead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
carry the host fingerprint and the deterministic counters.

The benchmark builds nothing: it runs the sources under ``src/`` and
exits with status 2 when they are absent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def host_fingerprint(ref_loop_ms: float) -> dict:
    digest = hashlib.sha256()
    source = os.path.join(ROOT, "src", "repro")
    for directory, subdirs, files in sorted(os.walk(source)):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, source).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "host.ref_loop_ms": ref_loop_ms,
    }


def reference_loop_ms() -> float:
    """A fixed pure-Python loop: how fast this host runs Python now."""
    started = time.perf_counter()
    total = 0
    for value in range(400_000):
        total += value * value % 7
    return (time.perf_counter() - started) * 1e3


def metric_block(names_units, values) -> dict:
    missing = [name for name, _unit in names_units if name not in values]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    return {name: {"value": values[name], "unit": unit} for name, unit in names_units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "core", "server.py")):
        print("run from the repository root: src/repro is missing", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec_doc = json.load(handle)
    workloads_named = [entry["name"] for entry in spec_doc["workloads"]]
    if args.workload not in workloads_named:
        print(f"unknown workload {args.workload!r}; one of {workloads_named}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2

    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracing
    import workloads

    # A terminated run still stops its servers: SystemExit unwinds
    # through the passes' clean-up.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    spec = workloads.SPECS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(workdir, exist_ok=True)
    try:
        ref_loop_ms = reference_loop_ms()
        print(json.dumps({"fingerprint": host_fingerprint(ref_loop_ms)}))
        if workloads.CLIENT_CPUS:
            os.sched_setaffinity(0, workloads.CLIENT_CPUS)
        progs = workloads.build_programs(spec, args.seed, args.seconds)
        print(json.dumps({"program": workloads.describe(progs)}, sort_keys=True))
        reference = workloads.reference_state(progs)
        if args.trace == 0:
            result = workloads.run_pass(ROOT, workdir, spec, progs, setups=spec.setups)
            passes = [result]
            failed = result.tally.failed + (result.served_state != reference)
            values = workloads.end_to_end(result, failed)
            print(json.dumps({"counts": workloads.counts(result)}, sort_keys=True))
            print(json.dumps({"phases": workloads.phases(result)}))
            # Uncorrected beside corrected: a change the host correction hides
            # still shows here.
            print(json.dumps({"raw": workloads.timings(result, corrected=False)}))
            wanted = [(m["name"], m["unit"]) for m in spec_doc["end_to_end"]]
        else:
            plain = workloads.run_pass(ROOT, workdir, spec, progs, setups=1, time_recovery=True)
            spans_dir = os.path.join(workdir, "spans")
            os.makedirs(spans_dir, exist_ok=True)
            recorder = tracing.Recorder()
            traced = workloads.run_pass(ROOT, workdir, spec, progs, setups=1,
                                        spans_dir=spans_dir, recorder=recorder)
            passes = [plain, traced]
            failed = sum(p.tally.failed + (p.served_state != reference) for p in passes)
            first, second = workloads.counts(plain), workloads.counts(traced)
            print(json.dumps({"counts": first, "traced_counts": second}, sort_keys=True))
            if first != second:
                print("deterministic counts differ between same-seed passes", file=sys.stderr)
                failed += 1
            values = workloads.per_layer(plain, traced, recorder, progs, ref_loop_ms)
            wanted = [(m["name"], m["unit"]) for m in spec_doc["per_layer"]]
        for result in passes:
            for message in result.tally.failures:
                print("failure: " + message, file=sys.stderr)
            if result.served_state != reference:
                print("failure: served end state differs from the in-process replay",
                      file=sys.stderr)
        attempted = sum(p.tally.attempted + 1 for p in passes)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metric_block(wanted, values),
        }))
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
