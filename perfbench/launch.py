"""Start ``fremont serve`` with span recorders around its layers.

Usage::

    PYTHONPATH=src python perfbench/launch.py --spans OUT.json -- serve ARGS...

On SIGUSR1 the recorded spans are written to OUT.json, then an empty
OUT.json.done marks the write complete; on SIGUSR2 the spans recorded
so far are dropped and OUT.json.cleared is created.  The server keeps
serving either way.
"""

from __future__ import annotations

import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracing import Recorder, install_server_spans  # noqa: E402


def main(argv) -> int:
    if len(argv) < 4 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: launch.py --spans OUT.json -- serve ARGS...", file=sys.stderr)
        return 2
    spans_path, serve_args = argv[1], argv[3:]
    recorder = Recorder()
    install_server_spans(recorder)

    def dump(_signum, _frame) -> None:
        recorder.write(spans_path)
        open(spans_path + ".done", "w").close()

    def clear(_signum, _frame) -> None:
        recorder.spans.clear()
        open(spans_path + ".cleared", "w").close()

    signal.signal(signal.SIGUSR1, dump)
    signal.signal(signal.SIGUSR2, clear)
    from repro.cli import main as cli_main

    return cli_main(serve_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
