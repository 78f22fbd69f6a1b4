"""Time one ``JournalStore.recover()`` of a durability directory.

Usage::

    PYTHONPATH=src python perfbench/recover_once.py DIR

Runs in a fresh process, as a restarted server would, and prints the
seconds ``recover()`` took.  DIR is recovered in place: pass a copy.
"""

from __future__ import annotations

import sys
import time

from repro.core import JournalStore


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: recover_once.py DIR", file=sys.stderr)
        return 2
    store = JournalStore(argv[0], fsync="interval")
    started = time.perf_counter()
    store.recover()
    elapsed = time.perf_counter() - started
    store.close(checkpoint=False)
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
