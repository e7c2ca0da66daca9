"""Run order for the whole suite: ``tests/`` and ``perf/`` first, the
training-heavy paper reproductions under ``benchmarks/`` last.

Nothing is skipped or deselected. The unit, carrier and serving suites
take about 2.5 minutes; the benchmarks spend about 25 minutes training
attacks. Running the fast suites first means ``pytest -x`` reports a
broken carrier or protocol in minutes instead of after the training.

A run stopped by a time limit ends the way Ctrl-C ends it. ``timeout``
sends SIGTERM, which kills the interpreter before pytest can print its
summary, leaving only progress dots; raised as ``KeyboardInterrupt`` it
lets pytest tear down and print how many tests passed before the cut.
"""

from __future__ import annotations

import os
import signal
from pathlib import Path

_BENCHMARKS = Path(__file__).resolve().parent / "benchmarks"


def pytest_configure(config):
    main = os.getpid()

    def interrupt(signum, frame):
        if os.getpid() != main:
            # A child a test forked dies of SIGTERM, as it always has.
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, interrupt)


def pytest_collection_modifyitems(session, config, items):
    # A stable sort: each group keeps its collection order.
    items.sort(key=lambda item: _BENCHMARKS in item.path.resolve().parents)
