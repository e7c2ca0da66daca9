"""Run order for the whole suite: ``tests/`` and ``perf/`` first, the
training-heavy paper reproductions under ``benchmarks/`` last.

Nothing is skipped or deselected. The unit, carrier and serving suites
take about 2.5 minutes; the benchmarks spend about 25 minutes training
attacks. Running the fast suites first means ``pytest -x`` reports a
broken carrier or protocol in minutes instead of after the training.
"""

from __future__ import annotations

from pathlib import Path

_BENCHMARKS = Path(__file__).resolve().parent / "benchmarks"


def pytest_collection_modifyitems(session, config, items):
    # A stable sort: each group keeps its collection order.
    items.sort(key=lambda item: _BENCHMARKS in item.path.resolve().parents)
