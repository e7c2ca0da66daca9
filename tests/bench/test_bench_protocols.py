"""The protocol bench harness: structure, model agreement, regression gate."""

import json
from pathlib import Path

import pytest

from repro.bench.protocols import (
    check_serve_snapshot,
    check_snapshot,
    material_nbytes,
    render_report,
    run_bench,
)
from repro.mpc.costs import drelu_label_bytes, relu_label_bytes
from repro.mpc.dealer import TrustedDealer
from repro.serve.loadgen import check_load_snapshot

ROOT = Path(__file__).resolve().parents[2]


def small_bench():
    return run_bench(elements=128, repeats=1)


class TestHarness:
    def test_report_structure_and_model_agreement(self):
        report = small_bench()
        for op in ("drelu", "relu", "maxpool", "linear"):
            entry = report["ops"][op]
            assert entry["online_s"] > 0
            assert entry["online_bytes"] > 0
            assert entry["rounds"] > 0
        # The measured per-op bytes equal the packed-circuit cost model.
        assert report["ops"]["drelu"]["online_bytes"] == sum(
            drelu_label_bytes(128).values()
        )
        assert report["ops"]["relu"]["online_bytes"] == sum(
            relu_label_bytes(128).values()
        )
        assert report["offline"]["bit_triple_bytes_per_element"] == 336

    def test_material_nbytes_counts_all_halves(self):
        triple = TrustedDealer(seed=0).beaver_triples((16,))
        assert material_nbytes(triple) == 3 * 2 * 16 * 8

    def test_render_report_is_printable(self):
        text = render_report(small_bench())
        assert "drelu" in text and "bit-triples" in text


def _committed(name):
    with open(ROOT / "benchmarks" / name) as handle:
        return json.load(handle)


#: One committed snapshot per gate: each is its own fresh report, a drift
#: is planted in one exact field at a time.
GATES = {
    "bench": (check_snapshot, "BENCH_protocols.json"),
    "serve": (check_serve_snapshot, "BENCH_serve.json"),
    "load": (check_load_snapshot, "BENCH_serve_load.json"),
}

SHA = "cd" * 32


def _set(*path_and_value):
    *path, leaf, value = path_and_value

    def plant(report):
        for key in path:
            report = report[key]
        report[leaf] = value

    return plant


_SOCKET = ("placements", "socket-loopback")
_SHM = ("placements", "shared-memory")

DRIFTS = {
    "bench/op-bytes": _set("ops", "drelu", "online_bytes", 1966081),
    "bench/op-rounds": _set("ops", "relu", "rounds", 11),
    "bench/per-label-bytes": _set("ops", "relu", "by_label_bytes", "b2a-open", 4096),
    "bench/bit-triple-bytes-per-element": _set(
        "offline", "bit_triple_bytes_per_element", 344.0
    ),
    "bench/workload-shape": _set("elements", 4096),
    "serve/logits-sha": _set("logits_sha256", SHA),
    "serve/one-placement-sha": _set(*_SOCKET, "logits_sha256", SHA),
    "serve/logits-identical": _set("logits_identical", False),
    "serve/bytes-match": _set(*_SHM, "bytes_match", False),
    "serve/shm-active": _set(*_SHM, "shm_active", False),
    "serve/offline-bundle-bytes": _set(*_SOCKET, "offline_bundle_bytes", [3928]),
    "serve/offline-bundle-bytes-two-sizes": _set(
        *_SOCKET, "offline_bundle_bytes", [3920, 3928]
    ),
    "serve/offline-bundle-bytes-whole-half": _set(
        *_SOCKET, "offline_bundle_bytes", [2_871_080]
    ),
    "serve/missing-placement": lambda report: report["placements"].pop(_SHM[1]),
    "serve/workload-shape": _set("requests", 4),
    "load/errors": _set("errors", 1),
    "load/wedged": _set("wedged_sessions", 1),
    "load/completed": _set("completed", 127),
    "load/logits-match-serial": _set("logits_match_serial", False),
    "load/serial-replay-skipped": _set("logits_match_serial", None),
    "load/workload-shape": _set("sessions", 8),
    "load/slo-violation-rate": _set("slo_violation_rate", 0.11),
}

#: Every clock-derived field of the three reports.
TIMINGS = {
    "online_s", "online_us_per_element", "online_ns_per_round",
    "ms_per_inference", "amortized_ms", "best_ms_per_inference",
    "elapsed_s", "throughput_rps", "latency_ms",
}


def _slowed(report, timed=False):
    """The same report from a run 100x slower on every clock."""
    for key, value in report.items():
        if isinstance(value, dict):
            _slowed(value, timed or key in TIMINGS)
        elif timed or key in TIMINGS:
            report[key] = value * 100
    return report


class TestGates:
    """The three ``--check`` functions gate exact counts and nothing else."""

    @pytest.mark.parametrize("drift", DRIFTS)
    def test_each_exact_field_fails_alone(self, drift):
        check, name = GATES[drift.split("/")[0]]
        fresh = _committed(name)
        DRIFTS[drift](fresh)
        failures = check(fresh, _committed(name))
        assert len(failures) == 1, failures

    @pytest.mark.parametrize("gate", GATES)
    def test_no_timing_is_compared(self, gate):
        """Times are printed, never judged here: that is perf/compare.py's."""
        check, name = GATES[gate]
        assert check(_slowed(_committed(name)), _committed(name)) == []


class TestCommittedServeSnapshot:
    def test_committed_serve_snapshot_meets_acceptance(self):
        committed = _committed("BENCH_serve.json")
        assert committed["logits_identical"] is True
        assert committed["best_ms_per_inference"] < 9.5
        placements = committed["placements"]
        assert set(placements) == {
            "in-process", "socket-loopback", "shared-memory",
        }
        assert placements["shared-memory"]["shm_active"] is True
        for name in ("socket-loopback", "shared-memory"):
            assert placements[name]["bytes_match"] is True
