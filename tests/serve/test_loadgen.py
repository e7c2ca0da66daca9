"""The sustained-load harness: open-loop schedules, the 64-session
acceptance run, the snapshot gate, and soak-mode fault survival.

The acceptance anchor of the async session core rides here: 64
concurrent open-loop sessions against one event-loop server on this
box, zero wedges, zero errors, and every session's logits byte-identical
to a serial replay of the same seeded streams (``logits_match_serial``).
"""

import copy
import json

import numpy as np
import pytest

from repro.serve.loadgen import (
    LATENCY_BUCKETS_MS,
    build_schedule,
    check_load_snapshot,
    render_load_report,
    run_loadgen,
)

class TestSchedule:
    def test_fixed_schedule_is_evenly_spaced(self):
        rng = np.random.default_rng(0)
        arrivals = build_schedule(8, 40.0, "fixed", rng)
        assert arrivals.shape == (8,)
        assert np.allclose(np.diff(arrivals), 1.0 / 40.0)

    def test_poisson_schedule_is_seeded(self):
        first = build_schedule(64, 40.0, "poisson", np.random.default_rng(7))
        again = build_schedule(64, 40.0, "poisson", np.random.default_rng(7))
        assert np.array_equal(first, again)
        assert not np.allclose(np.diff(first), np.diff(first)[0])

    def test_rejects_bad_inputs(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            build_schedule(0, 40.0, "fixed", rng)
        with pytest.raises(ValueError):
            build_schedule(4, 0.0, "fixed", rng)
        with pytest.raises(ValueError):
            build_schedule(4, 40.0, "uniform", rng)


@pytest.mark.slow
class TestSustainedLoad:
    @pytest.fixture(scope="class")
    def report(self):
        """The acceptance run: 64 concurrent sessions, serial replay on."""
        return run_loadgen(
            sessions=64,
            rate=60.0,
            dist="poisson",
            requests=128,
            slo_ms=5000.0,
            seed=0,
            workers=4,
        )

    def test_sixty_four_sessions_zero_wedges(self, report):
        assert report["sessions"] == 64
        assert report["wedged_sessions"] == 0
        assert report["errors"] == 0, report["error_samples"]
        assert report["completed"] == report["requests"] == 128

    def test_logits_match_serial_replay(self, report):
        """Per-session streams under 64-way concurrency == serial runs."""
        assert report["logits_match_serial"] is True

    def test_latency_and_histogram_account_every_request(self, report):
        latency = report["latency_ms"]
        assert 0.0 < latency["p50"] <= latency["p95"] <= latency["p99"]
        assert latency["p99"] <= latency["max"]
        histogram = report["histogram"]
        assert len(histogram["counts"]) == len(LATENCY_BUCKETS_MS)
        assert sum(histogram["counts"]) == report["completed"]
        assert histogram["bucket_upper_ms"][-1] is None  # open-ended tail

    def test_report_is_json_and_renderable(self, report):
        round_tripped = json.loads(json.dumps(report))
        assert round_tripped["sessions"] == 64
        text = render_load_report(report)
        assert "64 sessions" in text
        assert "logits_match_serial=True" in text


class TestSoak:
    def test_soak_injects_faults_and_keeps_byte_identity(self):
        """Chaos-faulted sessions retry to byte-identical logits while the
        un-faulted sessions run alongside — PR5's recovery contract held
        under sustained load, not just in the scripted battery."""
        report = run_loadgen(
            sessions=4,
            rate=40.0,
            dist="poisson",
            requests=16,
            slo_ms=5000.0,
            seed=3,
            soak=True,
            soak_rate=0.01,
            retries=5,
        )
        assert report["soak"]["enabled"]
        assert report["soak"]["chaos_sessions"] == 1
        assert report["soak"]["faults_injected"] > 0
        assert report["requests_retried"] > 0
        assert report["errors"] == 0, report["error_samples"]
        assert report["wedged_sessions"] == 0
        assert report["logits_match_serial"] is True


class TestSnapshotGate:
    @pytest.fixture(scope="class")
    def fresh(self):
        return run_loadgen(
            sessions=4,
            rate=40.0,
            dist="fixed",
            requests=16,
            slo_ms=5000.0,
            seed=3,
        )

    def test_committed_snapshot_is_self_consistent(self):
        """The committed snapshot would gate itself cleanly (same-machine
        replay of the identical workload is what CI runs)."""
        with open("benchmarks/BENCH_serve_load.json") as handle:
            snapshot = json.load(handle)
        assert snapshot["errors"] == 0
        assert snapshot["wedged_sessions"] == 0
        assert snapshot["logits_match_serial"] is True
        assert check_load_snapshot(snapshot, snapshot) == []

    def test_identical_run_passes(self, fresh):
        assert check_load_snapshot(fresh, copy.deepcopy(fresh)) == []

    def test_workload_mismatch_fails(self, fresh):
        snapshot = copy.deepcopy(fresh)
        snapshot["sessions"] = 8
        failures = check_load_snapshot(fresh, snapshot)
        assert any("workload mismatch on sessions" in f for f in failures)

    def test_errors_and_wedges_fail_exactly(self, fresh):
        broken = copy.deepcopy(fresh)
        broken["errors"] = 2
        broken["error_samples"] = ["infer: TransportError: boom"]
        broken["wedged_sessions"] = 1
        broken["completed"] = fresh["requests"] - 2
        broken["logits_match_serial"] = False
        failures = check_load_snapshot(broken, fresh)
        assert any("errored" in f for f in failures)
        assert any("wedged" in f for f in failures)
        assert any("completed" in f for f in failures)
        assert any("byte-identical" in f for f in failures)

    def test_slo_rate_regression_fails(self, fresh):
        violating = copy.deepcopy(fresh)
        violating["slo_violations"] = fresh["completed"]
        violating["slo_violation_rate"] = 1.0
        failures = check_load_snapshot(violating, fresh)
        assert any("SLO violation rate" in f for f in failures)
