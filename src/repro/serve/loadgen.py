"""``c2pi loadgen``: an open-loop sustained-load harness for the serving stack.

The async session core's claim is a *load* claim — many concurrent
sessions overlap their network waits on one event loop, bounded protocol
work on a small worker pool — so it gets a measured run, a committed
snapshot (``benchmarks/BENCH_serve_load.json``) and a gate over what the
run determines exactly (:func:`check_load_snapshot`). Latencies are
measured and printed, never compared: a timing claim is a
``perf/compare.py`` pair.

The generator is **open-loop**: arrivals follow a fixed-rate or Poisson
schedule computed up front, independent of completions, and a request's
latency is measured from its *scheduled* arrival — a server that falls
behind accrues queueing delay instead of silently throttling the
offered load (the coordinated-omission trap closed-loop drivers fall
into). Each session is one persistent :class:`~repro.serve.remote.RemoteClient`
in lock-step with its server session, exactly like a real tenant.

Determinism is load-bearing: every session's request stream is seeded,
so after the load run the same streams are replayed **serially** against
a fresh identically-seeded server and the logits must match byte for
byte (``logits_match_serial``) — per-session crypto streams may not be
perturbed by 64 neighbours, retries, or chaos faults. ``--soak`` layers
seeded random corrupt/partial faults (:mod:`repro.mpc.chaos`) on a
subset of sessions while keeping that same byte-identity bar.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..mpc.chaos import ChaosController
from .chaos_check import TINY_BOUNDARY, tiny_victim
from .remote import RemoteClient, RemoteServer

__all__ = [
    "LATENCY_BUCKETS_MS",
    "build_schedule",
    "check_load_snapshot",
    "render_load_report",
    "run_from_args",
    "run_loadgen",
]

#: Histogram bucket upper bounds (ms); the last bucket is open-ended.
LATENCY_BUCKETS_MS = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
    500.0, 1000.0, 2000.0, 5000.0, 10000.0, float("inf"),
)

# The share of requests over the absolute ``--slo-ms`` (2 s in CI, ten
# times the committed run's slowest request) may exceed the snapshot's by
# this much: a wedge/overload detector, not a latency band — no latency
# value is ever compared.
_SLO_RATE_SLACK = 0.10


def build_schedule(
    total: int, rate: float, dist: str, rng: np.random.Generator
) -> np.ndarray:
    """Arrival offsets (seconds from start) for ``total`` open-loop requests."""
    if total < 1:
        raise ValueError("need at least one request")
    if rate <= 0:
        raise ValueError("arrival rate must be positive")
    if dist == "fixed":
        gaps = np.full(total, 1.0 / rate)
    elif dist == "poisson":
        gaps = rng.exponential(1.0 / rate, size=total)
    else:
        raise ValueError(f"unknown arrival distribution {dist!r}")
    return np.cumsum(gaps)


@dataclass
class _SessionResult:
    """One session thread's collected outcomes."""

    session: str
    client_seed: int
    image_indices: list[int]
    arrivals: list[float]
    latencies_ms: list[float] = field(default_factory=list)
    logits: list[bytes] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    retried: int = 0
    faults: int = 0
    wedged: bool = False


def _session_worker(
    result: _SessionResult,
    host: str,
    port: int,
    images: np.ndarray,
    start_s: float,
    noise_magnitude: float,
    retries: int,
    controller: ChaosController | None,
) -> None:
    try:
        client = RemoteClient(
            host,
            port,
            noise_magnitude=noise_magnitude,
            seed=result.client_seed,
            session=result.session,
            timeout=30.0,
            transport_wrapper=controller.wrap if controller else None,
            wait_for_slot=True,
            reconnect_timeout=30.0,
        )
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        result.errors.append(f"connect: {type(exc).__name__}: {exc}")
        return
    try:
        for arrival, image_index in zip(result.arrivals, result.image_indices):
            wait = start_s + arrival - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            try:
                reply = client.infer(images[image_index][None], retries=retries)
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                result.errors.append(f"infer: {type(exc).__name__}: {exc}")
                continue
            result.latencies_ms.append(
                (time.perf_counter() - (start_s + arrival)) * 1e3
            )
            result.logits.append(reply.logits.tobytes())
        result.retried = client.requests_retried
    finally:
        try:
            client.close()
        except Exception:  # noqa: BLE001 - teardown best effort
            pass
        if controller is not None:
            result.faults = len(controller.trace.events)


def _serial_reference(
    model,
    boundary: float,
    seed: int,
    images: np.ndarray,
    results: list[_SessionResult],
    noise_magnitude: float,
    workers: int,
) -> bool:
    """Replay every session serially on a fresh server; compare bytes."""
    server = RemoteServer(
        model, boundary, seed=seed, workers=workers,
        max_sessions=len(results) + 2,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        for result in results:
            client = RemoteClient(
                "127.0.0.1",
                server.port,
                noise_magnitude=noise_magnitude,
                seed=result.client_seed,
                session=result.session,
                timeout=30.0,
            )
            serial = [
                client.infer(images[index][None]).logits.tobytes()
                for index in result.image_indices
            ]
            client.close()
            if serial != result.logits:
                return False
        return True
    finally:
        server.stop()
        thread.join(timeout=10.0)


def _percentile(latencies: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(latencies), q)) if latencies else 0.0


def run_loadgen(
    sessions: int = 8,
    rate: float = 50.0,
    dist: str = "poisson",
    requests: int = 128,
    slo_ms: float = 500.0,
    seed: int = 0,
    noise_magnitude: float = 0.1,
    workers: int = 4,
    retries: int = 3,
    soak: bool = False,
    soak_rate: float = 0.01,
    soak_every: int = 4,
    check_serial: bool = True,
    wedge_timeout_s: float = 120.0,
    image_pool: int = 8,
) -> dict:
    """Drive a live server with ``sessions`` concurrent open-loop clients.

    Spawns an in-process :class:`~repro.serve.remote.RemoteServer` over
    the tiny chaos victim (the properties under load are protocol- and
    system-level, not model-level), runs the schedule, then — unless
    ``check_serial`` is off — replays every session serially against a
    fresh same-seeded server and pins byte identity. Returns the
    JSON-able snapshot dict :func:`check_load_snapshot` gates.
    """
    if sessions < 1:
        raise ValueError("need at least one session")
    if requests < sessions:
        raise ValueError("need at least one request per session")
    model = tiny_victim(seed)
    rng = np.random.default_rng(seed + 1)
    images = rng.random((image_pool, 2, 8, 8), dtype=np.float32)
    arrivals = build_schedule(requests, rate, dist, rng)

    results: list[_SessionResult] = []
    for index in range(sessions):
        own = list(range(index, requests, sessions))
        results.append(
            _SessionResult(
                session=f"load-{index}",
                client_seed=seed + 100 + index,
                image_indices=[k % image_pool for k in own],
                arrivals=[float(arrivals[k]) for k in own],
            )
        )

    controllers: dict[int, ChaosController] = {}
    if soak:
        for index in range(0, sessions, max(1, soak_every)):
            controllers[index] = ChaosController.random(
                seed=seed + 1000 + index, rate=soak_rate,
                kinds=("corrupt", "partial"),
            )

    server = RemoteServer(
        model, TINY_BOUNDARY, seed=seed, workers=workers,
        max_sessions=sessions + 2, request_timeout=30.0,
    )
    serve_thread = threading.Thread(target=server.serve_forever, daemon=True)
    serve_thread.start()
    wall_start = time.perf_counter()
    try:
        start_s = time.perf_counter() + 0.05  # let every thread arm first
        threads = [
            threading.Thread(
                target=_session_worker,
                name=f"c2pi-loadgen-{index}",
                args=(
                    result, "127.0.0.1", server.port, images, start_s,
                    noise_magnitude, retries, controllers.get(index),
                ),
                daemon=True,
            )
            for index, result in enumerate(results)
        ]
        for thread in threads:
            thread.start()
        deadline = start_s + float(arrivals[-1]) + wedge_timeout_s
        for result, thread in zip(results, threads):
            thread.join(timeout=max(0.0, deadline - time.perf_counter()))
            if thread.is_alive():
                result.wedged = True
        elapsed_s = time.perf_counter() - wall_start
        server_metrics = server.metrics()
    finally:
        server.stop(drain=not any(result.wedged for result in results))
        serve_thread.join(timeout=10.0)

    latencies = [value for result in results for value in result.latencies_ms]
    completed = len(latencies)
    errors = [message for result in results for message in result.errors]
    wedged = sum(result.wedged for result in results)
    violations = sum(value > slo_ms for value in latencies)
    counts = [0] * len(LATENCY_BUCKETS_MS)
    for value in latencies:
        for bucket, bound in enumerate(LATENCY_BUCKETS_MS):
            if value <= bound:
                counts[bucket] += 1
                break

    logits_match = None
    if check_serial and not errors and not wedged:
        logits_match = _serial_reference(
            model, TINY_BOUNDARY, seed, images, results, noise_magnitude, workers
        )
    elif check_serial:
        logits_match = False  # incomplete streams cannot be byte-checked

    return {
        "schema": 1,
        "model": model.name,
        "boundary": TINY_BOUNDARY,
        "seed": seed,
        "sessions": sessions,
        "rate_rps": rate,
        "dist": dist,
        "requests": requests,
        "workers": workers,
        "slo_ms": slo_ms,
        "soak": {
            "enabled": soak,
            "rate": soak_rate if soak else 0.0,
            "chaos_sessions": len(controllers),
            "faults_injected": sum(result.faults for result in results),
        },
        "elapsed_s": elapsed_s,
        "offered_duration_s": float(arrivals[-1]),
        "completed": completed,
        "errors": len(errors),
        "error_samples": errors[:5],
        "wedged_sessions": wedged,
        "requests_retried": sum(result.retried for result in results),
        "server_requests_retried": server_metrics["requests_retried"],
        "throughput_rps": completed / elapsed_s if elapsed_s else 0.0,
        "latency_ms": {
            "p50": _percentile(latencies, 50),
            "p95": _percentile(latencies, 95),
            "p99": _percentile(latencies, 99),
            "mean": float(np.mean(latencies)) if latencies else 0.0,
            "max": float(np.max(latencies)) if latencies else 0.0,
        },
        "slo_violations": violations,
        "slo_violation_rate": violations / completed if completed else 1.0,
        "logits_match_serial": logits_match,
        "histogram": {
            "bucket_upper_ms": [
                bound if bound != float("inf") else None
                for bound in LATENCY_BUCKETS_MS
            ],
            "counts": counts,
        },
    }


def check_load_snapshot(fresh: dict, snapshot: dict) -> list[str]:
    """Gate a fresh load run against the committed snapshot.

    Identity metrics are exact: zero errors, zero wedged sessions, every
    offered request completed, logits byte-identical to the serial
    replay, and the workload shape matching the snapshot (a gate over a
    different offered load would compare nothing). No latency is
    compared; a wedge or overload shows in the SLO-violation rate.
    """
    failures: list[str] = []
    for key in ("sessions", "requests", "rate_rps", "dist", "slo_ms"):
        if fresh.get(key) != snapshot.get(key):
            failures.append(
                f"workload mismatch on {key}: fresh {fresh.get(key)!r} vs "
                f"snapshot {snapshot.get(key)!r}"
            )
    if fresh.get("errors"):
        failures.append(
            f"{fresh['errors']} request(s) errored: {fresh.get('error_samples')}"
        )
    if fresh.get("wedged_sessions"):
        failures.append(f"{fresh['wedged_sessions']} session(s) wedged")
    if fresh.get("completed") != fresh.get("requests"):
        failures.append(
            f"only {fresh.get('completed')}/{fresh.get('requests')} requests "
            "completed"
        )
    if fresh.get("logits_match_serial") is not True:
        failures.append(
            "logits are not byte-identical to the serial replay "
            f"(logits_match_serial={fresh.get('logits_match_serial')!r})"
        )
    allowed = snapshot.get("slo_violation_rate", 0.0) + _SLO_RATE_SLACK
    if fresh.get("slo_violation_rate", 1.0) > allowed:
        failures.append(
            f"SLO violation rate regressed: {fresh['slo_violation_rate']:.1%} "
            f"vs allowed {allowed:.1%}"
        )
    return failures


def render_load_report(report: dict) -> str:
    latency = report["latency_ms"]
    soak = report["soak"]
    lines = [
        f"loadgen: {report['sessions']} sessions, "
        f"{report['requests']} requests at {report['rate_rps']:g} rps "
        f"({report['dist']}), {report['workers']} workers",
        f"  completed {report['completed']}/{report['requests']}  "
        f"errors={report['errors']}  wedged={report['wedged_sessions']}  "
        f"retried={report['requests_retried']}",
        f"  throughput {report['throughput_rps']:.1f} rps over "
        f"{report['elapsed_s']:.2f}s "
        f"(offered window {report['offered_duration_s']:.2f}s)",
        f"  latency ms  p50={latency['p50']:.1f}  p95={latency['p95']:.1f}  "
        f"p99={latency['p99']:.1f}  max={latency['max']:.1f}",
        f"  SLO {report['slo_ms']:g} ms: {report['slo_violations']} "
        f"violation(s) ({report['slo_violation_rate']:.1%})",
        f"  logits_match_serial={report['logits_match_serial']}",
    ]
    if soak["enabled"]:
        lines.append(
            f"  soak: {soak['faults_injected']} fault(s) across "
            f"{soak['chaos_sessions']} chaos session(s) at rate {soak['rate']:g}"
        )
    return "\n".join(lines)


def run_from_args(args) -> int:
    """Execute the load harness for a parsed argument namespace."""
    report = run_loadgen(
        sessions=args.sessions,
        rate=args.rate,
        dist=args.dist,
        requests=args.requests,
        slo_ms=args.slo_ms,
        seed=args.seed,
        workers=args.workers,
        retries=args.retries,
        soak=args.soak,
        soak_rate=args.soak_rate,
        check_serial=not args.skip_serial,
    )
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render_load_report(report))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.output}")
    if args.histogram:
        with open(args.histogram, "w") as handle:
            json.dump(report["histogram"], handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.histogram}")
    if args.check:
        with open(args.check) as handle:
            snapshot = json.load(handle)
        failures = check_load_snapshot(report, snapshot)
        for failure in failures:
            print(f"LOADGEN REGRESSION: {failure}")
        if failures:
            return 1
        print(f"loadgen check against {args.check}: ok")
    return 0
