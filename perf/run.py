"""One benchmark for the serving stack.

    python3 perf/run.py                       all four workloads
    python3 perf/run.py --workload socket_b1  one workload
    python3 perf/run.py --trace               the traced run: per-layer numbers
    python3 perf/run.py --smoke               2 chunks x 2 requests, seconds

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. The run
reports; ``perf/compare.py`` judges. See ``perf/README.md``.
"""

from __future__ import annotations

import sys
import time

_T0 = time.perf_counter()  # set-up time counts from here

from pathlib import Path  # noqa: E402

# Run as a script, import as a package: the script's own directory would
# put perf/trace.py in front of the standard library's trace module.
ROOT = Path(__file__).resolve().parents[1]
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

from perf import common  # noqa: E402

os.environ.update(common.BLAS_ENV)  # before numpy loads its BLAS

import numpy as np  # noqa: E402

from perf import probes, workloads  # noqa: E402
from perf.trace import Tracer  # noqa: E402
from perf.workloads import Sample, Workload  # noqa: E402

OUT = ROOT / "perf" / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {
    metric["name"]: metric["unit"]
    for kind in ("end_to_end", "per_layer")
    for metric in SPEC[kind]
}
MIN_CHUNKS = 2
SETUP_REPEATS = 3  # set-ups per run; setup_s is the fastest of them
NUM_CLASSES = 10


# ----------------------------------------------------------------------
# one run of one workload
# ----------------------------------------------------------------------
@dataclass
class Chunk:
    samples: list[Sample]
    refill_s: float
    wall_s: float
    cpu_s: float  # this process, over the timed requests only
    counters: dict  # what Workload.counters() gained over them

    @property
    def cost_s(self) -> float:
        return self.refill_s + self.wall_s

    def good(self) -> list[Sample]:
        return [sample for sample in self.samples if sample.failed is None]


@dataclass
class Run:
    workload: Workload
    warm: Chunk
    chunks: list[Chunk]
    setup_s: float
    peak_rss_mb: float
    offline_bytes: int
    verified: dict = field(default_factory=dict)

    def samples(self) -> list[Sample]:
        """Every request of the stream, warm-up first."""
        return [s for chunk in (self.warm, *self.chunks) for s in chunk.samples]

    def timed(self) -> list[Sample]:
        return [s for chunk in self.chunks for s in chunk.good()]


def one_request(workload: Workload, images, tracer, request_id: int) -> Sample:
    try:
        if tracer:
            with tracer.request(request_id):
                sample = workload.request(images)
        else:
            sample = workload.request(images)
    except Exception as exc:  # a failed request is a counted outcome
        return Sample(wall_s=float("nan"), failed=f"{type(exc).__name__}: {exc}")
    logits = sample.logits
    if sample.failed is None and not (
        logits is not None
        and logits.shape == (workload.rows, NUM_CLASSES)
        and np.isfinite(logits).all()
    ):
        sample.failed = "logits missing, misshapen or not finite"
    return sample


def run_chunk(workload: Workload, rng, requests: int, tracer, first_id: int) -> Chunk:
    """Refill for exactly this chunk's requests, then serve them."""
    images = [
        rng.random((workload.rows, 3, 32, 32), dtype=np.float32)
        for _ in range(requests)
    ]
    start = time.perf_counter()
    workload.refill(requests)
    refill_s = time.perf_counter() - start
    before = workload.counters()
    cpu = time.process_time()
    start = time.perf_counter()
    samples = [
        one_request(workload, image, tracer, first_id + index)
        for index, image in enumerate(images)
    ]
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu
    after = workload.counters()
    for sample, image in zip(samples, images):
        sample.images = image
    return Chunk(
        samples=samples,
        refill_s=refill_s,
        wall_s=wall_s,
        cpu_s=cpu_s,
        counters={key: after[key] - before[key] for key in before if key in after},
    )


def run(
    cls,
    seed: int,
    *,
    seconds: float = 0.0,
    chunks: int | None = None,
    chunk_requests: int | None = None,
    warm_requests: int | None = None,
    tracer: Tracer | None = None,
    t0: float | None = None,
    setup_only: bool = False,
) -> Run:
    """Set up, warm up, measure chunks (``chunks`` of them, or as many as
    fit in ``seconds``), check the outputs, tear down."""
    t0 = time.perf_counter() if t0 is None else t0
    workload = cls(seed, tracer)
    chunk_requests = chunk_requests or workload.chunk_requests
    warm_requests = warm_requests or workload.warm_requests
    rng = np.random.default_rng(seed)
    workload.setup()
    try:
        warm = run_chunk(workload, rng, warm_requests, tracer, 0)
        setup_s = time.perf_counter() - t0
        done: list[Chunk] = []
        if setup_only:
            return Run(workload, warm, done, setup_s, 0.0, 0)
        served = warm_requests
        began = time.perf_counter()

        def room_for_another() -> bool:
            if chunks or len(done) < MIN_CHUNKS:
                return len(done) < (chunks or MIN_CHUNKS)
            return time.perf_counter() - began + done[-1].cost_s <= seconds

        while room_for_another():
            done.append(run_chunk(workload, rng, chunk_requests, tracer, served))
            served += chunk_requests
        peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            + workload.party_peak_rss_mb
        )
        result = Run(workload, warm, done, setup_s, peak_rss_mb, 0)
        result.offline_bytes = workload.offline_bytes(result.timed())
        result.verified = verify(workload, result.samples())
        return result
    finally:
        workload.close()


def verify(workload: Workload, samples: list[Sample]) -> dict:
    """The first requests of the stream against their reference."""
    head = samples[: max(1, workloads.VERIFIED // workload.rows)]
    if any(sample.failed for sample in head):
        return {"requests": len(head), "rows": workload.rows, "equal": False}
    want = workload.reference([sample.images for sample in head])
    equal = all(
        workload.matches_reference(sample.logits, reference)
        for sample, reference in zip(head, want)
    )
    return {"requests": len(head), "rows": workload.rows, "equal": equal}


# ----------------------------------------------------------------------
# from a run to its numbers
# ----------------------------------------------------------------------
def _p(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def summarize(result: Run, setup_samples: list[float]) -> dict:
    workload, chunks = result.workload, result.chunks
    rows = workload.rows
    request_ms = [[s.wall_s * 1e3 for s in chunk.good()] for chunk in chunks]
    online_ms = [[s.online_s * 1e3 for s in chunk.good()] for chunk in chunks]
    throughput = [len(chunk.good()) * rows / chunk.wall_s for chunk in chunks]
    offline_ms = [
        chunk.refill_s * 1e3 / (len(chunk.samples) * rows) for chunk in chunks
    ]
    timed = result.timed()
    everything = [s for chunk in chunks for s in chunk.samples]
    failures = [s.failed for s in result.samples() if s.failed]
    # The counts the cost model predicts exactly: every request must
    # report the same ones, so a single value stands for all.
    counts = {(s.online_bytes, s.rounds, s.offline_bytes) for s in timed}
    online_bytes, rounds, _ = next(iter(counts)) if timed else (0, 0, 0)

    metrics = {}
    if timed:
        request_p50 = common.best_chunk(request_ms)
        values = {
            "setup_s": min(setup_samples),
            "request_ms_p50": request_p50,
            "online_ms_p50": common.best_chunk(online_ms),
            "throughput_rps": max(throughput),
            "offline_ms_per_request": min(offline_ms),
            "online_bytes_per_request": online_bytes,
            "offline_bytes_per_request": result.offline_bytes,
            "rounds_per_request": rounds,
            "peak_rss_mb": result.peak_rss_mb,
        }
        metrics = with_units(values)
    all_ms = [s.wall_s * 1e3 for s in timed]
    digest = hashlib.sha256()
    # The digest covers the warm-up and the chunks every run has, so two
    # runs of different length still compare.
    sha_requests = len(result.warm.samples) + MIN_CHUNKS * len(chunks[0].samples)
    for sample in result.samples()[:sha_requests]:
        if sample.logits is not None:
            digest.update(np.ascontiguousarray(sample.logits, np.float32).tobytes())
    attempted = len(result.samples()) * rows
    failed = len(failures) * rows
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "rows_per_request": rows,
        "party_core": workload.party_core,
        "warm_requests": len(result.warm.samples),
        "chunk_requests": len(chunks[0].samples),
        "chunks": len(chunks),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "failures": failures[:5],
        "correct": bool(
            not failures
            and len(counts) == 1
            and result.verified.get("equal", False)
        ),
        "verified": result.verified,
        "logits_sha256": digest.hexdigest(),
        "sha_requests": sha_requests,
        "metrics": metrics,
        # Beside the gated best-chunk numbers, ungated: what the whole
        # stream saw, and how far apart the two are.
        "all_requests": {
            "n": len(all_ms),
            "request_ms_p50": statistics.median(all_ms) if all_ms else None,
            "request_ms_p90": _p(all_ms, 0.9) if all_ms else None,
            "online_ms_p50": statistics.median(s.online_s * 1e3 for s in timed)
            if timed
            else None,
        },
        "noise_ratio": statistics.median(all_ms) / request_p50 if timed else None,
        "setup": {"samples_s": setup_samples, "parts_s": workload.setup_parts},
        "cpu_ms_per_request": 1e3
        * sum(chunk.cpu_s for chunk in chunks)
        / max(1, len(everything)),
        "per_chunk": {
            "request_ms": request_ms,
            "online_ms": online_ms,
            "throughput_rps": throughput,
            "offline_ms_per_request": offline_ms,
            "refill_s": [chunk.refill_s for chunk in chunks],
            "wall_s": [chunk.wall_s for chunk in chunks],
        },
    }


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
def _median(values) -> float:
    return statistics.median(list(values))


def traced(seed: int, overhead_for: list[str]) -> tuple[dict, dict, dict, dict]:
    """Per-layer metrics, per-workload tracing overhead, whether the runs
    were correct (the traced ``inproc_b1`` must also reproduce the untraced
    logits), and every run's summary."""
    layers = probes.run_all(seed)
    runs: dict[str, Run] = {}
    tracers: dict[str, Tracer] = {}
    for cls in (*workloads.WORKLOADS.values(), workloads.Shm):
        tracers[cls.name] = Tracer()
        runs[cls.name] = run(cls, seed, chunks=cls.trace_chunks, tracer=tracers[cls.name])
        tracers[cls.name].write(OUT / f"trace-{cls.name}.json")
    plain: dict[str, Run] = {}
    for name in dict.fromkeys(["inproc_b1", *overhead_for]):
        cls = workloads.WORKLOADS[name]
        plain[name] = run(cls, seed, chunks=cls.trace_chunks)
    summary = {name: summarize(result, [result.setup_s]) for name, result in runs.items()}
    plain_summary = {
        name: summarize(result, [result.setup_s]) for name, result in plain.items()
    }

    def p50(name: str, metric: str, source=summary) -> float:
        return source[name]["metrics"][metric]["value"]

    socket, wan, fused = (runs[name] for name in ("socket_b1", "wan_b1", "fused_b8"))
    span = tracers["inproc_b1"].median_ms
    layers["core.noise.perturb_ms"] = span("core.noise.perturb_share")
    layers["core.c2pi.glue_ms"] = tracers["inproc_b1"].median_rest_ms(
        "request",
        ["mpc.engine.run", "core.noise.perturb_share", "models.forward_from"],
    )

    requests = sum(len(chunk.samples) for chunk in socket.chunks)
    gained = {
        key: sum(chunk.counters[key] for chunk in socket.chunks)
        for key in socket.chunks[0].counters
    }
    layers["mpc.transport.frames_per_request"] = gained["frames"] / requests
    layers["mpc.transport.bytes_copied_per_request"] = gained["bytes_copied"] / requests
    layers["mpc.transport.framing_overhead_bytes"] = (
        gained["framing_overhead_bytes"] / requests
    )
    layers["mpc.shm.request_ms_p50"] = p50("shm_b1", "request_ms_p50")
    layers["mpc.shm.online_ms_p50"] = p50("shm_b1", "online_ms_p50")
    layers["mpc.network.wan_measured_over_modeled"] = _median(
        s.online_s / s.extra["modeled_wan_s"] for s in wan.timed()
    )

    rounds = p50("socket_b1", "rounds_per_request")
    served = socket.timed()
    layers.update(
        {
            "serve.remote.handshake_ms": 1e3
            * socket.workload.setup_parts["serve.remote.handshake_s"],
            "serve.remote.bundle_ship_ms_p50": 1e3
            * _median(s.wall_s - s.online_s for s in served),
            "serve.remote.server_online_ms_p50": 1e3
            * _median(s.extra["server_online_s"] for s in served),
            "serve.remote.server_acquire_ms_p50": 1e3
            * _median(s.extra["server_acquire_s"] for s in served),
            "serve.remote.client_cpu_ms_per_request": summary["socket_b1"][
                "cpu_ms_per_request"
            ],
            "serve.remote.server_cpu_ms_per_request": 1e3
            * gained["party_cpu_s"]
            / requests,
            "serve.remote.per_round_overhead_us": 1e3
            * (
                p50("socket_b1", "online_ms_p50")
                - p50("inproc_b1", "online_ms_p50", plain_summary)
            )
            / rounds,
            # What the caller's clock saw and neither server-reported
            # phase covers: the request frame, the client's unpack, the
            # logits' way back, scheduling.
            "serve.remote.unattributed_ms": 1e3
            * _median(
                s.wall_s - s.extra["server_acquire_s"] - s.extra["server_online_s"]
                for s in served
            ),
        }
    )

    step_ms = p50("fused_b8", "request_ms_p50")
    rows = fused.workload.rows
    layers.update(
        {
            "serve.server.step_ms_b8": step_ms,
            "serve.server.row_ms_b8": step_ms / rows,
            "serve.server.queue_wait_ms": 1e3
            * _median(s.extra["queued_s"] for s in fused.timed()),
            "serve.server.batch_rows_mean": statistics.fmean(
                s.extra["batch_rows"] for s in fused.timed()
            ),
            "serve.server.fusion_overhead_ms": step_ms
            - layers["mpc.engine.run_ms_b8"]
            - rows * layers["models.clear_tail_row_ms_b8"],
            # base: the untraced inproc_b1 request_ms_p50 of this run
            "serve.server.row_over_serial": (step_ms / rows)
            / p50("inproc_b1", "request_ms_p50", plain_summary),
        }
    )

    overhead = {
        name: 100.0
        * (p50(name, "request_ms_p50") / p50(name, "request_ms_p50", plain_summary) - 1.0)
        for name in overhead_for
    }
    correct = (
        all(entry["correct"] for entry in (*summary.values(), *plain_summary.values()))
        and summary["inproc_b1"]["logits_sha256"]
        == plain_summary["inproc_b1"]["logits_sha256"]
    )
    attempted = sum(
        entry["attempted"] for entry in (*summary.values(), *plain_summary.values())
    )
    failed = sum(
        entry["failed"] for entry in (*summary.values(), *plain_summary.values())
    )
    outcome = {"correct": correct, "attempted": attempted, "failed": failed}
    return layers, overhead, outcome, {"traced": summary, "untraced": plain_summary}


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def environment(args, core: int | None) -> dict:
    from repro.bench.protocols import calibration_workload_s

    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        head = ""
    return {
        "nproc": os.cpu_count(),
        "cores_allowed": common.CORES,
        "pinned_core": core,
        "blas_threads": {key: os.environ.get(key) for key in common.BLAS_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_head": head or None,  # the driver's checkout is not a repository
        "calibration_workload_s": calibration_workload_s(),
        "seed": args.seed,
        "seconds": args.seconds,
        "victim": {
            "arch": "resnet20",
            "width_mult": common.WIDTH_MULT,
            "model_seed": common.MODEL_SEED,
            "boundary": common.BOUNDARY,
            "noise": common.NOISE,
            "protocol_seed": common.PROTOCOL_SEED,
        },
    }


def setup_probe(name: str, seed: int) -> float:
    """One more set-up of ``name``, in a fresh process, timed by it."""
    proc = common.spawn("run.py", "--workload", name, "--seed", str(seed), "--setup-only")
    try:
        out, _ = proc.communicate(timeout=120.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe of {name} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


def with_units(values: dict) -> dict:
    return {
        name: {"value": value, "unit": UNITS[name]} for name, value in values.items()
    }


def print_metrics(title: str, metrics: dict) -> None:
    print(f"== {title}")
    for name, entry in metrics.items():
        print(f"{name:44s} {entry['value']:>16.6g} {entry['unit']}")


def run_all(args) -> int:
    """Every workload, each in a process of its own so that its set-up
    time and peak RSS are its own."""
    combined = {"workloads": {}}
    status = 0
    for name in workloads.WORKLOADS:
        out = OUT / f"result-{name}.json"
        proc = common.spawn(
            "run.py", "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--out", str(out),
        )
        try:
            text, _ = proc.communicate(timeout=300.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            text, _ = proc.communicate()
        if proc.returncode != 0:
            print(f"{name}: exited with {proc.returncode}")
            status = 1
            continue
        print("\n".join(text.splitlines()[:-1]))  # all but the driver's line
        single = json.loads(out.read_text(encoding="utf-8"))
        combined["env"] = single["env"]
        combined["workloads"].update(single["workloads"])
    write_results(args.out or OUT / "results.json", combined)
    return status


def write_results(path, results: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
    print(f"results: {path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="generates the images and the session names")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="how long one workload measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="1: the traced run (fixed size; --seconds is not used)")
    parser.add_argument("--smoke", action="store_true",
                        help="2 chunks x 2 requests of every workload, one process")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", help="results file (default: under perf/out/)")
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)

    if args.setup_only:
        common.pin()
        result = run(workloads.WORKLOADS[args.workload], args.seed, t0=_T0, setup_only=True)
        print(json.dumps({"setup_s": result.setup_s}))
        return 0

    if not (args.workload or args.trace or args.smoke):
        return run_all(args)

    core = common.pin()
    results = {"env": environment(args, core), "workloads": {}}
    final = None
    if args.smoke:
        for name, cls in workloads.WORKLOADS.items():
            result = run(
                cls, args.seed, chunks=MIN_CHUNKS, warm_requests=1,
                chunk_requests=cls.smoke_requests,
            )
            entry = summarize(result, [result.setup_s])
            results["workloads"][name] = entry
            print_metrics(name, entry["metrics"])
            print(f"{'failed_share':44s} {entry['failed_share']:>16.6g} ratio")
    elif args.trace:
        names = [args.workload] if args.workload else list(workloads.WORKLOADS)
        del results["workloads"]  # not comparable with an end-to-end file
        layers, overhead, outcome, results["runs"] = traced(args.seed, names)
        if args.workload:
            layers["trace.overhead_pct"] = overhead[args.workload]
            missing = {m["name"] for m in SPEC["per_layer"]} - set(layers)
            if missing:
                raise SystemExit(f"declared but not measured: {sorted(missing)}")
        metrics = with_units(layers)
        print_metrics("per layer", metrics)
        for name, value in overhead.items():
            print(f"trace.overhead_pct[{name}]".ljust(44), f"{value:>16.6g} %")
        results["per_layer"] = metrics
        results["trace_overhead_pct"] = overhead
        results["outcome"] = outcome
        final = {**outcome, "metrics": metrics}
        common.stop_resource_tracker()  # the shm legs started one
    else:
        cls = workloads.WORKLOADS[args.workload]
        result = run(cls, args.seed, seconds=args.seconds, t0=_T0)
        setups = [result.setup_s] + [
            setup_probe(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)
        ]
        entry = summarize(result, setups)
        results["workloads"][args.workload] = entry
        print_metrics(args.workload, entry["metrics"])
        print(f"{'failed_share':44s} {entry['failed_share']:>16.6g} ratio")
        print(f"{'noise_ratio':44s} {entry['noise_ratio']:>16.6g} ratio")
        print(f"logits_sha256 {entry['logits_sha256']} ({entry['sha_requests']} requests)")
        final = {
            "correct": entry["correct"],
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": entry["metrics"],
        }
    default = "trace" if args.trace else "smoke" if args.smoke else args.workload
    write_results(args.out or OUT / f"result-{default}.json", results)
    if final is not None:
        print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
