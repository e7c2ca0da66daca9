"""The two conformance benches: ``c2pi bench`` and ``c2pi serve-bench``.

``bench`` measures what the cost tables only model: the *online* wall
time and the exact protocol bytes of the dealer-suite primitives (DReLU,
ReLU, one max-pool tournament level, a linear layer) and the offline
preprocessing material footprint per ReLU element
(``benchmarks/BENCH_protocols.json``). ``serve-bench`` serves one seeded
resnet20 request stream under every party placement
(``benchmarks/BENCH_serve.json``).

How a number is gated: ``--check`` compares **only what the run
determines exactly** — bytes, rounds, per-label bytes, material bytes
per element, logits hashes, wire-vs-accounting agreement — against the
committed snapshot. Times are measured and printed, never compared: a
timing claim is an alternating pair in ``perf/compare.py``.

Online timing excludes dealer generation entirely: material is collected
offline into a bundle first and the timed run replays it through a
:class:`~repro.mpc.preprocessing.ReplayDealer`, mirroring the warm-pool
serving path.
"""

from __future__ import annotations

import dataclasses
import json
import time

import numpy as np

from ..mpc import Channel, FixedPointConfig, TrustedDealer
from ..mpc.preprocessing import RecordingDealer, ReplayDealer
from ..mpc.protocols import (
    secure_drelu,
    secure_linear,
    secure_maximum,
    secure_relu,
)
from ..mpc.sharing import share_additive

__all__ = [
    "CFG",
    "run_bench",
    "bench_ops",
    "bench_offline",
    "bench_serve_placements",
    "calibration_workload_s",
    "check_snapshot",
    "check_serve_snapshot",
    "render_report",
    "render_serve_report",
    "material_nbytes",
    "run_from_args",
    "run_serve_from_args",
]

CFG = FixedPointConfig()


# ----------------------------------------------------------------------
# material helpers
# ----------------------------------------------------------------------
def material_nbytes(material) -> int:
    """Total array bytes of one dealer material item (all parties' halves)."""
    return sum(
        int(value.nbytes)
        for field in dataclasses.fields(material)
        if (value := getattr(material, field.name)) is not None
    )


def _bundle_bytes_by_method(items) -> dict[str, int]:
    sizes: dict[str, int] = {}
    for request, material in items:
        sizes[request.method] = sizes.get(request.method, 0) + material_nbytes(
            material
        )
    return sizes


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def calibration_workload_s(repeats: int = 5) -> float:
    """Fixed pure-numpy uint64 workload: how fast is this machine.

    Shaped like the bitsliced circuit's rounds — many XOR/AND/shift
    passes over mid-size word arrays, so numpy dispatch overhead and
    word-op throughput are weighted as the DReLU hot path weights them —
    but hand-written rather than calling the protocol code. ``perf/run.py``
    records it in every results file's environment; nothing is
    normalised by it.
    """
    rng = np.random.default_rng(0)
    a = rng.integers(0, 2**62, size=8192, dtype=np.uint64)
    b = rng.integers(0, 2**62, size=8192, dtype=np.uint64)
    shift = np.uint64(7)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        c = a
        for _ in range(60):
            c = (c ^ b) & (a >> shift)
            c = ((c | a) ^ (c >> shift)).astype(np.uint64)
        best = min(best, time.perf_counter() - start)
    return best


def _timed_runs(op, bundles, repeats: int):
    """Run ``op(replay_dealer, channel)`` once per pre-generated bundle.

    The first bundle is a discarded warmup (first-touch allocation and
    ufunc setup would otherwise pollute the smallest repeat counts).
    """
    best = float("inf")
    channel = None
    for index in range(repeats + 1):
        channel = Channel()
        replay = ReplayDealer(bundles[index])
        start = time.perf_counter()
        op(replay, channel)
        elapsed = time.perf_counter() - start
        if index > 0:
            best = min(best, elapsed)
    return best, channel


def _op_report(name: str, elements: int, best_s: float, channel: Channel) -> dict:
    return {
        "elements": elements,
        "online_s": best_s,
        "online_us_per_element": best_s * 1e6 / max(1, elements),
        "online_bytes": channel.total_bytes,
        "rounds": channel.rounds,
        # The per-round compute budget: with round counts pinned exactly
        # (below), online_s / rounds is what a transport implementation
        # gets to spend between two adjacent communication rounds.
        "online_ns_per_round": best_s * 1e9 / max(1, channel.rounds),
        "by_label_bytes": {
            label: snapshot.total_bytes
            for label, snapshot in channel.label_breakdown().items()
        },
    }


def _collect_bundles(op, seed: int, repeats: int):
    collector = RecordingDealer(TrustedDealer(seed=seed))
    bundles = []
    for _ in range(repeats + 1):  # one extra bundle feeds the warmup run
        op(collector, Channel())
        bundles.append(collector.take())
    return bundles


def bench_ops(elements: int = 8192, repeats: int = 3) -> dict:
    """Per-op online latency/bytes for the dealer-suite hot path."""
    rng = np.random.default_rng(42)
    values = rng.uniform(-4.0, 4.0, size=(elements,)).astype(np.float32)
    x = share_additive(CFG.encode(values), rng)
    other = share_additive(
        CFG.encode(rng.uniform(-4.0, 4.0, size=(elements,)).astype(np.float32)), rng
    )

    ops = {}

    drelu = lambda dealer, channel: secure_drelu(x, dealer, channel)
    best, channel = _timed_runs(drelu, _collect_bundles(drelu, 1, repeats), repeats)
    ops["drelu"] = _op_report("drelu", elements, best, channel)

    relu = lambda dealer, channel: secure_relu(x, dealer, channel)
    best, channel = _timed_runs(relu, _collect_bundles(relu, 2, repeats), repeats)
    ops["relu"] = _op_report("relu", elements, best, channel)

    # One max-pool tournament level: a batched secure_maximum over n pairs.
    maxpool = lambda dealer, channel: secure_maximum(x, other, dealer, channel)
    best, channel = _timed_runs(
        maxpool, _collect_bundles(maxpool, 3, repeats), repeats
    )
    ops["maxpool"] = _op_report("maxpool", elements, best, channel)

    # A Delphi-style linear layer: batch 8, 256 -> 256 features.
    w_ring = CFG.encode(
        rng.uniform(-0.5, 0.5, size=(256, 256)).astype(np.float32)
    )
    lin_x = share_additive(
        CFG.encode(rng.uniform(-1, 1, size=(8, 256)).astype(np.float32)), rng
    )
    ring_fn = lambda v: np.matmul(v, w_ring.T)
    linear = lambda dealer, channel: secure_linear(
        lin_x, ring_fn, None, dealer, channel
    )
    best, channel = _timed_runs(linear, _collect_bundles(linear, 4, repeats), repeats)
    ops["linear"] = _op_report("linear", 8 * 256, best, channel)
    return ops


def bench_offline(elements: int = 8192) -> dict:
    """Preprocessing material footprint of one ReLU batch (both halves)."""
    rng = np.random.default_rng(7)
    values = rng.uniform(-4.0, 4.0, size=(elements,)).astype(np.float32)
    x = share_additive(CFG.encode(values), rng)
    collector = RecordingDealer(TrustedDealer(seed=9))
    secure_relu(x, collector, Channel())
    by_method = _bundle_bytes_by_method(collector.items)
    total = sum(by_method.values())
    return {
        "relu_elements": elements,
        "by_method_bytes": by_method,
        "bundle_bytes": total,
        "bit_triple_bytes": by_method.get("bit_triples", 0),
        "bit_triple_bytes_per_element": by_method.get("bit_triples", 0) / elements,
        "bundle_bytes_per_element": total / elements,
    }


def bench_serve_placements(requests: int = 4) -> dict:
    """End-to-end resnet20 serving under all three party placements.

    Runs the identical request stream through the in-process pipeline, a
    socket-loopback client/server pair, and a shared-memory client/server
    pair (each remote placement against a fresh same-seeded ``c2pi
    serve`` *subprocess* — a genuine second party, so the shared-memory
    path is measured without GIL interference from the peer) and records
    per-placement latency plus a SHA-256 over the concatenated logits.
    The placements MUST agree byte-for-byte — the zero-copy transport
    work is only admissible because the bytes prove it changed nothing —
    and the remote placements must report ``bytes_match`` (measured
    socket/ring payload equal to the Channel accounting) on every reply.

    The resulting snapshot (``benchmarks/BENCH_serve.json``) is what
    :func:`check_serve_snapshot` gates.
    """
    import hashlib
    import os
    import re
    import subprocess
    import sys
    from pathlib import Path

    import repro

    from ..core import C2PIPipeline
    from ..serve.remote import RemoteClient, _demo_victim

    victim = _demo_victim("resnet20", 0.25, 0)
    rng = np.random.default_rng(7)
    images = [rng.random((1, 3, 32, 32), dtype=np.float32) for _ in range(requests)]

    def _sha(logits_list) -> str:
        digest = hashlib.sha256()
        for logits in logits_list:
            digest.update(np.ascontiguousarray(logits, dtype=np.float32).tobytes())
        return digest.hexdigest()

    placements: dict[str, dict] = {}

    # -- in-process: both parties in one address space, no transport ----
    pipeline = C2PIPipeline(victim, 3.5, noise_magnitude=0.1, seed=5)
    pipeline.prepare_offline(batch=1, bundles=requests)
    times, logits = [], []
    for image in images:
        start = time.perf_counter()
        reply = pipeline.infer(image)
        times.append(time.perf_counter() - start)
        logits.append(reply.logits)
    placements["in-process"] = {
        "ms_per_inference": min(times) * 1e3,
        "amortized_ms": sum(times) * 1e3 / requests,
        "logits_sha256": _sha(logits),
    }

    # -- remote placements: fresh same-seeded server process each -------
    def _remote(shm: bool) -> dict:
        src_root = str(Path(repro.__file__).resolve().parents[1])
        # `--warm requests` pre-generates the offline pool: the
        # placement comparison measures the *online* serving path,
        # exactly like the in-process leg above (prepare_offline) — not
        # cold-pool misses.
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--listen", "127.0.0.1:0",
                "--arch", "resnet20", "--untrained-width", "0.25",
                "--model-seed", "0", "--boundary", "3.5",
                "--seed", "5", "--warm", str(requests), "--warm-batch", "1",
                "--once",
            ],
            stdout=subprocess.PIPE,
            text=True,
            env={
                **os.environ,
                "PYTHONPATH": src_root
                + os.pathsep
                + os.environ.get("PYTHONPATH", ""),
            },
        )
        try:
            line = proc.stdout.readline()
            match = re.search(r"listening on [\d.]+:(\d+)", line)
            if not match:
                raise RuntimeError(f"server did not announce a port: {line!r}")
            client = RemoteClient(
                "127.0.0.1", int(match.group(1)),
                noise_magnitude=0.1, seed=5, shm=shm,
            )
            times, logits, matches, offline = [], [], [], set()
            for image in images:
                start = time.perf_counter()
                reply = client.infer(image)
                times.append(time.perf_counter() - start)
                logits.append(reply.logits)
                matches.append(bool(reply.bytes_match))
                offline.add(reply.offline_bytes)
            shm_active = client.shm_active
            client.close()
            proc.wait(timeout=30.0)
        finally:
            if proc.poll() is None:  # pragma: no cover - crashed run
                proc.kill()
                proc.wait()
            proc.stdout.close()
        return {
            "ms_per_inference": min(times) * 1e3,
            "amortized_ms": sum(times) * 1e3 / requests,
            "logits_sha256": _sha(logits),
            "bytes_match": all(matches),
            "shm_active": shm_active,
            # Manifest + seed, a function of the plan alone: gated exactly.
            "offline_bundle_bytes": sorted(offline),
        }

    placements["socket-loopback"] = _remote(shm=False)
    placements["shared-memory"] = _remote(shm=True)

    shas = {p["logits_sha256"] for p in placements.values()}
    return {
        "schema": 1,
        "model": "resnet20",
        "width_mult": 0.25,
        "boundary": 3.5,
        "batch": 1,
        "requests": requests,
        "placements": placements,
        "logits_identical": len(shas) == 1,
        "logits_sha256": placements["in-process"]["logits_sha256"],
        "best_ms_per_inference": min(
            p["ms_per_inference"] for p in placements.values()
        ),
    }


#: What a placement pins, where the snapshot records it (the in-process
#: leg has no wire, so only its hash).
_PLACEMENT_PINS = (
    "logits_sha256", "bytes_match", "shm_active", "offline_bundle_bytes",
)


def check_serve_snapshot(fresh: dict, snapshot: dict) -> list[str]:
    """Compare a fresh placement bench against the committed snapshot.

    Everything compared holds exactly — the request stream is seeded, so
    the logits hash itself is pinned, per placement and overall; measured
    wire payload equals the Channel accounting; the shared-memory grant
    is active; the client's offline half is manifest + seed. Returns a
    list of human-readable failures (empty = pass).
    """
    failures = [
        f"workload mismatch on {key}: fresh {fresh.get(key)!r} vs snapshot "
        f"{snapshot.get(key)!r}"
        for key in ("model", "width_mult", "boundary", "batch", "requests")
        if fresh.get(key) != snapshot.get(key)
    ]
    if failures:  # hashes of a different stream compare nothing
        return failures
    if not fresh.get("logits_identical"):
        shas = {
            name: p.get("logits_sha256")
            for name, p in fresh.get("placements", {}).items()
        }
        failures.append(f"placements disagree on logits: {shas}")
    if fresh.get("logits_sha256") != snapshot.get("logits_sha256"):
        failures.append(
            f"serve logits drifted: {fresh.get('logits_sha256')} vs snapshot "
            f"{snapshot.get('logits_sha256')}"
        )
    for name, pinned in snapshot.get("placements", {}).items():
        ours = fresh.get("placements", {}).get(name)
        if ours is None:
            failures.append(f"placement missing from fresh run: {name}")
            continue
        for key in _PLACEMENT_PINS:
            if key in pinned and ours.get(key) != pinned[key]:
                failures.append(
                    f"{name}: {key} drifted: {ours.get(key)!r} vs snapshot "
                    f"{pinned[key]!r}"
                )
    return failures


def render_serve_report(report: dict) -> str:
    lines = [
        f"serve placements ({report['model']} b={report['boundary']}, "
        f"{report['requests']} requests, "
        f"logits identical: {report['logits_identical']})"
    ]
    for name, placement in report["placements"].items():
        extra = ""
        if "bytes_match" in placement:
            extra = f"  bytes_match={placement['bytes_match']}"
        if "offline_bundle_bytes" in placement:
            extra += f"  offline={placement['offline_bundle_bytes']} B"
        if "shm_active" in placement:
            extra += f"  shm={placement['shm_active']}"
        lines.append(
            f"  {name:<16} {placement['ms_per_inference']:8.2f} ms/inference "
            f"(amortized {placement['amortized_ms']:.2f} ms){extra}"
        )
    return "\n".join(lines)


def run_serve_from_args(args) -> int:
    """Execute the placement bench for a parsed argument namespace."""
    report = bench_serve_placements(args.requests)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render_serve_report(report))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.output}")
    if args.check:
        with open(args.check) as handle:
            snapshot = json.load(handle)
        failures = check_serve_snapshot(report, snapshot)
        for failure in failures:
            print(f"SERVE BENCH REGRESSION: {failure}")
        if failures:
            return 1
        print(f"serve bench check against {args.check}: ok")
    return 0


def run_bench(elements: int = 8192, repeats: int = 3) -> dict:
    """The full harness; returns the JSON-able snapshot dict."""
    return {
        "schema": 1,
        "elements": elements,
        "repeats": repeats,
        "ops": bench_ops(elements, repeats),
        "offline": bench_offline(elements),
    }


# ----------------------------------------------------------------------
# snapshot regression check
# ----------------------------------------------------------------------
def check_snapshot(fresh: dict, snapshot: dict) -> list[str]:
    """Compare a fresh run against a committed snapshot.

    Returns a list of human-readable failures (empty = pass). Bytes,
    rounds, per-label bytes and bit-triple material per element are
    deterministic and must match exactly; nothing else is compared.
    """
    if fresh.get("elements") != snapshot.get("elements"):
        # The byte metrics are not comparable across workload sizes —
        # make mismatched use an explicit error instead of a spurious
        # failure.
        return [
            f"element count mismatch: fresh {fresh.get('elements')} vs "
            f"snapshot {snapshot.get('elements')} — rerun with matching "
            "--elements"
        ]
    failures: list[str] = []
    for op, pinned in snapshot["ops"].items():
        for key in ("online_bytes", "rounds", "by_label_bytes"):
            ours = fresh["ops"][op][key]
            if ours != pinned[key]:
                failures.append(
                    f"{op} {key} drifted: {ours} vs snapshot {pinned[key]}"
                )
    ours = fresh["offline"]["bit_triple_bytes_per_element"]
    theirs = snapshot["offline"]["bit_triple_bytes_per_element"]
    if ours != theirs:
        failures.append(
            "offline bit-triple bytes/element drifted: "
            f"{ours} vs snapshot {theirs}"
        )
    return failures


# ----------------------------------------------------------------------
# rendering / CLI
# ----------------------------------------------------------------------
def render_report(report: dict) -> str:
    lines = ["protocol bench"]
    for name, op in report["ops"].items():
        per_round = op.get(
            "online_ns_per_round", op["online_s"] * 1e9 / max(1, op["rounds"])
        )
        lines.append(
            f"  {name:<8} {op['elements']:>7d} elems  "
            f"{op['online_s'] * 1e3:8.2f} ms online  "
            f"{op['online_bytes'] / 1e3:10.1f} KB  {op['rounds']:3d} rounds  "
            f"{per_round / 1e3:8.1f} us/round"
        )
    offline = report["offline"]
    lines.append(
        f"  offline  bit-triples {offline['bit_triple_bytes_per_element']:.1f} "
        f"B/elem, bundle {offline['bundle_bytes_per_element']:.1f} B/elem"
    )
    return "\n".join(lines)


def run_from_args(args) -> int:
    """Execute the bench for a parsed argument namespace."""
    report = run_bench(args.elements, args.repeats)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render_report(report))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.output}")
    if args.check:
        with open(args.check) as handle:
            snapshot = json.load(handle)
        failures = check_snapshot(report, snapshot)
        for failure in failures:
            print(f"BENCH REGRESSION: {failure}")
        if failures:
            return 1
        print(f"bench check against {args.check}: ok")
    return 0
