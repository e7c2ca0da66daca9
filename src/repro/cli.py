"""Command-line interface for the C2PI reproduction.

Installed as ``c2pi`` (see setup.py); every experiment building block —
victims, attacks, boundary search, cost models and the secure engine with
any protocol suite — is reachable without writing Python:

.. code-block:: bash

    c2pi info
    c2pi train --arch vgg16 --dataset cifar10
    c2pi attack --arch vgg16 --dataset cifar10 --attack dina --layer 5
    c2pi boundary --arch vgg16 --dataset cifar10 --sigma 0.3
    c2pi costs --arch vgg16 --boundary 9
    c2pi secure-infer --suite cheetah --boundary 2.5
    c2pi serve-bench --check benchmarks/BENCH_serve.json # placement gate
    c2pi bench --json --output benchmarks/BENCH_protocols.json
    c2pi bench --check benchmarks/BENCH_protocols.json   # exact-count gate
    c2pi serve --listen 127.0.0.1:9123 --workers 4       # party 1 (server)
    c2pi client --connect 127.0.0.1:9123 --session alice # party 0 (client)
    c2pi chaos-check                                     # fault-recovery audit
    c2pi loadgen --sessions 64 --rate 50 --soak          # sustained-load harness
    c2pi audit --check                                   # static invariant gate

``serve``/``client`` run the two-process deployment: the compiled secure
program executes between two real processes over a TCP socket, with
offline preprocessing bundles shipped ahead of the online phase. The
server serves up to ``--workers`` client sessions concurrently (each
session's dealer seed is derived from its ``--session`` key, so its
results do not depend on other clients' interleaving) and replies
``busy`` beyond ``--max-sessions``. All commands respect the
``C2PI_SCALE`` environment variable (smoke / small / paper budgets).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def _add_report_arguments(parser: argparse.ArgumentParser) -> None:
    """What ``bench``, ``serve-bench`` and ``loadgen`` do with their report."""
    parser.add_argument("--json", action="store_true", help="print JSON to stdout")
    parser.add_argument("--output", default=None, help="write the JSON here")
    parser.add_argument(
        "--check",
        default=None,
        metavar="SNAPSHOT",
        help="compare every exact count against a committed snapshot; exit 1 "
        "on drift (times are printed, never compared)",
    )


def _add_loadgen_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sessions", type=int, default=8)
    parser.add_argument(
        "--rate", type=float, default=50.0, help="offered arrival rate, req/s"
    )
    parser.add_argument("--dist", default="poisson", choices=("poisson", "fixed"))
    parser.add_argument(
        "--requests", type=int, default=128, help="total open-loop arrivals"
    )
    parser.add_argument("--slo-ms", type=float, default=500.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers", type=int, default=4, help="server worker pool size"
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=3,
        help="per-request fault recovery budget (idempotent replay)",
    )
    parser.add_argument(
        "--soak",
        action="store_true",
        help="layer seeded random corrupt/partial chaos faults on a subset "
        "of sessions while keeping the byte-identity bar",
    )
    parser.add_argument(
        "--soak-rate",
        type=float,
        default=0.01,
        help="per-frame fault probability on chaos sessions",
    )
    parser.add_argument(
        "--skip-serial",
        action="store_true",
        help="skip the serial byte-identity replay (faster, weaker)",
    )
    parser.add_argument(
        "--histogram",
        default=None,
        help="write the latency-histogram JSON here (the CI artifact)",
    )
    _add_report_arguments(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="c2pi",
        description="C2PI (DAC 2023) reproduction: victims, attacks, "
        "boundary search and PI cost models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="library version and scale profiles")

    train = sub.add_parser("train", help="train (or load) a cached victim")
    _add_victim_args(train)

    attack = sub.add_parser("attack", help="run one IDPA against one layer")
    _add_victim_args(attack)
    attack.add_argument(
        "--attack", default="dina", choices=("mla", "ina", "eina", "dina")
    )
    attack.add_argument("--layer", type=float, required=True)
    attack.add_argument("--noise", type=float, default=0.0, help="lambda at evaluation")

    boundary = sub.add_parser("boundary", help="Algorithm 1 boundary search")
    _add_victim_args(boundary)
    boundary.add_argument("--sigma", type=float, default=0.3, help="SSIM threshold")
    boundary.add_argument("--noise", type=float, default=0.1, help="lambda")

    costs = sub.add_parser("costs", help="Delphi/Cheetah cost rows (Table II)")
    costs.add_argument("--arch", default="vgg16", choices=("alexnet", "vgg16", "vgg19"))
    costs.add_argument(
        "--boundary",
        type=float,
        action="append",
        help="boundary layer id (repeatable); full PI is always included",
    )

    secure = sub.add_parser(
        "secure-infer",
        help="run one secure inference through a protocol suite",
    )
    secure.add_argument(
        "--suite",
        default="dealer",
        choices=("dealer", "delphi", "cheetah"),
        help="dealer = fast default; delphi/cheetah = the real primitive "
        "stacks (Paillier+GC / RLWE+OT) at demonstration scale",
    )
    secure.add_argument("--boundary", type=float, default=2.5)

    bench = sub.add_parser(
        "serve-bench",
        help="placement conformance run: one seeded resnet20 request stream "
        "served in-process, over a loopback socket and over shared memory, "
        "logits byte-identical everywhere (BENCH_serve.json)",
    )
    bench.add_argument("--requests", type=int, default=8)
    _add_report_arguments(bench)

    proto_bench = sub.add_parser(
        "bench",
        help="protocol micro-benchmarks: per-op online latency/bytes "
        "(DReLU, ReLU, maxpool, linear) and offline material footprint "
        "(BENCH_protocols.json)",
    )
    proto_bench.add_argument("--elements", type=int, default=8192)
    proto_bench.add_argument("--repeats", type=int, default=3)
    _add_report_arguments(proto_bench)

    serve = sub.add_parser(
        "serve",
        help="listen for a remote C2PI client: party 1 of the two-process "
        "deployment (weights and clear layers stay here)",
    )
    _add_victim_args(serve, default_arch="resnet20")
    serve.add_argument(
        "--listen", default="127.0.0.1:0", help="host:port (port 0 = ephemeral)"
    )
    serve.add_argument("--boundary", type=float, default=None)
    serve.add_argument("--seed", type=int, default=0, help="dealer seed")
    serve.add_argument("--once", action="store_true", help="serve one connection")
    serve.add_argument(
        "--warm", type=int, default=0, help="offline bundles to pre-generate"
    )
    serve.add_argument(
        "--warm-batch", type=int, default=1, help="batch size of --warm bundles"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=4,
        help="concurrent session workers (one session per connection)",
    )
    serve.add_argument(
        "--max-sessions",
        type=int,
        default=None,
        help="admission bound; extra clients get an explicit busy reply "
        "(default: --workers)",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=120.0,
        help="read/write deadline (s) for every per-session socket op; a "
        "stalled or vanished client is reaped after this long and its "
        "unconsumed offline material returned to the pool",
    )
    serve.add_argument(
        "--no-shm",
        action="store_true",
        help="never grant shared-memory placement (co-located clients "
        "asking for it fall back to the socket path)",
    )
    serve.add_argument(
        "--untrained-width",
        type=float,
        default=None,
        help="serve a deterministic untrained victim of this width instead of "
        "the trained cache (demo and two-process tests)",
    )
    serve.add_argument("--model-seed", type=int, default=0)
    serve.add_argument(
        "--dealer",
        default=None,
        metavar="HOST:PORT",
        help="fetch offline bundles from a standalone crypto-producer "
        "(`c2pi dealer`) instead of generating in-process",
    )
    serve.add_argument(
        "--dealer-timeout",
        type=float,
        default=5.0,
        help="per-RPC timeout (s) on dealer fetches; a fetch retries "
        "through faults for 4x this before falling back",
    )
    serve.add_argument(
        "--no-dealer-fallback",
        action="store_true",
        help="never generate inline when the dealer is unavailable; "
        "affected requests get a typed retriable busy reply instead",
    )

    dealer = sub.add_parser(
        "dealer",
        help="run the standalone crypto-producer: serves preprocessing "
        "bundles to c2pi servers over the framed transport, spilling "
        "every bundle to a disk-backed store so a killed dealer "
        "restarts where it left off",
    )
    dealer.add_argument(
        "--listen", default="127.0.0.1:0", help="host:port (port 0 = ephemeral)"
    )
    dealer.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="PoolStore directory (omit for in-memory retention only)",
    )
    dealer.add_argument(
        "--arch",
        default="resnet20",
        choices=("alexnet", "vgg16", "vgg19", "resnet20"),
        help="untrained victim architecture (must match the server's)",
    )
    dealer.add_argument(
        "--untrained-width",
        type=float,
        default=0.25,
        help="width multiplier of the untrained victim",
    )
    dealer.add_argument("--model-seed", type=int, default=0)
    dealer.add_argument(
        "--boundary",
        type=float,
        default=None,
        help="crypto/clear boundary (default matches `serve`: 3.5 for "
        "resnet20, 2.5 otherwise)",
    )
    dealer.add_argument(
        "--generation-slots",
        type=int,
        default=2,
        help="admission limit: concurrent bundle generations; requests "
        "beyond it get a retriable busy reply",
    )

    client = sub.add_parser(
        "client",
        help="connect to a c2pi server: party 0 of the two-process "
        "deployment (the model never leaves the server)",
    )
    client.add_argument("--connect", required=True, help="host:port of the server")
    client.add_argument("--requests", type=int, default=4)
    client.add_argument("--batch", type=int, default=2, help="images per request")
    client.add_argument("--noise", type=float, default=0.1, help="lambda")
    client.add_argument("--seed", type=int, default=0)
    client.add_argument(
        "--session",
        default=None,
        help="session key: the server derives this session's dealer seed "
        "from it, making the run reproducible regardless of other clients",
    )
    client.add_argument(
        "--network",
        default="none",
        choices=("none", "lan", "wan"),
        help="tc-free link shaping (token-bucket bandwidth + injected RTT)",
    )
    client.add_argument(
        "--retries",
        type=int,
        default=0,
        help="per-request fault recovery: reconnect and replay a faulted "
        "request under its idempotency key this many times",
    )
    client.add_argument(
        "--shm",
        action="store_true",
        help="request shared-memory placement (co-located server only; "
        "incompatible with --network shaping)",
    )

    chaos = sub.add_parser(
        "chaos-check",
        help="deterministic chaos self-check: scripted network faults "
        "(drop/corrupt/partial/stall) against a live server, verifying "
        "recovery, byte-identical retried logits and pool balance",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--request-timeout",
        type=float,
        default=0.5,
        help="server-side per-op deadline during the check (small = fast)",
    )

    loadgen = sub.add_parser(
        "loadgen",
        help="open-loop sustained-load harness: Poisson/fixed arrivals from "
        "N concurrent sessions against a live server, latency percentiles, "
        "SLO accounting, serial byte-identity replay and an optional "
        "--soak chaos layer (DESIGN.md §14)",
    )
    _add_loadgen_arguments(loadgen)

    audit = sub.add_parser(
        "audit",
        help="static invariant audit: secret-flow, lock discipline, "
        "determinism, wire-label accounting and export drift over the "
        "repo's own AST (DESIGN.md §11)",
    )
    audit.add_argument(
        "--root",
        default=None,
        help="source tree to audit (default: the installed repro package)",
    )
    audit.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )
    audit.add_argument("--output", default=None, help="write the JSON report here")
    audit.add_argument(
        "--check",
        action="store_true",
        help="gate mode: exit 1 on any finding not covered by the baseline "
        "(and on stale baseline entries)",
    )
    audit.add_argument(
        "--baseline",
        default=None,
        help="baseline file for --check (default: AUDIT_BASELINE.json at "
        "the repo root; ignored if the file does not exist)",
    )
    audit.add_argument(
        "--diff",
        default=None,
        metavar="REF",
        help="restrict findings to files changed vs this git ref "
        "(pre-commit mode: stale-baseline entries do not gate)",
    )
    audit.add_argument(
        "--schedule",
        default=None,
        metavar="FILE",
        help="also write the statically extracted protocol round-schedule "
        "table (per-primitive traces, per-label opening counts, dealer RPC "
        "label sets) as JSON",
    )
    return parser


def _add_victim_args(parser: argparse.ArgumentParser, default_arch: str = "vgg16") -> None:
    parser.add_argument(
        "--arch",
        default=default_arch,
        choices=("alexnet", "vgg16", "vgg19", "resnet20"),
    )
    parser.add_argument("--dataset", default="cifar10", choices=("cifar10", "cifar100"))


# ----------------------------------------------------------------------
# command implementations
# ----------------------------------------------------------------------
def _cmd_info(_args) -> int:
    import repro
    from .bench import PROFILES, current_scale

    print(f"c2pi reproduction, version {repro.__version__}")
    active = current_scale()
    print(f"active scale profile: {active.name} (set C2PI_SCALE to change)")
    for profile in PROFILES.values():
        marker = "*" if profile.name == active.name else " "
        print(
            f" {marker} {profile.name:<6} width={profile.width_mult} "
            f"train={profile.train_size} attack_epochs={profile.attack_epochs} "
            f"mla_iters={profile.mla_iterations}"
        )
    return 0


def _cmd_train(args) -> int:
    from .bench import get_victim

    model, dataset, accuracy = get_victim(args.arch, args.dataset)
    print(f"{model.name} on {dataset.name}: test accuracy {accuracy:.2%}")
    print(f"layers: {model.num_linear_layers} linear ({len(model.conv_ids)} conv)")
    return 0


def _cmd_attack(args) -> int:
    from .bench import current_scale, get_victim, make_attack_factory

    scale = current_scale()
    model, dataset, _ = get_victim(args.arch, args.dataset)
    factory = make_attack_factory(args.attack, scale)
    attack = factory(model, args.layer)
    attack.prepare(dataset.train_images[: scale.attacker_images])
    result = attack.evaluate(
        dataset.test_images[: scale.eval_images],
        noise_magnitude=args.noise,
        rng=np.random.default_rng(0),
    )
    verdict = "SUCCEEDS" if result.succeeded(0.3) else "fails"
    print(
        f"{args.attack} at layer {args.layer} (lambda={args.noise}): "
        f"avg SSIM {result.avg_ssim:.4f} -> attack {verdict} (threshold 0.3)"
    )
    return 0


def _cmd_boundary(args) -> int:
    from .bench import current_scale, get_victim, run_boundary_analysis

    scale = current_scale()
    model, dataset, accuracy = get_victim(args.arch, args.dataset)
    analysis = run_boundary_analysis(
        model,
        dataset,
        scale,
        baseline_accuracy=accuracy,
        sigmas=(args.sigma,),
        noise_magnitude=args.noise,
    )
    print(f"DINA sweep ({model.name} / {dataset.name}):")
    for layer, ssim in zip(analysis.layer_ids, analysis.dina_ssim):
        print(f"  conv {layer:>5}: avg SSIM {ssim:.4f}")
    boundary = analysis.boundaries[args.sigma]
    print(
        f"boundary(sigma={args.sigma}) = {boundary}  "
        f"[accuracy {analysis.boundary_accuracy[args.sigma]:.2%} "
        f"vs baseline {analysis.baseline_accuracy:.2%}]"
    )
    return 0


def _cmd_costs(args) -> int:
    from .bench import render_table, run_cost_comparison
    from .models import alexnet, vgg16, vgg19
    from .mpc.costs import cheetah_costs, cryptflow2_costs, delphi_costs

    makers = {"alexnet": alexnet, "vgg16": vgg16, "vgg19": vgg19}
    model = makers[args.arch](width_mult=1.0, rng=np.random.default_rng(0))
    boundaries = {f"b={b}": b for b in (args.boundary or [])}
    rows = run_cost_comparison(
        model, boundaries,
        backends=(delphi_costs(), cryptflow2_costs(), cheetah_costs()),
    )
    table = [
        [r.backend, r.setting, r.boundary, r.lan_s, r.wan_s, r.comm_mb] for r in rows
    ]
    print(render_table(["backend", "setting", "boundary", "LAN s", "WAN s", "MB"], table))
    return 0


def _cmd_secure_infer(args) -> int:
    from . import nn
    from .models.layered import LayeredModel
    from .mpc import SecureInferenceEngine
    from .mpc.backends.cheetah import CheetahSuite
    from .mpc.backends.delphi import DelphiSuite

    rng = np.random.default_rng(0)
    body = [
        nn.Conv2d(2, 3, 3, padding=1), nn.ReLU(),
        nn.MaxPool2d(2, 2),
        nn.Conv2d(3, 4, 3, padding=1), nn.ReLU(),
    ]
    model = LayeredModel(body, "demo-convnet", (2, 8, 8))
    for parameter in model.parameters():
        parameter.data = rng.normal(0, 0.3, parameter.data.shape).astype(np.float32)
    model.eval()

    suites = {
        "dealer": lambda: None,
        "delphi": lambda: DelphiSuite(np.random.default_rng(1), key_bits=256),
        "cheetah": lambda: CheetahSuite(np.random.default_rng(2), ring_dim=256),
    }
    image = np.random.default_rng(3).normal(0, 0.5, (1, 2, 8, 8)).astype(np.float32)
    with nn.no_grad():
        reference = model.forward_to(nn.Tensor(image), args.boundary).data
    engine = SecureInferenceEngine(model, args.boundary, suite=suites[args.suite]())
    result = engine.run(image)
    error = float(np.abs(result.reconstruct() - reference).max())
    print(f"suite={args.suite}  boundary={args.boundary}")
    print(f"  traffic : {result.total_bytes / 1e6:.3f} MB in {result.rounds} rounds")
    print(f"  max err : {error:.5f} vs plaintext")
    for tally in result.tallies:
        print(f"    {tally.kind:<8} {tally.name:<16} "
              f"{tally.traffic.total_bytes / 1e3:10.1f} KB  "
              f"{tally.traffic.rounds:4d} rounds  {tally.compute_s * 1e3:8.1f} ms")
    return 0


def _parse_endpoint(spec: str) -> tuple[str, int]:
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise SystemExit(f"c2pi: invalid endpoint {spec!r} (expected host:port)")
    return host or "127.0.0.1", int(port)


def _cmd_serve_bench(args) -> int:
    from .bench.protocols import run_serve_from_args

    return run_serve_from_args(args)


def _cmd_bench(args) -> int:
    from .bench.protocols import run_from_args

    return run_from_args(args)


def _cmd_serve(args) -> int:
    from .serve.remote import RemoteServer, _demo_victim

    if args.untrained_width is not None:
        model = _demo_victim(args.arch, args.untrained_width, args.model_seed)
    else:
        from .bench import get_victim

        model, _, _ = get_victim(args.arch, args.dataset)
    boundary = args.boundary
    if boundary is None:
        boundary = 3.5 if args.arch == "resnet20" else 2.5
    host, port = _parse_endpoint(args.listen)
    dealer = _parse_endpoint(args.dealer) if args.dealer else None
    server = RemoteServer(
        model,
        boundary,
        seed=args.seed,
        host=host,
        port=port,
        workers=args.workers,
        max_sessions=args.max_sessions,
        request_timeout=args.request_timeout,
        allow_shm=not args.no_shm,
        dealer=dealer,
        dealer_timeout=args.dealer_timeout,
        dealer_fallback=not args.no_dealer_fallback,
    )
    if args.warm:
        server.warm(args.warm_batch, args.warm)
    print(
        f"c2pi server: {model.name} boundary={boundary} "
        f"listening on {server.host}:{server.port} "
        f"({server.workers} workers, max {server.max_sessions} sessions)",
        flush=True,
    )
    try:
        server.serve_forever(once=args.once)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.stop()
    print(
        f"served {server.requests_served} requests over "
        f"{server.connections_served} connection(s) "
        f"({server.connections_rejected} rejected busy, "
        f"{server.connections_failed} failed)"
    )
    return 0


def _cmd_dealer(args) -> int:
    from .serve.dealer_service import main as dealer_main

    boundary = args.boundary
    if boundary is None:
        boundary = 3.5 if args.arch == "resnet20" else 2.5
    dealer_args = [
        "--listen", args.listen,
        "--arch", args.arch,
        "--untrained-width", str(args.untrained_width),
        "--model-seed", str(args.model_seed),
        "--boundary", str(boundary),
        "--generation-slots", str(args.generation_slots),
    ]
    if args.store:
        dealer_args += ["--store", args.store]
    return dealer_main(dealer_args)


def _cmd_client(args) -> int:
    import time

    from .mpc import LAN, WAN
    from .serve.remote import RemoteClient

    host, port = _parse_endpoint(args.connect)
    network = {"none": None, "lan": LAN, "wan": WAN}[args.network]
    client = RemoteClient(
        host,
        port,
        noise_magnitude=args.noise,
        seed=args.seed,
        network=network,
        session=args.session,
        shm=args.shm,
    )
    print(
        f"connected to {host}:{port}: model {client.server_model} "
        f"boundary={client.boundary} input={client.input_shape}"
        + (f" shaped as {args.network.upper()}" if network else "")
        + (f" session={args.session}" if args.session is not None else "")
        + (
            f" placement={'shared-memory' if client.shm_active else 'socket'}"
            if args.shm
            else ""
        )
    )
    rng = np.random.default_rng(args.seed)
    served = 0
    total_s = 0.0
    total_bytes = 0
    matches = True
    while served < args.requests:
        batch = min(args.batch, args.requests - served)
        images = rng.random((batch, *client.input_shape), dtype=np.float32)
        start = time.perf_counter()
        reply = client.infer(images, retries=args.retries)
        off_online_ms = (time.perf_counter() - start - reply.online_s) * 1e3
        served += batch
        total_s += reply.online_s
        total_bytes += reply.traffic.total_bytes
        matches = matches and reply.bytes_match
        predictions = ", ".join(str(int(p)) for p in reply.prediction)
        print(
            f"  batch of {batch}: predictions [{predictions}]  "
            f"{reply.online_s * 1e3:8.1f} ms online  "
            f"{reply.traffic.total_bytes / 1e6:6.2f} MB "
            f"in {reply.traffic.rounds} rounds  "
            f"(+{reply.offline_bytes:,} B offline bundle "
            f"{'shipped ahead' if reply.prefetched else 'in-band'}; "
            f"request - online {off_online_ms:.1f} ms)"
        )
    client.close()
    print(
        f"served {served} requests: {total_s:.3f} s online, "
        f"{total_bytes / 1e6:.2f} MB protocol traffic "
        f"(socket payload matches accounting: {matches})"
    )
    return 0


def _cmd_chaos_check(args) -> int:
    from .serve.chaos_check import run_chaos_check

    return 1 if run_chaos_check(args.seed, args.request_timeout) else 0


def _cmd_loadgen(args) -> int:
    from .serve.loadgen import run_from_args

    return run_from_args(args)


def _git_changed_files(repo_root, ref: str) -> list[str] | None:
    """Repo-relative paths changed vs ``ref``, plus untracked files.

    ``git diff`` alone misses brand-new files that have not been staged
    yet — exactly the files a pre-commit gate most wants to see.
    """
    import subprocess

    changed: list[str] = []
    for argv in (
        ["diff", "--name-only", ref],
        ["ls-files", "--others", "--exclude-standard"],
    ):
        try:
            completed = subprocess.run(
                ["git", "-C", str(repo_root), *argv],
                capture_output=True,
                text=True,
                timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        if completed.returncode != 0:
            return None
        changed.extend(line for line in completed.stdout.splitlines() if line)
    return changed


def _cmd_audit(args) -> int:
    import json
    from pathlib import Path

    from .analysis import default_baseline, default_root, load_baseline, run_audit

    root = Path(args.root) if args.root else None
    report = run_audit(root)

    baseline_path = (
        Path(args.baseline) if args.baseline else default_baseline(report.root)
    )
    baseline: list[dict] = []
    if baseline_path.exists():
        baseline = load_baseline(baseline_path)
    new, stale = report.apply_baseline(baseline)

    if args.diff is not None:
        changed = _git_changed_files(baseline_path.parent, args.diff)
        if changed is None:
            print(f"c2pi audit: cannot diff against {args.diff!r} (not a git "
                  "checkout, or unknown ref)")
            return 2
        # Findings carry scan-root-relative paths; git reports
        # repo-relative ones. Suffix matching joins the two.
        new = [
            finding
            for finding in new
            if any(path.endswith(finding.path) for path in changed)
        ]
        # Pre-commit mode gates only on the files being touched; a stale
        # baseline entry elsewhere is the full gate's business.
        stale = []

    if args.schedule is not None:
        from .analysis.core import load_modules
        from .analysis.schedule import extract_schedule

        modules = load_modules(Path(root) if root is not None else default_root())
        Path(args.schedule).write_text(
            json.dumps(extract_schedule(modules), indent=2) + "\n"
        )

    if args.json or args.output:
        payload = report.as_dict()
        payload["baseline"] = str(baseline_path)
        payload["baselined"] = len(report.findings) - len(new)
        payload["new"] = [finding.as_dict() for finding in new]
        payload["stale_baseline_entries"] = stale
        text = json.dumps(payload, indent=2)
        if args.output:
            Path(args.output).write_text(text + "\n")
        if args.json:
            print(text)
    if not args.json:
        print(
            f"c2pi audit: {report.modules_scanned} modules, "
            f"{len(report.passes)} passes ({', '.join(report.passes)})"
        )
        if args.diff is not None:
            print(f"c2pi audit: restricted to files changed vs {args.diff}")
        shown = new if args.diff is not None else report.findings
        for finding in shown:
            marker = "  [baselined] " if finding not in new else "  "
            print(f"{marker}{finding.render()}")
        for entry in stale:
            print(
                f"  [stale baseline] {entry['path']} [{entry['rule']}]: "
                "no longer fires — prune the entry"
            )
        verdict = "clean" if not new and not stale else (
            f"{len(new)} new finding(s), {len(stale)} stale baseline entr(y/ies)"
        )
        print(f"c2pi audit: {verdict}")

    if args.check:
        return 1 if new or stale else 0
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "train": _cmd_train,
    "attack": _cmd_attack,
    "boundary": _cmd_boundary,
    "costs": _cmd_costs,
    "secure-infer": _cmd_secure_infer,
    "serve-bench": _cmd_serve_bench,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
    "dealer": _cmd_dealer,
    "client": _cmd_client,
    "chaos-check": _cmd_chaos_check,
    "loadgen": _cmd_loadgen,
    "audit": _cmd_audit,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
