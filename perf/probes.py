"""Micro-probes: one layer's public functions, timed alone.

Each probe returns ``{metric name: value}``. They run in the traced run
only; no end-to-end number depends on them. A probe takes the median of a
few repeats, after one untimed call where first-touch cost would show.
"""

from __future__ import annotations

import json
import statistics
import tempfile
import time

import numpy as np

from repro import nn
from repro.bench.protocols import bench_ops, material_nbytes
from repro.mpc.engine import SecureInferenceEngine
from repro.mpc.party import program_fingerprint, program_manifest
from repro.mpc.pool_store import PoolStore
from repro.mpc.preprocessing import (
    PreprocessingPool,
    ReplayDealer,
    fuse_bundles,
    material_plan,
    pack_party_bundle,
    split_bundle,
    unpack_party_bundle,
)
from repro.mpc.program import compile_program
from repro.mpc.shm import ShmChannel
from repro.mpc.transport import PeerChannel
from repro.serve.dealer_service import DealerClient, DealerServer, stream_key

from . import common


def _median_ms(fn, repeats: int, warm: bool = True) -> float:
    if warm:
        fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def probe_models(rng) -> tuple[dict, object]:
    build_ms = _median_ms(common.build_victim, 5)
    victim = common.build_victim()
    with nn.no_grad():
        hidden = [
            victim.forward_to(
                nn.Tensor(rng.random((1, 3, 32, 32), dtype=np.float32)),
                common.BOUNDARY,
            ).data
            for _ in range(8)
        ]

        def tail_rows():
            for row in hidden:
                victim.forward_from(nn.Tensor(row), common.BOUNDARY)

        tail_ms = _median_ms(
            lambda: victim.forward_from(nn.Tensor(hidden[0]), common.BOUNDARY), 20
        )
        rows_ms = _median_ms(tail_rows, 10)
    return {
        "models.build_ms": build_ms,
        "models.clear_tail_ms": tail_ms,
        "models.clear_tail_row_ms_b8": rows_ms / len(hidden),
    }, victim


def probe_program(victim) -> tuple[dict, object]:
    compile_ms = _median_ms(lambda: compile_program(victim, common.BOUNDARY), 5)
    program = compile_program(victim, common.BOUNDARY)
    return {
        "mpc.program.compile_ms": compile_ms,
        "mpc.program.manifest_bytes": len(json.dumps(program_manifest(program))),
    }, program


def probe_preprocessing(program) -> tuple[dict, list]:
    """Returns the metrics and the 8 batch-1 bundles it generated."""
    pool = PreprocessingPool(program, 1, dealer_seed=common.PROTOCOL_SEED)
    start = time.perf_counter()
    pool.refill(8)
    refill_ms = (time.perf_counter() - start) * 1e3 / 8
    bundles = [pool.acquire_bundle() for _ in range(8)]
    blob = pack_party_bundle(split_bundle(bundles[0], 0))
    plan = material_plan(program, 8)
    return {
        "mpc.preprocessing.refill_ms_per_bundle": refill_ms,
        "mpc.preprocessing.bundle_items": len(bundles[0]),
        "mpc.preprocessing.bundle_bytes": sum(
            material_nbytes(material) for _, material in bundles[0]
        ),
        "mpc.preprocessing.split_pack_ms": _median_ms(
            lambda: pack_party_bundle(split_bundle(bundles[0], 0)), 5
        ),
        "mpc.preprocessing.unpack_ms": _median_ms(
            lambda: unpack_party_bundle(blob), 5
        ),
        "mpc.preprocessing.fuse_ms_b8": _median_ms(
            lambda: fuse_bundles(bundles, plan), 5
        ),
    }, bundles


def probe_protocols() -> dict:
    ops = bench_ops()
    out = {
        f"mpc.protocols.{name}_us_per_elem": ops[name]["online_us_per_element"]
        for name in ("drelu", "relu", "maxpool", "linear")
    }
    out["mpc.protocols.drelu_rounds"] = ops["drelu"]["rounds"]
    out["mpc.protocols.relu_rounds"] = ops["relu"]["rounds"]
    out["mpc.protocols.relu_bytes_per_elem"] = (
        ops["relu"]["online_bytes"] / ops["relu"]["elements"]
    )
    return out


def probe_engine(program, bundles, rng) -> dict:
    """The joint crypto segment alone, on replayed material."""
    engine = SecureInferenceEngine.from_program(
        program, dealer_seed=common.PROTOCOL_SEED, share_seed=common.PROTOCOL_SEED + 1
    )
    out = {}
    fused = fuse_bundles(bundles, material_plan(program, 8))
    for batch, replay in ((1, lambda: bundles[0]), (8, lambda: fused)):
        images = rng.random((batch, 3, 32, 32), dtype=np.float32)
        # A bundle is plain arrays, read-only online: replaying one is
        # the same work as consuming a fresh one.
        out[f"mpc.engine.run_ms_b{batch}"] = _median_ms(
            lambda: engine.run(images, material=ReplayDealer(replay())), 5
        )
    return out


def _ping(port: int, size: int, count: int, shm: bool) -> float:
    """Median microseconds per ``swap`` round against the echo child."""
    carrier = PeerChannel.connect("127.0.0.1", port, timeout=common.REQUEST_TIMEOUT_S)
    link = carrier
    try:
        carrier.send_obj({"size": size, "count": count, "shm": shm}, "order")
        if shm:
            link = ShmChannel.connect(carrier.recv_obj("grant"), carrier=carrier)
        payload = bytes(size)
        times = []
        for _ in range(count):
            start = time.perf_counter()
            link.swap(payload, "ping")
            times.append(time.perf_counter() - start)
    finally:
        link.close()
    return statistics.median(times[count // 10 :]) * 1e6


def probe_links() -> dict:
    """``swap`` ping-pong between two processes on one core: the smallest frame
    and the ~64 KiB an ``and-open`` round moves."""
    proc = common.spawn("party_server.py", "--echo")
    try:
        port = json.loads(proc.stdout.readline())["port"]
        out = {}
        for prefix, shm in (("mpc.transport.socket_rtt_us", False), ("mpc.shm.rtt_us", True)):
            out[f"{prefix}_64B"] = _ping(port, 64, 400, shm)
            out[f"{prefix}_64KiB"] = _ping(port, 65536, 200, shm)
        stop = PeerChannel.connect("127.0.0.1", port, timeout=common.REQUEST_TIMEOUT_S)
        try:
            stop.send_obj({"stop": True}, "order")
        finally:
            stop.close()
    finally:
        common.reap(proc)
    return out


def probe_dealer(program) -> dict:
    """A cold fetch (the dealer generates), the same fetch again (served
    from the store), and the store's own put/get on that record."""
    with tempfile.TemporaryDirectory(dir=common.ROOT / "perf" / "out") as root:
        with PoolStore(f"{root}/dealer") as store:
            server = DealerServer(program, store=store)
            server.start()
            client = DealerClient(
                "127.0.0.1", server.port, fingerprint=program_fingerprint(program)
            )
            try:
                start = time.perf_counter()
                record = client.fetch(1, common.PROTOCOL_SEED, 0)
                cold_ms = (time.perf_counter() - start) * 1e3
                stored_ms = _median_ms(
                    lambda: client.fetch(1, common.PROTOCOL_SEED, 0), 5, warm=False
                )
            finally:
                client.close()
                server.stop()
        key = stream_key("probe", 1, 0)
        with PoolStore(f"{root}/store") as store:
            seq = iter(range(1000))
            put_ms = _median_ms(lambda: store.put(key, next(seq), record), 5)
            get_ms = _median_ms(lambda: store.get(key, 0), 5)
    return {
        "serve.dealer_service.fetch_cold_ms": cold_ms,
        "serve.dealer_service.fetch_stored_ms": stored_ms,
        "mpc.pool_store.put_ms": put_ms,
        "mpc.pool_store.get_ms": get_ms,
        "mpc.pool_store.record_bytes": len(record),
    }


def run_all(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    out, victim = probe_models(rng)
    metrics, program = probe_program(victim)
    out.update(metrics)
    metrics, bundles = probe_preprocessing(program)
    out.update(metrics)
    out.update(probe_protocols())
    out.update(probe_engine(program, bundles, rng))
    out.update(probe_links())
    out.update(probe_dealer(program))
    return out
