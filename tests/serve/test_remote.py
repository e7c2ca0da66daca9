"""Two-process (and thread-hosted loopback) networked serving.

The fast tests host the :class:`RemoteServer` in a background thread
with a real TCP socket; the ``slow``-marked test spawns an actual second
Python process via ``c2pi serve`` and pins the acceptance invariants:
byte-identical logits to the in-process engine and measured socket bytes
equal to the Channel accounting.
"""

import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import C2PIPipeline
from repro.mpc import LAN
from repro.mpc.fixedpoint import DEFAULT_CONFIG
from repro.serve.chaos_check import TINY_BOUNDARY, tiny_victim
from repro.serve.remote import (
    RemoteClient,
    RemoteServer,
    _demo_victim,
)

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def victim():
    return _demo_victim("resnet20", 0.25, 0)


@pytest.fixture(scope="module")
def image():
    return np.random.default_rng(7).random((1, 3, 32, 32), dtype=np.float32)


@pytest.fixture()
def threaded_server(victim):
    server = RemoteServer(victim, 3.5, seed=5)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.stop()
    thread.join(timeout=10.0)


class TestRemoteServing:
    def test_logits_byte_identical_to_pipeline(self, victim, image, threaded_server):
        pipeline = C2PIPipeline(victim, 3.5, noise_magnitude=0.1, seed=5)
        pipeline.prepare_offline(batch=1, bundles=1)
        reference = pipeline.infer(image)

        client = RemoteClient(
            "127.0.0.1", threaded_server.port, noise_magnitude=0.1, seed=5
        )
        reply = client.infer(image)
        client.close()

        np.testing.assert_array_equal(reply.logits, reference.logits)
        assert reply.traffic.total_bytes == reference.total_bytes
        assert reply.bytes_match
        assert reply.server["traffic"]["total_bytes"] == reference.total_bytes

    def test_multiple_requests_one_connection(self, victim, threaded_server):
        client = RemoteClient(
            "127.0.0.1", threaded_server.port, noise_magnitude=0.0, seed=1
        )
        rng = np.random.default_rng(3)
        replies = [
            client.infer(rng.random((1, 3, 32, 32), dtype=np.float32))
            for _ in range(2)
        ]
        client.close()
        assert all(reply.bytes_match for reply in replies)
        assert all(reply.logits.shape == (1, 10) for reply in replies)
        # The server thread increments its counter just after replying;
        # give it a moment to be scheduled.
        for _ in range(100):
            if threaded_server.requests_served >= 2:
                break
            time.sleep(0.05)
        assert threaded_server.requests_served >= 2

    def test_client_never_receives_weights(self, victim, threaded_server):
        client = RemoteClient("127.0.0.1", threaded_server.port, seed=0)
        manifest_ops = client.manifest["ops"]
        client.close()
        for entry in manifest_ops:
            assert "weight_ring" not in entry
            assert "bias_ring" not in entry

    def test_warm_pool_serves_without_miss(self, victim):
        server = RemoteServer(victim, 3.5, seed=0)
        server.warm(batch=1, bundles=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = RemoteClient("127.0.0.1", server.port, seed=0)
            reply = client.infer(np.zeros((1, 3, 32, 32), np.float32))
            client.close()
            assert reply.server["pool"]["misses"] == 0
        finally:
            server.stop()
            thread.join(timeout=10.0)


class TestWireView:
    """What the server receives of one request: the input share
    ``x1 = enc(x) - x0`` and the first masked input ``h = x0 - mask``, so
    ``x1 + h = enc(x) - mask``. Two requests dealt the same mask would
    subtract to the difference of their inputs, with no key at all — the
    mask of each stream position must reach one input only."""

    @pytest.mark.parametrize("session", ["alice", None], ids=["named", "anonymous"])
    def test_two_batch_sizes_leak_no_input_difference(self, session):
        server = RemoteServer(tiny_victim(0), TINY_BOUNDARY, seed=987654321)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        heard: dict[str, list[np.ndarray]] = {}
        client = RemoteClient(
            "127.0.0.1", server.port, seed=12345, session=session,
            transport_wrapper=lambda transport: _tap(transport, heard),
        )
        a, b, c = np.random.default_rng(5).random((3, 1, 2, 8, 8), np.float32)
        try:
            views = []
            for images in (a, np.concatenate([b, c])):
                heard.clear()
                client.infer(images)
                x1, h = (
                    heard[label][0].reshape(len(images), -1)[0]
                    for label in ("input-share", "linear-masked-input")
                )
                views.append(x1 + h)
        finally:
            client.close()
            server.stop()
            thread.join(timeout=10.0)
        encode = DEFAULT_CONFIG.encode
        error = views[0] - views[1] - (encode(a) - encode(b)).ravel()
        distance = np.minimum(error, np.uint64(0) - error)  # |error| on the ring
        assert distance.size == 128
        assert (distance >= np.uint64(1 << 40)).all()


def _tap(transport, heard):
    """Keep a copy of every message the client hands the server."""
    queue = transport.push_deferred

    def push_deferred(data, label):
        heard.setdefault(label, []).append(np.frombuffer(bytes(data), np.uint64))
        queue(data, label)

    transport.push_deferred = push_deferred
    return transport


class TestRideAhead:
    """The offline half rides one request ahead: on a warmed pool only a
    connection's first request waits for its bundle (DESIGN.md section 8).
    A functional test with margin — one 80 ms round trip is there or it
    is not — on the tiny victim, so compute is noise beside the link."""

    RTT_S = 0.08
    REQUESTS = 4
    BOUNDARY = 1.0  # conv1 only: 3 rounds, so a shaped request is ~0.1 s

    def _stream(self, warm, boundary, **client_kwargs):
        from repro.serve.chaos_check import tiny_victim

        images = np.random.default_rng(11).random(
            (self.REQUESTS, 1, 2, 8, 8), np.float32
        )
        server = RemoteServer(tiny_victim(0), boundary, seed=3)
        server.warm(batch=1, bundles=warm)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = RemoteClient(
                "127.0.0.1", server.port, noise_magnitude=0.1, seed=3,
                **client_kwargs,
            )
            replies, waits = [], []
            for image in images:
                start = time.perf_counter()
                replies.append(client.infer(image))
                waits.append(time.perf_counter() - start - replies[-1].online_s)
            client.close()
            assert server.wait_idle(timeout=10.0)
            return images, replies, waits, server.metrics()
        finally:
            server.stop()
            thread.join(timeout=10.0)

    def test_only_the_first_request_pays_the_bundle_round_trip(self):
        from repro.mpc.network import NetworkModel
        from repro.serve.chaos_check import tiny_victim

        link = NetworkModel("slow", bandwidth_bytes_per_s=100e6, rtt_s=self.RTT_S)
        images, ahead, waits, metrics = self._stream(
            self.REQUESTS, self.BOUNDARY, network=link
        )
        _, in_band, in_band_waits, cold = self._stream(0, self.BOUNDARY, network=link)

        assert [r.prefetched for r in ahead] == [False, True, True, True]
        assert waits[0] >= 0.07  # req -> bundle: one round trip
        assert max(waits[1:]) <= 0.03  # req + online, nothing else
        assert not any(r.prefetched for r in in_band)
        assert min(in_band_waits) >= 0.07

        # Riding ahead moves a frame, never a draw or a byte of it.
        pipeline = C2PIPipeline(
            tiny_victim(0), self.BOUNDARY, noise_magnitude=0.1, seed=3
        )
        for image, reply, reference in zip(images, ahead, in_band):
            assert reply.logits.tobytes() == reference.logits.tobytes()
            assert reply.logits.tobytes() == pipeline.infer(image).logits.tobytes()
            assert reply.bytes_match
            assert reply.traffic == reference.traffic
            assert reply.offline_bytes == reference.offline_bytes > 0
            # What the server spent preparing the bundle this request ran
            # from, whenever it was shipped.
            assert reply.server["offline_s"] > 0
        assert metrics["bundles_promised"] == metrics["promises_claimed"] == 3
        assert cold["bundles_promised"] == 0
        # A promise comes out of the pool: nothing extra drawn or held.
        (warm_pool,), (cold_pool,) = metrics["pools"].values(), cold["pools"].values()
        for key in ("generated", "consumed", "returned", "poisoned"):
            assert warm_pool[f"bundles_{key}"] == cold_pool[f"bundles_{key}"]
        assert warm_pool["misses"] == 0 and cold_pool["misses"] == self.REQUESTS

    @pytest.mark.parametrize("shm", (False, True), ids=("socket", "shared-memory"))
    def test_every_carrier_rides_ahead(self, shm):
        from repro.serve.chaos_check import TINY_BOUNDARY

        _, replies, _, metrics = self._stream(self.REQUESTS, TINY_BOUNDARY, shm=shm)
        _, in_band, _, _ = self._stream(0, TINY_BOUNDARY, shm=shm)
        assert [r.prefetched for r in replies] == [False, True, True, True]
        assert [r.logits.tobytes() for r in replies] == [
            r.logits.tobytes() for r in in_band
        ]
        assert all(r.bytes_match for r in replies)
        assert metrics["promises_claimed"] == 3
        assert metrics["inflight_bundles"] == 0


class TestClientErrorPaths:
    """Client-side failure handling: typed exceptions, never hangs.

    These paths existed (busy replies, dead servers, torn handshakes)
    but only the busy reply had coverage; the rest could regress into
    an unbounded recv without any test noticing.
    """

    def test_truncated_length_prefix_raises_not_hangs(self):
        """A server that dies mid-frame (announced length never arrives)
        must surface a typed TransportError within the deadline."""
        import socket
        import zlib

        from repro.mpc.transport import _HEADER, _MAGIC, _VERSION, FRAME_JSON
        from repro.mpc.transport import TransportError

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        state = {}

        def fake_server():
            sock, _ = listener.accept()
            sock.recv(4096)  # swallow the link message
            payload = b'{"truncated": tru'  # 1000 bytes promised, 17 sent
            header = _HEADER.pack(
                _MAGIC, _VERSION, FRAME_JSON, 5, 1000, time.time(),
                zlib.crc32(payload),
            )
            sock.sendall(header + b"hello" + payload)
            sock.close()
            state["done"] = True

        thread = threading.Thread(target=fake_server, daemon=True)
        thread.start()
        start = time.perf_counter()
        with pytest.raises(TransportError, match="torn mid-frame|closed"):
            RemoteClient("127.0.0.1", port, timeout=2.0)
        assert time.perf_counter() - start < 10.0
        thread.join(timeout=5.0)
        assert state.get("done")
        listener.close()

    def test_server_closing_mid_handshake_raises(self):
        """An accept-then-slam server yields a typed error, not a hang."""
        import socket

        from repro.mpc.transport import TransportError

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def slammer():
            sock, _ = listener.accept()
            sock.close()

        thread = threading.Thread(target=slammer, daemon=True)
        thread.start()
        with pytest.raises(TransportError, match="closed|torn"):
            RemoteClient("127.0.0.1", port, timeout=2.0)
        thread.join(timeout=5.0)
        listener.close()

    def test_busy_backoff_rides_out_a_full_server(self, victim):
        """connect_retries + the busy backoff let a client wait for a
        slot instead of failing on the first ServerBusy."""
        from repro.serve.remote import ServerBusy

        server = RemoteServer(victim, 3.5, seed=0, workers=1, max_sessions=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            holder = RemoteClient("127.0.0.1", server.port, seed=0, session=0)
            # Default behaviour pins the typed exception, immediately.
            with pytest.raises(ServerBusy, match="capacity"):
                RemoteClient("127.0.0.1", server.port, seed=1, session=1)
            # A patient client started while the server is full succeeds
            # once the holder leaves.
            result = {}

            def patient():
                client = RemoteClient(
                    "127.0.0.1", server.port, seed=2, session=2,
                    wait_for_slot=True,
                )
                result["ok"] = True
                client.close()

            waiter = threading.Thread(target=patient, daemon=True)
            waiter.start()
            holder.close()
            waiter.join(timeout=15.0)
            assert result.get("ok")
        finally:
            server.stop()
            thread.join(timeout=10.0)


class TestMeasuredVsModeled:
    def test_shaped_request_lands_near_the_cost_model(
        self, victim, image, threaded_server
    ):
        """A LAN-shaped request's measured time and ``NetworkModel``'s
        prediction, fed the same run's traffic and the loopback run's
        compute, land in the same ballpark."""
        images = np.repeat(image, 2, axis=0)
        replies = {}
        for name, network in (("loopback", None), ("lan", LAN)):
            client = RemoteClient(
                "127.0.0.1", threaded_server.port, noise_magnitude=0.0, seed=0,
                network=network,
            )
            replies[name] = client.infer(images)
            client.close()
        measured = replies["lan"].online_s
        modeled = LAN.latency_of(
            replies["lan"].traffic, compute_s=replies["loopback"].online_s
        )
        assert replies["lan"].bytes_match
        assert 0.2 < measured / modeled < 5.0


@pytest.mark.slow
class TestTwoProcess:
    def test_two_process_loopback_byte_identical(self, victim, image):
        """The acceptance pin: a genuine second process serves resnet20
        and the logits/traffic match the in-process engine exactly."""
        pipeline = C2PIPipeline(victim, 3.5, noise_magnitude=0.1, seed=5)
        pipeline.prepare_offline(batch=1, bundles=1)
        reference = pipeline.infer(image)

        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--listen", "127.0.0.1:0",
                "--arch", "resnet20", "--untrained-width", "0.25",
                "--model-seed", "0", "--boundary", "3.5",
                "--seed", "5", "--once",
            ],
            stdout=subprocess.PIPE,
            text=True,
            cwd=REPO,
            env={
                **os.environ,
                "PYTHONPATH": str(REPO / "src")
                + os.pathsep
                + os.environ.get("PYTHONPATH", ""),
            },
        )
        try:
            line = proc.stdout.readline()
            match = re.search(r"listening on [\d.]+:(\d+)", line)
            assert match, f"server did not announce a port: {line!r}"
            port = int(match.group(1))

            client = RemoteClient("127.0.0.1", port, noise_magnitude=0.1, seed=5)
            reply = client.infer(image)
            client.close()
        finally:
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
            finally:
                proc.stdout.close()

        np.testing.assert_array_equal(reply.logits, reference.logits)
        assert reply.traffic.total_bytes == reference.total_bytes
        assert reply.traffic.rounds == reference.crypto_rounds + 1
        assert reply.bytes_match  # measured socket bytes == Channel books
        assert proc.returncode == 0
