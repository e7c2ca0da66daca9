"""Concurrent multi-session serving: determinism, backpressure, isolation.

The acceptance pins of the concurrent :class:`RemoteServer`:

* N clients served at once all verify measured socket payload against
  the protocol accounting (``bytes_match``);
* every session's logits under contention are **byte-identical** to a
  serial single-client run with the same session key and seed — the
  per-session dealer-seed derivation removes any dependence on how other
  clients interleave;
* past ``max_sessions`` a client gets an explicit ``busy`` reply
  (:class:`ServerBusy`), not a hung socket;
* a malformed client costs only its own connection: the accept loop and
  the other sessions keep running, and the failure is counted in
  ``connections_failed`` — never in ``connections_served``.
"""

import threading
import time

import numpy as np
import pytest

from repro.mpc.transport import PeerChannel
from repro.serve.remote import (
    RemoteClient,
    RemoteServer,
    ServerBusy,
    _demo_victim,
    derive_session_seed,
)

CLIENTS = 3
REQUESTS = 2


@pytest.fixture(scope="module")
def victim():
    return _demo_victim("resnet20", 0.25, 0)


@pytest.fixture(scope="module")
def images():
    return np.random.default_rng(11).random(
        (REQUESTS, 1, 3, 32, 32), dtype=np.float32
    )


def _start(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


def _run_session(port, session, images, barrier=None):
    client = RemoteClient(
        "127.0.0.1", port, noise_magnitude=0.1, seed=100 + session, session=session
    )
    if barrier is not None:
        barrier.wait(timeout=30.0)  # maximise interleaving across sessions
    replies = [client.infer(batch) for batch in images]
    client.close()
    return replies


class TestSessionSeedDerivation:
    def test_anonymous_session_keeps_base_seed(self):
        assert derive_session_seed(5, None) == 5

    def test_sessions_are_distinct_and_stable(self):
        seeds = [derive_session_seed(0, session) for session in range(8)]
        assert len(set(seeds)) == len(seeds)
        assert seeds == [derive_session_seed(0, session) for session in range(8)]
        # The base seed separates servers; the key type separates keys.
        assert derive_session_seed(1, 3) != derive_session_seed(0, 3)
        assert derive_session_seed(0, "3") != derive_session_seed(0, 3)


class TestConcurrentSessions:
    def test_contended_sessions_match_serial_runs_byte_for_byte(
        self, victim, images
    ):
        """(a) all replies verify the wire, (b) per-session logits are
        byte-identical to a serial run with the same session seed, (c)
        warmed sessions pay no pool miss. Only the contended server is
        warmed: warming draws the stream the miss path would have drawn."""
        server = RemoteServer(victim, 3.5, seed=7, workers=CLIENTS)
        for session in range(CLIENTS):
            server.warm(1, bundles=REQUESTS, session=session)
        thread = _start(server)
        barrier = threading.Barrier(CLIENTS)
        concurrent: dict[int, list] = {}
        errors: list[Exception] = []

        def worker(session):
            try:
                concurrent[session] = _run_session(
                    server.port, session, images, barrier
                )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        try:
            threads = [
                threading.Thread(target=worker, args=(session,))
                for session in range(CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
        finally:
            server.stop()
            thread.join(timeout=10.0)
        assert not errors
        assert all(
            reply.bytes_match
            for replies in concurrent.values()
            for reply in replies
        )

        # Serial reruns on a fresh, identically-seeded server.
        for session in range(CLIENTS):
            serial_server = RemoteServer(
                victim, 3.5, seed=7, program=server.program, workers=1
            )
            serial_thread = _start(serial_server)
            try:
                serial = _run_session(serial_server.port, session, images)
            finally:
                serial_server.stop()
                serial_thread.join(timeout=10.0)
            for a, b in zip(serial, concurrent[session]):
                assert a.logits.tobytes() == b.logits.tobytes()

        metrics = server.metrics()
        assert metrics["connections_served"] == CLIENTS
        assert metrics["requests_served"] == CLIENTS * REQUESTS
        assert metrics["connections_failed"] == 0
        assert len(metrics["sessions"]) == CLIENTS
        assert all(entry["requests"] == REQUESTS for entry in metrics["sessions"])
        # The aggregated wire snapshot covers every session's traffic.
        assert metrics["wire"]["raw_payload_sent"] == sum(
            entry["wire"]["raw_payload_sent"] for entry in metrics["sessions"]
        )
        assert len(metrics["pools"]) == CLIENTS  # one per (session, batch)
        assert all(pool["misses"] == 0 for pool in metrics["pools"].values())

    def test_busy_reply_at_max_sessions(self, victim, images):
        """(c) backpressure: an explicit busy reply, not a hung socket."""
        server = RemoteServer(victim, 3.5, seed=0, workers=1, max_sessions=1)
        thread = _start(server)
        try:
            holder = RemoteClient("127.0.0.1", server.port, seed=0, session=0)
            with pytest.raises(ServerBusy, match="capacity"):
                RemoteClient("127.0.0.1", server.port, seed=1, session=1)
            assert server.connections_rejected == 1
            # The held session still works, and a later client gets in.
            reply = holder.infer(images[0])
            assert reply.bytes_match
            holder.close()
            for _ in range(100):
                if server.active_sessions == 0:
                    break
                time.sleep(0.05)
            late = RemoteClient("127.0.0.1", server.port, seed=2, session=2)
            assert late.infer(images[0]).bytes_match
            late.close()
        finally:
            server.stop()
            thread.join(timeout=10.0)
        assert server.connections_served == 2
        assert server.connections_rejected == 1

    def test_duplicate_session_key_rejected_while_active(self, victim, images):
        """Two live connections on one session key would interleave one
        seeded pool and void the determinism guarantee — reject the
        second, explicitly."""
        server = RemoteServer(victim, 3.5, seed=0, workers=2)
        thread = _start(server)
        try:
            first = RemoteClient("127.0.0.1", server.port, seed=0, session="key")
            with pytest.raises(ServerBusy, match="already active"):
                RemoteClient("127.0.0.1", server.port, seed=1, session="key")
            first.close()
            for _ in range(100):
                if server.active_sessions == 0:
                    break
                time.sleep(0.05)
            # Once released, the key is reusable (a serial rerun).
            again = RemoteClient("127.0.0.1", server.port, seed=0, session="key")
            assert again.infer(images[0]).bytes_match
            again.close()
        finally:
            server.stop()
            thread.join(timeout=10.0)
        assert server.connections_rejected == 1

    def test_malformed_client_does_not_kill_the_server(self, victim, images):
        """A bad request ends one connection; the accept loop survives."""
        server = RemoteServer(victim, 3.5, seed=0, workers=2)
        thread = _start(server)
        try:
            # Handshake correctly, then lie about the request.
            bad = PeerChannel.connect("127.0.0.1", server.port)
            bad.send_obj({"session": None}, "link")
            hello = bad.recv_obj("hello")
            assert "manifest" in hello
            bad.send_obj({"cmd": "infer", "batch": "not-a-number"}, "req")
            bad.close()

            # Garbage before the handshake: a raw frame instead of link.
            garbage = PeerChannel.connect("127.0.0.1", server.port)
            garbage.push(b"\x00" * 16, "input-share")
            garbage.close()

            for _ in range(200):
                if server.connections_failed >= 2:
                    break
                time.sleep(0.05)
            assert server.connections_failed == 2
            assert server.connections_served == 0  # failures never count

            # The server still serves a well-formed client.
            client = RemoteClient("127.0.0.1", server.port, seed=3, session=9)
            assert client.infer(images[0]).bytes_match
            client.close()
        finally:
            server.stop()
            thread.join(timeout=10.0)
        assert server.connections_served == 1
        assert server.connections_failed == 2
        metrics = server.metrics()
        failed = [s for s in metrics["sessions"] if s["error"]]
        assert len(failed) == 1  # the post-handshake failure is on record
        assert "not-a-number" in failed[0]["error"] or "ValueError" in failed[0]["error"]

    def test_silent_connection_cannot_park_a_worker(self, victim, images):
        """Slow-loris containment: a client that connects and never
        speaks is cut off after ``handshake_timeout``, not the full
        protocol timeout, and real clients keep being served."""
        import socket

        server = RemoteServer(victim, 3.5, seed=0, workers=1)
        server.handshake_timeout = 0.5
        thread = _start(server)
        try:
            mute = socket.create_connection(("127.0.0.1", server.port))
            client = RemoteClient("127.0.0.1", server.port, seed=0, session=0)
            assert client.infer(images[0]).bytes_match
            client.close()
            for _ in range(100):
                if server.connections_failed:
                    break
                time.sleep(0.05)
            assert server.connections_failed == 1  # the mute handshake
            mute.close()
        finally:
            server.stop()
            thread.join(timeout=10.0)
        assert server.connections_served == 1

    def test_stop_drains_in_flight_sessions(self, victim, images):
        server = RemoteServer(victim, 3.5, seed=0, workers=2)
        thread = _start(server)
        result: dict[str, object] = {}

        def slow_session():
            client = RemoteClient("127.0.0.1", server.port, seed=0, session="slow")
            result["reply"] = client.infer(images[0])
            client.close()

        worker = threading.Thread(target=slow_session)
        worker.start()
        # Let the session get admitted before stopping.
        for _ in range(200):
            if server.active_sessions:
                break
            time.sleep(0.01)
        server.stop(drain=True, timeout=30.0)
        worker.join(timeout=30.0)
        thread.join(timeout=10.0)
        assert result["reply"].bytes_match
        assert server.active_sessions == 0
        assert server.connections_served == 1
