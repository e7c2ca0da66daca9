"""Async session core conformance + the PR 10 bugfix regressions.

The event-loop rewrite's headline property — an idle-on-the-wire session
costs one file descriptor, not a parked thread — is pinned here with a
test the thread-per-session model cannot pass: 100 connected, quiet
sessions on a 2-worker server, with a live inference flowing through
while they idle. Alongside it, regression tests for the three bugfixes
that rode with the rewrite:

* counter increments routed through ``RemoteServer._count`` (bare ``+=``
  from concurrent workers loses updates under the GIL);
* ``RemoteClient`` backoff sleeps clamped to the remaining deadline
  (a full step could overshoot ``reconnect_timeout`` by up to 0.5 s);
* ``RemoteServer.pool()`` construction moved outside ``_pools_lock``
  (one slow dealer-backed construction must not stall every other
  session's pool lookup).
"""

import json
import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.mpc.transport import (
    _HEADER,
    _MAGIC,
    _VERSION,
    FRAME_JSON,
    FRAME_RAW,
    FrameAssembler,
    _encode_frame,
)
from repro.serve.chaos_check import TINY_BOUNDARY, tiny_victim
from repro.serve.dealer_service import DealerClient
from repro.serve.remote import RemoteClient, RemoteServer, ServerBusy


@pytest.fixture(scope="module")
def victim():
    return tiny_victim(0)


def _start(victim, **kwargs):
    server = RemoteServer(victim, TINY_BOUNDARY, seed=3, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _raw_handshake(port: int, session=None) -> socket.socket:
    """Handshake over a bare socket: no client object, no reader thread.

    Keeps the test's own thread count flat so the server-side thread
    census below measures the server, not the harness.
    """
    sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
    link = json.dumps(
        {"bandwidth_bytes_per_s": None, "rtt_s": None,
         "session": session, "shm": False}
    ).encode("utf-8")
    sock.sendall(_encode_frame(FRAME_JSON, "link", link))
    decoder = FrameAssembler()
    item = None
    while item is None:
        got = sock.recv_into(decoder.want())
        assert got, "server closed the connection during the handshake"
        item = decoder.advance(got)
    kind, label, payload, _ = item
    assert kind == FRAME_JSON and label == "hello"
    hello = json.loads(bytes(payload).decode("utf-8"))
    assert not hello.get("busy"), hello
    return sock


def _server_threads() -> list[str]:
    names = ("c2pi-loop", "c2pi-worker", "c2pi-session", "c2pi-shm")
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith(names)
    ]


class TestIdleSessionsAreFree:
    def test_100_idle_sessions_on_two_workers(self, victim):
        """100 connected-but-quiet sessions, 2 workers, zero parked threads.

        The thread-per-session model cannot pass this: it would need 100
        session threads (and, worse, its per-session worker slot made a
        third concurrent *handshake* wait behind two idle sessions). The
        event loop handshakes all 100, parks them on the selector, and a
        live client infers through the same 2 workers while they idle.
        """
        IDLE, WORKERS = 100, 2
        server, thread = _start(
            victim, workers=WORKERS, max_sessions=IDLE + 8
        )
        sockets = []
        try:
            live = RemoteClient(
                "127.0.0.1", server.port, seed=5, session="live"
            )
            for index in range(IDLE):
                sockets.append(
                    _raw_handshake(server.port, session=f"idle-{index}")
                )
            deadline = time.monotonic() + 10.0
            while (
                server.active_sessions < IDLE + 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert server.active_sessions == IDLE + 1
            # The census: one loop thread + the worker pool, and nothing
            # per session. (The legacy model's `c2pi-session` name must
            # not reappear.)
            census = _server_threads()
            assert len(census) == WORKERS + 1, census
            assert not any(name.startswith("c2pi-session") for name in census)
            # The pool still serves: a live inference flows through the
            # same workers while all 100 sessions idle on the selector.
            image = np.random.default_rng(7).random((1, 2, 8, 8), np.float32)
            reply = live.infer(image)
            assert reply.logits.shape == (1, 5)
            live.close()
        finally:
            for sock in sockets:
                sock.close()
            server.stop()
            thread.join(timeout=10.0)

    def test_idle_session_is_reaped_at_request_timeout(self, victim):
        """The loop enforces the idle deadline the blocking recv used to."""
        server, thread = _start(victim, workers=2, request_timeout=0.4)
        try:
            sock = _raw_handshake(server.port, session="quiet")
            assert server.active_sessions == 1
            deadline = time.monotonic() + 5.0
            with server._drained:
                while server._active and time.monotonic() < deadline:
                    server._drained.wait(0.2)
            assert server.active_sessions == 0
            metrics = server.metrics()
            assert metrics["sessions_reaped"] == 1
            assert metrics["connections_failed"] == 1
            sock.close()
        finally:
            server.stop()
            thread.join(timeout=10.0)


class TestConnectionChurn:
    def test_2000_connections_leave_a_bounded_tail_and_exact_totals(self, victim):
        """A retired connection costs a line in a bounded tail and its
        share of the running totals — not a ``SessionStats`` (with its
        whole wire dict) kept for the life of the server."""
        import gc
        import tracemalloc

        from repro.serve.remote import _FINISHED_TAIL

        CONNECTIONS = 2000
        server, thread = _start(victim)
        bye = _encode_frame(FRAME_JSON, "req", json.dumps({"cmd": "bye"}).encode())

        def churn(count):
            for _ in range(count):
                sock = _raw_handshake(server.port)
                sock.sendall(bye)
                sock.close()
            assert server.wait_idle(timeout=30.0)

        try:
            churn(1)
            one = server.metrics()["wire"]
            assert one["frames_sent"] and one["frames_received"] == 2
            churn(_FINISHED_TAIL + 43)  # the tail is full from here on
            tracemalloc.start()
            try:
                churn(200)
                gc.collect()  # closed transports sit in reference cycles
                before = tracemalloc.get_traced_memory()[0]
                churn(CONNECTIONS - _FINISHED_TAIL - 244)
                gc.collect()
                grown = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            metrics = server.metrics()
        finally:
            server.stop()
            thread.join(timeout=10.0)
        assert metrics["connections_served"] == CONNECTIONS
        assert metrics["connections_failed"] == 0
        listed = [entry["session_id"] for entry in metrics["sessions"]]
        assert listed == list(range(CONNECTIONS - _FINISHED_TAIL, CONNECTIONS))
        assert len(server._finished) == _FINISHED_TAIL
        # (What the server sent names the session id: not one constant.)
        for key in ("frames_sent", "frames_received", "control_payload_received"):
            assert metrics["wire"][key] == CONNECTIONS * one[key], key
        assert metrics["wire"]["wire_bytes_sent"] > CONNECTIONS * 1000
        # ~1,500 more connections, and nothing retained for them.
        assert grown < 64 * 1024, grown


class TestOversizedFrame:
    def test_session_is_reaped_and_the_loop_keeps_serving(self, victim):
        """A header declaring an absurd payload is refused on the loop
        thread before anything is allocated for it: the sender's session
        is reaped with the typed error, everyone else is served."""
        server, thread = _start(victim, workers=2, request_timeout=5.0)
        try:
            sock = _raw_handshake(server.port, session="hostile")
            sock.sendall(
                _HEADER.pack(_MAGIC, _VERSION, FRAME_RAW, 3, 1 << 62, 0.0, 0) + b"req"
            )
            deadline = time.monotonic() + 4.0  # well inside request_timeout
            with server._drained:
                while server._active and time.monotonic() < deadline:
                    server._drained.wait(0.2)
            assert server.active_sessions == 0
            metrics = server.metrics()
            (reaped,) = [s for s in metrics["sessions"] if s["session"] == "hostile"]
            assert "TransportError: frame header declares" in reaped["error"]
            assert metrics["sessions_reaped"] == 1
            sock.close()
            live = RemoteClient(
                "127.0.0.1", server.port, noise_magnitude=0.1, seed=1, timeout=10.0
            )
            reply = live.infer(np.zeros((1, 2, 8, 8), np.float32))
            assert reply.logits.shape == (1, 5) and reply.bytes_match
            live.close()
        finally:
            server.stop()
            thread.join(timeout=10.0)


class TestCounterAtomicity:
    def test_hammered_counters_lose_no_updates(self, victim):
        """N threads × M bumps through the server's counter path == N*M.

        Pre-fix, workers bumped ``requests_served`` (and friends) with a
        bare ``+=`` — a read-modify-write the GIL does not make atomic,
        so concurrent bumps vanished. A tiny switch interval makes the
        loss reliable enough that this test fails on the old code.
        """
        server = RemoteServer(victim, TINY_BOUNDARY, seed=3, workers=2)
        THREADS, BUMPS = 8, 4000
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def hammer():
                for _ in range(BUMPS):
                    server._count("requests_served")

            threads = [
                threading.Thread(target=hammer) for _ in range(THREADS)
            ]
            for worker in threads:
                worker.start()
            for worker in threads:
                worker.join()
        finally:
            sys.setswitchinterval(interval)
            server.stop(drain=False)
        assert server.requests_served == THREADS * BUMPS

    def test_hammered_session_stats_lose_no_updates(self, victim):
        """Same property for the per-session accumulators (remote.py's
        old ``stats.requests += 1`` ran outside any lock)."""
        from repro.serve.remote import SessionStats

        server = RemoteServer(victim, TINY_BOUNDARY, seed=3, workers=2)
        stats = SessionStats(session_id=0, session="hammer")
        THREADS, BUMPS = 8, 4000
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def hammer():
                for _ in range(BUMPS):
                    server._note_served(stats, 0.5, 0.25)

            threads = [
                threading.Thread(target=hammer) for _ in range(THREADS)
            ]
            for worker in threads:
                worker.start()
            for worker in threads:
                worker.join()
        finally:
            sys.setswitchinterval(interval)
            server.stop(drain=False)
        total = THREADS * BUMPS
        assert stats.requests == total
        assert stats.online_s == pytest.approx(0.5 * total)
        assert stats.offline_s == pytest.approx(0.25 * total)


class TestBackoffDeadlineClamp:
    def test_reconnect_timeout_is_not_overshot(self, victim):
        """A backoff step must be clamped to the remaining deadline.

        With ``busy_backoff_s=0.5`` and ``reconnect_timeout=0.6`` the
        pre-fix loop slept two full 0.5 s steps (attempts at t≈0, 0.5,
        1.0) and surfaced ServerBusy only after ≈1.05 s — overshooting
        the deadline by ~75%. Post-fix the second sleep is clamped to
        the ~0.1 s the deadline has left.
        """
        server, thread = _start(victim, workers=1, max_sessions=1)
        try:
            occupant = RemoteClient(
                "127.0.0.1", server.port, seed=5, session="occupant"
            )
            start = time.monotonic()
            with pytest.raises(ServerBusy):
                RemoteClient(
                    "127.0.0.1",
                    server.port,
                    seed=6,
                    session="patient",
                    wait_for_slot=True,
                    reconnect_timeout=0.6,
                    busy_backoff_s=0.5,
                )
            elapsed = time.monotonic() - start
            assert elapsed >= 0.6  # the deadline was honoured...
            assert elapsed <= 0.6 + 0.25  # ...and not overshot by a step
            occupant.close()
        finally:
            server.stop()
            thread.join(timeout=10.0)


class TestPoolConstructionOutsideLock:
    def test_slow_dealer_pool_does_not_stall_other_lookups(
        self, victim, monkeypatch
    ):
        """One session's slow dealer-backed pool construction (a stalled
        dealer endpoint) must not hold ``_pools_lock`` against every
        other session's lookup. Pre-fix, construction happened under the
        lock and the fast lookup below waited out the full stall."""
        STALL = 0.8
        calls = []
        original = DealerClient.__init__

        def stalled_init(self, *args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                time.sleep(STALL)  # the first (stalled) endpoint dial
            original(self, *args, **kwargs)

        monkeypatch.setattr(DealerClient, "__init__", stalled_init)
        server = RemoteServer(
            victim, TINY_BOUNDARY, seed=3, workers=2,
            dealer=("127.0.0.1", 1),  # never actually dialed in-test
        )
        try:
            started = threading.Event()

            def slow_lookup():
                started.set()
                server.pool(1, session="stalled")

            blocker = threading.Thread(target=slow_lookup, daemon=True)
            blocker.start()
            started.wait()
            time.sleep(0.05)  # let the slow construction enter its stall
            start = time.monotonic()
            server.pool(1, session="unrelated")
            elapsed = time.monotonic() - start
            blocker.join(timeout=5.0)
            assert elapsed < STALL / 2, (
                f"pool() for an unrelated session stalled {elapsed:.2f}s "
                f"behind another key's construction"
            )
        finally:
            server.stop(drain=False)
