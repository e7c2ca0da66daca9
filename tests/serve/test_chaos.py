"""Chaos conformance suite: remote serving must survive a hostile network.

The acceptance contract, for every scheduled fault (drop / corrupt /
partial / stall, across the handshake, linear, boolean and reveal
protocol phases, serially and under 4-way concurrency):

* the server never wedges — it keeps serving clean sessions after every
  fault, and no worker is parked past its read/write deadline;
* the faulted request succeeds on retry with logits **byte-identical**
  to the fault-free run of the same session (the server replays the
  retained dealer bundle under the request's idempotency key, the
  client replays its share/noise rng draws);
* concurrent bystander sessions stay bit-exact with their serial
  baselines while another session is being faulted;
* pool accounting balances: every acquired bundle is served, returned
  intact, or poisoned — none double-sold, none leaked.

All schedules are deterministic (seeded); synchronization is event-driven
(deadlines and peer-gone events, no sleeps-as-coordination). The victim
is the tiny chaos-check convnet — the properties are protocol-level and
model-independent, and small frames keep the whole sweep fast.
"""

import threading

import numpy as np
import pytest

from repro.mpc.chaos import ChaosController, ChaosLink, ChaosTrace, FaultSpec
from repro.mpc.preprocessing import MaterialMismatch
from repro.mpc.transport import FRAME_BLOB, TransportError
from repro.serve.chaos_check import TINY_BOUNDARY, tiny_victim
from repro.serve.remote import RemoteClient, RemoteServer

REQUEST_TIMEOUT = 0.4
CLIENT_TIMEOUT = 3.0
REQUESTS = 2  # per session: request 0 completes clean, request 1 is faulted


@pytest.fixture(scope="module")
def victim():
    return tiny_victim(0)


@pytest.fixture(scope="module")
def images():
    return np.random.default_rng(11).random((REQUESTS, 1, 2, 8, 8), np.float32)


def _start(victim, seed=3):
    server = RemoteServer(
        victim, TINY_BOUNDARY, seed=seed, workers=4,
        request_timeout=REQUEST_TIMEOUT,
    )
    server.handshake_timeout = REQUEST_TIMEOUT
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _session_logits(port, images, session, seed, controller=None, retries=0):
    client = RemoteClient(
        "127.0.0.1", port, noise_magnitude=0.1, seed=seed, session=session,
        timeout=CLIENT_TIMEOUT,
        transport_wrapper=controller.wrap if controller else None,
        connect_retries=retries,
    )
    logits = [
        client.infer(batch, retries=retries).logits.tobytes() for batch in images
    ]
    client.close()
    return logits


@pytest.fixture(scope="module")
def baselines(victim, images):
    """Fault-free logits per session key, from an identically-seeded server."""
    cache = {}

    def baseline(session, seed):
        key = (session, seed)
        if key not in cache:
            server, thread = _start(victim)
            try:
                cache[key] = _session_logits(server.port, images, session, seed)
            finally:
                server.stop()
                thread.join(timeout=10.0)
        return cache[key]

    return baseline


def _assert_pools_balanced(metrics, served_per_pool):
    """acquired == served + returned + poisoned, per pool — no bundle
    double-sold (served would exceed the books) or leaked (outstanding
    acquisitions left dangling after quiescence)."""
    for name, pool in metrics["pools"].items():
        outstanding = (
            pool["bundles_consumed"]
            - pool["bundles_returned"]
            - pool["bundles_poisoned"]
        )
        assert outstanding == served_per_pool.get(name, 0), (
            f"{name}: consumed={pool['bundles_consumed']} "
            f"returned={pool['bundles_returned']} "
            f"poisoned={pool['bundles_poisoned']} "
            f"expected served={served_per_pool.get(name, 0)}"
        )


# The protocol phases, by the frame label the fault addresses. The
# handshake fault targets the link hello (request scope -1); protocol
# faults target request 1, so request 0 pins the pre-fault stream.
PHASES = {
    "handshake": dict(label="link", request=None),
    "linear": dict(label="linear-masked-input", request=1),
    "boolean": dict(label="and-open", occurrence=2, request=1),
    "reveal": dict(label="noised-reveal", request=1),
}
KINDS = ("drop", "corrupt", "partial", "stall")


class TestSerialConformance:
    @pytest.mark.parametrize("phase", sorted(PHASES))
    @pytest.mark.parametrize("kind", KINDS)
    def test_fault_recovers_with_byte_identical_logits(
        self, victim, images, baselines, kind, phase
    ):
        spec = FaultSpec(kind, **PHASES[phase])
        controller = ChaosController([spec])
        server, thread = _start(victim)
        try:
            faulted = _session_logits(
                server.port, images, "s", 9, controller=controller, retries=3
            )
            # The server never wedges: a clean session right after.
            clean = _session_logits(server.port, images, "clean", 5)
            assert server.wait_idle(timeout=10.0)
            metrics = server.metrics()
        finally:
            server.stop()
            thread.join(timeout=10.0)
        assert controller.trace.events, "the scheduled fault never fired"
        assert faulted == baselines("s", 9)
        assert clean == baselines("clean", 5)
        _assert_pools_balanced(
            metrics,
            {"session='s'/batch=1": REQUESTS, "session='clean'/batch=1": REQUESTS},
        )
        if phase != "handshake":
            assert metrics["requests_retried"] >= 1
            assert metrics["sessions_reaped"] >= 1
        assert metrics["inflight_bundles"] == 0  # bye resolved the records

    @pytest.mark.parametrize(
        "spec",
        [
            FaultSpec("drop", label="bundle", direction="recv", request=1),
            FaultSpec("drop", label="logits", direction="recv", request=1),
            FaultSpec("drop", label="metrics", direction="recv", request=1),
            FaultSpec("reorder", label="input-share", request=1),
        ],
        ids=lambda spec: spec.describe(),
    )
    def test_server_to_client_loss_and_reorder(
        self, victim, images, baselines, spec
    ):
        """Losing the server's frames (or scrambling send order) recovers
        identically: the client's deadline or the peer's lock-step check
        converts the fault into a typed error, and the retry replays."""
        controller = ChaosController([spec])
        server, thread = _start(victim)
        try:
            faulted = _session_logits(
                server.port, images, "s", 9, controller=controller, retries=3
            )
            assert server.wait_idle(timeout=10.0)
            metrics = server.metrics()
        finally:
            server.stop()
            thread.join(timeout=10.0)
        assert controller.trace.events
        assert faulted == baselines("s", 9)
        _assert_pools_balanced(metrics, {"session='s'/batch=1": REQUESTS})

    def test_metrics_drop_retry_replays_completed_request(
        self, victim, images, baselines
    ):
        """The nastiest window: the server completed the request but the
        reply was lost. The retained bundle must serve the replay (not a
        fresh acquisition, which would shift the dealer stream)."""
        controller = ChaosController(
            [FaultSpec("drop", label="metrics", direction="recv", request=0)]
        )
        server, thread = _start(victim)
        try:
            faulted = _session_logits(
                server.port, images, "s", 9, controller=controller, retries=3
            )
            metrics = server.metrics()
        finally:
            server.stop()
            thread.join(timeout=10.0)
        assert faulted == baselines("s", 9)
        assert metrics["requests_retried"] == 1
        _assert_pools_balanced(metrics, {"session='s'/batch=1": REQUESTS})


class TestConcurrentConformance:
    @pytest.mark.parametrize("kind", KINDS)
    def test_bystanders_stay_bit_exact_while_one_session_faults(
        self, victim, images, baselines, kind
    ):
        """4 concurrent sessions; session c0 eats a fault mid-request.
        Every session — faulted and bystanders — must end byte-identical
        to its serial fault-free baseline, and the books must balance."""
        clients = 4
        spec = FaultSpec(kind, **PHASES["boolean"])
        controllers = {0: ChaosController([spec])}
        server, thread = _start(victim)
        barrier = threading.Barrier(clients)
        results: dict[int, list[bytes]] = {}
        errors: list[Exception] = []

        def worker(index):
            try:
                client = RemoteClient(
                    "127.0.0.1", server.port, noise_magnitude=0.1,
                    seed=20 + index, session=f"c{index}",
                    timeout=CLIENT_TIMEOUT,
                    transport_wrapper=(
                        controllers[index].wrap if index in controllers else None
                    ),
                )
                barrier.wait(timeout=30.0)
                results[index] = [
                    client.infer(batch, retries=3).logits.tobytes()
                    for batch in images
                ]
                client.close()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        try:
            threads = [
                threading.Thread(target=worker, args=(index,))
                for index in range(clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
            assert server.wait_idle(timeout=10.0)
            metrics = server.metrics()
        finally:
            server.stop()
            thread.join(timeout=10.0)
        assert not errors
        assert controllers[0].trace.events
        for index in range(clients):
            assert results[index] == baselines(f"c{index}", 20 + index), (
                f"session c{index} diverged from its serial baseline"
            )
        _assert_pools_balanced(
            metrics,
            {f"session='c{i}'/batch=1": REQUESTS for i in range(clients)},
        )
        assert metrics["requests_served"] >= clients * REQUESTS


class _ResizedFrame(ChaosLink):
    """A client link whose first raw ``label`` message leaves ``delta``
    bytes longer (zero-padded) or shorter than the protocol computed it —
    a well-formed frame (valid CRC, right label), wrong length."""

    def __init__(self, inner, label, delta):
        super().__init__(inner, ChaosController([]))
        self.label, self.delta, self.fired = label, delta, False

    def _resize(self, data, label):
        if label != self.label or self.fired:
            return data
        self.fired = True
        data = bytes(data)
        return data + bytes(self.delta) if self.delta > 0 else data[: self.delta]

    def push(self, data, label):
        super().push(self._resize(data, label), label)

    def push_deferred(self, data, label):
        super().push_deferred(self._resize(data, label), label)


class TestFrameLength:
    """``pull`` checks a frame's kind and label, never its length: the
    protocols' one receive seam does, so a short frame is not a bare numpy
    error and an over-long one is not silently truncated."""

    @pytest.mark.parametrize("delta", (8, -8), ids=("over-long", "short"))
    @pytest.mark.parametrize(
        "label", ("and-open", "linear-masked-input", "noised-reveal")
    )
    def test_wrong_length_frame_is_rejected_and_the_session_reaped(
        self, victim, images, baselines, label, delta
    ):
        server, thread = _start(victim)
        barrier = threading.Barrier(2)
        links, results, errors = [], {}, []

        def wrap(transport):
            links.append(_ResizedFrame(transport, label, delta))
            return links[-1]

        def bystander():
            try:
                client = RemoteClient(
                    "127.0.0.1", server.port, noise_magnitude=0.1, seed=31,
                    session="bystander", timeout=CLIENT_TIMEOUT,
                )
                barrier.wait(timeout=30.0)
                results["bystander"] = [
                    client.infer(batch).logits.tobytes() for batch in images
                ]
                client.close()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        try:
            worker = threading.Thread(target=bystander)
            worker.start()
            hostile = RemoteClient(
                "127.0.0.1", server.port, noise_magnitude=0.1, seed=32,
                session="hostile", timeout=CLIENT_TIMEOUT, transport_wrapper=wrap,
            )
            barrier.wait(timeout=30.0)
            with pytest.raises(TransportError):
                hostile.infer(images[0])
            hostile.close()
            worker.join(timeout=60.0)
            assert not worker.is_alive()
            assert server.wait_idle(timeout=10.0)
            metrics = server.metrics()
        finally:
            server.stop()
            thread.join(timeout=10.0)
        assert not errors
        assert links[0].fired
        # The server named the label and both sizes in a typed error...
        (reaped,) = [s for s in metrics["sessions"] if s["session"] == "hostile"]
        assert reaped["error"].startswith("TransportError: party 1 expected ")
        assert f"bytes of {label!r}" in reaped["error"]
        assert "but received" in reaped["error"]
        assert metrics["sessions_reaped"] == 1
        # ...and the bystander never noticed.
        assert results["bystander"] == baselines("bystander", 31)


class _BundleHook(ChaosLink):
    """A client link that passes every ``bundle`` blob it receives — a
    well-formed frame, its CRC already verified — through ``hook``."""

    def __init__(self, inner, controller, hook):
        super().__init__(inner, controller)
        self.hook = hook

    def _recv_frame(self):
        kind, label, payload = super()._recv_frame()
        if kind == FRAME_BLOB and label == "bundle":
            payload = self.hook(payload)
        return kind, label, payload


def _flip(index):
    def flip(blob):
        blob = bytearray(blob)
        blob[index] ^= 0xFF
        return blob

    return flip


class TestMalformedBundle:
    """A bundle the client cannot parse is one typed error, and the
    client hangs up on it: the server is mid-request, waiting for rounds
    that will never come."""

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda blob: b"",
            lambda blob: b"PK\x03\x04" + bytes(blob[4:]),  # the npz era's magic
            lambda blob: blob[: len(blob) // 2],
            _flip(9),  # the manifest length
            _flip(40),  # a manifest byte
        ],
        ids=("empty", "old-format", "truncated", "lying-length", "flipped-manifest"),
    )
    def test_client_raises_typed_and_closes_and_the_server_reaps(
        self, victim, images, baselines, tamper
    ):
        server, thread = _start(victim)
        barrier = threading.Barrier(2)
        results, errors = {}, []

        def bystander():
            try:
                client = RemoteClient(
                    "127.0.0.1", server.port, noise_magnitude=0.1, seed=31,
                    session="bystander", timeout=CLIENT_TIMEOUT,
                )
                barrier.wait(timeout=30.0)
                results["bystander"] = [
                    client.infer(batch).logits.tobytes() for batch in images
                ]
                client.close()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        try:
            worker = threading.Thread(target=bystander)
            worker.start()
            hostile = RemoteClient(
                "127.0.0.1", server.port, noise_magnitude=0.1, seed=32,
                session="hostile", timeout=CLIENT_TIMEOUT,
                transport_wrapper=lambda io: _BundleHook(
                    io, ChaosController([]), tamper
                ),
            )
            barrier.wait(timeout=30.0)
            with pytest.raises(MaterialMismatch):
                hostile.infer(images[0], retries=2)
            assert hostile.transport is None  # hung up, not left out of step
            assert hostile.requests_retried == 0  # the same bytes would come back
            worker.join(timeout=60.0)
            assert not worker.is_alive()
            assert server.wait_idle(timeout=10.0)
            metrics = server.metrics()
        finally:
            server.stop()
            thread.join(timeout=10.0)
        assert not errors
        (reaped,) = [s for s in metrics["sessions"] if s["session"] == "hostile"]
        # Reaped because the client hung up, not because a deadline ran out.
        assert "TransportError" in reaped["error"]
        assert "timed out" not in reaped["error"]
        assert metrics["sessions_reaped"] == 1
        assert results["bystander"] == baselines("bystander", 31)


class TestBundleReship:
    def test_a_retried_request_key_is_reshipped_the_same_bytes(self, victim, images):
        """The container is a pure function of the retained bundle: the
        retry of a key ships byte for byte what the first attempt did —
        the same seed — and a new key ships a new seed under the same
        manifest."""
        controller = ChaosController([FaultSpec("drop", **PHASES["reveal"])])
        blobs = []

        def tap(blob):
            blobs.append(bytes(blob))
            return blob

        server, thread = _start(victim)
        try:
            client = RemoteClient(
                "127.0.0.1", server.port, noise_magnitude=0.1, seed=9, session="s",
                timeout=CLIENT_TIMEOUT,
                transport_wrapper=lambda io: _BundleHook(io, controller, tap),
            )
            replies = [client.infer(batch, retries=3) for batch in images]
            client.close()
        finally:
            server.stop()
            thread.join(timeout=10.0)
        assert controller.trace.events, "the scheduled fault never fired"
        assert client.requests_retried == 1
        first, second, retry = blobs  # request 0, request 1, request 1 again
        assert second == retry and first != second
        assert first[:-32] == second[:-32] and len(first) < 8192
        assert all(reply.offline_bytes == len(first) for reply in replies)


class TestChaosTraceReplay:
    def test_random_chaos_trace_is_a_one_line_repro(
        self, victim, images, baselines
    ):
        """Seeded random chaos: the workload still completes via retries,
        and the recorded trace replays as an explicit schedule that fires
        the identical faults at the identical frames."""
        random_controller = ChaosController.random(
            seed=13, rate=0.01, kinds=("corrupt",)
        )
        server, thread = _start(victim)
        try:
            first = _session_logits(
                server.port, images, "s", 9,
                controller=random_controller, retries=5,
            )
        finally:
            server.stop()
            thread.join(timeout=10.0)
        assert first == baselines("s", 9)
        assert random_controller.trace.events, (
            "rate/seed chosen to fire at least once; rerun with a new seed "
            "if the protocol's frame count changed"
        )

        replay_controller = ChaosController(random_controller.trace.specs())
        server, thread = _start(victim)
        try:
            second = _session_logits(
                server.port, images, "s", 9,
                controller=replay_controller, retries=5,
            )
        finally:
            server.stop()
            thread.join(timeout=10.0)
        assert second == baselines("s", 9)
        assert (
            replay_controller.trace.describe()
            == random_controller.trace.describe()
        )

    def test_trace_specs_pin_concrete_addresses(self):
        trace = ChaosTrace()
        controller = ChaosController([FaultSpec("drop", label="x")])
        spec = controller.decide("send", 0, "x", b"payload")
        assert spec is not None and spec.kind == "drop"
        (pinned,) = controller.trace.specs()
        assert pinned == FaultSpec("drop", label="x", occurrence=1, request=-1)
        assert controller.trace.describe() == "drop@send:x#1/req-1"
        assert trace.describe() == "(no faults)"

    def test_recv_faults_limited_to_drop(self):
        with pytest.raises(ValueError, match="receive-side"):
            FaultSpec("corrupt", direction="recv")
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("mangle")


class TestRecoveryBookkeeping:
    def test_retries_exhausted_surfaces_typed_error(self, victim, images):
        """A fault schedule denser than the retry budget must end in a
        TransportError naming the request — never a hang."""
        controller = ChaosController(
            [
                FaultSpec("corrupt", label="input-share", request=1,
                          occurrence=1)
                for _ in range(3)
            ]
        )
        server, thread = _start(victim)
        try:
            client = RemoteClient(
                "127.0.0.1", server.port, noise_magnitude=0.1, seed=9,
                session="s", timeout=CLIENT_TIMEOUT,
                transport_wrapper=controller.wrap,
            )
            client.infer(images[0], retries=3)
            with pytest.raises(TransportError, match="request 1 failed"):
                client.infer(images[1], retries=2)
            client.close()
        finally:
            server.stop()
            thread.join(timeout=10.0)
        assert len(controller.trace.events) == 3

    def test_failed_request_burns_its_idempotency_key(self, victim, images):
        """After a terminal failure, the next *different* request must use
        a fresh key — replaying the burnt key would resell the failed
        request's half-shipped bundle for new inputs."""
        controller = ChaosController(
            [
                FaultSpec("corrupt", label="input-share", request=0,
                          occurrence=1)
                for _ in range(2)
            ]
        )
        server, thread = _start(victim)
        try:
            client = RemoteClient(
                "127.0.0.1", server.port, noise_magnitude=0.1, seed=9,
                session="s", timeout=CLIENT_TIMEOUT,
                transport_wrapper=controller.wrap,
            )
            with pytest.raises(TransportError, match="request 0 failed"):
                client.infer(images[0], retries=1)  # both attempts faulted
            assert client._next_request == 1  # key 0 is burnt
            reply = client.infer(images[1])  # a new request, fresh key
            assert reply.logits.shape[0] == 1
            client.close()
            assert server.wait_idle(timeout=10.0)
            metrics = server.metrics()
        finally:
            server.stop()
            thread.join(timeout=10.0)
        # The fresh request was never treated as a retry of the burnt key,
        # and the burnt key's bundle was poisoned when key 1 superseded it.
        assert metrics["requests_retried"] == 1  # only the in-key retry
        assert metrics["bundles_poisoned"] == 1
        _assert_pools_balanced(metrics, {"session='s'/batch=1": 1})

    def test_stranded_bundle_poisoned_at_stop(self, victim, images):
        """A shipped bundle whose client never retries is poisoned at
        shutdown — not leaked, not resold."""
        controller = ChaosController(
            [FaultSpec("corrupt", label="input-share", request=0)]
        )
        server, thread = _start(victim)
        try:
            client = RemoteClient(
                "127.0.0.1", server.port, noise_magnitude=0.1, seed=9,
                session="s", timeout=CLIENT_TIMEOUT,
                transport_wrapper=controller.wrap,
            )
            with pytest.raises(TransportError):
                client.infer(images[0], retries=0)
            # Walk away without retrying (no bye — close the raw socket
            # if the failed infer left one open); wait (event-driven) for
            # the server to reap the dead session before stopping.
            if client.transport is not None:
                client.transport.close()
                client.transport = None
            for _ in range(200):
                if server.sessions_reaped:
                    break
                threading.Event().wait(0.01)
        finally:
            server.stop()
            thread.join(timeout=10.0)
        metrics = server.metrics()
        assert metrics["sessions_reaped"] == 1
        assert metrics["bundles_poisoned"] == 1
        _assert_pools_balanced(metrics, {"session='s'/batch=1": 0})

    def test_retry_cannot_change_the_request(self, victim, images):
        """Replaying an idempotency key with a different batch is a
        protocol violation, rejected server-side."""
        controller = ChaosController(
            [FaultSpec("drop", label="logits", direction="recv", request=0)]
        )
        server, thread = _start(victim)
        try:
            client = RemoteClient(
                "127.0.0.1", server.port, noise_magnitude=0.1, seed=9,
                session="s", timeout=CLIENT_TIMEOUT,
                transport_wrapper=controller.wrap,
            )
            with pytest.raises(TransportError):
                client.infer(images[0], retries=0)  # fault, no retry
            client._reconnect()
            doubled = np.repeat(images[0], 2, axis=0)
            with pytest.raises(TransportError):
                client._infer_once(doubled, key=0)  # same key, batch 2
            metrics = server.metrics()
            assert any(
                "changed batch" in (entry["error"] or "")
                for entry in metrics["sessions"]
            )
            client.close()
        finally:
            server.stop()
            thread.join(timeout=10.0)


# ----------------------------------------------------------------------
# the bundle that rides one request ahead, on warmed pools
# ----------------------------------------------------------------------
STREAM = 4  # requests per session below: 1 in-band + 3 from a promise
PATIENCE = 1.0  # client deadline where a lost server frame must be waited out


@pytest.fixture(scope="module")
def stream():
    return np.random.default_rng(17).random((STREAM, 1, 2, 8, 8), np.float32)


@pytest.fixture(scope="module")
def stream_baselines(victim, stream):
    """Fault-free logits per session from an *unwarmed* server: every
    bundle in-band. Warmed runs must equal them byte for byte — riding
    ahead moves a frame, never a draw."""
    cache = {}

    def baseline(session, seed):
        if (session, seed) not in cache:
            server, thread = _start(victim)
            try:
                cache[session, seed] = _session_logits(
                    server.port, stream, session, seed
                )
            finally:
                server.stop()
                thread.join(timeout=10.0)
        return cache[session, seed]

    return baseline


class _ServerWire:
    """The server's transport as a server-side fault sees it: the same
    wire, but closing it stays the session teardown's job (the event
    loop must unregister a descriptor before its socket closes)."""

    def __init__(self, transport):
        self._transport = transport

    def __getattr__(self, name):
        return getattr(self._transport, name)

    def close(self):
        pass


class _TappedServer(RemoteServer):
    """A server whose one delivery function records each seed it ships,
    per session key, and writes session ``"s"``'s through a
    :class:`ChaosLink`, so a scheduled fault hits the real wire from the
    server's side."""

    def __init__(self, *args, faults=(), **kwargs):
        super().__init__(*args, **kwargs)
        self.controller = ChaosController(list(faults))
        self.seeds = {}

    def _deliver(self, transport, record, since):
        self.seeds.setdefault(record.session, []).append(record.bundle.seed)
        if record.session == "s":
            transport = ChaosLink(_ServerWire(transport), self.controller)
        super()._deliver(transport, record, since)


def _start_warm(victim, sessions, faults=(), bundles=STREAM):
    server = _TappedServer(
        victim, TINY_BOUNDARY, seed=3, workers=4,
        request_timeout=REQUEST_TIMEOUT, faults=faults,
    )
    server.handshake_timeout = REQUEST_TIMEOUT
    for session in sessions:
        server.warm(1, bundles, session=session)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


class TestPromisedBundle:
    def _faulted_stream(self, victim, stream, server_faults=(), client_faults=()):
        """Session ``s`` eats the faults while a bystander runs beside
        it, both on pools warmed for the whole stream."""
        controller = ChaosController(list(client_faults))
        server, thread = _start_warm(victim, ("s", "bystander"), server_faults)
        bystander, errors = [], []

        def beside():
            try:
                bystander.extend(
                    _session_logits(server.port, stream, "bystander", 31)
                )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        try:
            worker = threading.Thread(target=beside)
            worker.start()
            client = RemoteClient(
                "127.0.0.1", server.port, noise_magnitude=0.1, seed=9,
                session="s", timeout=PATIENCE, transport_wrapper=controller.wrap,
            )
            replies = [client.infer(batch, retries=3) for batch in stream]
            client.close()
            worker.join(timeout=60.0)
            assert not worker.is_alive() and not errors
            assert server.wait_idle(timeout=10.0)
            metrics = server.metrics()
        finally:
            server.stop()
            thread.join(timeout=10.0)
        fired = controller.trace.events + server.controller.trace.events
        assert len(fired) == len(server_faults) + len(client_faults)
        return replies, bystander, metrics, server.seeds["s"]

    def _assert_recovered(self, replies, bystander, metrics, stream_baselines):
        assert [r.logits.tobytes() for r in replies] == stream_baselines("s", 9)
        assert bystander == stream_baselines("bystander", 31)
        _assert_pools_balanced(
            metrics,
            {"session='s'/batch=1": STREAM, "session='bystander'/batch=1": STREAM},
        )
        assert metrics["inflight_bundles"] == 0  # bye left nothing held
        assert metrics["bundles_poisoned"] == 0  # every retry came
        assert metrics["promises_poisoned"] == 0

    def test_fault_free_stream_rides_ahead(self, victim, stream, stream_baselines):
        replies, bystander, metrics, seeds = self._faulted_stream(victim, stream)
        self._assert_recovered(replies, bystander, metrics, stream_baselines)
        assert [r.prefetched for r in replies] == [False, True, True, True]
        assert len(set(seeds)) == len(seeds) == STREAM
        assert metrics["bundles_promised"] == metrics["promises_claimed"] == 6
        assert metrics["bundles_returned"] == 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_fault_on_the_promise_frame(
        self, victim, stream, stream_baselines, kind
    ):
        """The frame behind request 0's ``metrics`` is lost, mangled, torn
        or stalled: the client does not have request 0 until the promise
        it was told of is in hand, so it retries; the unclaimed promise
        went back to the front of the session's pool and is promised
        again behind the replay."""
        replies, bystander, metrics, seeds = self._faulted_stream(
            victim, stream,
            server_faults=[FaultSpec(kind, label="bundle", occurrence=2)],
        )
        self._assert_recovered(replies, bystander, metrics, stream_baselines)
        first, second, third, fourth = dict.fromkeys(seeds)
        assert seeds == [first, second, first, second, third, fourth]
        assert [r.prefetched for r in replies] == [False, True, True, True]
        assert metrics["requests_retried"] == 1
        assert metrics["sessions_reaped"] == 1
        assert metrics["bundles_returned"] == 1  # the promise, restored

    @pytest.mark.parametrize(
        "spec, shipped",
        [
            # The reply-lost window of request 0: the promise was written
            # behind a reply that never arrived.
            (FaultSpec("drop", label="logits", direction="recv", request=0), "010123"),
            (FaultSpec("drop", label="metrics", direction="recv", request=0), "010123"),
            # Request 1 ran from a promise: the claim bound it to key 1
            # like any acquisition, so its retry replays it in-band.
            (FaultSpec("drop", label="metrics", direction="recv", request=1), "012123"),
            (FaultSpec("corrupt", label="and-open", occurrence=2, request=1), "01123"),
            # The claiming req itself never arrives: the server reaps an
            # out-of-step connection with the promise still unclaimed.
            (FaultSpec("drop", label="req", request=1), "01123"),
        ],
        ids=lambda value: value.describe() if isinstance(value, FaultSpec) else None,
    )
    def test_retry_around_a_promise_replays_and_re_promises_the_same_seeds(
        self, victim, stream, stream_baselines, spec, shipped
    ):
        """``shipped``: which bundle of the stream each delivery carried.
        The retried request's comes again in-band, and behind it the very
        promise that had been made once already."""
        replies, bystander, metrics, seeds = self._faulted_stream(
            victim, stream, client_faults=[spec]
        )
        self._assert_recovered(replies, bystander, metrics, stream_baselines)
        order = list(dict.fromkeys(seeds))
        assert len(order) == STREAM
        assert seeds == [order[int(index)] for index in shipped]
        # Only the retried attempt, on its new connection, is in-band.
        assert [r.prefetched for r in replies] == [
            index > 0 and index != spec.request for index in range(STREAM)
        ]
        assert metrics["requests_retried"] == (spec.label != "req")
        assert metrics["sessions_reaped"] == 1

    def test_claim_the_server_does_not_hold_is_out_of_lock_step(self, victim):
        server, thread = _start_warm(victim, ("s",))
        try:
            client = RemoteClient(
                "127.0.0.1", server.port, seed=9, session="s",
                timeout=CLIENT_TIMEOUT,
            )
            client.transport.send_obj(
                {"cmd": "infer", "batch": 1, "request": 0, "promised": True}, "req"
            )
            with pytest.raises(TransportError, match="closed"):
                client.transport.recv_reply("bundle")
            client.transport.close()
            assert server.wait_idle(timeout=10.0)
            metrics = server.metrics()
        finally:
            server.stop()
            thread.join(timeout=10.0)
        (reaped,) = metrics["sessions"]
        assert "does not hold" in reaped["error"]
        assert "out of lock-step" in reaped["error"]
        assert metrics["sessions_reaped"] == 1
        assert metrics["promises_claimed"] == 0 and not server.seeds
        _assert_pools_balanced(metrics, {"session='s'/batch=1": 0})

    def test_promise_for_another_batch_size_goes_back_and_comes_in_band(
        self, victim, stream
    ):
        """A promise is cut for the batch size just served. A next request
        of another size does not claim it: it returns to the front of its
        pool, and the next request of that size draws it in-band."""
        batches = [stream[0], np.concatenate([stream[1], stream[2]]), stream[3]]

        def run(warm):
            server, thread = _start_warm(victim, ("s",), bundles=warm)
            try:
                client = RemoteClient(
                    "127.0.0.1", server.port, noise_magnitude=0.1, seed=9,
                    session="s", timeout=CLIENT_TIMEOUT,
                )
                replies = [client.infer(batch) for batch in batches]
                client.close()
                assert server.wait_idle(timeout=10.0)
                return replies, server.metrics(), server.seeds["s"]
            finally:
                server.stop()
                thread.join(timeout=10.0)

        replies, metrics, seeds = run(warm=3)
        cold, _, _ = run(warm=0)
        assert [r.logits.tobytes() for r in replies] == [
            r.logits.tobytes() for r in cold
        ]
        assert not any(r.prefetched for r in replies)
        assert metrics["bundles_promised"] == 2  # behind requests 0 and 2
        assert metrics["promises_claimed"] == 0
        assert seeds[1] == seeds[3]  # promised behind 0, in-band for 2
        _assert_pools_balanced(
            metrics, {"session='s'/batch=1": 2, "session='s'/batch=2": 1}
        )
        assert metrics["bundles_returned"] == 2 and metrics["inflight_bundles"] == 0

    @pytest.mark.parametrize("ending", ("bye", "vanish", "stop"))
    @pytest.mark.parametrize("session", ("s", None), ids=("named", "anonymous"))
    def test_connection_ends_with_a_promise_outstanding(
        self, victim, stream, stream_baselines, session, ending
    ):
        """The three ways a connection ends while it holds a promise. A
        named session's goes back to the front of its own pool — the next
        connection of that key continues the stream where the fault-free
        run would be; an anonymous one's seed was seen by a client that
        shares its pool with strangers, so it is poisoned, never resold."""
        server, thread = _start_warm(victim, (session,))
        pool = f"session={session!r}/batch=1"
        try:
            client = RemoteClient(
                "127.0.0.1", server.port, noise_magnitude=0.1, seed=9,
                session=session, timeout=CLIENT_TIMEOUT,
            )
            first = [client.infer(batch).logits.tobytes() for batch in stream[:2]]
            assert client._held is not None
            assert server.metrics()["inflight_bundles"] == 1 + (session is not None)
            if ending == "bye":
                client.close()
            elif ending == "vanish":
                client.transport.close()
            else:
                server.stop(timeout=0.2)
                client.transport.close()
            assert server.wait_idle(timeout=10.0)
            metrics = server.metrics()
            # The promise is settled; a vanished named session's completed
            # request stays retained, as ever, for the retry it may send.
            assert metrics["inflight_bundles"] == (
                session is not None and ending == "vanish"
            )
            _assert_pools_balanced(metrics, {pool: 2})
            assert metrics["promises_poisoned"] == (session is None)
            assert metrics["bundles_poisoned"] == (session is None)
            assert metrics["bundles_returned"] == (session is not None)
            assert metrics["sessions_reaped"] == (ending != "bye")
            if ending == "stop":
                return
            again = RemoteClient(
                "127.0.0.1", server.port, noise_magnitude=0.1, seed=9,
                session=session, timeout=CLIENT_TIMEOUT,
            )
            again.engine.restore_share_rng(client.engine.share_rng_state())
            again.noise.rng.bit_generator.state = client.noise.rng.bit_generator.state
            rest = [again.infer(batch) for batch in stream[2:]]
            again.close()
            assert server.wait_idle(timeout=10.0)
            metrics = server.metrics()
        finally:
            server.stop()
            thread.join(timeout=10.0)
        assert [r.prefetched for r in rest] == [False, session is not None]
        _, _, third, *later = server.seeds[session]
        if session is None:
            assert third not in later and len(later) == 2  # never shipped again
        else:
            assert later == [third, later[1]] and later[1] != third
        _assert_pools_balanced(metrics, {pool: STREAM})
        assert metrics["inflight_bundles"] == 0
        assert metrics["bundles_poisoned"] == (session is None)  # and no more
        if session is not None:
            assert first + [r.logits.tobytes() for r in rest] == stream_baselines(
                "s", 9
            )
