"""Two-process C2PI serving over the socket transport.

:class:`RemoteServer` and :class:`RemoteClient` run the full C2PI flow —
offline bundle shipping, the online 2PC protocol, the noised reveal and
the server's clear-phase evaluation — between two actual processes
connected by a :class:`~repro.mpc.transport.PeerChannel`:

1. **Handshake.** The client announces optional link shaping and an
   optional *session* key; the server replies with the weight-free
   :func:`~repro.mpc.party.program_manifest` (op kinds and shapes only —
   weights never leave the server) — or an explicit ``busy`` reply when
   the session registry is at capacity.
2. **Offline phase (per request).** The server draws a bundle from the
   session's per-batch :class:`~repro.mpc.preprocessing.PreprocessingPool`
   (its dealer seed is derived from the session key, so every session's
   material stream is independent of how other sessions interleave),
   splits it, and ships the client's half as an opaque blob. It rides
   **one request ahead** whenever it can: behind the ``metrics`` frame
   of request *n* the server ships the half of the next bundle its pool
   has *ready* (a *promise*), and request *n+1* is ``req`` + online and
   nothing else. First request, dry pool and retry exchange it in-band,
   between ``req`` and round 1, through the same delivery function.
3. **Online phase.** Both sides execute their
   :class:`~repro.mpc.party.PartyEngine` halves over the socket.
4. **Reveal + clear phase.** Both sides call
   :func:`~repro.core.c2pi.noised_reveal` on the socket — the client
   perturbs its boundary share with its
   :class:`~repro.core.noise.NoiseMechanism` and reveals it, the server
   reconstructs the noised activation — then the server runs
   :func:`~repro.core.c2pi.clear_tail` and returns the logits.

The server is **concurrent** around an event loop: one selector thread
owns the listener and every idle session's socket, so an idle-on-the-wire
session costs one file descriptor — not a parked thread — and sessions
are handed to a bounded worker pool only when a complete request frame
has actually arrived; the worker then reads the request's rounds off
the socket itself, with no hop through the loop. Sessions beyond
``max_sessions`` get the busy reply instead of a hung socket, a
malformed client costs only its own connection, and
:meth:`RemoteServer.stop` drains in-flight sessions before tearing the
listener down. Per-session dealer-seed derivation
(:func:`~repro.core.c2pi.derive_session_seed`) is what keeps every session's material
stream — and therefore its logits, bit for bit — identical to a serial
single-client run with the same session key, no matter how requests from
other clients interleave (DESIGN.md section 8). Anonymous sessions (no
``session`` key) share the base-seeded pools, preserving the historical
single-client byte-identity with the in-process pipeline.

The server is also **fault-tolerant** (DESIGN.md section 9): every
socket op is deadlined (``request_timeout``), every request carries an
idempotency key, and a session killed by the network resolves its
offline material on teardown — unshipped bundles return to their pool,
half-shipped ones are retained for the retry or poisoned. A client's
:meth:`RemoteClient.infer` with ``retries`` reconnects, rewinds its rng
snapshots and replays the request; the server replays the retained
bundle for that key, so the retried logits are byte-identical to the
fault-free run. The chaos layer (:mod:`repro.mpc.chaos`) injects
scripted network faults to prove all of this
(``tests/serve/test_chaos.py``, ``c2pi chaos-check``).

Measured socket traffic (``WireStats``) and protocol accounting
(:class:`~repro.mpc.network.Channel` counters) travel back with every
reply, so callers can verify the wire against the books
(``bytes_match``) and feed the same run's traffic to
:meth:`~repro.mpc.network.NetworkModel.latency_of`. This module holds
no benchmark driver: ``c2pi serve-bench`` (exact counts across
placements), ``c2pi loadgen`` (many sessions) and ``perf/`` (time) drive
it from outside.
"""

from __future__ import annotations

import queue
import random
import selectors
import socket
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field

import numpy as np

from ..core.c2pi import clear_tail, derive_session_seed, noised_reveal
from ..core.noise import NoiseMechanism
from ..models.layered import LayeredModel
from ..mpc.fixedpoint import DEFAULT_CONFIG, FixedPointConfig
from ..mpc.network import NetworkModel, TrafficSnapshot
from ..mpc.party import PartyEngine, program_fingerprint, program_manifest
from ..mpc.preprocessing import (
    MaterialMismatch,
    PreprocessingPool,
    ReplayDealer,
    party_bundle_segments,
    split_bundle,
    unpack_party_bundle,
)
from ..mpc.program import SecureProgram, compile_program
from .dealer_service import (
    DealerBackedPool,
    DealerBusy,
    DealerClient,
    DealerError,
    DealerUnreachable,
)
from ..mpc.shm import ShmChannel
from ..mpc.transport import (
    LinkShaper,
    LoopChannel,
    PeerChannel,
    Transport,
    TransportError,
    WireStats,
)

__all__ = [
    "PROTOCOL_VERSION",
    "ServerBusy",
    "PoolBusy",
    "SessionStats",
    "derive_session_seed",
    "RemoteReply",
    "RemoteServer",
    "RemoteClient",
]

PROTOCOL_VERSION = 4  # v4: a bundle may follow ``metrics``, claimed by the next ``req``
_FINISHED_TAIL = 256  # retired connections ``metrics()`` still lists one by one


class ServerBusy(TransportError):
    """The server's session registry is full; it replied ``busy``."""


class PoolBusy(ServerBusy):
    """The server admitted the request but its offline material is
    momentarily unavailable (its dealer busy or unreachable past the
    fetch deadline). Retriable on the *same* connection: the session
    stays in lock-step and :meth:`RemoteClient.infer` with ``retries``
    backs off and replays the request key."""


def _snapshot_dict(snapshot: TrafficSnapshot) -> dict:
    return {
        "bytes_client_to_server": snapshot.bytes_client_to_server,
        "bytes_server_to_client": snapshot.bytes_server_to_client,
        "total_bytes": snapshot.total_bytes,
        "rounds": snapshot.rounds,
        "messages": snapshot.messages,
    }


# ----------------------------------------------------------------------
# server
# ----------------------------------------------------------------------
@dataclass
class SessionStats:
    """One session's serving record (kept in the registry snapshot)."""

    session_id: int
    session: int | str | None  # client-announced key (None = anonymous)
    requests: int = 0
    online_s: float = 0.0
    offline_s: float = 0.0
    handshake_ok: bool = False
    error: str | None = None
    active: bool = True
    wire: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class _Inflight:
    """One named session's most recent request and its dealer bundle.

    The joint bundle is retained until the request is *known delivered*
    (the next request key arrives, or the session says ``bye``): a retry
    of the same idempotency key replays the identical material — which,
    together with the client replaying its own rng draws, is what makes
    retried logits byte-identical to the fault-free run. Resolution:

    * superseded after completing → served normally (nothing to do);
    * failed before the client half shipped → ``pool.restore()`` (the
      intact bundle goes back; nothing left the server);
    * failed after shipping, then abandoned (superseded / ``bye`` /
      server stop without a retry) → ``pool.poison()`` (half-revealed
      material is never resold).

    The same record is every other acquisition too, with ``request``
    left ``None`` — no retry identity: an anonymous or keyless request's
    bundle, resolved where it fails, and a *promise*, the bundle shipped
    one request ahead that its connection holds (``_promises``) until
    the next ``req`` claims it. A claimed promise is bound to that
    request's key and lives on as above; an unclaimed one is settled by
    :meth:`RemoteServer._settle_promise`.
    """

    session: int | str | None
    request: int | None
    batch: int
    pool: PreprocessingPool
    bundle: list
    offline_s: float = 0.0  # acquire -> client half on the wire, last delivery
    shipped: bool = False
    completed: bool = False


class _Session:
    """One accepted connection's event-loop record.

    The loop thread watches and reads the file descriptor of a session
    in ``handshake`` or ``idle`` (``transport`` is a
    :class:`~repro.mpc.transport.LoopChannel`); a dispatch unwatches it,
    and the worker reads its own rounds until the matching return to
    ``idle`` hands the descriptor back. ``state`` transitions —
    ``handshake`` → (``queued`` ⇄ ``running`` ⇄ ``idle``) → ``dead``, or
    sideways to ``shm`` — happen under the server's ``_dispatch_lock``.
    """

    __slots__ = (
        "transport",
        "fd",
        "stats",
        "state",
        "deadline",
        "rejected",
        "hello_done",
        "shm_channel",
        "finished",
    )

    def __init__(self, transport: LoopChannel):
        self.transport = transport
        self.fd = -1
        self.stats: SessionStats | None = None
        self.state = "handshake"
        #: Loop-enforced receive deadline (monotonic seconds): the
        #: handshake budget at first, the idle ``request_timeout``
        #: between requests; ``None`` while a worker owns the session.
        self.deadline: float | None = None
        self.rejected = False
        self.hello_done = False
        self.shm_channel: Transport | None = None
        self.finished = False


class RemoteServer:
    """Serve private inferences to remote clients over TCP, concurrently.

    The server owns the model: it compiles the crypto segment once,
    plays the dealer for the offline phase, executes party 1 of the
    online protocol, and evaluates the clear layers on the noised
    boundary activation. With ``dealer=`` it fetches every bundle from
    a ``c2pi dealer`` process instead and never draws one itself: a
    dealer busy or down past ``dealer_fetch_deadline`` answers the
    request with a retriable :class:`PoolBusy`, a dealer refusal
    (another program's fingerprint) or a bundle it cannot read (a store
    of another container version) with a non-retriable
    :class:`~repro.serve.dealer_service.DealerError` — in the bundle
    slot, so the connection and the worker both live on.

    Concurrency model (DESIGN.md sections 8 and 14):

    * one **event-loop thread** owns the listener and every idle
      session's socket: accepts and idle reads are non-blocking waits
      multiplexed on a selector, so an idle session costs one fd, not a
      parked thread — thousands of connected-but-quiet clients are fine;
    * ``workers`` pool threads execute the protocol; a session is
      dispatched to the pool only when a complete frame is waiting, and
      the worker is held per *request*, not per session. It reads the
      request's rounds itself (the loop unwatches the fd at dispatch and
      watches it again once the worker parks the session). At most
      ``workers`` engine executions run at a time (``_worker_slots``
      also covers shared-memory sessions, which keep a dedicated pump
      thread because ring buffers are not selectable);
    * the registry admits at most ``max_sessions`` sessions (default:
      ``workers``); a connection beyond that receives an explicit
      ``busy`` hello (the client raises :class:`ServerBusy`) instead of
      a silently hung socket;
    * each session's preprocessing pools are seeded with
      :func:`derive_session_seed`, so its dealer stream — and logits —
      are byte-identical to a serial run of the same session key no
      matter how other sessions interleave. Anonymous sessions share the
      base-seeded pools (the single-client behaviour of old);
    * a malformed or vanished client is contained to its own session:
      the loop never sees per-connection exceptions, and failed
      handshakes are counted in ``connections_failed`` — never in
      ``connections_served``;
    * :meth:`stop` drains: in-flight sessions finish (bounded by
      ``timeout``) before their transports are force-closed.

    Only the loop thread ever touches the selector: workers and
    :meth:`stop` enqueue commands and wake the loop over a socketpair,
    so a descriptor is always unregistered before its socket closes.
    """

    def __init__(
        self,
        model: LayeredModel,
        boundary: float,
        config: FixedPointConfig = DEFAULT_CONFIG,
        seed: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        program: SecureProgram | None = None,
        workers: int = 4,
        max_sessions: int | None = None,
        request_timeout: float = 120.0,
        allow_shm: bool = True,
        dealer: tuple[str, int] | None = None,
        dealer_timeout: float = 5.0,
        dealer_fetch_deadline: float | None = None,
        dealer_transport_wrapper=None,
    ):
        if workers < 1:
            raise ValueError("workers must be positive")
        if request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        # Offline material source: None = generate in-process (the
        # historical mode); a (host, port) endpoint delegates generation
        # to the standalone crypto-producer (serve/dealer_service.py).
        # A dealer-backed server never generates: a dealer down or busy
        # past the fetch deadline answers the request with PoolBusy.
        self._dealer_endpoint = dealer
        self._dealer_timeout = dealer_timeout
        # The per-RPC timeout bounds one socket wait; the fetch deadline
        # bounds the whole retry loop around it, so it must leave room
        # for a few reconnect attempts (a dealer restart shorter than
        # the deadline is invisible to the serving request).
        self._dealer_fetch_deadline = (
            4.0 * dealer_timeout
            if dealer_fetch_deadline is None
            else dealer_fetch_deadline
        )
        self._dealer_wrapper = dealer_transport_wrapper
        # Shared-memory placement is granted per session, and only to
        # unshaped links (a shaped "WAN" session must stay on the socket
        # path its emulation throttles).
        self.allow_shm = allow_shm
        self.model = model
        self.boundary = boundary
        self.config = config
        self.seed = seed
        self.host = host
        self.program = (
            program if program is not None else compile_program(model, boundary, config)
        )
        # One engine serves every session: the party-1 execution path is
        # stateless per run (the share rng belongs to party 0 only), so
        # concurrent workers may share it.
        self.engine = PartyEngine.from_program(self.program, party=1)
        self.workers = workers
        self.max_sessions = workers if max_sessions is None else max_sessions
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be positive")
        self._pools: dict[tuple[int | str | None, int], PreprocessingPool] = {}
        self._pools_lock = threading.Lock()
        self._listener = PeerChannel.listen(host, port)
        self.port = self._listener.getsockname()[1]
        self._stopping = False
        # One state lock guards the registry and the finished-session
        # log; `_drained` lets stop() wait for in-flight sessions and
        # `_worker_slots` bounds concurrent protocol work.
        self._state_lock = threading.Lock()
        self._drained = threading.Condition(self._state_lock)
        # Counters get a dedicated leaf lock (never held while taking
        # any other): bare `+=` from concurrent workers is not atomic
        # under the GIL, so unlocked increments lose updates under load.
        self._metrics_lock = threading.Lock()
        self._worker_slots = threading.Semaphore(workers)
        # Event-loop plumbing. The loop thread is the only one that may
        # touch `_selector`, `_watched` or the listener once started;
        # everyone else appends to `_commands` and wakes the loop.
        self._dispatch_lock = threading.Lock()
        self._dispatch: queue.Queue = queue.Queue()
        self._commands: deque = deque()
        self._selector: selectors.BaseSelector | None = None
        self._watched: dict[int, _Session] = {}
        self._wake_r: socket.socket | None = None
        self._wake_w: socket.socket | None = None
        self._loop_thread: threading.Thread | None = None
        self._worker_threads: list[threading.Thread] = []
        self._start_lock = threading.Lock()
        self._started = False
        self._listener_open = True
        self._stopped = threading.Event()
        self._active: dict[int, tuple[SessionStats, Transport]] = {}
        # Accepted connections that have not completed the handshake yet.
        # Tracked so stop() can close them and so a flood of connections
        # that never speak (slow-loris) is bounded: beyond _max_pending
        # they are dropped outright, and each pending handshake gets only
        # `handshake_timeout` (not the full protocol timeout) to send its
        # link message. Channel carries identity equality/hash (eq=False),
        # so transports key the set directly.
        self._pending: set[Transport] = set()
        self._max_pending = max(32, 4 * self.max_sessions)
        self.handshake_timeout = 10.0
        # Read/write deadline applied to every accepted connection's
        # protocol ops: no socket wait outlives it, so a vanished or
        # stalled client can park a worker for at most this long before
        # the session is reaped and its pool material resolved.
        self.request_timeout = request_timeout
        # Per named session: the latest request's retained bundle (see
        # _Inflight). One entry per session key — the protocol is serial
        # within a session, so only its newest request can be retried.
        self._inflight: dict[int | str, _Inflight] = {}
        # Per connection (``session_id``): the bundle shipped one request
        # ahead that no ``req`` has claimed yet.
        self._promises: dict[int, _Inflight] = {}
        # Retired connections: the newest in full, all in a running total.
        self._finished: deque[SessionStats] = deque(maxlen=_FINISHED_TAIL)
        self._finished_wire = WireStats()
        self._next_session_id = 0
        self.connections_served = 0
        self.connections_failed = 0
        self.connections_rejected = 0
        self.requests_served = 0
        self.requests_retried = 0
        self.requests_busy = 0
        self.sessions_reaped = 0
        self.bundles_promised = 0
        self.promises_claimed = 0
        self.promises_poisoned = 0

    # ------------------------------------------------------------------
    def _count(self, name: str, n: int = 1) -> None:
        """Atomically bump one of the public counters.

        Every counter mutation goes through here: `+=` from concurrent
        workers is a read-modify-write that the GIL does not make
        atomic, and `metrics()` must never undercount served requests.
        """
        with self._metrics_lock:
            setattr(self, name, getattr(self, name) + n)

    def _note_served(
        self, stats: SessionStats, online_s: float, offline_s: float
    ) -> None:
        """Accumulate one request into its session's stats, atomically."""
        with self._metrics_lock:
            stats.requests += 1
            stats.online_s += online_s
            stats.offline_s += offline_s

    # ------------------------------------------------------------------
    def pool(
        self, batch: int, session: int | str | None = None
    ) -> PreprocessingPool:
        """The (session, batch) preprocessing pool, created on demand.

        Construction happens *outside* ``_pools_lock`` with a
        double-checked insert: a dealer-backed pool's client dials a
        remote endpoint lazily, but even its construction (fingerprint
        hashing, plan sizing) must not stall every other session's pool
        lookup behind one slow key. The losing side of a construction
        race closes its candidate.
        """
        key = (session, batch)
        with self._pools_lock:
            pool = self._pools.get(key)
        if pool is not None:
            return pool
        seed = derive_session_seed(self.seed, session)
        if self._dealer_endpoint is None:
            candidate: PreprocessingPool = PreprocessingPool(
                self.program, batch, dealer_seed=seed
            )
        else:
            host, port = self._dealer_endpoint
            # One client per pool: fetches are serialized by the
            # pool's generation lock, so the RPC connection never
            # needs to be shared across threads.
            candidate = DealerBackedPool(
                self.program,
                batch,
                dealer_seed=seed,
                client=DealerClient(
                    host,
                    port,
                    fingerprint=program_fingerprint(self.program),
                    timeout=self._dealer_timeout,
                    transport_wrapper=self._dealer_wrapper,
                ),
                fetch_deadline=self._dealer_fetch_deadline,
            )
        with self._pools_lock:
            pool = self._pools.setdefault(key, candidate)
        if pool is not candidate and isinstance(candidate, DealerBackedPool):
            candidate.close()
        return pool

    def warm(
        self, batch: int, bundles: int = 1, session: int | str | None = None
    ) -> None:
        """Pre-generate offline bundles for ``batch``-sized requests."""
        self.pool(batch, session=session).refill(bundles)

    # ------------------------------------------------------------------
    @property
    def active_sessions(self) -> int:
        with self._state_lock:
            return len(self._active)

    def wait_idle(self, timeout: float = 10.0) -> bool:
        """Block until no session is active (event-driven, no polling).

        A client's ``close()`` returns as soon as its ``bye`` is on the
        wire — the server may still be retiring the session. Callers that
        want quiesced metrics (tests, drain scripts) wait here on the
        same condition ``stop()`` drains on.
        """
        deadline = time.monotonic() + timeout
        with self._drained:
            while self._active:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._drained.wait(remaining):
                    return False
        return True

    def serve_forever(self, once: bool = False) -> None:
        """Serve until :meth:`stop` (or until one session, with ``once``).

        Starts the event loop and the worker pool on first call, then
        blocks. With ``once`` the call returns as soon as the first
        session has finished and no other is active (the loop keeps
        running; the typical ``--once`` caller exits the process next).
        """
        self._ensure_started()
        if once:
            with self._drained:
                while not self._stopping and not (
                    self._finished and not self._active
                ):
                    self._drained.wait(timeout=0.2)
            return
        self._stopped.wait()

    def _ensure_started(self) -> None:
        with self._start_lock:
            if self._started:
                return
            self._started = True
            self._listener.setblocking(False)
            self._selector = selectors.DefaultSelector()
            self._selector.register(self._listener, selectors.EVENT_READ,
                                    "listener")
            self._wake_r, self._wake_w = socket.socketpair()
            self._wake_r.setblocking(False)
            self._wake_w.setblocking(False)
            self._selector.register(self._wake_r, selectors.EVENT_READ, "wake")
            self._loop_thread = threading.Thread(
                target=self._loop_main, name="c2pi-loop", daemon=True
            )
            self._loop_thread.start()
            self._worker_threads = [
                threading.Thread(
                    target=self._worker_main,
                    name=f"c2pi-worker-{index}",
                    daemon=True,
                )
                for index in range(self.workers)
            ]
            for worker in self._worker_threads:
                worker.start()

    def _wake_loop(self) -> None:
        wake = self._wake_w
        if wake is None:
            return
        try:
            # audit: allow[wire/missing-label] -- loop wake socketpair, not protocol traffic
            wake.send(b"\x00")
        except (BlockingIOError, InterruptedError):
            pass  # a wake is already pending
        except OSError:
            pass  # loop already torn down

    def stop(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop accepting; optionally wait for in-flight sessions.

        With ``drain`` (default) the call blocks until every admitted
        session has finished or ``timeout`` elapses; whatever is left is
        then force-closed so the caller never hangs on a wedged client.
        """
        self._stopping = True
        started = self._started and not self._stopped.is_set()
        if started:
            # The loop owns the listener: closing it out from under a
            # select() would corrupt the selector, so ask the loop.
            self._commands.append(("stop-accepting", None))
            self._wake_loop()
        else:
            self._close_listener()
        if drain:
            deadline = time.monotonic() + timeout
            with self._drained:
                while self._active:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._drained.wait(remaining):
                        break
        with self._state_lock:
            leftovers = [transport for _, transport in self._active.values()]
            leftovers.extend(self._pending)
            stranded = list(self._inflight.values())
            self._inflight.clear()
            promised = list(self._promises.values())
            self._promises.clear()
        if started:
            self._commands.append(("shutdown", None))
            self._wake_loop()
            self._stopped.wait(timeout=5.0)
        # The loop's exit closed every watched socket; anything left
        # (shared-memory channels, commands that raced the shutdown) is
        # closed here — close() is idempotent.
        self._run_commands(direct=True)
        for transport in leftovers:
            transport.close()
        for _ in self._worker_threads:
            self._dispatch.put(None)
        # No retry is coming once the server is down: resolve every
        # retained bundle so pool accounting balances at shutdown.
        for record in stranded:
            if not record.completed:
                record.pool.poison()
        for record in promised:
            self._settle_promise(record)
        with self._pools_lock:
            pools = list(self._pools.values())
        for pool in pools:
            if isinstance(pool, DealerBackedPool):
                pool.close()

    def _close_listener(self) -> None:
        if not self._listener_open:
            return
        self._listener_open = False
        try:
            # close() alone does not wake a blocked accept() on Linux;
            # shutdown() interrupts it deterministically.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:  # pragma: no cover - platform dependent
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - platform dependent
            pass

    # -- the event loop (all selector access lives on this thread) ------
    def _loop_main(self) -> None:
        try:
            while True:
                if self._run_commands():
                    return  # shutdown: _loop_finish runs in finally
                events = self._selector.select(self._loop_timeout())
                for key, _ in events:
                    tag = key.data
                    if tag == "listener":
                        self._accept_ready()
                    elif tag == "wake":
                        self._drain_wake()
                    else:
                        self._service_readable(tag)
                self._expire_deadlines()
        finally:
            self._loop_finish()

    def _run_commands(self, direct: bool = False) -> bool:
        """Apply queued commands; ``True`` means shutdown was requested.

        ``direct`` is the post-loop path (stop() draining stragglers):
        the selector is gone, so only the close side effects apply.
        """
        while True:
            try:
                command, payload = self._commands.popleft()
            except IndexError:
                return False
            if command == "close":
                self._unwatch(payload)
                payload.transport.close()
            elif command == "watch" and direct:
                # Parked as the loop went down: nothing will watch it,
                # so close it and let a worker retire it.
                payload.transport.close()
                self._maybe_dispatch(payload)
            elif command == "watch":
                self._watch(payload)
            elif command == "stop-accepting" and not direct:
                self._unwatch_listener()
                self._close_listener()
            elif command == "shutdown" and not direct:
                return True

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:  # pragma: no cover - teardown race
            pass

    def _loop_timeout(self) -> float | None:
        """Sleep until the nearest session deadline (or a wake)."""
        soonest: float | None = None
        for session in self._watched.values():
            deadline = session.deadline
            if deadline is not None and (soonest is None or deadline < soonest):
                soonest = deadline
        if soonest is None:
            return None
        return max(0.0, soonest - time.monotonic())

    def _unwatch_listener(self) -> None:
        if self._listener_open:
            try:
                self._selector.unregister(self._listener)
            except (KeyError, ValueError):  # pragma: no cover - idempotent
                pass

    def _accept_ready(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # listener closed by stop()
            with self._state_lock:
                overloaded = len(self._pending) >= self._max_pending
            if overloaded or self._stopping:
                # A connection flood that outpaces handshakes (or a
                # shutdown in progress): drop outright rather than
                # registering yet another silent socket.
                self._count("connections_rejected")
                try:
                    sock.close()
                except OSError:  # pragma: no cover - already dead
                    pass
                continue
            transport = LoopChannel(sock, party=1, timeout=self.request_timeout)
            with self._state_lock:
                self._pending.add(transport)
            session = _Session(transport)
            # The handshake gets a short deadline of its own: a client
            # that connects and never speaks is cut off in seconds, not
            # after the full (120 s) protocol timeout.
            session.deadline = time.monotonic() + self.handshake_timeout
            session.fd = transport.fileno()
            self._watch(session)

    def _watch(self, session: _Session) -> None:
        self._watched[session.fd] = session
        self._selector.register(session.transport, selectors.EVENT_READ, session)

    def _service_readable(self, session: _Session) -> None:
        delivered, closed = session.transport.on_readable()
        if closed:
            # EOF / terminal framing failure: nothing more will arrive,
            # stop watching (the close itself is the owner's business).
            self._unwatch(session)
            session.deadline = None
        if delivered:
            self._maybe_dispatch(session)

    def _unwatch(self, session: _Session) -> None:
        if self._watched.pop(session.fd, None) is None:
            return
        try:
            self._selector.unregister(session.transport)
        except (KeyError, ValueError):  # pragma: no cover - idempotent
            pass

    def _expire_deadlines(self) -> None:
        now = time.monotonic()
        for session in list(self._watched.values()):
            deadline = session.deadline
            if deadline is None or now < deadline:
                continue
            # Synthesize the timeout a blocking recv would have raised:
            # the dispatched worker runs the exact failure/reap path the
            # thread-per-session model exercised.
            session.deadline = None
            session.transport.inject(
                TransportError("party 1 timed out waiting for the peer")
            )
            self._maybe_dispatch(session)

    def _maybe_dispatch(self, session: _Session) -> None:
        with self._dispatch_lock:
            if session.state not in ("handshake", "idle"):
                return  # queued/running/shm/dead: someone owns it
            session.state = "queued"
            session.deadline = None
        # The worker reads the whole request off the socket itself.
        self._unwatch(session)
        session.transport.loop_reads = False
        self._dispatch.put(session)

    def _loop_finish(self) -> None:
        """Loop teardown: close every watched socket, then signal exit."""
        for session in list(self._watched.values()):
            self._unwatch(session)
            session.transport.close()
            # Wake a worker to run the failure/retire bookkeeping for
            # sessions nobody owns (idle, mid-handshake).
            self._maybe_dispatch(session)
        self._unwatch_listener()
        self._close_listener()
        for sock in (self._wake_r, self._wake_w):
            if sock is not None:
                try:
                    sock.close()
                except OSError:  # pragma: no cover - teardown race
                    pass
        self._selector.close()
        self._stopped.set()

    # -- the worker pool -------------------------------------------------
    def _worker_main(self) -> None:
        while True:
            session = self._dispatch.get()
            if session is None:
                return
            with self._dispatch_lock:
                run = session.state == "queued"
                if run:
                    session.state = "running"
            if run:
                self._process(session)

    def _process(self, session: _Session) -> None:
        """One dispatch: handshake, or serve queued requests, then park
        (also the body of a shared-memory session's pump thread).

        Any per-connection failure — a vanished peer, a malformed
        request, a reshape error from a lying ``batch`` field — is
        recorded on the session and the connection closed; the loop and
        every other session keep running.
        """
        try:
            if not session.hello_done:
                if not self._session_handshake(session):
                    return  # rejected, failed over to shm, or parked
            self._session_requests(session)
        except (TransportError, OSError, ValueError, KeyError,
                TypeError, AttributeError) as exc:
            # Contain the blast radius: this connection dies, the server
            # lives. TransportError covers vanished/out-of-lockstep
            # peers; the rest is what a hostile or buggy peer can induce
            # (malformed request dict, bad batch, reshape failure, ...)
            # — worth surfacing in the metrics, not in a dead worker.
            self._finish_session(session, exc)
        except Exception as exc:
            # An internal bug (assertion, name error, ...) must not be
            # absorbed as if a client had misbehaved: do the same
            # bookkeeping, then let it propagate to the thread excepthook.
            self._finish_session(session, exc)
            raise

    def _session_handshake(self, session: _Session) -> bool:
        """Run the hello exchange; ``True`` if requests should follow now.

        ``False`` covers the three other outcomes: the connection was
        rejected with a busy hello, upgraded to shared memory (a pump
        thread takes over), or parked idle on the loop until its first
        request frame arrives.
        """
        transport = session.transport
        protocol_timeout = transport.timeout
        transport.timeout = self.handshake_timeout
        link = transport.recv_obj("link")
        transport.timeout = protocol_timeout
        if link.get("bandwidth_bytes_per_s"):
            transport.shaper = LinkShaper(
                link["bandwidth_bytes_per_s"], link.get("rtt_s") or 0.0
            )
        session_key = link.get("session")
        stats, rejection = self._admit(session_key, transport)
        if stats is None:
            session.rejected = True
            self._count("connections_rejected")
            with self._state_lock:
                active = len(self._active)
            transport.send_obj(
                {
                    "protocol": PROTOCOL_VERSION,
                    "busy": True,
                    "reason": rejection,
                    "active_sessions": active,
                    "max_sessions": self.max_sessions,
                },
                "hello",
            )
            self._finish_session(session, None)
            return False
        session.stats = stats
        hello = {
            "protocol": PROTOCOL_VERSION,
            "model": self.model.name,
            "boundary": self.boundary,
            "session": stats.session_id,
            "manifest": program_manifest(self.program),
        }
        shm_channel = None
        if link.get("shm") and self.allow_shm and transport.shaper is None:
            try:
                shm_channel, grant = ShmChannel.serve(transport)
            except (OSError, ValueError, MemoryError):
                # Can't create the segments (exhausted /dev/shm,
                # no shared-memory support, ...): stay on TCP.
                shm_channel = None
            else:
                hello["shm"] = grant
        transport.send_obj(hello, "hello")
        stats.handshake_ok = True
        session.hello_done = True
        if shm_channel is not None:
            # Everything after the hello rides the rings, which are not
            # selectable: a dedicated pump thread serves this session
            # (still one protocol slot per request) and reads the TCP
            # connection underneath, the liveness carrier, itself.
            session.shm_channel = shm_channel
            with self._state_lock:
                self._active[stats.session_id] = (stats, shm_channel)
            with self._dispatch_lock:
                session.state = "shm"
            threading.Thread(
                target=self._process,
                args=(session,),
                name="c2pi-shm-session",
                daemon=True,
            ).start()
            return False
        return not self._park_idle(session)

    def _session_requests(self, session: _Session) -> None:
        """Serve request frames until the inbox drains, then park.

        The dispatch contract guarantees a complete frame is waiting on
        entry, so the only blocking receives a pool worker ever performs
        are *inside* one request's protocol execution — where the client
        is actively streaming its rounds, and the worker reads them off
        the socket itself, under ``_worker_slots``. A shared-memory
        session never parks (its rings are not selectable): its pump
        thread stays in this loop, waiting on the ring, until ``bye``.
        """
        shm = session.shm_channel
        transport = shm if shm is not None else session.transport
        stats = session.stats
        while True:
            request = transport.recv_obj("req")
            command = request.get("cmd")
            if command == "bye":
                self._resolve_inflight(stats.session, final=True)
                self._finish_session(session, None)
                return
            if command != "infer":
                raise TransportError(f"unknown request: {request!r}")
            with self._worker_slots:
                served = self._serve_inference(transport, request, stats)
            self._count("requests_served" if served else "requests_busy")
            if shm is None and self._park_idle(session):
                return

    def _park_idle(self, session: _Session) -> bool:
        """Between requests: hand the session back to the loop if its
        inbox is empty. Only the loop touches the selector, so the fd
        goes back with a ``watch`` command; bytes that land before the
        loop registers it leave the fd readable, and the loop's first
        select delivers them — a frame that races this park is never
        lost."""
        with self._dispatch_lock:
            if session.transport.frame_waiting():
                return False  # the next frame is already here
            session.state = "idle"
            session.deadline = time.monotonic() + self.request_timeout
        session.transport.loop_reads = True
        self._commands.append(("watch", session))
        self._wake_loop()
        return True

    def _finish_session(
        self, session: _Session, exc: BaseException | None
    ) -> None:
        """Terminal bookkeeping for one session (idempotent).

        Mirrors the old per-session thread's ``except``/``finally``:
        failure notes and reaping, transport closure (routed through
        the loop so the descriptor is unregistered first), pending-set
        cleanup and retirement into the finished log.
        """
        with self._dispatch_lock:
            if session.finished:
                return
            session.finished = True
            session.state = "dead"
        if exc is not None:
            self._note_worker_failure(session.stats, session.rejected, exc)
        shm = session.shm_channel
        if shm is not None:
            shm.close()
        if self._stopped.is_set():
            session.transport.close()
        else:
            self._commands.append(("close", session))
            self._wake_loop()
        with self._state_lock:
            self._pending.discard(session.transport)
        if session.stats is not None:
            # Before the key is free again: a named session's next
            # connection must find its promise back at the pool's front.
            self._settle_promise(self._take_promise(session.stats))
            self._retire(
                session.stats, shm if shm is not None else session.transport
            )

    # ------------------------------------------------------------------
    def _admit(self, session_key: int | str | None, transport: Transport):
        """Register a session; returns ``(stats, rejection_reason)``.

        Rejects at capacity — and rejects a *named* key that is already
        active: two live connections drawing from one seeded pool would
        interleave its material stream and silently void the per-session
        determinism guarantee. (Anonymous sessions opt out of that
        guarantee and may share freely.)
        """
        with self._state_lock:
            if len(self._active) >= self.max_sessions:
                return None, "capacity"
            if session_key is not None and any(
                stats.session == session_key for stats, _ in self._active.values()
            ):
                return None, "session-key-in-use"
            stats = SessionStats(
                session_id=self._next_session_id, session=session_key
            )
            self._next_session_id += 1
            self._active[stats.session_id] = (stats, transport)
            # Promoted out of the handshake set: stop() must drain this
            # session, not force-close it as a stalled handshake.
            self._pending.discard(transport)
        return stats, None

    def _retire(self, stats: SessionStats, transport: Transport) -> None:
        stats.active = False
        stats.wire = transport.stats.as_dict()
        self._count(
            "connections_served"
            if stats.handshake_ok and stats.error is None
            else "connections_failed"
        )
        with self._drained:
            self._active.pop(stats.session_id, None)
            self._finished.append(stats)
            self._finished_wire.accumulate(transport.stats)
            self._drained.notify_all()

    def _note_worker_failure(
        self, stats: "SessionStats | None", rejected: bool, exc: BaseException
    ) -> None:
        """Session failure bookkeeping (shared by both handlers)."""
        if stats is not None:
            stats.error = f"{type(exc).__name__}: {exc}"
            self._reap(stats)
        elif not rejected:  # a rejection already counted itself
            self._count("connections_failed")

    def _reap(self, stats: SessionStats) -> None:
        """A session died mid-protocol: resolve its offline material.

        A bundle acquired but never (even partially) shipped goes back to
        the front of its pool, intact. A shipped-but-uncompleted bundle
        stays cached for the session's retry — the reconnecting client
        replays the request under the same idempotency key and receives
        the identical material (it is poisoned only if the retry never
        comes). Anonymous sessions have no retry identity; their failed
        bundles were already resolved inside ``_serve_inference``.
        """
        self._count("sessions_reaped")
        with self._state_lock:
            record = self._inflight.get(stats.session)
            restore = (
                record is not None and not record.shipped and not record.completed
            )
            if restore:
                self._inflight.pop(stats.session, None)
        if restore:
            record.pool.restore(record.bundle)

    def _resolve_inflight(self, session: int | str | None, final: bool = False,
                          keep: int | None = None) -> None:
        """Drop a session's retained bundle once no retry can want it.

        ``keep`` preserves the record with that request key (the one a
        new request is about to retry); ``final`` (``bye`` or shutdown)
        drops unconditionally. An uncompleted record resolved here was
        half-shipped to a client that moved on: poison it.
        """
        if session is None:
            return
        with self._state_lock:
            record = self._inflight.get(session)
            if record is None or (keep is not None and record.request == keep):
                return
            if not final and keep is None:
                return
            self._inflight.pop(session, None)
        if not record.completed:
            record.pool.poison()

    def _take_promise(self, stats: SessionStats) -> _Inflight | None:
        with self._state_lock:
            return self._promises.pop(stats.session_id, None)

    def _settle_promise(self, record: _Inflight | None) -> None:
        """Resolve a promise no request claimed.

        A named session's goes back to the *front* of its own pool,
        shipped or not: only that key ever draws from the pool and no
        request ran on the bundle, so the next in-band acquisition
        re-ships the same seed and the stream — retried and later logits
        alike — stays the fault-free one. An anonymous connection's
        shipped promise is poisoned: its pool is shared, and restoring
        it would sell one client's seed to the next.
        """
        if record is None:
            return
        if record.session is None and record.shipped:
            record.pool.poison()
            self._count("promises_poisoned")
        else:
            record.pool.restore(record.bundle)

    def _acquire_for_request(
        self,
        request: dict,
        batch: int,
        stats: SessionStats,
        promise: _Inflight | None,
    ) -> _Inflight:
        """The request's dealer bundle: replayed on a retry, otherwise
        the ``promise`` it claimed or, without one, a fresh acquisition.

        A *named* session sending an idempotency key gets its bundle
        retained (see :class:`_Inflight`): a retried key replays the
        identical material, a new key supersedes (and resolves) the old
        record and binds the new one — promised or fresh, one ledger.
        Anonymous or keyless requests have no retry identity.
        """
        key = request.get("request")
        retained = stats.session is not None and key is not None
        if retained:
            key = int(key)
            with self._state_lock:
                record = self._inflight.get(stats.session)
                retried = record is not None and record.request == key
                if retried and record.batch != batch:
                    raise TransportError(
                        f"retried request {key} changed batch "
                        f"{record.batch} -> {batch}; a retry must replay the "
                        "original request verbatim"
                    )
            if retried:
                self._count("requests_retried")
                return record
            # A new key makes the previous record unreachable: resolve it.
            self._resolve_inflight(stats.session, keep=key, final=True)
        record = promise
        if record is None:
            pool = self.pool(batch, session=stats.session)
            record = _Inflight(
                stats.session, None, batch, pool, pool.acquire_bundle()
            )
        with self._state_lock:
            self._promises.pop(stats.session_id, None)  # claimed, if it was held
            if retained:
                record.request = key
                self._inflight[stats.session] = record
        return record

    def _serve_inference(
        self, transport: Transport, request: dict, stats: SessionStats
    ) -> bool:
        batch = int(request["batch"])
        # Offline: draw a bundle, keep our half, ship the client's half —
        # unless it went out behind the previous reply and this request
        # claims it.
        offline_start = time.perf_counter()
        promise = None
        if request.get("promised"):
            with self._state_lock:
                promise = self._promises.get(stats.session_id)
            if promise is None or promise.batch != batch:
                raise TransportError(
                    f"request {request.get('request')} claims a promised "
                    f"batch-{batch} bundle this connection does not hold — "
                    "the parties are out of lock-step"
                )
        else:
            # Not claimed (another batch size, a retry): settle it *before*
            # acquiring, so a restored promise is what this request draws.
            self._settle_promise(self._take_promise(stats))
        try:
            record = self._acquire_for_request(request, batch, stats, promise)
        except (DealerBusy, DealerUnreachable, DealerError, MaterialMismatch) as exc:
            # No offline material: the dealer is busy or down (retriable),
            # refused the pool or served a bundle this build cannot read
            # (a configuration error, not retriable). Nothing has been
            # written to the wire for this request yet, so the session
            # stays in lock-step: fill the bundle slot with a typed
            # refusal instead of killing the connection — or, escaping
            # `_process`, the worker thread.
            transport.send_obj(
                {
                    "busy": True,
                    "retriable": isinstance(exc, (DealerBusy, DealerUnreachable)),
                    "reason": type(exc).__name__,
                    "detail": str(exc),
                },
                "bundle",
            )
            return False
        try:
            if record is promise:
                self._count("promises_claimed")
            else:
                self._deliver(transport, record, offline_start)
            material = ReplayDealer(split_bundle(record.bundle, 1))
            self._run_request(transport, stats, record, material)
            record.completed = True
            return True
        except Exception:
            if record.request is None:
                # No retry identity: resolve the bundle here and now.
                if record.shipped:
                    record.pool.poison()
                else:
                    record.pool.restore(record.bundle)
            raise

    def _deliver(
        self, transport: Transport, record: _Inflight, since: float
    ) -> None:
        """Ship ``record``'s client half: the one writer of a bundle
        blob, in-band (between ``req`` and round 1) and one request
        ahead (behind ``metrics``) alike."""
        # Lay the container out before flagging: writing the manifest
        # is the one fallible step before any byte can leave the
        # server, and the window in which a failed bundle is still
        # restorable. Once send_blob is attempted, a partial write is
        # indistinguishable from none: shipped means "maybe". Party
        # 0's half of a seeded bundle is its requests and seed alone.
        segments = party_bundle_segments(record.bundle)
        record.shipped = True
        transport.send_blob(segments, "bundle")
        record.offline_s = time.perf_counter() - since

    def _run_request(
        self,
        transport: Transport,
        stats: SessionStats,
        record: _Inflight,
        material: ReplayDealer,
    ) -> None:
        # Online: our half of the protocol, then reveal + clear phase.
        before = transport.snapshot()
        online_start = time.perf_counter()
        execution = self.engine.run(transport, material, batch=record.batch)
        boundary_ring = noised_reveal(
            transport, execution.share[None], [], self.config
        )
        _, logits = clear_tail(self.program, boundary_ring)
        online_s = time.perf_counter() - online_start
        self._note_served(stats, online_s, record.offline_s)

        # Ride ahead: if the pool has the next bundle *ready*, its client
        # half follows this reply and the next request skips the bundle
        # slot. Registered before a byte of it moves, so whatever ends
        # the connection settles it.
        promise = None
        bundle = record.pool.acquire_ready()
        if bundle is not None:
            promise = _Inflight(
                stats.session, None, record.batch, record.pool, bundle
            )
            with self._state_lock:
                self._promises[stats.session_id] = promise
            self._count("bundles_promised")
        transport.send_tensor(np.asarray(logits, dtype=np.float32), "logits")
        transport.send_obj(
            {
                "online_s": online_s,
                "offline_s": record.offline_s,
                "session": stats.session_id,
                "pool": record.pool.stats.as_dict(),
                "traffic": _snapshot_dict(transport.diff(before)),
                "promised": promise is not None,
            },
            "metrics",
        )
        if promise is not None:
            self._deliver(transport, promise, time.perf_counter())

    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """One thread-safe snapshot: global counters, per-session stats,
        aggregated :class:`~repro.mpc.transport.WireStats` and per-pool
        offline counters."""
        with self._metrics_lock:
            counters = {
                "connections_served": self.connections_served,
                "connections_failed": self.connections_failed,
                "connections_rejected": self.connections_rejected,
                "requests_served": self.requests_served,
                "requests_retried": self.requests_retried,
                "requests_busy": self.requests_busy,
                "sessions_reaped": self.sessions_reaped,
                "bundles_promised": self.bundles_promised,
                "promises_claimed": self.promises_claimed,
                "promises_poisoned": self.promises_poisoned,
                "workers": self.workers,
                "max_sessions": self.max_sessions,
            }
        with self._state_lock:
            sessions = [stats.as_dict() for stats in self._finished]
            wire_total = WireStats(**self._finished_wire.as_dict())
            for stats, transport in self._active.values():
                sessions.append({**stats.as_dict(), "wire": transport.stats.as_dict()})
                wire_total.accumulate(transport.stats)
            counters["inflight_bundles"] = len(self._inflight) + len(
                self._promises
            )
            counters["active_sessions"] = len(self._active)
        sessions.sort(key=lambda entry: entry["session_id"])
        with self._pools_lock:
            pools = {
                f"session={session!r}/batch={batch}": pool.stats.as_dict()
                for (session, batch), pool in self._pools.items()
            }
        result = {
            **counters,
            "bundles_poisoned": sum(p["bundles_poisoned"] for p in pools.values()),
            "bundles_returned": sum(p["bundles_returned"] for p in pools.values()),
            "sessions": sessions,
            "wire": wire_total.as_dict(),
            "pools": pools,
        }
        if self._dealer_endpoint is not None:
            host, port = self._dealer_endpoint
            result["dealer"] = {
                "endpoint": f"{host}:{port}",
                "bundles_fetched_remote": sum(
                    p["bundles_fetched_remote"] for p in pools.values()
                ),
                "dealer_rpc_retries": sum(
                    p["dealer_rpc_retries"] for p in pools.values()
                ),
            }
        return result


# ----------------------------------------------------------------------
# client
# ----------------------------------------------------------------------
@dataclass
class RemoteReply:
    """One served remote inference, with measured wire-level evidence."""

    logits: np.ndarray
    online_s: float  # client-side wall clock: request sent -> logits back
    traffic: TrafficSnapshot  # protocol accounting for this request
    measured_payload_bytes: int  # raw socket payload actually moved
    offline_bytes: int  # bundle blob size (control traffic)
    server: dict  # the server's metrics message
    prefetched: bool = False  # ran from a bundle shipped behind the previous reply

    @property
    def prediction(self) -> np.ndarray:
        return self.logits.argmax(axis=1)

    @property
    def bytes_match(self) -> bool:
        """Measured socket payload equals the protocol's accounting."""
        return self.measured_payload_bytes == self.traffic.total_bytes


class RemoteClient:
    """The client party: owns the input and the noise, never the weights.

    ``session`` names this client's session on the server: the server
    derives the session's dealer seed from it, so re-running the same
    ``(session, seed)`` pair reproduces the logits byte for byte even if
    the original run shared the server with other clients. ``None``
    keeps the legacy anonymous behaviour (base-seeded shared pools).
    Raises :class:`ServerBusy` when the server is at ``max_sessions``.

    Fault tolerance: every request carries an idempotency key, and
    :meth:`infer` accepts ``retries`` — on a transport failure the client
    reconnects (backing off through transient :class:`ServerBusy` while
    the server reaps the dead session), rewinds its share/noise rngs to
    the request's snapshot, and replays the request under the same key.
    The server replays the same dealer bundle for that key, so a retried
    request on a *named* session returns logits byte-identical to the
    fault-free run. ``connect_retries`` applies the same recovery to the
    initial handshake; ``transport_wrapper`` (applied to every fresh
    connection) is the chaos-testing hook
    (:meth:`repro.mpc.chaos.ChaosController.wrap`).
    """

    def __init__(
        self,
        host: str,
        port: int,
        noise_magnitude: float = 0.1,
        seed: int = 0,
        network: NetworkModel | None = None,
        timeout: float | None = 120.0,
        session: int | str | None = None,
        transport_wrapper=None,
        connect_retries: int = 0,
        reconnect_timeout: float = 10.0,
        busy_backoff_s: float = 0.05,
        wait_for_slot: bool = False,
        shm: bool = False,
    ):
        self.session = session
        self.host = host
        self.port = port
        self._network = network
        self._timeout = timeout
        self._wrapper = transport_wrapper
        # Shared-memory placement only makes sense for a co-located,
        # unshaped, unwrapped link: an emulated network or a chaos
        # wrapper must see every frame on the socket path it intercepts.
        self._shm = shm and network is None and transport_wrapper is None
        self.shm_active = False
        self._seed = seed
        self.reconnect_timeout = reconnect_timeout
        self.busy_backoff_s = busy_backoff_s
        # Decorrelated-jitter source for the backoff loops: seeded per
        # client instance (monotonic ns XOR identity) so a fleet of
        # loadgen clients spawned in the same tick still spreads its
        # retries instead of hammering the server in lockstep.
        self._jitter = random.Random(time.monotonic_ns() ^ id(self))
        self.noise = NoiseMechanism(noise_magnitude, seed=seed)
        self.engine: PartyEngine | None = None
        self.transport: Transport | None = None
        # The expanded half of the bundle the server shipped behind the
        # last reply, ``(batch, bundle, blob length)``: the next request
        # of that batch size claims it and skips the bundle slot.
        self._held: tuple[int, list, int] | None = None
        self.requests_retried = 0
        self._next_request = 0
        if wait_for_slot:
            # Patient mode: back off through busy replies (and transient
            # faults) for up to reconnect_timeout instead of surfacing
            # the first ServerBusy.
            self._reconnect()
            return
        for attempt in range(connect_retries + 1):
            try:
                self._handshake()
                break
            except ServerBusy:
                raise  # an explicit busy reply is not a fault; surface it
            except TransportError:
                if attempt == connect_retries:
                    raise

    def _handshake(self) -> None:
        """(Re)connect and run the hello exchange; keeps the engine."""
        transport = PeerChannel.connect(
            self.host,
            self.port,
            shaper=LinkShaper.for_network(self._network) if self._network else None,
            timeout=self._timeout,
        )
        if self._wrapper is not None:
            transport = self._wrapper(transport)
        try:
            transport.send_obj(
                {
                    "bandwidth_bytes_per_s": self._network.bandwidth_bytes_per_s
                    if self._network
                    else None,
                    "rtt_s": self._network.rtt_s if self._network else None,
                    "session": self.session,
                    "shm": self._shm,
                },
                "link",
            )
            hello = transport.recv_obj("hello")
        except TransportError:
            transport.close()
            raise
        if hello.get("protocol") != PROTOCOL_VERSION:
            transport.close()
            raise TransportError(
                f"protocol mismatch: server speaks {hello.get('protocol')}, "
                f"client speaks {PROTOCOL_VERSION}"
            )
        if hello.get("busy"):
            transport.close()
            if hello.get("reason") == "session-key-in-use":
                raise ServerBusy(
                    f"session key {self.session!r} is already active on the "
                    "server; concurrent connections must use distinct keys"
                )
            raise ServerBusy(
                "server is at capacity "
                f"({hello.get('active_sessions')}/{hello.get('max_sessions')} "
                "sessions); retry later"
            )
        self.server_model = hello["model"]
        self.boundary = hello["boundary"]
        self.server_session_id = hello.get("session")
        self.manifest = hello["manifest"]
        grant = hello.get("shm")
        self.shm_active = False
        if self._shm and grant:
            # The server has already rebound to the rings; attaching must
            # succeed or the placements disagree — surface, don't limp.
            try:
                transport = ShmChannel.connect(grant, carrier=transport)
            except (TransportError, OSError, ValueError) as exc:
                transport.close()
                raise TransportError(
                    f"server granted shared-memory placement but attaching "
                    f"failed: {exc}"
                ) from exc
            self.shm_active = True
        if self.engine is None:
            # The engine (and its share rng) persists across reconnects:
            # a retried request must replay the original rng draws, not
            # restart the stream.
            self.engine = PartyEngine.from_manifest(
                self.manifest, share_seed=self._seed + 1
            )
            self.config = self.engine.config
        self.transport = transport
        # The server holds a promise per connection: on a new one there
        # is nothing to claim (a named session's comes back in-band).
        self._held = None

    def _reconnect(self) -> None:
        """Re-handshake after a fault, riding out the server-side reap.

        Until the server reaps the dead session its key reads as active,
        so the reconnect backs off through ``session-key-in-use`` (and
        transient connect failures) for up to ``reconnect_timeout``
        seconds — bounded by the server's own ``request_timeout``, which
        is what frees the key.
        """
        deadline = time.monotonic() + self.reconnect_timeout
        backoff = self.busy_backoff_s
        while True:
            try:
                self._handshake()
                return
            except (ServerBusy, TransportError):
                now = time.monotonic()
                if now >= deadline:
                    raise
                # Sleep only what the deadline has left: a full backoff
                # step here could overshoot reconnect_timeout by up to
                # the 0.5 s cap. The next step is decorrelated jitter
                # (uniform over [base, 3*previous], capped) so a fleet
                # of clients spreads its retries.
                delay = min(backoff, deadline - now)
                if delay > 0:
                    time.sleep(delay)
                backoff = min(
                    0.5, self._jitter.uniform(self.busy_backoff_s, backoff * 3.0)
                )

    @property
    def input_shape(self) -> tuple[int, ...]:
        return self.engine.input_shape

    # ------------------------------------------------------------------
    def infer(self, images: np.ndarray, retries: int = 0) -> RemoteReply:
        """Run one private inference on a float NCHW batch.

        ``retries``: how many times to recover from a transport fault by
        reconnecting and replaying this request under its idempotency
        key. On a named session the replayed request is byte-identical —
        same input shares, same noise draw, same dealer material — so
        the logits match the fault-free run exactly.
        """
        images = np.asarray(images, dtype=np.float32)
        if images.ndim == 3:
            images = images[None]
        key = self._next_request
        share_state = self.engine.share_rng_state()
        noise_state = self.noise.rng.bit_generator.state
        last: Exception | None = None
        backoff = self.busy_backoff_s
        reconnect = False
        for attempt in range(retries + 1):
            if attempt:
                self.requests_retried += 1
                if reconnect:
                    self.engine.restore_share_rng(share_state)
                    self.noise.rng.bit_generator.state = noise_state
                    self._reconnect()
            try:
                reply = self._infer_once(images, key)
            except PoolBusy as exc:
                # The server deferred us on a live connection: no rng was
                # consumed and no reconnect is needed — back off and
                # replay the same request key in lock-step.
                last = exc
                reconnect = False
                if attempt < retries:
                    time.sleep(backoff)
                    backoff = min(
                        0.5,
                        self._jitter.uniform(self.busy_backoff_s, backoff * 3.0),
                    )
                continue
            except ServerBusy:
                raise
            except MaterialMismatch:
                # The bundle is not one this request can run from, and a
                # retry would be handed the same bytes. The request is
                # half done on the server: hang up, so the server reaps
                # the session now instead of waiting out its timeout, and
                # burn the key like any other terminal failure.
                self.transport.close()
                self.transport = None
                self._next_request = key + 1
                raise
            except TransportError as exc:
                last = exc
                reconnect = True
                if self.transport is not None:
                    self.transport.close()
                    self.transport = None
                continue
            self._next_request = key + 1
            return reply
        # The key is burnt even on terminal failure: a *different* later
        # request must never replay it, or the server would resell this
        # request's retained (half-shipped) bundle for new inputs.
        self._next_request = key + 1
        if isinstance(last, PoolBusy):
            # Surface the typed retriable refusal: the connection is
            # still alive and in lock-step, the caller may simply call
            # again once material is expected to exist.
            raise last
        raise TransportError(
            f"request {key} failed after {retries + 1} attempt(s): {last}"
        ) from last

    def _infer_once(self, images: np.ndarray, key: int) -> RemoteReply:
        if self.transport is None:
            self._reconnect()
        transport = self.transport
        batch = int(images.shape[0])
        held, self._held = self._held, None
        if held is not None and held[0] != batch:
            held = None  # for another batch size: the server takes it back
        transport.send_obj(
            {
                "cmd": "infer",
                "batch": batch,
                "request": key,
                "promised": held is not None,
            },
            "req",
        )
        prefetched = held is not None
        if not prefetched:
            held = self._recv_bundle(transport, key, batch)
        _, bundle, offline_bytes = held
        material = ReplayDealer(bundle)

        before = transport.snapshot()
        raw_before = transport.stats.raw_payload_total
        start = time.perf_counter()
        execution = self.engine.run(transport, material, x=images)
        noised_reveal(
            transport, execution.share[None], [(self.noise, slice(None))], self.config
        )
        logits = transport.recv_tensor("logits")
        server_metrics = transport.recv_obj("metrics")
        online_s = time.perf_counter() - start
        reply = RemoteReply(
            logits=logits,
            online_s=online_s,
            traffic=transport.diff(before),
            measured_payload_bytes=transport.stats.raw_payload_total - raw_before,
            offline_bytes=offline_bytes,
            server=server_metrics,
            prefetched=prefetched,
        )
        if server_metrics.get("promised"):
            # The next bundle rides behind this reply; expanding it here
            # is what keeps it off the next request's path.
            self._held = self._recv_bundle(transport, key, batch)
        return reply

    def _recv_bundle(
        self, transport: Transport, key: int, batch: int
    ) -> tuple[int, list, int]:
        """Receive and expand one client half off the ``bundle`` slot."""
        kind, payload = transport.recv_reply("bundle")
        if kind == "obj":
            # The bundle slot carried a typed refusal: the server is up
            # and the session is still in lock-step. Retriable on this
            # same connection unless the dealer refused outright.
            refusal = PoolBusy if payload.get("retriable") else DealerError
            raise refusal(
                f"server deferred request {key}: {payload.get('reason')} "
                f"({payload.get('detail')})"
            )
        return batch, unpack_party_bundle(payload), len(payload)

    def close(self) -> None:
        if self.transport is None:
            return
        try:
            self.transport.send_obj({"cmd": "bye"}, "req")
        except TransportError:  # pragma: no cover - server already gone
            pass
        self.transport.close()
        self.transport = None


# ----------------------------------------------------------------------
# deterministic demonstration victim (two-process tests, CI smoke)
# ----------------------------------------------------------------------
def _demo_victim(arch: str, width: float, rng_seed: int) -> LayeredModel:
    from ..models import alexnet, resnet20, vgg16, vgg19

    makers = {
        "alexnet": alexnet,
        "vgg16": vgg16,
        "vgg19": vgg19,
        "resnet20": resnet20,
    }
    rng = np.random.default_rng(rng_seed)
    return makers[arch](width_mult=width, rng=rng).eval()
