"""The crypto-producer service: a standalone, crash-survivable dealer.

C2PI's cost structure is dominated by the offline phase — the dealer
material behind every ReLU's comparison circuit. In-process serving
(:class:`~repro.serve.remote.RemoteServer`) regenerates that material
wherever the server runs and loses it whenever the server dies. This
module extracts the dealer into its own process:

* :class:`DealerServer` — owns one compiled program (identified by its
  weight-free :func:`~repro.mpc.party.program_fingerprint`) and serves
  sealed preprocessing bundles over the wire-v2 framed transport, one
  deterministic stream per ``(batch, session_seed)``, its dealer seeded
  with :func:`~repro.mpc.dealer.stream_seed` like a local pool's. Every
  bundle is spilled to a disk-backed :class:`~repro.mpc.pool_store.PoolStore`
  before it is served, so a ``kill -9``'d dealer restarts, replays its
  manifest, restores the stream's rng position from the last stored
  record and resumes serving — stored bundles byte-identical, future
  bundles stream-identical.
* :class:`DealerClient` — the serving process's RPC stub: fetches
  bundles by ``(fingerprint, batch, session_seed, seq)`` with
  reconnect/backoff built in (drop, corrupt, stall and dealer restarts
  are ridden out inside ``fetch``), surfacing typed
  :class:`DealerBusy` / :class:`DealerUnreachable` only once the
  deadline is spent.
* :class:`DealerBackedPool` — a :class:`~repro.mpc.preprocessing.
  PreprocessingPool` whose refill fetches from the dealer instead of
  generating. It never generates locally: a dealer that stays busy or
  unreachable past the fetch deadline fails the acquisition typed
  (:class:`DealerBusy` / :class:`DealerUnreachable`), which the serving
  layer answers with a retriable busy reply. Remote fetches and RPC
  retries are accounted in :class:`~repro.mpc.preprocessing.PoolStats`.

Request idempotency is structural: a bundle, once generated, is stored
and re-served verbatim for any later request of the same ``seq`` —
a retried RPC (or a serving process that restarts mid-stream) can never
split one stream position across two different bundles.

Trust topology: the dealer is the same third party the in-process
:class:`~repro.mpc.dealer.TrustedDealer` already models (it learns the
weights like a Delphi server, never a client input). The default RPC
mode ships both party halves to the *serving* process — the joint view
the server holds when it draws material itself; the serving process
also names the stream's seed, so it is not yet a separate party
(ROADMAP item 12). The rng state stays in the dealer's own store: no
reply carries it. The ``party=0/1`` request mode serves a single half
for the stricter topology where each party fetches its own half
directly; the tests pin that a directly-fetched half is byte-identical
to the server-forwarded one.

``c2pi dealer --listen H:P --store DIR ...`` runs the process
standalone.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time

from ..mpc.dealer import TrustedDealer, stream_seed
from ..mpc.party import program_fingerprint
from ..mpc.pool_store import PoolStore
from ..mpc.preprocessing import (
    Bundle,
    MaterialRequest,
    PreprocessingPool,
    draw_bundle,
    join_party_bundle,
    material_plan,
    party_bundle_segments,
    split_bundle,
    unpack_party_bundle,
)
from ..mpc.program import SecureProgram
from ..mpc.transport import PeerChannel, Transport, TransportError

__all__ = [
    "DEALER_PROTOCOL",
    "DealerBusy",
    "DealerUnreachable",
    "DealerError",
    "DealerServer",
    "DealerClient",
    "DealerBackedPool",
    "stream_key",
]

DEALER_PROTOCOL = 1

# One stored/shipped record: both party halves (each a party-bundle
# container, see mpc/preprocessing.py) plus the dealer rng state *after*
# generating the bundle. len0/len1/len_state header, then the three byte
# strings; the header is 24 bytes and a container a multiple of 8, so
# both halves sit 8-aligned in the record and are read where they lie.
# Replies blank the state (it pins the whole stream, so only the store
# keeps it) and a party-split reply the other party's half too.
_RECORD_HEADER = struct.Struct("!QQQ")


class DealerBusy(RuntimeError):
    """Typed, retriable refusal: the dealer is at its admission limit."""


class DealerUnreachable(RuntimeError):
    """The dealer RPC gave up: no healthy connection within the deadline."""


class DealerError(RuntimeError):
    """A non-retriable dealer refusal (mismatched program, bad request)."""


def stream_key(fingerprint: str, batch: int, session_seed: int) -> str:
    """The store key of one deterministic material stream."""
    return f"{fingerprint}:{batch}:{session_seed}"


def _record_segments(half0: list, half1: list, state: bytes) -> list:
    """A record as the buffers that make it up; each half is a list of
    buffers (empty for a blanked half)."""
    sizes = [sum(memoryview(part).nbytes for part in half) for half in (half0, half1)]
    return [_RECORD_HEADER.pack(*sizes, len(state)), *half0, *half1, state]


def _unpack_record(record) -> tuple[memoryview, memoryview, memoryview]:
    """``(blob0, blob1, state)`` as views of ``record`` — nothing is copied."""
    view = memoryview(record).cast("B")
    offset = _RECORD_HEADER.size
    if view.nbytes < offset:
        raise DealerError("malformed dealer record: shorter than its header")
    len0, len1, len_state = _RECORD_HEADER.unpack_from(view)
    if view.nbytes != offset + len0 + len1 + len_state:
        raise DealerError("malformed dealer record: length mismatch")
    blob0 = view[offset : offset + len0]
    blob1 = view[offset + len0 : offset + len0 + len1]
    state = view[offset + len0 + len1 :]
    return blob0, blob1, state


def _seal_reply(record: bytes, party: int | None) -> list:
    """The wire form of a stored record for one requester, as the
    segments of its blob frame: views of the record, not copies.

    ``party=None`` (the server-forwarded topology) gets both halves, a
    single-party request only its own. No reply carries the rng state:
    it determines every party's future material, and only a restarted
    dealer needs it, from its own store.
    """
    blob0, blob1, _state = _unpack_record(record)
    return _record_segments(
        [blob0] if party in (None, 0) else [],
        [blob1] if party in (None, 1) else [],
        b"",
    )


class _Stream:
    """One ``(batch, session_seed)`` material stream on the dealer."""

    def __init__(self, key: str, seed: int):
        self.key = key
        self.dealer = TrustedDealer(seed=seed)
        self.next_seq = 0
        # Held across dealer generation + the store spill: the rng
        # stream's strict ordering is the byte-identity contract.
        self.generation_lock = threading.Lock()


class _Busy(Exception):
    """Internal: carries the busy reason to the reply encoder."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class DealerServer:
    """Serves sealed preprocessing bundles for one compiled program.

    Parameters
    ----------
    program:
        The compiled crypto segment; its fingerprint gates every client.
    store:
        The :class:`PoolStore` every generated bundle is spilled to
        before it is served: re-serves and a restarted dealer read it,
        and no record is held in memory.
    max_active_generations:
        Admission limit: how many bundle *generations* may run at once.
        Requests beyond it get a retriable busy reply instead of a
        convoy; serves from the store are never throttled.
    """

    def __init__(
        self,
        program: SecureProgram,
        *,
        store: PoolStore,
        host: str = "127.0.0.1",
        port: int = 0,
        max_active_generations: int = 2,
        timeout: float = 120.0,
    ):
        if max_active_generations < 1:
            raise ValueError("max_active_generations must be positive")
        self.program = program
        self.fingerprint = program_fingerprint(program)
        self.store = store
        self.host = host
        self.timeout = timeout
        self._listener = PeerChannel.listen(host, port)
        self.port = self._listener.getsockname()[1]
        self._stopping = False
        self._accept_thread: threading.Thread | None = None
        self._admission = threading.BoundedSemaphore(max_active_generations)
        self._streams: dict[tuple[int, int], _Stream] = {}
        self._traces: dict[int, list[MaterialRequest]] = {}
        self._state_lock = threading.Lock()
        self.connections = 0
        self.requests = 0
        self.bundles_generated = 0
        self.served_from_store = 0
        self.busy_rejections = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Accept connections on a background thread (in-process use)."""
        self._accept_thread = threading.Thread(
            target=self.serve_forever, name="c2pi-dealer-accept", daemon=True
        )
        self._accept_thread.start()

    def serve_forever(self) -> None:
        while not self._stopping:
            try:
                transport = PeerChannel.accept(self._listener, timeout=self.timeout)
            except OSError:
                break  # listener closed by stop()
            threading.Thread(
                target=self._serve_connection,
                args=(transport,),
                name="c2pi-dealer-conn",
                daemon=True,
            ).start()

    def stop(self) -> None:
        self._stopping = True
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:  # pragma: no cover - platform dependent
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - platform dependent
            pass

    # ------------------------------------------------------------------
    def _stream(self, batch: int, session_seed: int) -> _Stream:
        """Get or create a stream; creation resumes from the store.

        A restarted dealer finds the stream's stored tail, restores the
        rng from the state embedded in the last record, and continues at
        ``max_seq + 1`` — zero regeneration, stream-identical output.
        """
        with self._state_lock:
            stream = self._streams.get((batch, session_seed))
            if stream is not None:
                return stream
            seed = stream_seed(session_seed, batch)
            stream = _Stream(stream_key(self.fingerprint, batch, seed), seed)
            last = self.store.max_seq(stream.key)
            if last is not None:
                record = self.store.get(stream.key, last)
                _blob0, _blob1, state = _unpack_record(record)
                stream.dealer.restore_state(json.loads(bytes(state)))
                stream.next_seq = last + 1
            self._streams[(batch, session_seed)] = stream
            return stream

    def _trace(self, batch: int) -> list[MaterialRequest]:
        with self._state_lock:
            trace = self._traces.get(batch)
            if trace is None:
                trace = material_plan(self.program, batch)
                self._traces[batch] = trace
            return trace

    def _generate_bundle(self, stream: _Stream, trace) -> bytes:
        """One generation step at ``stream.next_seq``; returns the record.

        Callers hold ``stream.generation_lock``: the dealer rng must
        advance in strict seq order, and the spill must land before the
        record is served (store-then-serve is the idempotency argument).
        """
        dealer = stream.dealer
        bundle = draw_bundle(dealer, trace)
        # The one copy a generated bundle takes: party 1's arrays, out of
        # the dealer's heap into the record that is stored and served.
        record = b"".join(
            _record_segments(
                party_bundle_segments(bundle),  # seeded: party 0's half
                party_bundle_segments(split_bundle(bundle, 1)),
                json.dumps(dealer.state()).encode("utf-8"),
            )
        )
        self.store.put(stream.key, stream.next_seq, record)
        stream.next_seq += 1
        with self._state_lock:
            self.bundles_generated += 1
        return record

    def _record_for(
        self, batch: int, session_seed: int, seq: int
    ) -> tuple[bytes, str]:
        """The sealed record for one stream position (store or generate)."""
        stream = self._stream(batch, session_seed)
        record = self.store.get(stream.key, seq)
        if record is not None:
            with self._state_lock:
                self.served_from_store += 1
            return record, "store"
        if not self._admission.acquire(blocking=False):
            with self._state_lock:
                self.busy_rejections += 1
            raise _Busy("dealer-busy")
        try:
            trace = self._trace(batch)
            with stream.generation_lock:
                # A racing request may have generated it while we queued.
                record = self.store.get(stream.key, seq)
                if record is not None:
                    with self._state_lock:
                        self.served_from_store += 1
                    return record, "store"
                if seq < stream.next_seq:
                    # Stored history was lost (a torn record) and the
                    # rng has moved past: regenerating would fork
                    # the stream. Refuse rather than lie.
                    # The stream key embeds the stream's seed — name only
                    # the public positions here.
                    raise DealerError(
                        f"bundle {seq} predates the dealer's position "
                        f"{stream.next_seq} and is not stored — cannot "
                        "regenerate without forking the material stream"
                    )
                while stream.next_seq <= seq:
                    record = self._generate_bundle(stream, trace)
        finally:
            self._admission.release()
        return record, "generated"

    # ------------------------------------------------------------------
    def _serve_connection(self, transport: Transport) -> None:
        with self._state_lock:
            self.connections += 1
        try:
            link = transport.recv_obj("dealer-link")
            reason = None
            if link.get("protocol") != DEALER_PROTOCOL:
                reason = "protocol-mismatch"
            elif link.get("fingerprint") not in (None, self.fingerprint):
                reason = "fingerprint-mismatch"
            hello = {
                "protocol": DEALER_PROTOCOL,
                "ok": reason is None,
                "fingerprint": self.fingerprint,
                "bundles_recovered": self.store.stats.bundles_recovered,
            }
            if reason is not None:
                hello["reason"] = reason
            transport.send_obj(hello, "dealer-hello")
            if reason is not None:
                return
            while True:
                request = transport.recv_obj("dealer-req")
                if not self._dispatch(transport, request):
                    break
        except (TransportError, OSError, ValueError, KeyError, TypeError):
            # A hostile or vanished client costs its own connection only.
            pass
        finally:
            transport.close()

    def _dispatch(self, transport: Transport, request: dict) -> bool:
        command = request.get("cmd")
        if command == "bye":
            return False
        if command == "bundle":
            with self._state_lock:
                self.requests += 1
            seq = int(request["seq"])
            try:
                record, source = self._record_for(
                    int(request["batch"]), int(request["session_seed"]), seq
                )
            except _Busy as busy:
                transport.send_obj(
                    {"ok": False, "busy": True, "retriable": True,
                     "reason": busy.reason},
                    "dealer-rep",
                )
                return True
            except DealerError as exc:
                transport.send_obj(
                    {"ok": False, "busy": False, "error": str(exc)},
                    "dealer-rep",
                )
                return True
            party = request.get("party")
            transport.send_obj(
                {"ok": True, "seq": seq, "source": source}, "dealer-rep"
            )
            transport.send_blob(_seal_reply(record, party), "dealer-bundle")
            return True
        if command == "warm":
            batch = int(request["batch"])
            session_seed = int(request["session_seed"])
            count = int(request.get("count", 1))
            try:
                for seq in range(count):
                    self._record_for(batch, session_seed, seq)
            except _Busy as busy:
                transport.send_obj(
                    {"ok": False, "busy": True, "retriable": True,
                     "reason": busy.reason},
                    "dealer-rep",
                )
                return True
            except DealerError as exc:
                transport.send_obj(
                    {"ok": False, "busy": False, "error": str(exc)},
                    "dealer-rep",
                )
                return True
            transport.send_obj({"ok": True, "stored": count}, "dealer-rep")
            return True
        if command == "stats":
            transport.send_obj({"ok": True, **self.stats()}, "dealer-rep")
            return True
        transport.send_obj(
            {"ok": False, "busy": False, "error": f"unknown command {command!r}"},
            "dealer-rep",
        )
        return True

    def stats(self) -> dict:
        with self._state_lock:
            counters = {
                "connections": self.connections,
                "requests": self.requests,
                "bundles_generated": self.bundles_generated,
                "served_from_store": self.served_from_store,
                "busy_rejections": self.busy_rejections,
                "streams": len(self._streams),
            }
        counters["store"] = self.store.stats.as_dict()
        return counters


# ----------------------------------------------------------------------
# client stub
# ----------------------------------------------------------------------
class DealerClient:
    """RPC stub for one dealer endpoint; reconnects and backs off itself.

    ``fetch`` keeps retrying through transport faults (reconnecting) and
    busy replies (backing off) until its deadline, then surfaces
    :class:`DealerUnreachable` / :class:`DealerBusy` — so a dealer
    restart shorter than the deadline is invisible to the caller. Not
    thread-safe: each consumer (one pool) owns its own client.
    """

    def __init__(
        self,
        host: str,
        port: int,
        fingerprint: str | None = None,
        timeout: float = 5.0,
        transport_wrapper=None,
    ):
        self.host = host
        self.port = port
        self.fingerprint = fingerprint
        self.timeout = timeout
        self._wrapper = transport_wrapper
        self.transport: Transport | None = None
        self.hello: dict | None = None
        self.rpc_retries = 0

    def _connect(self) -> None:
        transport = PeerChannel.connect(
            self.host, self.port, timeout=self.timeout, attempts=1
        )
        if self._wrapper is not None:
            transport = self._wrapper(transport)
        try:
            transport.send_obj(
                {"protocol": DEALER_PROTOCOL, "fingerprint": self.fingerprint},
                "dealer-link",
            )
            hello = transport.recv_obj("dealer-hello")
        except (TransportError, OSError):
            transport.close()
            raise
        if not hello.get("ok"):
            transport.close()
            raise DealerError(
                f"dealer at {self.host}:{self.port} refused the link: "
                f"{hello.get('reason')} (dealer fingerprint "
                f"{hello.get('fingerprint')!r}, ours {self.fingerprint!r})"
            )
        self.hello = hello
        self.transport = transport

    def _drop(self) -> None:
        if self.transport is not None:
            self.transport.close()
            self.transport = None

    def _rpc(self, request: dict, expect_blob: bool, deadline: float | None):
        """One request with retry/backoff; returns ``(reply, blob|None)``."""
        limit = time.monotonic() + (self.timeout if deadline is None else deadline)
        backoff = 0.05
        last: Exception | None = None
        while True:
            try:
                if self.transport is None:
                    self._connect()
                transport = self.transport
                transport.send_obj(request, "dealer-req")
                reply = transport.recv_obj("dealer-rep")
                if reply.get("ok"):
                    blob = (
                        transport.recv_blob("dealer-bundle")
                        if expect_blob
                        else None
                    )
                    return reply, blob
                if reply.get("busy"):
                    raise DealerBusy(reply.get("reason", "dealer-busy"))
                # The request dict carries the session seed on some
                # commands — interpolate only the server's reply, which
                # is public by construction.
                raise DealerError(
                    f"dealer refused the request: {reply.get('error', reply)}"
                )
            except DealerBusy as exc:
                last = exc
                if time.monotonic() >= limit:
                    raise
            except (TransportError, OSError) as exc:
                last = exc
                self._drop()
                if time.monotonic() >= limit:
                    raise DealerUnreachable(
                        f"dealer at {self.host}:{self.port} unreachable "
                        f"within the deadline: {last}"
                    ) from exc
            self.rpc_retries += 1
            time.sleep(backoff)
            backoff = min(backoff * 2.0, 0.5)

    # ------------------------------------------------------------------
    def fetch(
        self,
        batch: int,
        session_seed: int,
        seq: int,
        party: int | None = None,
        deadline: float | None = None,
    ):
        """The sealed record for one stream position (see module doc), in
        the buffer its frame was received into."""
        request = {
            "cmd": "bundle",
            "batch": batch,
            "session_seed": session_seed,
            "seq": seq,
            "party": party,
        }
        _reply, blob = self._rpc(request, expect_blob=True, deadline=deadline)
        return blob

    def warm(
        self,
        batch: int,
        session_seed: int,
        count: int = 1,
        deadline: float | None = None,
    ) -> None:
        """Ask the dealer to pre-generate (and store) ``count`` bundles."""
        self._rpc(
            {"cmd": "warm", "batch": batch, "session_seed": session_seed,
             "count": count},
            expect_blob=False,
            deadline=deadline,
        )

    def stats(self, deadline: float | None = None) -> dict:
        reply, _ = self._rpc({"cmd": "stats"}, expect_blob=False, deadline=deadline)
        return reply

    def close(self) -> None:
        if self.transport is not None:
            try:
                self.transport.send_obj({"cmd": "bye"}, "dealer-req")
            except (TransportError, OSError):  # pragma: no cover - gone
                pass
        self._drop()


# ----------------------------------------------------------------------
# the dealer-backed pool
# ----------------------------------------------------------------------
class DealerBackedPool(PreprocessingPool):
    """A preprocessing pool whose refill fetches from the crypto producer.

    Drop-in for :class:`PreprocessingPool` on the serving side: same
    locks, same acquire/restore/poison books, same per-session seeding.
    A refill asks the dealer for the stream's next record and rejoins
    the party halves. It never generates locally: a dealer that stays
    down or busy past ``fetch_deadline`` surfaces as the typed
    :class:`DealerBusy` / :class:`DealerUnreachable` out of
    ``acquire()``, for the serving layer to convert into a retriable
    busy reply.
    """

    def __init__(
        self,
        program: SecureProgram,
        batch: int,
        dealer_seed: int = 0,
        *,
        client: DealerClient,
        fetch_deadline: float = 5.0,
    ):
        super().__init__(program, batch, dealer_seed=dealer_seed)
        self._client = client
        self._fetch_deadline = fetch_deadline
        self._next_seq = 0

    def _generate(self, trace) -> Bundle:
        """One stream step: the dealer's record for the next ``seq``.

        Callers hold ``_generation_lock`` (stream order is the
        determinism contract, exactly as in the base pool).
        """
        record = self._client.fetch(
            self.batch, self.dealer_seed, self._next_seq,
            deadline=self._fetch_deadline,
        )
        blob0, blob1, _state = _unpack_record(record)
        bundle = join_party_bundle(
            unpack_party_bundle(blob0), unpack_party_bundle(blob1)
        )
        self._next_seq += 1
        with self._lock:  # one client per pool: its retries are the pool's
            self.stats.bundles_fetched_remote += 1
            self.stats.dealer_rpc_retries = self._client.rpc_retries
        return bundle

    def close(self) -> None:
        self._client.close()
