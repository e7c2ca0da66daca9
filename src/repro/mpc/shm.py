"""Shared-memory transport: co-located parties skip the socket.

When the client and the server run on one host, every online round still
pays the TCP stack: two syscalls per frame, kernel buffer copies, and
the loopback path's wakeup latency. :class:`ShmChannel` is a drop-in
:class:`~repro.mpc.transport.Transport` that moves the *same frames* —
identical ``!4sBBHQdI`` header, label, payload and CRC — through a pair
of single-producer/single-consumer byte rings in
:mod:`multiprocessing.shared_memory` instead. The placement is
negotiated at handshake time (see :mod:`repro.serve.remote`): the client
asks for it in its ``link`` message, the server creates the rings and
names them in its ``hello``, and both sides rebind. The TCP connection
that performed the handshake stays open as the *carrier*: it detects
peer death (a process that vanishes can never clear a ring flag) and its
:class:`~repro.mpc.transport.WireStats` object is adopted, so one stats
object accounts the whole session — handshake bytes over TCP, online
bytes over shared memory — and the ``bytes_match`` identity between
measured payload and :class:`~repro.mpc.network.Channel` accounting
keeps holding.

This module is a *carrier*: it knows rings, not frames. A frame is laid
out by :func:`~repro.mpc.transport._frame_layout` and parsed by
:class:`~repro.mpc.transport.FrameAssembler`, the same two the socket
transports use — sending writes the layout's parts into the ring,
receiving reads the ring into whatever buffer the decoder names — so a
bad header, a checksum failure or a torn stream is the same typed,
terminal error here as on a socket.

As with :class:`~repro.mpc.transport.PeerChannel` there is **no reader
thread**: the ring itself buffers frames until the consumer wants them,
so :meth:`ShmChannel._recv_frame` reads synchronously on the protocol
thread. That thread is idle precisely when it waits, which is what makes
the cross-process wait loop safe to spin — a dedicated polling thread
would instead fight its own process's compute thread for the GIL.

Ring layout (one ring per direction)::

    head u64 | tail u64 | closed u64 | creator pid u64 | data

``head``/``tail`` are monotonic byte counters (indexing is modulo the
capacity), written only by the consumer resp. producer — the classic
SPSC design needing no lock. Frames larger than the ring stream through
it in chunks: the writer blocks until the reader frees space, so the
ring size caps memory, never frame size. CPython's per-operation
atomicity plus x86-TSO store ordering make the counter publication safe.
The creator-pid slot drives the resource-tracker workaround in
:meth:`ShmRing.attach`.

The wait loop polls the counters with ``os.sched_yield()`` between
probes: sub-microsecond when nothing else is runnable, and the moment
the peer *is* runnable — another process needing this core, or another
thread in this process needing the GIL (the syscall releases it) — the
yield hands over exactly the resource the peer's progress requires.
Timer-based sleeps cost ~50-100 us per wakeup on a typical Linux box,
an order of magnitude above a round's compute gap, and raw spinning
inverts the priority on single-core hosts by burning the very timeslice
the peer needs; the deep-idle tier (between requests) still falls back
to short sleeps so an idle server does not occupy a core.
"""

from __future__ import annotations

import os
import struct
import threading
import time
import uuid
from multiprocessing import resource_tracker, shared_memory

from .transport import (
    FrameAssembler, PeerChannel, Transport, TransportError, _frame_layout,
)

__all__ = ["ShmRing", "ShmChannel", "DEFAULT_RING_BYTES"]

# head | tail | closed | creator pid
_META = struct.calcsize("QQQQ")
DEFAULT_RING_BYTES = 1 << 22  # 4 MiB per direction

# Wait policy bounds: sched_yield for the active window (covers every
# in-round compute gap), then short sleeps with abort checks once the
# link has clearly gone idle between requests.
_YIELD_POLLS = 20_000
_POLL_S = 50e-6


class ShmRing:
    """One direction of the shared-memory link (SPSC byte ring)."""

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool):
        self.shm = shm
        self.owner = owner
        self.name = shm.name
        # A plain memoryview cast, not a numpy view: the counters are
        # polled in the wait loops and a memoryview index is a fraction
        # of a numpy scalar extraction.
        self._meta = shm.buf[:_META].cast("Q")
        self.capacity = shm.size - _META
        self._data = shm.buf[_META:]
        self._dead = False

    # -- lifecycle -------------------------------------------------------
    @classmethod
    def create(cls, capacity: int = DEFAULT_RING_BYTES) -> "ShmRing":
        name = f"c2pi-{uuid.uuid4().hex[:16]}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=capacity + _META)
        shm.buf[:_META] = bytes(_META)
        ring = cls(shm, owner=True)
        ring._meta[3] = os.getpid()
        return ring

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        shm = shared_memory.SharedMemory(name=name, create=False)
        ring = cls(shm, owner=False)
        if ring._meta[3] != os.getpid():
            # CPython < 3.13 registers attachments with the resource
            # tracker as if they were creations; without this, the
            # *attaching* process's tracker would unlink (and warn
            # about) a segment the owner is responsible for. When both
            # endpoints share one process — the thread-hosted tests —
            # there is only one tracker entry, and the owner's unlink
            # must keep it.
            try:
                resource_tracker.unregister(shm._name, "shared_memory")
            except (AttributeError, KeyError, ValueError):
                # pragma: no cover - tracker internals vary across
                # CPython versions (private API; 3.13 changed the
                # registration semantics this call compensates for)
                pass
        return ring

    @property
    def closed(self) -> bool:
        return bool(self._meta[2])

    def mark_closed(self) -> None:
        self._meta[2] = 1

    def close(self) -> None:
        """Release the local mapping (and the segment, if we created it)."""
        if self._dead:
            return
        self._dead = True
        self.mark_closed()
        meta, self._meta = self._meta, None
        meta.release()
        self._data.release()
        self.shm.close()
        if self.owner:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - peer raced us
                pass

    # -- data movement ---------------------------------------------------
    def _wait(self, polls: int, abort) -> int:
        if polls < _YIELD_POLLS:
            # Hand the core (and, for a same-process peer, the GIL — the
            # syscall releases it) to whoever must produce the bytes.
            os.sched_yield()
            return polls + 1
        if abort is not None and abort():
            raise TransportError("shared-memory ring abandoned by the peer")
        time.sleep(_POLL_S)
        return polls

    def write(self, buf, deadline: float | None = None, abort=None) -> None:
        """Append all of ``buf``, blocking while the ring is full."""
        view = memoryview(buf).cast("B") if not isinstance(buf, bytes) else buf
        total = len(view)
        offset = 0
        polls = 0
        while offset < total:
            if self.closed:
                raise TransportError("shared-memory ring is closed")
            head = self._meta[0]
            tail = self._meta[1]
            free = self.capacity - (tail - head)
            if free == 0:
                if deadline is not None and time.monotonic() > deadline:
                    raise TransportError("shared-memory write timed out")
                polls = self._wait(polls, abort)
                continue
            polls = 0
            chunk = min(free, total - offset)
            pos = tail % self.capacity
            first = min(chunk, self.capacity - pos)
            self._data[pos : pos + first] = view[offset : offset + first]
            if chunk > first:
                self._data[: chunk - first] = view[offset + first : offset + chunk]
            # Publish after the payload: the store below is what makes
            # the bytes visible to the consumer.
            self._meta[1] = tail + chunk
            offset += chunk

    def read_into(self, out: memoryview, deadline: float | None = None,
                  abort=None) -> int:
        """Fill ``out``; returns the bytes read — short (zero, at a
        message boundary) only at EOF: closed and drained."""
        total = out.nbytes
        offset = 0
        polls = 0
        while offset < total:
            head = self._meta[0]
            tail = self._meta[1]
            available = tail - head
            if available == 0:
                if self.closed:
                    break  # drained and no writer left
                if deadline is not None and time.monotonic() > deadline:
                    raise TransportError("shared-memory read timed out")
                polls = self._wait(polls, abort)
                continue
            polls = 0
            chunk = min(available, total - offset)
            pos = head % self.capacity
            first = min(chunk, self.capacity - pos)
            out[offset : offset + first] = self._data[pos : pos + first]
            if chunk > first:
                out[offset + first : offset + chunk] = self._data[: chunk - first]
            self._meta[0] = head + chunk
            offset += chunk
        return offset


class ShmChannel(Transport):
    """The socket transport's frame protocol over two shared-memory rings.

    Same :class:`~repro.mpc.transport.Channel` accounting, same wire
    frames (header + label + CRC-checked payload), same encoder and
    decoder as :class:`~repro.mpc.transport.PeerChannel` — only the
    bytes move through :class:`ShmRing` pairs, and reception is
    synchronous on the protocol thread (see the module docstring for
    why). ``carrier`` is
    the TCP transport that negotiated the placement: its ``WireStats``
    is adopted (one stats object for the whole session) and its EOF —
    read without blocking whenever a ring wait goes idle, since nothing
    else reads the carrier — is the liveness signal a shared-memory
    segment cannot provide by itself.
    """

    def __init__(
        self,
        party: int,
        rx: ShmRing,
        tx: ShmRing,
        carrier,
        timeout: float | None = None,
    ):
        super().__init__(party, shaper=None)
        self.rx = rx
        self.tx = tx
        self.carrier = carrier
        self.stats = carrier.stats  # one measured wire, whoever asks
        self.timeout = (
            timeout if timeout is not None else getattr(carrier, "timeout", 120.0)
        )
        self._write_lock = threading.Lock()
        self._read_lock = threading.Lock()
        self._closed = threading.Event()
        self.peer_gone = threading.Event()
        self._decoder = FrameAssembler(self)

    # -- negotiation helpers --------------------------------------------
    @classmethod
    def serve(cls, carrier, ring_bytes: int = DEFAULT_RING_BYTES
              ) -> tuple["ShmChannel", dict]:
        """Server side: create both rings; returns (channel, hello grant)."""
        c2s = ShmRing.create(ring_bytes)
        s2c = ShmRing.create(ring_bytes)
        grant = {"c2s": c2s.name, "s2c": s2c.name, "size": ring_bytes}
        return cls(party=1, rx=c2s, tx=s2c, carrier=carrier), grant

    @classmethod
    def connect(cls, grant: dict, carrier) -> "ShmChannel":
        """Client side: attach the rings named in the server's hello."""
        c2s = ShmRing.attach(grant["c2s"])
        s2c = ShmRing.attach(grant["s2c"])
        return cls(party=0, rx=s2c, tx=c2s, carrier=carrier)

    def _abort(self) -> bool:
        carrier = self.carrier
        if isinstance(carrier, PeerChannel):
            # No reader thread watches a socket carrier: look at it,
            # without blocking, for the EOF of a vanished peer.
            carrier.wait_peer_gone(0)
        return self._closed.is_set() or carrier.peer_gone.is_set()

    def wait_peer_gone(self, timeout: float | None = None) -> bool:
        return self.carrier.wait_peer_gone(timeout)

    # -- framing ---------------------------------------------------------
    def _deadline(self) -> float | None:
        return time.monotonic() + self.timeout if self.timeout is not None else None

    def _send_frame(self, kind: int, label: str, segments) -> None:
        """Write head + segments straight into the ring.

        The ring write *is* the wire copy (exactly like a socket
        ``sendall``), so no join or staging buffer exists on this path at
        all — the buffer pool's wire table is never needed here.
        """
        head, segments, total = _frame_layout(kind, label, segments)
        deadline = self._deadline()
        try:
            with self._write_lock:
                for part in (head, *segments):
                    self.tx.write(part, deadline, self._abort)
        except TransportError as exc:
            self.peer_gone.set()
            raise TransportError(f"shared-memory peer lost on send: {exc}") from exc
        self._count_sent(kind, label, total)

    def send_raw(self, data: bytes) -> None:
        """Raw ring bytes, bypassing framing (chaos layer compatibility)."""
        with self._write_lock:
            self.tx.write(data, self._deadline(), self._abort)

    def _recv_frame(self) -> tuple[int, str, bytes]:
        deadline = self._deadline()
        decoder = self._decoder
        try:
            with self._read_lock:
                item = None
                while item is None:
                    want = decoder.want()
                    got = self.rx.read_into(want, deadline, self._abort)
                    if got:
                        item = decoder.advance(got)
                    if got < len(want):
                        self.peer_gone.set()
                        item = decoder.eof() or TransportError(
                            "peer closed the shared-memory link"
                        )
            if isinstance(item, TransportError):
                raise item
        except TransportError as exc:
            raise TransportError(
                f"party {self.party} lost the shared-memory peer: {exc}"
            ) from exc
        return self._delivered(item)

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        # Closing marks both rings so a peer blocked mid-write/mid-read
        # wakes immediately (EOF on their side once drained).
        for ring in (self.rx, self.tx):
            try:
                ring.mark_closed()
            except (TypeError, ValueError, OSError):
                # pragma: no cover - ring already torn down: the meta
                # view is released (ValueError) or dropped (TypeError)
                pass
        self.carrier.close()
        self.rx.close()
        self.tx.close()
