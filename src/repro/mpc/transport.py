"""Socket transport: a real wire between the two parties.

Everything in :mod:`repro.mpc.network` is *accounting*: the in-process
:class:`~repro.mpc.network.Channel` counts the bytes the joint engine
*would* move. This module makes the traffic real. A :class:`Transport`
is a :class:`Channel` (same counters, same per-label breakdown) that
additionally **moves bytes** between the parties:

* :class:`QueueTransport` — an in-memory pair for two party threads in
  one process (the fast loopback used by the equivalence tests);
* :class:`PeerChannel` — a TCP-socket transport with a length-prefixed
  wire protocol, used by ``c2pi serve --listen`` / ``c2pi client`` to run
  the compiled :class:`~repro.mpc.program.SecureProgram` between two
  actual processes.

Wire protocol (one *frame* per message)::

    !4sBBHQdI header: magic b"C2PI" | version | kind | label length |
              payload length | sender monotonic-free timestamp (time.time) |
              CRC-32 of the payload
    label     UTF-8, for protocol-step attribution and lock-step checks
    payload   raw bytes

The CRC travels so that a corrupted or torn frame is a **typed failure**
(:class:`TransportError`) instead of silent garbage entering the ring:
TCP's own checksum does not survive middleboxes, proxies or buggy
framing code, and a single flipped byte in a share would otherwise
surface only as wrong logits. The format is written in one place
(:func:`_frame_layout`) and read in one place (:class:`FrameAssembler`,
which verifies the CRC of every received frame); the carriers — the
:class:`PeerChannel` reader thread, the :class:`LoopChannel` event loop,
the shared-memory rings of :mod:`repro.mpc.shm` — only move the bytes
between a socket or ring and the buffers those two name. The in-memory
:class:`QueueTransport` moves frames as objects and has nothing to
encode, parse or checksum.

Frame kinds separate **online protocol traffic** (``RAW``: ring tensors
and packed bit vectors, whose payload sizes are exactly what
:class:`Channel` accounts) from **control traffic** (``JSON`` handshake
and requests, ``TENSOR`` logits, ``BLOB`` preprocessing bundles). The
per-kind :class:`WireStats` let callers verify that measured socket
payload equals the protocol's byte accounting, and expose the framing
overhead separately.

:class:`LinkShaper` provides optional ``tc``-free LAN/WAN emulation: a
token bucket meters the sender at the link bandwidth and the receiver
delays delivery until one-way latency (``rtt/2``) has elapsed since the
frame's **receiver-side arrival time** (stamped with the local monotonic
clock when the frame is fully read, clamped to ``[0, rtt/2]``). The
sender's wall-clock timestamp still travels in the header for
diagnostics, but never feeds the delay computation: across two real
machines, clock skew would silently inflate or zero the emulated
latency. This lets a benchmark *measure* shaped end-to-end latency and
compare it with the :class:`~repro.mpc.network.NetworkModel` prediction
on the same run.
"""

from __future__ import annotations

import json
import math
import queue
import socket
import struct
import threading
import time
import zlib
from collections import deque
from dataclasses import asdict, dataclass, field

import numpy as np

from .network import Channel, NetworkModel

__all__ = [
    "FRAME_RAW",
    "FRAME_JSON",
    "FRAME_TENSOR",
    "FRAME_BLOB",
    "FRAME_RAW_BATCH",
    "MAX_FRAME_BYTES",
    "TransportError",
    "WireStats",
    "BufferPool",
    "LinkShaper",
    "Transport",
    "QueueTransport",
    "PeerChannel",
    "FrameAssembler",
    "LoopChannel",
    "pack_array",
    "pack_array_segments",
    "unpack_array",
    "split_batch",
    "pack_bits",
    "unpack_bits",
]

_HEADER = struct.Struct("!4sBBHQdI")
_MAGIC = b"C2PI"
_VERSION = 2
# The largest payload a frame header may declare. Every read path checks
# it before allocating the receive buffer: the length is the peer's u64.
# The largest frames are dealer records (2.8 MB for resnet20 w=0.25 at
# batch 1, linear in batch and ReLU count); 1 GiB leaves them two orders
# of magnitude and still refuses anything a header can lie about.
MAX_FRAME_BYTES = 1 << 30

FRAME_RAW = 0  # online protocol payload (counted against Channel accounting)
FRAME_JSON = 1  # control messages (handshake, requests, metrics)
FRAME_TENSOR = 2  # dtype/shape-tagged arrays (logits, images)
FRAME_BLOB = 3  # opaque control payloads (preprocessing bundles)
FRAME_RAW_BATCH = 4  # several RAW messages coalesced into one physical frame

# Batch frame directory: part count, then per part (label length, part
# length) followed by the UTF-8 label. Payload parts follow concatenated
# in directory order. The frame's own label is the "+"-join of the part
# labels so lock-step diagnostics (and the chaos layer) can still address
# the parts by name.
_BATCH_COUNT = struct.Struct("!B")
_BATCH_PART = struct.Struct("!HI")


class TransportError(RuntimeError):
    """Framing violation, label mismatch or unexpected disconnect."""


# ----------------------------------------------------------------------
# array / bit helpers shared by the wire protocol and the party protocols
# ----------------------------------------------------------------------
def pack_array_segments(array: np.ndarray) -> tuple[bytes, memoryview]:
    """Tensor payload as (header, body) segments — no body copy.

    Arrays travel in little-endian C order regardless of host endianness;
    on little-endian hosts the body is a zero-copy view of the array.
    """
    array = np.ascontiguousarray(array)
    dtype = array.dtype.newbyteorder("<")
    name = dtype.str.encode("ascii")
    header = struct.pack("!BB", len(name), array.ndim) + name
    header += struct.pack(f"!{array.ndim}I", *array.shape)
    body = memoryview(array.astype(dtype, copy=False)).cast("B")
    return header, body


def pack_array(array: np.ndarray) -> bytes:
    """Self-describing tensor payload: dtype + shape header, then raw bytes."""
    header, body = pack_array_segments(array)
    return header + bytes(body)


def unpack_array(payload) -> np.ndarray:
    """Inverse of :func:`pack_array` (accepts bytes or a memoryview)."""
    name_len, ndim = struct.unpack_from("!BB", payload)
    offset = 2
    dtype = np.dtype(bytes(payload[offset : offset + name_len]).decode("ascii"))
    offset += name_len
    shape = struct.unpack_from(f"!{ndim}I", payload, offset)
    offset += 4 * ndim
    data = np.frombuffer(payload, dtype=dtype, offset=offset).reshape(shape)
    return data.astype(dtype.newbyteorder("="), copy=False)


def pack_bits(bits: np.ndarray) -> bytes:
    """Pack a 0/1 uint8 array into bytes (min one byte, like the accounting).

    ``Channel`` charges ``max(1, ceil(n/8))`` for an ``n``-bit boolean
    message; this produces payloads of exactly that size.
    """
    data = np.packbits(bits.reshape(-1)).tobytes()
    return data or b"\x00"


def unpack_bits(payload: bytes, count: int, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`pack_bits` for a known bit count and shape."""
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=count)
    return bits.reshape(shape)


def split_batch(payload) -> list[tuple[str, memoryview]]:
    """Decode a ``FRAME_RAW_BATCH`` payload into ``(label, part)`` views.

    The parts are zero-copy slices of ``payload`` — for a pooled receive
    buffer they stay writable, for a ``bytes`` payload they are read-only
    views; either way nothing is re-materialized.
    """
    view = memoryview(payload)
    (count,) = _BATCH_COUNT.unpack_from(view, 0)
    offset = _BATCH_COUNT.size
    metas: list[tuple[str, int]] = []
    for _ in range(count):
        label_len, part_len = _BATCH_PART.unpack_from(view, offset)
        offset += _BATCH_PART.size
        label = bytes(view[offset : offset + label_len]).decode("utf-8")
        offset += label_len
        metas.append((label, part_len))
    parts = []
    for label, part_len in metas:
        parts.append((label, view[offset : offset + part_len]))
        offset += part_len
    return parts


# ----------------------------------------------------------------------
# the wire codec: the one encoder and the one decoder of a frame
# ----------------------------------------------------------------------
def _bad_header(magic: bytes, version: int, payload_len: int) -> str | None:
    """Why a frame header is refused (before anything is allocated for it)."""
    if magic != _MAGIC or version != _VERSION:
        return f"bad frame header (magic={magic!r}, version={version})"
    if payload_len > MAX_FRAME_BYTES:
        return (
            f"frame header declares {payload_len} payload bytes, over the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return None


def _frame_layout(kind: int, label: str, segments) -> tuple[bytes, list, int]:
    """Lay one frame out: ``(head, segments, payload length)``.

    ``head`` is header + label in one buffer; the payload is the caller's
    ``segments`` laid end to end, returned as flat byte views and never
    joined or copied here. The CRC runs over them in order, so however a
    carrier writes them out, the receiver checks the same bytes.
    """
    encoded = label.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise TransportError(f"label too long: {label!r}")
    segments = [memoryview(segment).cast("B") for segment in segments]
    total = 0
    crc = 0
    for segment in segments:
        total += segment.nbytes
        crc = zlib.crc32(segment, crc)
    header = _HEADER.pack(
        _MAGIC, _VERSION, kind, len(encoded), total,
        # audit: allow[determinism/wall-clock] -- diagnostic stamp, outside CRC/accounting
        time.time(),
        crc,
    )
    return header + encoded, segments, total


def _encode_frame(kind: int, label: str, payload: bytes) -> bytes:
    """One complete wire frame (header + label + payload) as bytes.

    Used by the chaos layer (:mod:`repro.mpc.chaos`), which needs whole
    frames it can corrupt or truncate *below* the checksum: the CRC is
    computed over the original payload, so a tampered copy fails
    verification at the receiver.
    """
    head, segments, _ = _frame_layout(kind, label, (payload,))
    return b"".join((head, *segments))


_IN_HEAD, _IN_LABEL, _IN_PAYLOAD = range(3)  # which field a decoder is filling


class FrameAssembler:
    """The one decoder of the wire format, driven by whoever has the bytes.

    A carrier asks :meth:`want` where the stream's next bytes go, writes
    some there (``recv_into``, a ring read) and reports how many with
    :meth:`advance`, which answers ``None`` (mid-frame), one complete
    ``(kind, label, payload, arrived_at)`` item, or the terminal
    :class:`TransportError`. Everything the format means lives here and
    nowhere else: header fields, the magic / version / length refusal
    (before anything is allocated for the payload), the CRC, where a
    payload lands, the torn-stream diagnosis — so every carrier reports
    every failure in the same words.

    Payloads are received in place: raw protocol frames in the owner's
    :class:`BufferPool` ring when one is attached, a blob in the one
    buffer its consumer reads the material out of, the other control
    frames in a scratch buffer delivered as ``bytes``.
    """

    def __init__(self, owner: "Transport | None" = None):
        self._owner = owner
        self._head = memoryview(bytearray(_HEADER.size))
        self._stage = _IN_HEAD
        self._field = self._head  # the buffer being filled: head, label or payload
        self._filled = 0
        self._kind = self._crc = self._payload_len = 0
        self._label = ""
        self._pooled = False
        #: True while a frame is partially read — EOF now means a torn
        #: stream, not a clean close.
        self.mid_frame = False
        #: The terminal decode failure, once there is one; the stream's
        #: integrity is gone and every later :meth:`want` raises it again.
        self.failed: TransportError | None = None

    def want(self) -> memoryview:
        """Where the next bytes of the stream go: a writable view of
        exactly what the current field still misses (never empty)."""
        if self.failed is not None:
            raise self.failed
        return self._field[self._filled :]

    def advance(self, count: int):
        """``count`` bytes were written into :meth:`want`'s view."""
        self._filled += count
        self.mid_frame = True
        while self._filled == len(self._field):  # field complete, or empty
            if self._stage == _IN_HEAD:
                magic, version, kind, label_len, payload_len, _sent_at, crc = (
                    _HEADER.unpack(self._head)
                )
                refusal = _bad_header(magic, version, payload_len)
                if refusal is not None:
                    return self._fail(refusal)
                self._kind, self._payload_len, self._crc = kind, payload_len, crc
                self._field = memoryview(bytearray(label_len))
            elif self._stage == _IN_LABEL:
                self._label = bytes(self._field).decode("utf-8", errors="replace")
                pool = self._owner.pool if self._owner is not None else None
                # Raw rounds land directly in a pooled, writable buffer:
                # no intermediate bytes object, no downstream .copy().
                self._pooled = bool(
                    pool is not None
                    and self._payload_len
                    and self._kind in (FRAME_RAW, FRAME_RAW_BATCH)
                )
                self._field = (
                    pool.recv_frame(self._label, self._payload_len)
                    if self._pooled
                    else memoryview(bytearray(self._payload_len))
                )
            else:  # _IN_PAYLOAD
                return self._finish()
            self._stage += 1
            self._filled = 0
        return None

    def eof(self) -> TransportError | None:
        """The stream ended: inside a frame that is a torn stream (typed
        and terminal), at a frame boundary a clean close (``None``)."""
        if self.mid_frame and self.failed is None:
            return self._fail("peer connection torn mid-frame (truncated stream)")
        return None

    def _fail(self, reason: str) -> TransportError:
        self.mid_frame = False  # diagnosed: don't also report a torn stream
        self._field = self._head  # drop whatever the frame had been given
        self.failed = TransportError(reason)
        return self.failed

    def _finish(self):
        payload, self._field = self._field, self._head
        self._stage, self._filled, self.mid_frame = _IN_HEAD, 0, False
        if zlib.crc32(payload) != self._crc:
            # A flipped byte anywhere in the payload: refuse the frame
            # (and the stream) instead of letting garbage enter the ring
            # as a share.
            return self._fail(
                f"frame checksum mismatch on {self._label!r} "
                f"({self._payload_len} bytes) — payload corrupted in transit"
            )
        if not (self._pooled or self._kind == FRAME_BLOB):
            payload = bytes(payload)
        # Arrival is stamped on the *receiver's* monotonic clock: the
        # sender's wall-clock stamp (in the header for diagnostics) is
        # skewed by an unknown offset across real machines and must not
        # feed the shaper delay.
        return (self._kind, self._label, payload, time.monotonic())


# ----------------------------------------------------------------------
# measured wire statistics
# ----------------------------------------------------------------------
@dataclass
class WireStats:
    """Bytes actually moved, measured at the transport (not modeled).

    ``raw_payload_*`` covers ``FRAME_RAW`` online protocol messages only —
    by construction it must equal the :class:`Channel` accounting of the
    same run (the loopback tests assert this), and ``raw_by_label`` breaks
    the same measurement down per protocol step so a run can check e.g.
    its measured ``and-open`` payload against the cost model's packed
    circuit prediction. ``wire_*`` includes frame headers and control
    frames: the real socket footprint.
    """

    frames_sent: int = 0
    frames_received: int = 0
    raw_payload_sent: int = 0
    raw_payload_received: int = 0
    control_payload_sent: int = 0
    control_payload_received: int = 0
    wire_bytes_sent: int = 0
    wire_bytes_received: int = 0
    raw_by_label: dict = field(default_factory=dict)
    # Allocation observability (the zero-copy hot-path contract):
    # ``frames_pooled`` counts RAW frames staged in or delivered into a
    # reusable BufferPool buffer; ``bytes_copied`` counts RAW payload
    # bytes that were instead staged through a fresh heap allocation
    # (contiguify, join, tobytes), broken down by label so a regression
    # test can assert a *specific* protocol step stayed allocation-free.
    frames_pooled: int = 0
    bytes_copied: int = 0
    copied_by_label: dict = field(default_factory=dict)

    @property
    def raw_payload_total(self) -> int:
        return self.raw_payload_sent + self.raw_payload_received

    @property
    def framing_overhead(self) -> int:
        payload = (
            self.raw_payload_sent
            + self.raw_payload_received
            + self.control_payload_sent
            + self.control_payload_received
        )
        return self.wire_bytes_sent + self.wire_bytes_received - payload

    def accumulate(self, other: "WireStats") -> None:
        """Fold another transport's measurements into this aggregate.

        Used by the multi-session server to report one global wire
        footprint across every (live and finished) connection.
        """
        for name, theirs in vars(other).items():
            mine = getattr(self, name)
            if isinstance(mine, dict):  # the per-label breakdowns
                for label, nbytes in theirs.items():
                    mine[label] = mine.get(label, 0) + nbytes
            else:
                setattr(self, name, mine + theirs)

    def as_dict(self) -> dict:
        return asdict(self)


# ----------------------------------------------------------------------
# reusable frame buffers
# ----------------------------------------------------------------------
class BufferPool:
    """Reusable per-``(label, size)`` buffers for the online hot path.

    Every protocol round used to allocate its frames fresh: the sender
    built ``ascontiguousarray(...).tobytes()`` staging copies, the
    receiver materialized a new ``bytes`` payload per frame. All of those
    sizes are static per compiled program, so this pool keeps one small
    ring of buffers per ``(label, nbytes)`` key and hands them out
    round-robin.

    Buffer ownership and lifetime (see DESIGN.md §10):

    * a **send** buffer belongs to the caller from :meth:`send_frame`
      until the frame has been handed to the wire; after ``depth`` more
      send frames of the same key it is recycled;
    * a **recv** buffer belongs to the consumer from delivery until its
      next pull of the same ``(label, nbytes)`` key has been *processed*
      — with the default ``depth`` of 2 a consumer may keep views of the
      previous frame alive while the next one is being received (the
      peer runs at most one lock-step round ahead), but must drop them
      before a third same-key frame arrives;
    * **wire** buffers stage header+payload scatter-writes inside one
      transport send call and are never visible outside it.

    The three tables are touched by disjoint threads (application thread:
    send/wire; reader thread: recv), so no locking is needed.
    """

    def __init__(self, depth: int = 2):
        if depth < 2:
            raise ValueError("pool depth must be at least 2 (lock-step overlap)")
        self.depth = depth
        self._tables: dict[str, dict] = {"send": {}, "recv": {}, "wire": {}}
        # Batch sizes whose frame plans have been presized (owned by the
        # engine driving this pool; lives here so a fresh transport after
        # a reconnect starts with a clean slate).
        self.presized: set[int] = set()

    def _ring(self, table: str, label: str, nbytes: int) -> list:
        rings = self._tables[table]
        key = (label, nbytes)
        entry = rings.get(key)
        if entry is None:
            entry = [[bytearray(nbytes) for _ in range(self.depth)], 0]
            rings[key] = entry
        return entry

    def _frame(self, table: str, label: str, nbytes: int) -> memoryview:
        entry = self._ring(table, label, nbytes)
        buffers, index = entry
        entry[1] = (index + 1) % len(buffers)
        return memoryview(buffers[index])

    def send_frame(self, label: str, nbytes: int) -> memoryview:
        """A writable payload buffer for one outgoing frame."""
        return self._frame("send", label, nbytes)

    def recv_frame(self, label: str, nbytes: int) -> memoryview:
        """A writable buffer for one incoming frame's payload."""
        return self._frame("recv", label, nbytes)

    def wire_frame(self, label: str, nbytes: int) -> memoryview:
        """Scratch for scatter-writing header + payload inside one send."""
        return self._frame("wire", label, nbytes)

    def presize(self, plan: dict) -> None:
        """Allocate every ring up front from a ``label -> sizes`` plan.

        The compiled program knows all frame sizes statically (see
        :func:`repro.mpc.program.frame_plan`), so a session can pay all
        pool growth before its first round instead of during it. Unknown
        keys still allocate lazily — the plan is an optimization, not a
        contract.
        """
        for label, sizes in plan.items():
            for nbytes in sizes:
                self._ring("send", label, int(nbytes))
                self._ring("recv", label, int(nbytes))

    def nbytes(self) -> int:
        """Total bytes currently held across all rings."""
        return sum(
            sum(len(buffer) for buffer in entry[0])
            for table in self._tables.values()
            for entry in table.values()
        )


# ----------------------------------------------------------------------
# tc-free link shaping
# ----------------------------------------------------------------------
class LinkShaper:
    """Token-bucket bandwidth metering plus injected one-way latency.

    The sender blocks until the bucket has drained enough tokens for the
    frame (bandwidth emulation); the receiver delays delivery until
    ``rtt/2`` after the frame *arrived* at the receiver, measured on the
    receiver's own monotonic clock (latency emulation). The sender's
    wall-clock header timestamp is deliberately ignored: between two real
    processes or machines it is skewed by an unknown offset, which would
    silently inflate or zero the injected latency. Both endpoints of a
    link should use the same shaper settings.
    """

    def __init__(
        self,
        bandwidth_bytes_per_s: float,
        rtt_s: float,
        burst_bytes: float = 65536.0,
    ):
        if bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth_bytes_per_s = float(bandwidth_bytes_per_s)
        self.rtt_s = float(rtt_s)
        self.burst_bytes = float(burst_bytes)
        self._tokens = self.burst_bytes
        self._stamp = time.monotonic()
        self._lock = threading.Lock()

    @classmethod
    def for_network(cls, network: NetworkModel) -> "LinkShaper":
        return cls(network.bandwidth_bytes_per_s, network.rtt_s)

    def throttle_send(self, num_bytes: int) -> None:
        """Block until the token bucket admits ``num_bytes``."""
        with self._lock:
            now = time.monotonic()
            self._tokens = min(
                self.burst_bytes,
                self._tokens + (now - self._stamp) * self.bandwidth_bytes_per_s,
            )
            self._stamp = now
            self._tokens -= num_bytes
            wait = max(0.0, -self._tokens / self.bandwidth_bytes_per_s)
        if wait > 0.0:
            time.sleep(wait)

    def delay_delivery(self, arrived_at: float) -> None:
        """Hold a received frame until one-way latency has elapsed.

        ``arrived_at`` is the receiver-side ``time.monotonic()`` stamp
        taken when the frame was fully read off the wire (so time the
        frame spent queued behind earlier deliveries counts toward its
        latency). The residual sleep is clamped to ``[0, rtt/2]``: a
        skewed or bogus stamp can never inject more than one-way latency,
        and never a negative delay.
        """
        remaining = arrived_at + self.rtt_s / 2.0 - time.monotonic()
        remaining = min(max(remaining, 0.0), self.rtt_s / 2.0)
        if remaining > 0.0:
            time.sleep(remaining)


# ----------------------------------------------------------------------
# the transport interface
# ----------------------------------------------------------------------
class Transport(Channel):
    """A :class:`Channel` that actually moves bytes between the parties.

    ``Channel`` itself is the in-process placement — both parties' rows
    in one address space, every message accounted and none moved. A
    ``Transport`` is the placement of one party: it keeps the identical
    counters, implements the same ``frame`` / ``row`` / ``open_*`` /
    ``hand`` calls the protocols are written against for a single row,
    and underneath them adds the movement API:

    * :meth:`push` / :meth:`pull` — one-directional raw protocol messages;
    * :meth:`swap` — a simultaneous exchange (both parties send, then
      receive; one communication round);
    * :meth:`send_obj` / :meth:`recv_obj`, :meth:`send_blob` /
      :meth:`recv_blob` — JSON and opaque control frames (handshake,
      preprocessing bundles, logits) that are *not* part of the online
      protocol accounting.

    ``party`` is 0 for the client, 1 for the server.
    """

    def __init__(self, party: int, shaper: LinkShaper | None = None):
        super().__init__()
        if party not in (0, 1):
            raise ValueError(f"party must be 0 or 1, got {party}")
        self.party = party
        self.parties = (party,)
        self.shaper = shaper
        self.stats = WireStats()
        self.pool: BufferPool | None = None
        self._deferred: list[tuple[str, list]] = []
        self._expanded: deque = deque()

    # -- movement primitives (implemented by subclasses) ----------------
    def _send_frame(self, kind: int, label: str, segments) -> None:
        """Send one frame whose payload is ``segments`` laid end to end."""
        raise NotImplementedError

    def _recv_frame(self) -> tuple[int, str, bytes]:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    # -- pooled staging --------------------------------------------------
    def ensure_pool(self) -> BufferPool:
        """Attach (or return) this transport's :class:`BufferPool`."""
        if self.pool is None:
            self.pool = BufferPool()
        return self.pool

    def _count_copied(self, label: str, nbytes: int) -> None:
        self.stats.bytes_copied += nbytes
        self.stats.copied_by_label[label] = (
            self.stats.copied_by_label.get(label, 0) + nbytes
        )

    def alloc_frame(self, label: str, nbytes: int) -> memoryview:
        """A writable payload buffer for one outgoing raw frame.

        Pooled when a :class:`BufferPool` is attached (zero heap traffic
        per round, counted in ``stats.frames_pooled``); otherwise a fresh
        buffer counted in ``stats.bytes_copied``.
        """
        if self.pool is not None:
            self.stats.frames_pooled += 1
            return self.pool.send_frame(label, nbytes)
        self._count_copied(label, nbytes)
        return memoryview(bytearray(nbytes))

    def alloc_words(self, label: str, count: int) -> np.ndarray:
        """Writable uint64 scratch backing one outgoing raw frame."""
        return np.frombuffer(self.alloc_frame(label, count * 8), dtype=np.uint64)

    def stage(self, array: np.ndarray, label: str) -> memoryview:
        """Wire-ready byte view of an array, counting any staging copy."""
        contiguous = np.ascontiguousarray(array)
        if contiguous is not array:
            self._count_copied(label, contiguous.nbytes)
        return memoryview(contiguous).cast("B")

    # -- placement: one row, the peer across the wire --------------------
    # The protocols' only receive seam. Every opening and every handed
    # message is length-checked against the shape the protocol expects:
    # ``pull`` checks kind and label, never length, and a short or
    # over-long frame must not reach the share arithmetic.
    def row(self, party: int) -> int | None:
        return 0 if party == self.party else None

    def frame(self, label: str, shape: tuple[int, ...]) -> np.ndarray:
        """A pooled ``(1, *shape)`` frame the opening is computed into."""
        return self.alloc_words(label, math.prod(shape)).reshape(1, *shape)

    def _received(self, payload, label: str, expected: int, shape) -> None:
        if len(payload) != expected:
            raise TransportError(
                f"party {self.party} expected {expected} bytes of {label!r} "
                f"for shape {tuple(shape)} but received {len(payload)}"
            )

    def _swap_words(self, frame: np.ndarray, label: str) -> np.ndarray:
        payload = self.swap(self.stage(frame, label), label)
        self.exchange(frame.nbytes, label)
        self._received(payload, label, frame.nbytes, frame.shape[1:])
        return np.frombuffer(payload, dtype=np.uint64).reshape(frame.shape[1:])

    def open_add(self, frame: np.ndarray, label: str) -> np.ndarray:
        return frame[0] + self._swap_words(frame, label)

    def open_xor(self, frame: np.ndarray, label: str) -> np.ndarray:
        return frame[0] ^ self._swap_words(frame, label)

    def open_bits(self, bits: np.ndarray, label: str) -> np.ndarray:
        packed = pack_bits(bits)
        payload = self.swap(packed, label)
        self.exchange(len(packed), label)
        self._received(payload, label, len(packed), bits.shape[1:])
        return bits[0] ^ unpack_bits(payload, bits[0].size, bits.shape[1:])

    def hand(self, label: str, shape: tuple[int, ...], fill) -> np.ndarray | None:
        """The client queues the message (it leaves with its next push, or
        at :meth:`flush_deferred`, sharing that frame); the server pulls.

        Queued same-label messages stage under distinct ``@slot`` pool
        keys so they never share a buffer ring.
        """
        count = math.prod(shape)
        received = None
        if self.party == 0:
            key = f"{label}@{self.deferred_count(label)}"
            message = self.alloc_words(key, count).reshape(shape)
            fill(message)
            self.push_deferred(memoryview(message).cast("B"), label)
        else:
            payload = self.pull(label)
            self._received(payload, label, 8 * count, shape)
            received = np.frombuffer(payload, dtype=np.uint64).reshape(shape)
        self.send(0, 8 * count, label)
        return received

    # -- shared bookkeeping ---------------------------------------------
    def _count_sent(self, kind: int, label: str, nbytes: int) -> None:
        self.stats.frames_sent += 1
        self.stats.wire_bytes_sent += _HEADER.size + len(label.encode()) + nbytes
        if kind == FRAME_RAW:
            self.stats.raw_payload_sent += nbytes
            self.stats.raw_by_label[label] = (
                self.stats.raw_by_label.get(label, 0) + nbytes
            )
        elif kind != FRAME_RAW_BATCH:
            self.stats.control_payload_sent += nbytes
        # FRAME_RAW_BATCH: per-part raw accounting happens in _send_parts
        # (the directory bytes count as framing overhead, not payload).

    def _count_received(
        self,
        kind: int,
        label: str,
        nbytes: int,
        pooled: bool = False,
        copied: bool = False,
    ) -> None:
        self.stats.frames_received += 1
        self.stats.wire_bytes_received += _HEADER.size + len(label.encode()) + nbytes
        if kind == FRAME_RAW:
            self.stats.raw_payload_received += nbytes
            self.stats.raw_by_label[label] = (
                self.stats.raw_by_label.get(label, 0) + nbytes
            )
        elif kind != FRAME_RAW_BATCH:
            self.stats.control_payload_received += nbytes
        if kind in (FRAME_RAW, FRAME_RAW_BATCH):
            if pooled:
                self.stats.frames_pooled += 1
            elif copied:
                self._count_copied(label, nbytes)

    def _delivered(self, item: tuple) -> tuple[int, str, bytes]:
        """Account one item the decoder completed; ``(kind, label, payload)``."""
        kind, label, payload, _arrived_at = item
        pooled = not isinstance(payload, bytes)
        self._count_received(
            kind, label, len(payload), pooled=pooled, copied=not pooled
        )
        return kind, label, payload

    def _next_frame(self) -> tuple[int, str, bytes]:
        """The next logical raw message: expands batch frames in order."""
        if self._expanded:
            return self._expanded.popleft()
        kind, label, payload = self._recv_frame()
        if kind != FRAME_RAW_BATCH:
            return kind, label, payload
        for part_label, part in split_batch(payload):
            self.stats.raw_payload_received += part.nbytes
            self.stats.raw_by_label[part_label] = (
                self.stats.raw_by_label.get(part_label, 0) + part.nbytes
            )
            self._expanded.append((FRAME_RAW, part_label, part))
        return self._expanded.popleft()

    def _expect(self, kind: int, label: str | None) -> tuple[str, bytes]:
        got_kind, got_label, payload = self._next_frame()
        if got_kind != kind:
            raise TransportError(
                f"party {self.party} expected frame kind {kind} "
                f"({label!r}) but received kind {got_kind} ({got_label!r}) — "
                "the parties are out of lock-step"
            )
        if label is not None and got_label != label:
            raise TransportError(
                f"party {self.party} expected message {label!r} but received "
                f"{got_label!r} — the parties are out of lock-step"
            )
        return got_label, payload

    # -- online protocol messages ---------------------------------------
    def push(self, data: bytes, label: str) -> None:
        """Send one raw online-protocol message to the peer."""
        if self._deferred:
            self._flush_with([(label, [data])])
            return
        self._send_frame(FRAME_RAW, label, (data,))

    def push_deferred(self, data, label: str) -> None:
        """Queue a raw message to ride in the next outgoing frame.

        The message coalesces with every other deferred message and the
        next :meth:`push` into **one** physical ``FRAME_RAW_BATCH`` frame
        (one header, one syscall, one shaper grant), preserving message
        order and per-label accounting exactly. Used by the engine's
        reveal fusion: a linear layer's masked input shares the frame of
        the following ReLU's masked reveal.
        """
        self._deferred.append((label, [data]))

    def deferred_count(self, label: str) -> int:
        """How many deferred messages with this label are queued.

        Callers staging a deferred message in a pooled buffer use this as
        a pool-key suffix so same-label messages queued together never
        share (and thus never recycle) one buffer ring.
        """
        return sum(1 for queued, _ in self._deferred if queued == label)

    def flush_deferred(self) -> None:
        """Send any queued deferred messages without a carrier push."""
        if self._deferred:
            self._flush_with([])

    def _flush_with(self, tail: list) -> None:
        parts, self._deferred = self._deferred + tail, []
        self._send_parts(parts)

    def _send_parts(self, parts: list) -> None:
        """One physical frame carrying several labeled raw messages."""
        if len(parts) == 1:
            label, segments = parts[0]
            self._send_frame(FRAME_RAW, label, segments)
            return
        views = [
            (label, [memoryview(s).cast("B") for s in segments])
            for label, segments in parts
        ]
        encoded = [label.encode("utf-8") for label, _ in views]
        sizes = [sum(s.nbytes for s in segments) for _, segments in views]
        directory = bytearray(
            _BATCH_COUNT.size
            + sum(_BATCH_PART.size + len(name) for name in encoded)
        )
        _BATCH_COUNT.pack_into(directory, 0, len(views))
        offset = _BATCH_COUNT.size
        for name, size in zip(encoded, sizes):
            _BATCH_PART.pack_into(directory, offset, len(name), size)
            offset += _BATCH_PART.size
            directory[offset : offset + len(name)] = name
            offset += len(name)
        joined = "+".join(label for label, _ in views)
        segments = [memoryview(directory)]
        for _, part_segments in views:
            segments.extend(part_segments)
        self._send_frame(FRAME_RAW_BATCH, joined, segments)
        for (label, _), size in zip(views, sizes):
            self.stats.raw_payload_sent += size
            self.stats.raw_by_label[label] = (
                self.stats.raw_by_label.get(label, 0) + size
            )

    def pull(self, label: str | None = None) -> bytes:
        """Receive the peer's next raw online-protocol message."""
        if self._deferred:
            self.flush_deferred()
        return self._expect(FRAME_RAW, label)[1]

    def swap(self, data: bytes, label: str) -> bytes:
        """Simultaneous exchange: send ours, receive theirs (one round)."""
        self.push(data, label)
        return self.pull(label)

    # -- control messages -----------------------------------------------
    def send_obj(self, obj, label: str = "ctl") -> None:
        if self._deferred:
            self.flush_deferred()  # control must not overtake raw messages
        self._send_frame(FRAME_JSON, label, (json.dumps(obj).encode("utf-8"),))

    def recv_obj(self, label: str | None = None):
        return json.loads(bytes(self._expect(FRAME_JSON, label)[1]).decode("utf-8"))

    def send_tensor(self, array: np.ndarray, label: str = "tensor") -> None:
        if self._deferred:
            self.flush_deferred()
        header, body = pack_array_segments(array)
        self._send_frame(FRAME_TENSOR, label, (header, body))

    def recv_tensor(self, label: str | None = None) -> np.ndarray:
        return unpack_array(self._expect(FRAME_TENSOR, label)[1])

    def send_blob(self, data, label: str = "blob") -> None:
        """One blob frame; ``data`` is one buffer or a list of buffers
        that are its payload laid end to end (scattered, never joined,
        where the carrier can)."""
        if self._deferred:
            self.flush_deferred()
        segments = data if isinstance(data, (list, tuple)) else (data,)
        self._send_frame(FRAME_BLOB, label, segments)

    def recv_blob(self, label: str | None = None):
        """The payload of the next blob frame: ``bytes``, or a view of
        the one buffer a socket frame was received into."""
        return self._expect(FRAME_BLOB, label)[1]

    def recv_reply(self, label: str | None = None):
        """Receive a blob *or* a control object under one label.

        RPC-style exchanges need a reply slot that can carry either the
        payload (a sealed bundle blob) or a typed refusal (a JSON busy
        object) without the two parties falling out of lock-step: the
        label pins the slot, the frame kind disambiguates the outcome.
        Returns ``("blob", payload)`` (as :meth:`recv_blob`) or
        ``("obj", dict)``.
        """
        kind, got_label, payload = self._next_frame()
        if label is not None and got_label != label:
            raise TransportError(
                f"party {self.party} expected message {label!r} but received "
                f"{got_label!r} — the parties are out of lock-step"
            )
        if kind == FRAME_BLOB:
            return "blob", payload
        if kind == FRAME_JSON:
            return "obj", json.loads(bytes(payload).decode("utf-8"))
        raise TransportError(
            f"party {self.party} expected a blob or control reply "
            f"({label!r}) but received frame kind {kind} — the parties "
            "are out of lock-step"
        )


# ----------------------------------------------------------------------
# in-process loopback (two party threads, one process)
# ----------------------------------------------------------------------
class QueueTransport(Transport):
    """Loopback transport: a queue pair between two threads.

    The wire statistics mirror real framing sizes so loopback tests
    exercise the same accounting invariants as the socket transport.
    """

    def __init__(self, party: int, shaper: LinkShaper | None = None):
        super().__init__(party, shaper)
        self._inbox: queue.Queue = queue.Queue()
        self._peer: QueueTransport | None = None
        self.timeout: float | None = 60.0

    @classmethod
    def pair(
        cls, shaper: LinkShaper | None = None
    ) -> tuple["QueueTransport", "QueueTransport"]:
        # A full-duplex link: each direction gets its own token bucket
        # (sharing one would make opposing sends contend for bandwidth).
        other = (
            LinkShaper(
                shaper.bandwidth_bytes_per_s, shaper.rtt_s, shaper.burst_bytes
            )
            if shaper is not None
            else None
        )
        client, server = cls(0, shaper), cls(1, other)
        client._peer, server._peer = server, client
        return client, server

    def _send_frame(self, kind: int, label: str, segments) -> None:
        if self._peer is None:
            raise TransportError("queue transport is not paired")
        raw = kind in (FRAME_RAW, FRAME_RAW_BATCH)
        if len(segments) == 1 and isinstance(segments[0], bytes):
            payload = segments[0]  # immutable already: handed over as it is
        else:
            views = [memoryview(segment).cast("B") for segment in segments]
            total = sum(view.nbytes for view in views)
            if self.pool is None or not raw:
                # Control frames (logits tensors, blobs) are materialized:
                # their consumers may hold them indefinitely.
                if raw:
                    self._count_copied(label, total)
                payload = b"".join(views)
            elif len(views) == 1:
                # Zero-copy handoff: the peer receives the sender's buffer
                # directly (pooled lifetime rules apply — see BufferPool).
                payload = views[0]
            else:
                payload = self.pool.wire_frame(label, total)
                offset = 0
                for view in views:
                    payload[offset : offset + view.nbytes] = view
                    offset += view.nbytes
        if self.shaper is not None:
            self.shaper.throttle_send(len(payload))
        self._count_sent(kind, label, len(payload))
        # Enqueueing *is* arrival for the in-memory pair; both threads
        # share one process clock, so monotonic stamps are comparable.
        self._peer._inbox.put((kind, label, payload, time.monotonic()))

    def _recv_frame(self) -> tuple[int, str, bytes]:
        try:
            kind, label, payload, arrived_at = self._inbox.get(timeout=self.timeout)
        except queue.Empty as exc:
            raise TransportError(
                f"party {self.party} timed out waiting for the peer"
            ) from exc
        if self.shaper is not None:
            self.shaper.delay_delivery(arrived_at)
        self._count_received(
            kind, label, len(payload), pooled=not isinstance(payload, bytes)
        )
        return kind, label, payload


# ----------------------------------------------------------------------
# the TCP transport
# ----------------------------------------------------------------------
class PeerChannel(Transport):
    """Socket transport: runs the secure program between two processes.

    A daemon reader thread drains the socket into an inbox queue, so a
    :meth:`swap` (both parties send before either receives) can never
    deadlock on full kernel buffers, whatever the tensor sizes.
    """

    def __init__(
        self,
        sock: socket.socket,
        party: int,
        shaper: LinkShaper | None = None,
        timeout: float | None = 120.0,
        *,
        reader: bool = True,
    ):
        super().__init__(party, shaper)
        self._sock = sock
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._write_lock = threading.Lock()
        self._inbox: queue.Queue = queue.Queue()
        self._closed = threading.Event()
        self.timeout = timeout
        # Write deadline: a peer that stops draining its socket must not
        # park a sender in sendall() forever once the kernel buffer fills.
        # SO_SNDTIMEO bounds sends only — the reader thread keeps its
        # blocking recv (receive waits are bounded by the inbox timeout).
        if timeout is not None:
            self._set_write_deadline(timeout)
        # Set once the read loop exits: the peer closed, vanished, or we
        # closed. Lets callers (the chaos layer's stall fault, session
        # reapers) wait for peer death without polling.
        self.peer_gone = threading.Event()
        self._decoder = FrameAssembler(self)
        self._eof_delivered = False
        # ``reader=False`` (the LoopChannel subclass) skips the per-
        # connection reader thread: an external event loop moves the
        # socket's bytes into the decoder instead of a dedicated thread.
        self._reader: threading.Thread | None = None
        if reader:
            self._reader = threading.Thread(
                target=self._pump,
                name=f"c2pi-peer-reader-p{party}",
                daemon=True,
            )
            self._reader.start()

    def _set_write_deadline(self, seconds: float) -> None:
        try:
            self._sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_SNDTIMEO,
                struct.pack("ll", int(seconds), int((seconds % 1.0) * 1e6)),
            )
        except (OSError, struct.error):  # pragma: no cover - platform dependent
            pass

    def wait_peer_gone(self, timeout: float | None = None) -> bool:
        """Block until the peer side of the connection is gone."""
        return self.peer_gone.wait(timeout)

    # -- connection helpers ---------------------------------------------
    @classmethod
    def listen(cls, host: str = "127.0.0.1", port: int = 0) -> socket.socket:
        """Bind a listening socket (port 0 picks an ephemeral port)."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(8)
        return listener

    @classmethod
    def accept(
        cls,
        listener: socket.socket,
        shaper: LinkShaper | None = None,
        timeout: float | None = 120.0,
    ) -> "PeerChannel":
        """Accept one client connection as the server (party 1)."""
        sock, _ = listener.accept()
        return cls(sock, party=1, shaper=shaper, timeout=timeout)

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        shaper: LinkShaper | None = None,
        timeout: float | None = 120.0,
        attempts: int = 40,
        retry_delay: float = 0.25,
    ) -> "PeerChannel":
        """Connect to a listening server as the client (party 0)."""
        last: Exception | None = None
        for _ in range(attempts):
            try:
                sock = socket.create_connection((host, port), timeout=timeout)
                # The timeout above governs the connect attempt only: a
                # lingering recv timeout would kill the reader thread on
                # any idle gap (receive waits are bounded by the inbox
                # timeout instead).
                sock.settimeout(None)
                return cls(sock, party=0, shaper=shaper, timeout=timeout)
            except OSError as exc:  # server may not be listening yet
                last = exc
                time.sleep(retry_delay)
        raise TransportError(f"could not connect to {host}:{port}: {last}")

    # -- framing ---------------------------------------------------------
    def _send_frame(self, kind: int, label: str, segments) -> None:
        """Scatter write: head, then each segment, no payload join.

        A two-segment Beaver ``(d, e)`` round therefore costs zero
        concatenation copies on the sender; the receiver reads the frame
        into one buffer anyway (it needs contiguous tensors).
        """
        head, segments, total = _frame_layout(kind, label, segments)
        if self.shaper is not None:
            self.shaper.throttle_send(total)
        copied = 0
        if total > 65536:
            # Avoid copying multi-megabyte tensors just to prepend a
            # ~24-byte header.
            wire_parts = [head, *segments]
        elif self.pool is not None:
            # Scatter head + payload into one pooled wire frame: a
            # single sendall with zero fresh allocations.
            staged = self.pool.wire_frame(label, len(head) + total)
            offset = 0
            for part in (head, *segments):
                staged[offset : offset + len(part)] = part
                offset += len(part)
            wire_parts = [staged]
        else:
            # One segment for small frames (TCP_NODELAY is on).
            if kind in (FRAME_RAW, FRAME_RAW_BATCH):
                copied = total
            wire_parts = [b"".join((head, *segments))]
        with self._write_lock:
            try:
                for part in wire_parts:
                    self._sock.sendall(part)
            except OSError as exc:
                raise TransportError(f"peer connection lost on send: {exc}") from exc
        if copied:
            self._count_copied(label, copied)
        self._count_sent(kind, label, total)

    def _pump(self, flags: int = 0) -> tuple[int, bool]:
        """Move the socket's bytes into the decoder, its items into the inbox.

        The whole read side of the carrier: the decoder says where the
        stream's next bytes go, ``recv_into`` puts them there. Runs until
        the stream ends — or, with ``MSG_DONTWAIT``, until the socket has
        nothing more — and returns ``(items delivered, stream ended)``.
        """
        decoder = self._decoder
        delivered = 0
        while not self._closed.is_set():
            try:
                got = self._sock.recv_into(decoder.want(), 0, flags)
            except (BlockingIOError, InterruptedError):
                return delivered, False
            except OSError:
                got = 0
            item = decoder.advance(got) if got else None
            if item is not None:
                self._inbox.put(item)
                delivered += 1
            if not got or decoder.failed is not None:
                # EOF, or the stream's integrity is gone (bad header /
                # CRC): nothing after this point can be trusted.
                break
        return delivered + self._mark_eof(), True

    def _mark_eof(self) -> int:
        """Terminal delivery: torn-stream diagnosis + the EOF sentinel."""
        if self._eof_delivered:
            return 0
        self._eof_delivered = True
        delivered = 1
        torn = None if self._closed.is_set() else self._decoder.eof()
        if torn is not None:
            self._inbox.put(torn)
            delivered += 1
        self.peer_gone.set()
        self._inbox.put(None)
        return delivered

    def _recv_frame(self) -> tuple[int, str, bytes]:
        try:
            item = self._inbox.get(timeout=self.timeout)
        except queue.Empty as exc:
            raise TransportError(
                f"party {self.party} timed out waiting for the peer"
            ) from exc
        if item is None:
            raise TransportError("peer closed the connection")
        if isinstance(item, TransportError):
            raise item
        if self.shaper is not None:
            self.shaper.delay_delivery(item[3])
        return self._delivered(item)

    def send_raw(self, data: bytes) -> None:
        """Write raw bytes to the socket, bypassing framing.

        The chaos layer uses this to put deliberately malformed frames
        (bad checksum, truncated tail) on a real wire; nothing in the
        serving stack calls it.
        """
        with self._write_lock:
            try:
                self._sock.sendall(data)
            except OSError as exc:
                raise TransportError(f"peer connection lost on send: {exc}") from exc

    def close(self) -> None:
        self._closed.set()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self.peer_gone.set()
        if self._reader is not None:
            self._reader.join(timeout=5.0)


# ----------------------------------------------------------------------
# event-loop (non-blocking) read path
# ----------------------------------------------------------------------
class LoopChannel(PeerChannel):
    """A :class:`PeerChannel` whose reads are driven by an event loop.

    No per-connection reader thread: the owning loop watches the socket
    for readability and calls :meth:`on_readable`, which moves whatever
    the kernel has (``MSG_DONTWAIT``, so a spurious wakeup never blocks
    the loop) straight into the decoder's buffers and its items into the
    same inbox the consumer API reads from. Send paths, timeouts,
    shaping, statistics and close semantics are all inherited unchanged
    — a protocol worker using this transport cannot tell it from a
    threaded one.
    """

    def __init__(
        self,
        sock: socket.socket,
        party: int,
        shaper: LinkShaper | None = None,
        timeout: float | None = 120.0,
    ):
        super().__init__(sock, party, shaper, timeout, reader=False)

    def fileno(self) -> int:
        return self._sock.fileno()

    def inject(self, exc: TransportError) -> None:
        """Deliver a synthetic terminal error to the consumer side.

        The event loop uses this to synthesize the timeout a blocking
        ``recv`` would have raised (handshake and idle deadlines): the
        consumer's next receive raises ``exc`` exactly as if the read
        path had produced it.
        """
        self._inbox.put(exc)

    def frame_waiting(self) -> bool:
        """Whether the consumer's next receive returns without waiting."""
        return not self._inbox.empty()

    def on_readable(self) -> tuple[int, bool]:
        """Drain the socket without blocking; deliver complete frames.

        Returns ``(delivered, closed)``: how many items reached the
        inbox, and whether the stream ended (EOF, socket error, or a
        terminal framing/CRC failure — after which the caller should
        unwatch the descriptor; the transport itself stays open until
        its owner closes it).
        """
        return self._pump(socket.MSG_DONTWAIT)

    def close(self) -> None:
        # No reader thread will deliver the EOF sentinel on close: put it
        # ourselves so a consumer blocked on the inbox wakes immediately
        # instead of waiting out its full receive timeout.
        super().close()
        if not self._eof_delivered:
            self._eof_delivered = True
            self._inbox.put(None)
