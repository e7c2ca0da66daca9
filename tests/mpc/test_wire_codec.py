"""The wire codec: one encoder, one decoder, three carriers that move bytes.

``FrameAssembler`` is the only parser of the frame format and
``_frame_layout`` the only writer; the reader-thread TCP transport, the
event-loop TCP transport and the shared-memory ring transport all hand
the stream's bytes to the same decoder. These tests hold the decoder to
an independent reading of the format (``reference_decode`` below walks
the bytes with ``struct.unpack_from`` and shares no code with it):

* conformance — the recorded byte stream of a real request, both
  directions, replayed in pieces through the bare decoder and through
  every carrier, must decode to the same items;
* one failure behaviour — every malformed or torn stream is the same
  typed error on every carrier, and stays an error;
* a derandomized fuzz of the decoder — arbitrary bytes, valid streams
  with overwritten bytes, truncations, arbitrary piece sizes.
"""

import contextlib
import itertools
import selectors
import socket
import struct
import threading
import tracemalloc
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from placements import feed

from repro.mpc import transport as wire
from repro.mpc.dealer import SEED_BYTES
from repro.mpc.preprocessing import PreprocessingPool, pack_party_bundle
from repro.mpc.program import compile_program
from repro.mpc.shm import ShmChannel, ShmRing
from repro.mpc.transport import (
    FRAME_BLOB,
    FRAME_JSON,
    FRAME_RAW,
    FRAME_RAW_BATCH,
    FRAME_TENSOR,
    MAX_FRAME_BYTES,
    FrameAssembler,
    LoopChannel,
    PeerChannel,
    TransportError,
    WireStats,
    _encode_frame,
)
from repro.serve.chaos_check import TINY_BOUNDARY, tiny_victim
from repro.serve.remote import RemoteClient, RemoteServer, _demo_victim

HEADER = struct.Struct("!4sBBHQdI")  # the format, restated: not imported
TORN = "peer connection torn mid-frame (truncated stream)"
POOLED_KINDS = (FRAME_RAW, FRAME_RAW_BATCH)


# ----------------------------------------------------------------------
# an independent reading of the format
# ----------------------------------------------------------------------
def reference_decode(stream: bytes, limit: int = MAX_FRAME_BYTES):
    """``(frames, spans, failure)`` of a byte stream that then ends.

    ``frames`` are the ``(kind, label, payload)`` of every complete frame
    before the first failure, ``spans`` the ``(end offset, label length)``
    of every frame whose header was admitted (the last one may run past
    the stream), and ``failure`` is ``None`` (the stream ends at
    a frame boundary) or a pattern the terminal error must match.
    """
    frames, spans, offset = [], [], 0
    while offset < len(stream):
        if len(stream) - offset < HEADER.size:
            return frames, spans, TORN
        magic, version, kind, label_len, payload_len, _, crc = HEADER.unpack_from(
            stream, offset
        )
        if magic != b"C2PI" or version != 2:
            return frames, spans, "bad frame header"
        if payload_len > limit:
            return frames, spans, f"over the {limit}-byte limit"
        body = offset + HEADER.size + label_len
        end = body + payload_len
        spans.append((end, label_len))
        if end > len(stream):
            return frames, spans, TORN
        payload = stream[body:end]
        if zlib.crc32(payload) != crc:
            return frames, spans, "frame checksum mismatch"
        label = stream[offset + HEADER.size : body].decode("utf-8", errors="replace")
        frames.append((kind, label, payload))
        offset = end
    return frames, spans, None


def frozen(item):
    """A decoded item as comparable values (pooled buffers get recycled)."""
    kind, label, payload = item[:3]
    return kind, label, bytes(payload)


# ----------------------------------------------------------------------
# the three carriers, each with a raw writer into its receiving end
# ----------------------------------------------------------------------
class _FakeCarrier:
    """The slice of a TCP transport a shared-memory channel relies on."""

    def __init__(self):
        self.stats = WireStats()
        self.peer_gone = threading.Event()
        self.timeout = 10.0

    def close(self):
        pass


class Wire:
    """A receiving transport plus the raw write end of its byte stream."""

    def __init__(self, receiver, write, hang_up, cleanup):
        self.receiver = receiver
        self.write = write  # raw bytes, below framing
        self.hang_up = hang_up  # the writer goes away: EOF for the reader
        self._cleanup = cleanup

    def recv(self):
        return self.receiver._recv_frame()

    def close(self):
        self.receiver.close()
        self._cleanup()


def _tcp_wire(channel_type) -> Wire:
    listener = PeerChannel.listen()
    raw = socket.create_connection(("127.0.0.1", listener.getsockname()[1]))
    raw.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # pieces leave as written
    sock, _ = listener.accept()
    listener.close()
    receiver = channel_type(sock, party=1, timeout=10.0)
    stop = threading.Event()
    pump = None
    if channel_type is LoopChannel:
        # A one-socket event loop: what RemoteServer's loop thread does.
        def loop():
            with selectors.DefaultSelector() as selector:
                selector.register(receiver, selectors.EVENT_READ)
                while not stop.is_set():
                    if selector.select(timeout=0.05) and receiver.on_readable()[1]:
                        return

        pump = threading.Thread(target=loop, daemon=True)
        pump.start()

    def cleanup():
        stop.set()
        if pump is not None:
            pump.join(timeout=5.0)
        raw.close()

    return Wire(receiver, raw.sendall, raw.close, cleanup)


def _shm_wire() -> Wire:
    rx, tx = ShmRing.create(1 << 16), ShmRing.create(1 << 16)
    receiver = ShmChannel(party=0, rx=rx, tx=tx, carrier=_FakeCarrier(), timeout=10.0)
    return Wire(receiver, rx.write, rx.mark_closed, lambda: None)


CARRIERS = {
    "reader-thread": lambda: _tcp_wire(PeerChannel),
    "event-loop": lambda: _tcp_wire(LoopChannel),
    "shm-ring": _shm_wire,
}


@pytest.fixture(params=list(CARRIERS))
def carrier(request):
    wire_ = CARRIERS[request.param]()
    yield wire_
    wire_.close()


def carrier_text(exc) -> str:
    """An error's text without the shared-memory carrier's prefix."""
    text = str(exc)
    marker = "lost the shared-memory peer: "
    return text[text.index(marker) + len(marker) :] if marker in text else text


# ----------------------------------------------------------------------
# conformance: a real request's byte stream, replayed
# ----------------------------------------------------------------------
DIRECTIONS = ("client-to-server", "server-to-client")


class _Tap:
    """A TCP relay that records the bytes of each direction."""

    def __init__(self, port: int):
        self._listener = PeerChannel.listen()
        self.port = self._listener.getsockname()[1]
        self._upstream = port
        self._streams = {name: bytearray() for name in DIRECTIONS}
        self._sockets = []
        self._threads = [threading.Thread(target=self._accept, daemon=True)]
        self._threads[0].start()

    def _accept(self):
        near, _ = self._listener.accept()
        far = socket.create_connection(("127.0.0.1", self._upstream))
        self._sockets += [near, far]
        for source, sink, name in zip((near, far), (far, near), DIRECTIONS):
            thread = threading.Thread(
                target=self._relay, args=(source, sink, self._streams[name]), daemon=True
            )
            thread.start()
            self._threads.append(thread)

    @staticmethod
    def _relay(source, sink, record):
        with contextlib.suppress(OSError):
            while chunk := source.recv(1 << 16):
                record += chunk
                sink.sendall(chunk)
        with contextlib.suppress(OSError):
            sink.shutdown(socket.SHUT_WR)

    def finish(self) -> dict:
        """Once the client has hung up: both directions, as recorded."""
        for thread in list(self._threads):
            thread.join(timeout=10.0)
        for sock in (self._listener, *self._sockets):
            sock.close()
        return {name: bytes(stream) for name, stream in self._streams.items()}


def _record(victim, boundary, image) -> dict:
    server = RemoteServer(victim, boundary, seed=5)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        tap = _Tap(server.port)
        client = RemoteClient("127.0.0.1", tap.port, noise_magnitude=0.1, seed=5)
        client.infer(image)
        client.close()
        return tap.finish()
    finally:
        server.stop()
        thread.join(timeout=10.0)


@pytest.fixture(scope="module")
def resnet_session():
    """One resnet20 batch-1 request (handshake, request, the client's
    bundle half, every online round, the logits, bye), as it crossed TCP."""
    image = np.random.default_rng(7).random((1, 3, 32, 32), dtype=np.float32)
    return _record(_demo_victim("resnet20", 0.25, 0), 3.5, image)


@pytest.fixture(scope="module")
def tiny_session():
    """The same session shape on the 5-class demo victim: every frame
    kind in a stream short enough to replay a byte at a time."""
    image = np.random.default_rng(7).random((1, 2, 8, 8), dtype=np.float32)
    return _record(tiny_victim(0), TINY_BOUNDARY, image)


def _replay(wire_: Wire, stream: bytes, piece: int | None):
    """Write ``stream`` into the carrier, each frame in pieces of ``piece``
    bytes (``None``: in one piece); check what comes out.

    The writer stays inside the lock-step window the pool's two-deep
    rings are sized for: it starts a frame only once the reader has
    finished with the frame two before it.
    """
    expected, spans, failure = reference_decode(stream)
    assert failure is None
    wire_.receiver.ensure_pool()
    window = threading.Semaphore(2)

    def writer():
        start = 0
        # A reader that gave up (a failed assertion below) closes the link
        # under the writer; that failure is the reader's to report.
        with contextlib.suppress(TransportError, OSError):
            for end, _ in spans:
                assert window.acquire(timeout=30.0)
                for at in range(start, end, piece or end - start):
                    wire_.write(stream[at : min(at + (piece or end), end)])
                start = end
            wire_.hang_up()

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    for kind, label, payload in expected:
        got_kind, got_label, got = wire_.recv()
        assert (got_kind, got_label) == (kind, label)
        assert bytes(got) == payload
        if kind == FRAME_BLOB:
            # Received into one buffer and delivered as that buffer.
            assert isinstance(got, memoryview) and isinstance(got.obj, bytearray)
            assert len(got.obj) == len(payload)
        elif kind in POOLED_KINDS and payload:
            assert isinstance(got, memoryview) and not got.readonly
        else:
            assert isinstance(got, bytes)
        window.release()
    thread.join(timeout=30.0)
    assert not thread.is_alive()
    with pytest.raises(TransportError, match="peer closed"):
        wire_.recv()  # a clean close at a frame boundary stays one
    stats = wire_.receiver.stats
    pooled = sum(1 for kind, _, payload in expected if kind in POOLED_KINDS and payload)
    assert stats.frames_received == len(expected)
    assert stats.frames_pooled == pooled  # every raw payload landed in the pool
    assert stats.bytes_copied == 0
    assert stats.wire_bytes_received == len(stream)


class TestRecordedSession:
    def test_the_recording_has_every_kind_of_frame(self, resnet_session, tiny_session):
        for session in (resnet_session, tiny_session):
            frames = []
            for direction in DIRECTIONS:
                decoded, _, failure = reference_decode(session[direction])
                assert failure is None
                frames += decoded
            assert {kind for kind, _, _ in frames} == {
                FRAME_JSON, FRAME_BLOB, FRAME_RAW, FRAME_RAW_BATCH, FRAME_TENSOR
            }
        from_server, _, _ = reference_decode(resnet_session["server-to-client"])
        blobs = [payload for kind, _, payload in from_server if kind == FRAME_BLOB]
        # The one bundle: the client's half of the served program, whose
        # bytes but the seed the plan alone fixes.
        program = compile_program(_demo_victim("resnet20", 0.25, 0), 3.5)
        half = pack_party_bundle(PreprocessingPool(program, 1).acquire_bundle())
        assert [len(blob) for blob in blobs] == [len(half)]
        assert bytes(blobs[0][:-SEED_BYTES]) == half[:-SEED_BYTES]

    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("piece", (1, 7, 4096, None))
    def test_bare_decoder_in_pieces(self, tiny_session, resnet_session, direction, piece):
        for session in (tiny_session, resnet_session):
            stream = session[direction]
            decoder = FrameAssembler()
            items = [frozen(item) for item in feed(decoder, stream, piece)]
            assert items == reference_decode(stream)[0]
            assert decoder.failed is None and not decoder.mid_frame
            assert decoder.eof() is None

    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("piece", (1, 7, 4096, None))
    def test_tiny_session_through_every_carrier(self, carrier, tiny_session, direction, piece):
        _replay(carrier, tiny_session[direction], piece)

    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("piece", (4096, None))
    def test_resnet_session_through_every_carrier(
        self, carrier, resnet_session, direction, piece
    ):
        _replay(carrier, resnet_session[direction], piece)


def test_empty_labels_and_payloads_need_no_further_bytes(carrier):
    """A real request has no empty field; the format allows them, and a
    frame that ends on one is complete the moment its last byte arrives."""
    carrier.receiver.ensure_pool()
    frames = [
        (FRAME_RAW, "", b""),
        (FRAME_JSON, "ack", b""),
        (FRAME_BLOB, "", b""),
        (FRAME_RAW, "", b"\x01"),
    ]
    for frame in frames:
        carrier.write(_encode_frame(*frame))
        assert frozen(carrier.recv()) == frame


# ----------------------------------------------------------------------
# one failure behaviour on every carrier
# ----------------------------------------------------------------------
GOOD = _encode_frame(FRAME_JSON, "req", b'{"cmd": "infer"}')


def _torn(kind: int, label: str, payload: bytes, kept: int) -> bytes:
    """A frame that stops ``kept`` bytes into its payload."""
    frame = _encode_frame(kind, label, payload)
    return frame[: len(frame) - len(payload) + kept]


def _flipped() -> bytes:
    frame = bytearray(_encode_frame(FRAME_RAW, "and-open", bytes(range(64))))
    frame[-10] ^= 0xFF
    return bytes(frame)


_OVERSIZED = HEADER.pack(b"C2PI", 2, FRAME_BLOB, 6, MAX_FRAME_BYTES + 1, 0.0, 0)

#: name -> (bytes after one good frame, does the writer then hang up, error)
FAILURES = {
    "bad-magic": (b"HTTP" + GOOD[4:] + GOOD, False, "bad frame header"),
    "oversized-declaration": (
        _OVERSIZED + b"bundle" + GOOD,
        False,
        f"over the {MAX_FRAME_BYTES}-byte limit",
    ),
    "flipped-payload-byte": (
        _flipped() + GOOD,
        False,
        "frame checksum mismatch on 'and-open'",
    ),
    "eof-in-header": (GOOD[:10], True, TORN),
    "eof-in-label": (GOOD[: HEADER.size + 2], True, TORN),
    "eof-in-control-payload": (_torn(FRAME_JSON, "req", bytes(64), 20), True, TORN),
    "eof-in-blob": (_torn(FRAME_BLOB, "bundle", bytes(4096), 1000), True, TORN),
    "eof-in-pooled-raw-payload": (
        _torn(FRAME_RAW, "and-open", bytes(4096), 1000),
        True,
        TORN,
    ),
}


class TestOneFailureBehaviour:
    @pytest.mark.parametrize("failure", list(FAILURES))
    def test_typed_terminal_and_the_same_on_every_carrier(self, carrier, failure):
        tail, hangs_up, pattern = FAILURES[failure]
        carrier.receiver.ensure_pool()
        # What the bare decoder says about these bytes is what every
        # carrier must say, word for word.
        decoder = FrameAssembler()
        feed(decoder, GOOD + tail)
        verdict = decoder.eof() if hangs_up else decoder.failed
        assert isinstance(verdict, TransportError) and pattern in str(verdict)

        carrier.write(GOOD + tail)
        if hangs_up:
            carrier.hang_up()
        assert frozen(carrier.recv()) == (FRAME_JSON, "req", b'{"cmd": "infer"}')
        with pytest.raises(TransportError) as first:
            carrier.recv()
        assert carrier_text(first.value) == str(verdict)
        # The stream's integrity is gone: the well-formed frame written
        # after the bad one is never parsed out of mid-frame bytes.
        with pytest.raises(TransportError):
            carrier.recv()

    def test_a_close_at_a_frame_boundary_is_a_clean_close(self, carrier):
        carrier.write(GOOD)
        carrier.hang_up()
        assert frozen(carrier.recv())[1] == "req"
        with pytest.raises(TransportError, match="peer closed"):
            carrier.recv()

    @pytest.mark.parametrize("kind", (FRAME_RAW, FRAME_BLOB, FRAME_JSON))
    def test_nothing_is_allocated_for_a_refused_payload(self, carrier, kind):
        carrier.receiver.ensure_pool()
        declared = HEADER.pack(b"C2PI", 2, kind, 6, MAX_FRAME_BYTES + 1, 0.0, 0)
        tracemalloc.start()
        try:
            carrier.write(declared + b"bundle")
            with pytest.raises(TransportError, match="over the .*-byte limit"):
                carrier.recv()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # not the declared GiB: header, label, an error
        assert carrier.receiver.pool.nbytes() == 0


# ----------------------------------------------------------------------
# the decoder under arbitrary bytes
# ----------------------------------------------------------------------
FUZZ_LIMIT = 512  # MAX_FRAME_BYTES while fuzzing: lengths on both sides of it

_frames = st.lists(
    st.tuples(
        st.one_of(st.sampled_from(range(5)), st.integers(0, 255)),
        st.text(max_size=12),
        st.binary(max_size=FUZZ_LIMIT + 8),
    ),
    max_size=5,
)
#: overwrites aimed at the first frame's header / label / first payload
#: bytes (offset 8..15 is the declared length) or anywhere in the stream
_overwrites = st.lists(
    st.tuples(st.one_of(st.integers(0, 48), st.integers(0, 1 << 14)), st.integers(0, 255)),
    max_size=3,
)


@st.composite
def _streams(draw):
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=256))
    stream = bytearray(b"".join(_encode_frame(*frame) for frame in draw(_frames)))
    for position, value in draw(_overwrites):
        if stream:
            stream[position % len(stream)] = value
    if draw(st.booleans()):
        del stream[draw(st.integers(0, len(stream))) :]
    return bytes(stream)


class TestDecoderFuzz:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(
        stream=_streams(),
        pieces=st.lists(st.integers(1, 97), min_size=1, max_size=6),
        pooled=st.booleans(),
    )
    def test_items_or_one_typed_error_and_bounded_memory(self, stream, pieces, pooled):
        with mock.patch.object(wire, "MAX_FRAME_BYTES", FUZZ_LIMIT):
            frames, spans, failure = reference_decode(stream, FUZZ_LIMIT)
            owner = wire.QueueTransport(0) if pooled else None
            if pooled:
                owner.ensure_pool()
            decoder = FrameAssembler(owner)
            items, offset, sizes = [], 0, itertools.cycle(pieces)
            ends = iter(end for end, _ in spans)
            frame_end = 0
            tracemalloc.start()
            try:
                while offset < len(stream) and decoder.failed is None:
                    if offset == frame_end:  # at a boundary: the next admitted frame
                        frame_end = next(ends, offset + HEADER.size)
                    want = decoder.want()
                    # Never empty, never more than the frame in progress still needs.
                    assert 0 < len(want) <= frame_end - offset
                    take = min(len(want), len(stream) - offset, next(sizes))
                    want[:take] = stream[offset : offset + take]
                    offset += take
                    item = decoder.advance(take)
                    if item is not None:
                        items.append(item)
                ended = decoder.eof()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()

        # Only items, then at most one terminal, typed error — and exactly
        # what an independent reading of the same bytes says.
        errors = [item for item in (*items, ended) if isinstance(item, TransportError)]
        assert [frozen(item) for item in items if item not in errors] == frames
        if failure is None:
            assert not errors and decoder.failed is None
        else:
            (error,) = errors
            assert failure in str(error) and decoder.failed is error
            assert isinstance(items[-1] if ended is None else ended, TransportError)
            with pytest.raises(TransportError):
                decoder.want()
        # Memory follows what was admitted, never what a header claimed:
        # a label buffer and its text, a payload buffer and its copy (or
        # its two-deep pool ring), the delivered payloads, small change.
        label_len = max((length for _, length in spans), default=0)
        held = sum(len(payload) for _, _, payload in frames)
        assert peak <= (1 << 15) + 8 * label_len + 2 * FUZZ_LIMIT + 3 * held
