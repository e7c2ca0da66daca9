"""Wire protocol, transports, shaping and measured-byte accounting."""

import socket
import threading
import time
import tracemalloc
import zlib

import numpy as np
import pytest
from placements import feed, links

from repro.mpc import transport as wire
from repro.mpc.network import NetworkModel
from repro.mpc.transport import (
    FRAME_BLOB,
    FRAME_JSON,
    FRAME_RAW,
    MAX_FRAME_BYTES,
    FrameAssembler,
    LinkShaper,
    PeerChannel,
    QueueTransport,
    TransportError,
    pack_array,
    pack_bits,
    unpack_array,
    unpack_bits,
)


class TestArrayPacking:
    @pytest.mark.parametrize(
        "array",
        [
            np.arange(12, dtype=np.uint64).reshape(3, 4),
            np.array([], dtype=np.uint64),
            np.random.default_rng(0).random((2, 3, 4)).astype(np.float32),
            np.array(7, dtype=np.int64),
        ],
    )
    def test_roundtrip(self, array):
        restored = unpack_array(pack_array(array))
        assert restored.dtype == array.dtype
        np.testing.assert_array_equal(restored, array)

    def test_bits_roundtrip_and_size(self):
        bits = np.random.default_rng(1).integers(0, 2, size=(3, 13), dtype=np.uint8)
        payload = pack_bits(bits)
        # The payload size equals the Channel accounting for n bits.
        assert len(payload) == max(1, (bits.size + 7) // 8)
        np.testing.assert_array_equal(unpack_bits(payload, bits.size, bits.shape), bits)


class TestQueueTransport:
    def test_push_pull_and_accounting(self):
        client, server = QueueTransport.pair()
        client.push(b"abc", "input-share")
        assert server.pull("input-share") == b"abc"
        # Movement does not account by itself: the protocols do, exactly
        # like the joint in-process code path.
        assert client.total_bytes == 0
        assert client.stats.raw_payload_sent == 3
        assert server.stats.raw_payload_received == 3

    def test_swap_is_symmetric(self):
        client, server = QueueTransport.pair()
        result = {}

        def server_side():
            result["server"] = server.swap(b"from-server", "beaver-open")

        thread = threading.Thread(target=server_side)
        thread.start()
        assert client.swap(b"from-client", "beaver-open") == b"from-server"
        thread.join()
        assert result["server"] == b"from-client"

    def test_label_mismatch_detected(self):
        client, server = QueueTransport.pair()
        client.push(b"x", "masked-reveal")
        with pytest.raises(TransportError, match="lock-step"):
            server.pull("beaver-open")

    def test_kind_mismatch_detected(self):
        client, server = QueueTransport.pair()
        client.send_obj({"cmd": "infer"}, "req")
        with pytest.raises(TransportError, match="lock-step"):
            server.pull("input-share")

    def test_control_frames(self):
        client, server = QueueTransport.pair()
        client.send_obj({"cmd": "infer", "batch": 2}, "req")
        assert server.recv_obj("req") == {"cmd": "infer", "batch": 2}
        logits = np.random.default_rng(2).random((2, 10)).astype(np.float32)
        server.send_tensor(logits, "logits")
        np.testing.assert_array_equal(client.recv_tensor("logits"), logits)
        server.send_blob(b"\x00\x01", "bundle")
        assert client.recv_blob("bundle") == b"\x00\x01"
        # Control traffic is visible in the wire stats, not the channel.
        assert client.stats.control_payload_sent > 0
        assert client.stats.raw_payload_sent == 0
        assert client.total_bytes == 0

    def test_invalid_party_rejected(self):
        with pytest.raises(ValueError):
            QueueTransport(2)


class TestPeerChannel:
    def test_socket_roundtrip(self):
        listener = PeerChannel.listen()
        port = listener.getsockname()[1]
        result = {}

        def server_side():
            transport = PeerChannel.accept(listener)
            result["payload"] = transport.pull("input-share")
            transport.push(b"reply", "masked-reveal")
            result["transport"] = transport

        thread = threading.Thread(target=server_side)
        thread.start()
        client = PeerChannel.connect("127.0.0.1", port)
        client.push(b"hello-wire", "input-share")
        assert client.pull("masked-reveal") == b"reply"
        thread.join()
        assert result["payload"] == b"hello-wire"
        assert client.stats.frames_sent == 1
        assert client.stats.raw_payload_received == 5
        # Framing overhead is measured: wire bytes exceed payload bytes.
        assert client.stats.wire_bytes_sent > client.stats.raw_payload_sent
        client.close()
        result["transport"].close()
        listener.close()

    def test_idle_connection_survives_connect_timeout(self):
        """Regression: the connect timeout must not linger as a recv
        timeout — an idle gap longer than it would kill the reader
        thread and misreport a live peer as disconnected."""
        listener = PeerChannel.listen()
        port = listener.getsockname()[1]
        accepted = {}

        def server_side():
            accepted["transport"] = PeerChannel.accept(listener)

        thread = threading.Thread(target=server_side)
        thread.start()
        client = PeerChannel.connect("127.0.0.1", port, timeout=0.5)
        thread.join()
        time.sleep(1.0)  # idle for longer than the connect timeout
        accepted["transport"].push(b"still-here", "late")
        assert client.pull("late") == b"still-here"
        client.close()
        accepted["transport"].close()
        listener.close()

    def test_large_frame_roundtrip(self):
        """>64 KB payloads take the two-sendall (no-copy) path."""
        listener = PeerChannel.listen()
        port = listener.getsockname()[1]
        payload = np.random.default_rng(4).integers(
            0, 2**64, size=1 << 17, dtype=np.uint64
        )
        received = {}

        def server_side():
            transport = PeerChannel.accept(listener)
            received["data"] = transport.pull("bulk")
            received["transport"] = transport

        thread = threading.Thread(target=server_side)
        thread.start()
        client = PeerChannel.connect("127.0.0.1", port)
        client.push(payload.tobytes(), "bulk")
        thread.join()
        np.testing.assert_array_equal(
            np.frombuffer(received["data"], dtype=np.uint64), payload
        )
        client.close()
        received["transport"].close()
        listener.close()

    def test_corrupted_payload_raises_checksum_error(self):
        """A flipped payload byte must surface as a typed TransportError,
        not as silent garbage entering the ring as a share."""
        import socket
        import zlib

        from repro.mpc.transport import _HEADER, _MAGIC, _VERSION, FRAME_RAW

        listener = PeerChannel.listen()
        port = listener.getsockname()[1]
        accepted = {}

        def server_side():
            accepted["transport"] = PeerChannel.accept(listener)

        thread = threading.Thread(target=server_side)
        thread.start()
        raw = socket.create_connection(("127.0.0.1", port))
        thread.join()
        payload = bytearray(b"\x01\x02\x03\x04")
        label = b"input-share"
        header = _HEADER.pack(
            _MAGIC, _VERSION, FRAME_RAW, len(label), len(payload),
            time.time(), zlib.crc32(bytes(payload)),
        )
        payload[2] ^= 0xFF  # the wire flips a byte after the CRC was taken
        raw.sendall(header + label + bytes(payload))
        with pytest.raises(TransportError, match="checksum mismatch"):
            accepted["transport"].pull("input-share")
        raw.close()
        accepted["transport"].close()
        listener.close()

    def test_truncated_frame_raises_torn_stream(self):
        """EOF inside a frame is a torn stream, not a clean close."""
        import socket
        import zlib

        from repro.mpc.transport import _HEADER, _MAGIC, _VERSION, FRAME_RAW

        listener = PeerChannel.listen()
        port = listener.getsockname()[1]
        accepted = {}

        def server_side():
            accepted["transport"] = PeerChannel.accept(listener)

        thread = threading.Thread(target=server_side)
        thread.start()
        raw = socket.create_connection(("127.0.0.1", port))
        thread.join()
        payload = b"\x00" * 64
        header = _HEADER.pack(
            _MAGIC, _VERSION, FRAME_RAW, 2, len(payload), time.time(),
            zlib.crc32(payload),
        )
        raw.sendall((header + b"rt" + payload)[: _HEADER.size + 10])
        raw.close()  # disconnect mid-frame
        with pytest.raises(TransportError, match="torn mid-frame"):
            accepted["transport"].pull("rt")
        accepted["transport"].close()
        listener.close()

    def test_peer_disconnect_raises(self):
        listener = PeerChannel.listen()
        port = listener.getsockname()[1]
        accepted = {}

        def server_side():
            accepted["transport"] = PeerChannel.accept(listener)

        thread = threading.Thread(target=server_side)
        thread.start()
        client = PeerChannel.connect("127.0.0.1", port)
        thread.join()
        accepted["transport"].close()
        with pytest.raises(TransportError, match="closed"):
            client.pull("never-sent")
        client.close()
        listener.close()


class TestBlobFrames:
    @pytest.mark.parametrize("placement", ("queue", "tcp"))
    def test_segments_travel_as_one_blob_frame(self, placement):
        """A blob given as buffers is one frame whose payload is the
        buffers laid end to end (here over the 64 KiB scatter threshold)."""
        client, server, close = links(placement)
        parts = [b"head", np.arange(1 << 14, dtype=np.uint64), bytes(3)]
        server.send_blob(parts, "bundle")
        got = client.recv_blob("bundle")
        assert bytes(got) == b"".join(bytes(memoryview(part)) for part in parts)
        assert server.stats.frames_sent == client.stats.frames_received == 1
        assert client.stats.control_payload_received == len(got)
        if placement == "tcp":
            # Read into one buffer and delivered as that buffer.
            assert isinstance(got, memoryview) and isinstance(got.obj, bytearray)
        close()


def _frame_header(kind: int, payload_len: int, label: bytes = b"bundle") -> bytes:
    return wire._HEADER.pack(
        wire._MAGIC, wire._VERSION, kind, len(label), payload_len, 0.0, 0
    ) + label


class TestFrameLengthLimit:
    """The payload length is the peer's u64: both read paths refuse one
    over ``MAX_FRAME_BYTES`` before a byte is allocated for it."""

    @pytest.mark.parametrize("kind", (FRAME_RAW, FRAME_BLOB, FRAME_JSON))
    def test_reader_thread_refuses_an_oversized_declaration(self, kind):
        listener = PeerChannel.listen()
        accepted = {}
        thread = threading.Thread(
            target=lambda: accepted.update(io=PeerChannel.accept(listener))
        )
        thread.start()
        raw = socket.create_connection(("127.0.0.1", listener.getsockname()[1]))
        thread.join(timeout=30.0)
        raw.sendall(_frame_header(kind, 1 << 62))
        with pytest.raises(TransportError, match="over the .*-byte limit"):
            accepted["io"].recv_reply("bundle")
        assert accepted["io"].wait_peer_gone(5.0)  # the reader hung up
        raw.close()
        accepted["io"].close()
        listener.close()

    def test_assembler_refuses_an_oversized_declaration(self):
        assembler = FrameAssembler()
        tracemalloc.start()
        try:
            (item,) = feed(assembler, _frame_header(FRAME_BLOB, MAX_FRAME_BYTES + 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(item, TransportError)
        assert f"over the {MAX_FRAME_BYTES}-byte limit" in str(item)
        assert assembler.failed and not assembler.mid_frame
        assert peak < 1 << 16  # nothing was allocated for the refused payload
        assert feed(assembler, bytes(64)) == []  # the stream is finished
        with pytest.raises(TransportError, match="over the .*-byte limit"):
            assembler.want()

    def test_the_limit_itself_is_admitted(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 16)
        payload = bytes(range(16))
        head = wire._HEADER.pack(
            wire._MAGIC, wire._VERSION, FRAME_BLOB, 0, 16, 0.0, zlib.crc32(payload)
        )
        ((kind, _label, got, _at),) = feed(FrameAssembler(), head + payload)
        assert kind == FRAME_BLOB and bytes(got) == payload
        (item,) = feed(FrameAssembler(), _frame_header(FRAME_BLOB, 17))
        assert isinstance(item, TransportError)


class TestTransportIdentity:
    """Channels and transports are stateful identities: hashable by
    object, never equal by counter values.

    Regression for the eq-without-hash trap: ``Channel`` as a plain
    value-eq dataclass set ``__hash__ = None``, making every transport
    unusable as a dict key or set member — the serving layer had to fall
    back to ``id()``-keyed registries, and any future keyed bookkeeping
    (chaos schedules, session maps) would trip the same ``TypeError``.
    """

    def test_transports_are_hashable_and_identity_keyed(self):
        from repro.mpc.network import Channel

        client, server = QueueTransport.pair()
        registry = {client: "c", server: "s"}
        assert registry[client] == "c" and registry[server] == "s"
        assert client in {client} and server not in {client}
        # Equal counters never imply equality: these are distinct links.
        assert Channel() != Channel()
        channel = Channel()
        assert channel == channel
        assert len({channel, channel}) == 1

    def test_peer_channel_hashable(self):
        listener = PeerChannel.listen()
        port = listener.getsockname()[1]
        accepted = {}

        def server_side():
            accepted["transport"] = PeerChannel.accept(listener)

        thread = threading.Thread(target=server_side)
        thread.start()
        client = PeerChannel.connect("127.0.0.1", port)
        thread.join()
        live = {client, accepted["transport"]}
        assert len(live) == 2
        live.discard(client)
        assert accepted["transport"] in live
        client.close()
        accepted["transport"].close()
        listener.close()


class TestLinkShaper:
    def test_bandwidth_throttles_sender(self):
        # 1 MB/s with a 1 KB burst: 100 KB must take ~0.1 s to send.
        shaper = LinkShaper(1e6, rtt_s=0.0, burst_bytes=1024)
        client, server = QueueTransport.pair(shaper)
        start = time.perf_counter()
        client.push(b"\x00" * 100_000, "bulk")
        server.pull("bulk")
        elapsed = time.perf_counter() - start
        assert elapsed >= 0.08

    def test_rtt_delays_delivery(self):
        shaper = LinkShaper(1e9, rtt_s=0.2)
        client, server = QueueTransport.pair(shaper)
        start = time.perf_counter()
        client.push(b"ping", "rt")
        server.pull("rt")
        assert time.perf_counter() - start >= 0.08  # one-way = rtt/2

    @pytest.mark.parametrize("skew_s", [-3600.0, 3600.0])
    def test_skewed_sender_timestamp_does_not_distort_delay(self, skew_s):
        """Regression: the injected delay must come from the receiver's
        arrival clock, not the sender's wall clock embedded in the frame.

        A frame is hand-packed with a ``sent_at`` an hour off in either
        direction; across two machines this is exactly what clock skew
        looks like. The shaped receiver must still deliver after ~rtt/2 —
        neither instantly (negative skew zeroing the latency) nor an hour
        late (positive skew inflating it).
        """
        import socket
        import zlib

        from repro.mpc.transport import _HEADER, _MAGIC, _VERSION, FRAME_RAW

        listener = PeerChannel.listen()
        port = listener.getsockname()[1]
        accepted = {}

        def server_side():
            accepted["transport"] = PeerChannel.accept(
                listener, shaper=LinkShaper(1e9, rtt_s=0.2)
            )

        thread = threading.Thread(target=server_side)
        thread.start()
        raw = socket.create_connection(("127.0.0.1", port))
        thread.join()
        payload = b"skewed"
        label = b"rt"
        header = _HEADER.pack(
            _MAGIC, _VERSION, FRAME_RAW, len(label), len(payload),
            time.time() + skew_s, zlib.crc32(payload),
        )
        raw.sendall(header + label + payload)
        start = time.perf_counter()
        assert accepted["transport"].pull("rt") == b"skewed"
        elapsed = time.perf_counter() - start
        assert 0.08 <= elapsed < 1.0  # ~rtt/2, regardless of sender clock
        raw.close()
        accepted["transport"].close()
        listener.close()

    def test_delay_clamped_to_one_way_latency(self):
        shaper = LinkShaper(1e9, rtt_s=0.2)
        # A bogus arrival stamp from the far future can inject at most
        # rtt/2; one from the far past injects nothing.
        start = time.perf_counter()
        shaper.delay_delivery(time.monotonic() + 3600.0)
        assert time.perf_counter() - start < 0.5
        start = time.perf_counter()
        shaper.delay_delivery(time.monotonic() - 3600.0)
        assert time.perf_counter() - start < 0.05

    def test_for_network(self):
        network = NetworkModel("test", bandwidth_bytes_per_s=5e6, rtt_s=0.01)
        shaper = LinkShaper.for_network(network)
        assert shaper.bandwidth_bytes_per_s == 5e6
        assert shaper.rtt_s == 0.01

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            LinkShaper(0.0, 0.0)


# ----------------------------------------------------------------------
# the consumer reads its own socket
# ----------------------------------------------------------------------
SMALL_BUFFER = 1 << 16


def _shrink(sock: socket.socket) -> socket.socket:
    for option in (socket.SO_SNDBUF, socket.SO_RCVBUF):
        sock.setsockopt(socket.SOL_SOCKET, option, SMALL_BUFFER)
    return sock


def _pair(timeout: float = 10.0, shrink: bool = False, **shapers):
    """A connected (client, server) PeerChannel pair; with ``shrink`` both
    sockets get 64 KiB kernel buffers before they connect."""
    listener = PeerChannel.listen()
    raw = socket.socket()
    if shrink:
        _shrink(listener)
        _shrink(raw)
    raw.connect(listener.getsockname())
    sock, _ = listener.accept()
    listener.close()
    return (
        PeerChannel(raw, party=0, timeout=timeout, shaper=shapers.get("client")),
        PeerChannel(sock, party=1, timeout=timeout, shaper=shapers.get("server")),
    )


def _both(client_side, server_side) -> dict:
    """Run the two sides at once; a side's exception is re-raised."""
    out = {}

    def run(name, side):
        try:
            out[name] = side()
        except Exception as exc:  # noqa: BLE001 - re-raised below
            out[name] = exc

    thread = threading.Thread(target=run, args=("server", server_side))
    thread.start()
    run("client", client_side)
    thread.join(timeout=60.0)
    assert not thread.is_alive()
    for value in out.values():
        if isinstance(value, Exception):
            raise value
    return out


def _reader_threads() -> list[str]:
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("c2pi-peer-reader")
    ]


def _serve(victim, boundary, shrink=False, **kwargs):
    from repro.serve.remote import RemoteServer

    server = RemoteServer(victim, boundary, seed=5, **kwargs)
    if shrink:
        _shrink(server._listener)  # accepted sockets inherit the sizes
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


class TestReadWhileSend:
    """A swap whose frames overflow both kernel buffers completes: a
    blocked sender reads, which is what unblocks its peer."""

    def test_8_mib_swap_between_peer_channels(self):
        client, server = _pair(shrink=True)
        payloads = [
            np.random.default_rng(party).integers(0, 256, 8 << 20, np.uint8).tobytes()
            for party in (0, 1)
        ]
        out = _both(
            lambda: client.swap(payloads[0], "bulk"),
            lambda: server.swap(payloads[1], "bulk"),
        )
        assert bytes(out["client"]) == payloads[1]
        assert bytes(out["server"]) == payloads[0]
        client.close()
        server.close()

    def test_batch_8_request_against_a_server_worker(self):
        """resnet20 at batch 8 swaps 512 KiB ``beaver-open`` frames, four
        times the shrunk buffers of both ends; the logits equal a run
        over default buffers byte for byte."""
        from repro.serve.remote import RemoteClient, _demo_victim

        victim = _demo_victim("resnet20", 0.25, 0)
        images = np.random.default_rng(3).random((8, 3, 32, 32), np.float32)
        logits = []
        for shrink in (False, True):
            server, thread = _serve(victim, 3.5, shrink=shrink, request_timeout=10.0)
            try:
                client = RemoteClient(
                    "127.0.0.1", server.port, seed=5, timeout=10.0,
                    transport_wrapper=(
                        (lambda io: (_shrink(io._sock), io)[1]) if shrink else None
                    ),
                )
                reply = client.infer(images)
                client.close()
            finally:
                server.stop()
                thread.join(timeout=10.0)
            assert reply.bytes_match
            logits.append(reply.logits.tobytes())
        assert logits[0] == logits[1]


class TestShapedArrival:
    """A shaped receiver stamps a frame when it lands, not when it is
    wanted: frames queued behind a one-way-latency wait, or behind the
    receiver's own bandwidth wait, do not pay ``rtt/2`` twice."""

    RTT = 0.1
    SLACK = 0.03

    def test_back_to_back_frames_each_pay_one_way_latency_once(self):
        client, server = _pair(server=LinkShaper(1e9, rtt_s=self.RTT))
        sent = []
        for index in range(3):
            sent.append(time.monotonic())
            client.push(bytes([index]) * 64, "rt")
        delivered = []
        for index in range(3):
            assert server.pull("rt") == bytes([index]) * 64
            delivered.append(time.monotonic())
        for at, got in zip(sent, delivered):
            assert got - at <= self.RTT / 2 + self.SLACK, (sent, delivered)
        client.close()
        server.close()

    def test_a_frame_landing_during_throttle_send_is_stamped_on_arrival(self):
        # 1 MB/s with a 1 KiB bucket: the client's 61 KiB frame waits
        # 60 ms for tokens, and the server's frame lands 5 ms into it.
        shaper = LinkShaper(1e6, rtt_s=self.RTT, burst_bytes=1024)
        client, server = _pair(client=shaper)
        started = threading.Event()
        sent = {}

        def server_side():
            started.wait(5.0)
            time.sleep(0.005)
            sent["at"] = time.monotonic()
            server.push(b"landed", "rt")
            return server.pull("bulk")

        def client_side():
            started.set()
            client.push(bytes(61 * 1024), "bulk")
            payload = client.pull("rt")
            return payload, time.monotonic()

        out = _both(client_side, server_side)
        payload, delivered = out["client"]
        assert payload == b"landed" and len(out["server"]) == 61 * 1024
        assert delivered - sent["at"] <= self.RTT / 2 + self.SLACK
        client.close()
        server.close()


class TestSilentPeer:
    """A peer that stops talking is a typed timeout on either side, and
    no reader thread outlives a connection — there are none."""

    def test_client_times_out_within_its_timeout(self):
        listener = PeerChannel.listen()
        client = PeerChannel.connect("127.0.0.1", listener.getsockname()[1], timeout=0.5)
        silent, _ = listener.accept()
        assert not _reader_threads()
        start = time.monotonic()
        with pytest.raises(TransportError, match="party 0 timed out waiting for the peer"):
            client.pull("never")
        assert 0.5 <= time.monotonic() - start < 1.5
        client.close()
        assert not _reader_threads()
        silent.close()
        listener.close()

    def test_server_worker_times_out_within_request_timeout(self):
        from repro.serve.chaos_check import TINY_BOUNDARY, tiny_victim
        from repro.serve.remote import PROTOCOL_VERSION

        server, thread = _serve(tiny_victim(0), TINY_BOUNDARY, request_timeout=0.5)
        try:
            client = PeerChannel.connect("127.0.0.1", server.port, timeout=10.0)
            client.send_obj({"session": "quiet"}, "link")
            assert client.recv_obj("hello")["protocol"] == PROTOCOL_VERSION
            client.send_obj({"cmd": "infer", "batch": 1, "request": 0}, "req")
            client.recv_blob("bundle")
            # The worker now waits for our input share, which never comes.
            start = time.monotonic()
            assert server.wait_idle(timeout=5.0)
            assert time.monotonic() - start < 0.5 + 0.5
            (session,) = server.metrics()["sessions"]
            assert session["error"] == (
                "TransportError: party 1 timed out waiting for the peer"
            )
            with pytest.raises(TransportError, match="peer closed"):
                client.pull("input-share")
            client.close()
        finally:
            server.stop()
            thread.join(timeout=10.0)

    def test_no_reader_thread_after_bye(self):
        from repro.serve.chaos_check import TINY_BOUNDARY, tiny_victim
        from repro.serve.remote import RemoteClient

        server, thread = _serve(tiny_victim(0), TINY_BOUNDARY)
        try:
            client = RemoteClient("127.0.0.1", server.port, seed=5)
            client.infer(np.random.default_rng(7).random((1, 2, 8, 8), np.float32))
            assert not _reader_threads()
            client.close()  # says bye
            assert server.wait_idle(timeout=5.0)
            assert not _reader_threads()
        finally:
            server.stop()
            thread.join(timeout=10.0)
