"""Shared-memory placement: rings, channel framing, negotiated serving.

Covers the three layers of :mod:`repro.mpc.shm`:

* :class:`ShmRing` — SPSC byte ring semantics (chunked writes through a
  ring smaller than the message, EOF, closed-ring errors, cleanup);
* :class:`ShmChannel` — the socket frame protocol over two rings, with
  the carrier's WireStats adopted so accounting is placement-blind;
* the handshake negotiation — a co-located client gets shared memory
  when (and only when) both sides allow it, and the logits stay
  byte-identical to the socket placement.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.mpc import LAN
from repro.mpc.shm import DEFAULT_RING_BYTES, ShmChannel, ShmRing
from repro.mpc.transport import (
    _HEADER,
    _MAGIC,
    _VERSION,
    FRAME_BLOB,
    TransportError,
    WireStats,
)
from repro.serve.remote import RemoteClient, RemoteServer, _demo_victim


@pytest.fixture(scope="module")
def victim():
    return _demo_victim("resnet20", 0.25, 0)


@pytest.fixture(scope="module")
def image():
    return np.random.default_rng(7).random((1, 3, 32, 32), dtype=np.float32)


class TestShmRing:
    def test_roundtrip_create_attach(self):
        ring = ShmRing.create(256)
        try:
            peer = ShmRing.attach(ring.name)
            peer.write(b"hello shared world")
            out = memoryview(bytearray(18))
            assert ring.read_into(out, deadline=time.monotonic() + 5)
            assert bytes(out) == b"hello shared world"
            peer.close()
        finally:
            ring.close()

    def test_message_larger_than_ring_streams_in_chunks(self):
        ring = ShmRing.create(64)  # far smaller than the payload
        payload = bytes(range(256)) * 40  # 10240 bytes
        received = {}

        def reader():
            out = memoryview(bytearray(len(payload)))
            ring.read_into(out, deadline=time.monotonic() + 10)
            received["data"] = bytes(out)

        try:
            thread = threading.Thread(target=reader)
            thread.start()
            ring.write(payload, deadline=time.monotonic() + 10)
            thread.join(timeout=10)
            assert received["data"] == payload
        finally:
            ring.close()

    def test_closed_and_drained_is_eof(self):
        ring = ShmRing.create(128)
        try:
            ring.write(b"tail")
            ring.mark_closed()
            out = memoryview(bytearray(4))
            assert ring.read_into(out)  # buffered bytes still readable
            assert bytes(out) == b"tail"
            assert not ring.read_into(memoryview(bytearray(1)))  # then EOF
        finally:
            ring.close()

    def test_write_to_closed_ring_raises(self):
        ring = ShmRing.create(128)
        try:
            ring.mark_closed()
            with pytest.raises(TransportError):
                ring.write(b"x")
        finally:
            ring.close()

    def test_full_ring_write_times_out(self):
        ring = ShmRing.create(16)
        try:
            ring.write(b"0123456789abcdef")  # exactly full
            with pytest.raises(TransportError):
                ring.write(b"y", deadline=time.monotonic() + 0.05)
        finally:
            ring.close()

    def test_owner_close_unlinks_segment(self):
        ring = ShmRing.create(64)
        name = ring.name
        ring.close()
        with pytest.raises(FileNotFoundError):
            ShmRing.attach(name)


class _FakeCarrier:
    """The slice of a TCP transport the shm channel actually relies on."""

    def __init__(self):
        self.stats = WireStats()
        self.peer_gone = threading.Event()
        self.timeout = 5.0
        self.closed = False

    def close(self):
        self.closed = True

    def wait_peer_gone(self, timeout=None):
        return self.peer_gone.wait(timeout)


def _channel_pair():
    server_carrier, client_carrier = _FakeCarrier(), _FakeCarrier()
    server, grant = ShmChannel.serve(server_carrier, ring_bytes=1 << 16)
    client = ShmChannel.connect(grant, carrier=client_carrier)
    return client, server


class TestShmChannelFraming:
    def test_swap_and_control_frames_roundtrip(self):
        client, server = _channel_pair()
        try:
            payload = np.arange(512, dtype=np.uint64)
            out = {}

            def server_side():
                out["raw"] = server.swap(b"\x01" * 64, "masked-reveal")
                out["obj"] = server.recv_obj("hello")
                out["tensor"] = server.recv_tensor("logits")

            thread = threading.Thread(target=server_side)
            thread.start()
            reply = client.swap(b"\x02" * 64, "masked-reveal")
            client.send_obj({"v": 1}, "hello")
            client.send_tensor(payload, "logits")
            thread.join(timeout=10)

            assert reply == b"\x01" * 64
            assert out["raw"] == b"\x02" * 64
            assert out["obj"] == {"v": 1}
            np.testing.assert_array_equal(out["tensor"], payload)
        finally:
            client.close()
            server.close()

    def test_stats_adopted_from_carrier(self):
        client, server = _channel_pair()
        try:
            assert client.stats is client.carrier.stats
            thread = threading.Thread(target=lambda: server.pull("x"))
            thread.start()
            client.push(b"\x03" * 40, "x")
            thread.join(timeout=10)
            assert client.stats.raw_by_label == {"x": 40}
            assert server.stats.raw_by_label == {"x": 40}
            assert (
                client.stats.wire_bytes_sent == server.stats.wire_bytes_received
            )
        finally:
            client.close()
            server.close()

    def test_pooled_receive_counts_pooled_frames(self):
        client, server = _channel_pair()
        try:
            server.ensure_pool()
            thread = threading.Thread(target=lambda: server.pull("and-open"))
            thread.start()
            client.push(b"\x04" * 64, "and-open")
            thread.join(timeout=10)
            assert server.stats.frames_pooled == 1
            assert "and-open" not in server.stats.copied_by_label
        finally:
            client.close()
            server.close()

    def test_blob_segments_arrive_as_one_buffer(self):
        client, server = _channel_pair()
        try:
            parts = [b"head", np.arange(64, dtype=np.uint64), bytes(3)]
            server.send_blob(parts, "bundle")
            got = client.recv_blob("bundle")
            assert bytes(got) == b"".join(bytes(memoryview(p)) for p in parts)
            assert isinstance(got, memoryview)  # the buffer it was read into
        finally:
            client.close()
            server.close()

    def test_oversized_declaration_is_refused_before_allocating(self):
        client, server = _channel_pair()
        try:
            server.send_raw(
                _HEADER.pack(_MAGIC, _VERSION, FRAME_BLOB, 0, 1 << 62, 0.0, 0)
            )
            with pytest.raises(TransportError, match="over the .*-byte limit"):
                client.recv_blob("bundle")
        finally:
            client.close()
            server.close()

    def test_recv_times_out_without_peer(self):
        client, server = _channel_pair()
        try:
            client.timeout = 0.1
            with pytest.raises(TransportError):
                client.pull("never")
        finally:
            client.close()
            server.close()

    def test_peer_close_surfaces_as_transport_error(self):
        client, server = _channel_pair()
        try:
            server.close()
            with pytest.raises(TransportError):
                client.pull("gone")
        finally:
            client.close()

    def test_close_unlinks_both_segments(self):
        client, server = _channel_pair()
        names = (server.rx.name, server.tx.name)
        client.close()
        server.close()
        for name in names:
            assert not os.path.exists(f"/dev/shm/{name}")


def _serve_once(victim, image, *, allow_shm, shm, network=None, seed=5):
    """One request against a fresh same-seeded server; returns the reply."""
    server = RemoteServer(victim, 3.5, seed=seed, allow_shm=allow_shm)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = RemoteClient(
            "127.0.0.1",
            server.port,
            noise_magnitude=0.1,
            seed=seed,
            shm=shm,
            network=network,
        )
        reply = client.infer(image)
        active = client.shm_active
        client.close()
        return reply, active
    finally:
        server.stop()
        thread.join(timeout=10.0)


class TestShmServing:
    def test_logits_byte_identical_to_socket_placement(self, victim, image):
        # Fresh same-seeded servers per placement: anonymous sessions
        # draw dealer bundles from the server's base-seeded pool, so the
        # request stream must line up bundle-for-bundle.
        socket_reply, socket_active = _serve_once(
            victim, image, allow_shm=True, shm=False
        )
        shm_reply, shm_active = _serve_once(
            victim, image, allow_shm=True, shm=True
        )
        assert not socket_active
        assert shm_active
        np.testing.assert_array_equal(shm_reply.logits, socket_reply.logits)
        assert shm_reply.logits.tobytes() == socket_reply.logits.tobytes()
        assert shm_reply.bytes_match
        assert (
            shm_reply.traffic.total_bytes == socket_reply.traffic.total_bytes
        )

    def test_server_can_refuse_shared_memory(self, victim, image):
        reply, active = _serve_once(victim, image, allow_shm=False, shm=True)
        assert not active  # fell back to the socket, request still served
        assert reply.bytes_match

    def test_shaped_client_never_requests_shared_memory(self, victim, image):
        # A client emulating a WAN/LAN must stay on the socket path: a
        # shared-memory hop would bypass the shaper it is measuring.
        reply, active = _serve_once(
            victim, image, allow_shm=True, shm=True, network=LAN
        )
        assert not active
        assert reply.bytes_match

    def test_no_segment_leak_after_session(self, victim, image):
        before = {n for n in os.listdir("/dev/shm") if n.startswith("c2pi-")}
        _serve_once(victim, image, allow_shm=True, shm=True)
        after = {n for n in os.listdir("/dev/shm") if n.startswith("c2pi-")}
        assert after <= before
