"""Buffer pooling and the zero-copy hot-path contract.

The online hot path must not allocate per round: every raw frame's
payload is staged in (and delivered into) a reusable
:class:`~repro.mpc.transport.BufferPool` buffer, observable through
``WireStats.frames_pooled`` / ``WireStats.bytes_copied``. These tests
pin the pool mechanics (rotation, counting) and the end-to-end
regressions: a full resnet20 two-party pass with **zero** copied raw
bytes on either side, and pools that stop growing after a session's
first request (that the pooled pass is byte-identical to the in-process
placement is pinned by ``tests/mpc/test_party.py``).
"""

import threading

import numpy as np
import pytest
from placements import run_parties

from repro.models import resnet20
from repro.mpc import compile_program
from repro.mpc.party import PartyEngine, program_manifest
from repro.mpc.preprocessing import PreprocessingPool, ReplayDealer, split_bundle
from repro.mpc.transport import BufferPool, QueueTransport


class TestBufferPool:
    def test_same_key_rotates_through_depth(self):
        pool = BufferPool()
        first = pool.send_frame("x", 64)
        second = pool.send_frame("x", 64)
        third = pool.send_frame("x", 64)
        assert first.obj is not second.obj
        assert first.obj is third.obj  # ring wrapped: depth-2 reuse

    def test_distinct_labels_and_sizes_do_not_share(self):
        pool = BufferPool()
        assert pool.send_frame("a", 32).obj is not pool.send_frame("b", 32).obj
        assert pool.send_frame("a", 32).obj is not pool.send_frame("a", 64).obj
        assert pool.send_frame("a", 32).obj is not pool.recv_frame("a", 32).obj



class TestTransportStaging:
    def test_alloc_frame_counts_copies_without_pool(self):
        io, _ = QueueTransport.pair()
        buffer = io.alloc_frame("masked-reveal", 48)
        assert buffer.nbytes == 48
        assert io.stats.bytes_copied == 48
        assert io.stats.copied_by_label == {"masked-reveal": 48}
        assert io.stats.frames_pooled == 0

    def test_alloc_frame_pools_once_attached(self):
        io, _ = QueueTransport.pair()
        io.ensure_pool()
        io.alloc_frame("masked-reveal", 48)
        assert io.stats.frames_pooled == 1
        assert io.stats.bytes_copied == 0

    def test_stage_counts_only_noncontiguous_staging(self):
        io, _ = QueueTransport.pair()
        contiguous = np.arange(8, dtype=np.uint64)
        io.stage(contiguous, "x")
        assert io.stats.bytes_copied == 0
        io.stage(contiguous[::2], "x")  # strided: must contiguify
        assert io.stats.bytes_copied == 4 * 8


class TestBatchFrames:
    def test_deferred_messages_share_one_physical_frame(self):
        client, server = QueueTransport.pair()
        client.ensure_pool()
        server.ensure_pool()
        first = np.arange(4, dtype=np.uint64)
        second = np.arange(4, 9, dtype=np.uint64)
        client.push_deferred(first, "noised-reveal")
        client.push(second.tobytes(), "masked-reveal")
        assert client.stats.frames_sent == 1  # coalesced

        got_first = server.pull("noised-reveal")
        got_second = server.pull("masked-reveal")
        np.testing.assert_array_equal(
            np.frombuffer(got_first, dtype=np.uint64), first
        )
        np.testing.assert_array_equal(
            np.frombuffer(got_second, dtype=np.uint64), second
        )
        assert server.stats.frames_received == 1
        # Logical accounting is per message, not per physical frame.
        for stats in (client.stats, server.stats):
            assert stats.raw_by_label["noised-reveal"] == first.nbytes
            assert stats.raw_by_label["masked-reveal"] == second.nbytes

    def test_pull_flushes_pending_deferred(self):
        client, server = QueueTransport.pair()
        client.push_deferred(b"\x01" * 8, "noised-reveal")

        def peer():
            server.pull("noised-reveal")
            server.push(b"\x02" * 8, "reply")

        thread = threading.Thread(target=peer)
        thread.start()
        # The client's pull must first flush its own deferred message or
        # both parties would wait forever.
        assert client.pull("reply") == b"\x02" * 8
        thread.join()


@pytest.fixture(scope="module")
def program():
    victim = resnet20(width_mult=0.25, rng=np.random.default_rng(0)).eval()
    return compile_program(victim, 3.5)


@pytest.fixture(scope="module")
def two_party_run(program):
    """One full resnet20 pass as two pooled loopback party threads."""
    image = np.random.default_rng(7).random((1, 3, 32, 32), dtype=np.float32)
    pool = PreprocessingPool(program, batch=1, dealer_seed=11)
    bundle = pool.acquire_bundle()
    client = PartyEngine.from_manifest(program_manifest(program), share_seed=5)
    server = PartyEngine.from_program(program, party=1)
    _, ios = run_parties(
        lambda io: client.run(io, ReplayDealer(split_bundle(bundle, 0)), x=image),
        lambda io: server.run(io, ReplayDealer(split_bundle(bundle, 1)), batch=1),
    )
    return {"ios": ios}


class TestResnetAllocationRegression:
    HOT_LABELS = ("input-share", "masked-reveal", "and-open")

    def test_zero_copied_raw_bytes_end_to_end(self, two_party_run):
        for io in two_party_run["ios"]:
            assert io.stats.bytes_copied == 0, io.stats.copied_by_label
            assert io.stats.copied_by_label == {}
            assert io.stats.frames_pooled > 0

    def test_hot_labels_went_through_the_pool(self, two_party_run):
        for io in two_party_run["ios"]:
            for label in self.HOT_LABELS:
                assert io.stats.raw_by_label.get(label, 0) > 0
                assert label not in io.stats.copied_by_label

    @pytest.mark.parametrize("placement", ("queue", "tcp"))
    def test_pools_stop_growing_after_the_first_request(self, program, placement):
        """Rings grow on first use, never after: three requests on one
        link, and each party's pool holds the same bytes after each."""
        images = np.random.default_rng(7).random((3, 1, 3, 32, 32), dtype=np.float32)
        pool = PreprocessingPool(program, batch=1, dealer_seed=11)
        bundles = [pool.acquire_bundle() for _ in images]
        client = PartyEngine.from_manifest(program_manifest(program), share_seed=5)
        server = PartyEngine.from_program(program, party=1)

        def requests(party, run):
            def side(io):
                held = []
                for image, bundle in zip(images, bundles):
                    run(io, ReplayDealer(split_bundle(bundle, party)), image)
                    held.append(io.pool.nbytes())
                return held

            return side

        out, ios = run_parties(
            requests(0, lambda io, material, image: client.run(io, material, x=image)),
            requests(1, lambda io, material, _: server.run(io, material, batch=1)),
            placement,
        )
        for held in out.values():
            assert held[0] > 0 and held == [held[0]] * 3, held
        for io in ios:
            assert io.stats.bytes_copied == 0, io.stats.copied_by_label
