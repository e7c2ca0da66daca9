"""Cross-session batch fusion: one engine pass, per-session streams bit-exact.

The fusion contract extends the coalescing thesis (one protocol round
trip per layer for a batch of b) across session boundaries: requests from
*different* named sessions fuse into one secure execution, yet every row
consumes only its own session's derived-seed crypto streams. The anchor
pinned here is byte identity — fused row ``i`` must reproduce, bit for
bit, the logits of a standalone ``C2PIPipeline`` seeded with that
session's ``derive_session_seed`` — plus the legacy guarantee that the
anonymous path's bytes are untouched by fused traffic interleaved around
it.
"""

from dataclasses import fields

import numpy as np
import pytest

from repro.core import c2pi
from repro.core.c2pi import C2PIPipeline
from repro.mpc.preprocessing import (
    MaterialMismatch,
    MaterialRequest,
    PreprocessingPool,
    ReplayDealer,
    fuse_bundles,
    material_plan,
)
from repro.serve.chaos_check import TINY_BOUNDARY, tiny_victim
from repro.serve.remote import derive_session_seed
from repro.serve.server import C2PIServer

SEED = 11
NOISE = 0.1


@pytest.fixture(scope="module")
def victim():
    return tiny_victim(0)


def _images(n, seed=21):
    return np.random.default_rng(seed).random((n, 2, 8, 8), np.float32)


def _serial_logits(victim, session, images, seed=SEED):
    """The standalone reference: this session alone on its own pipeline."""
    pipeline = C2PIPipeline(
        victim,
        TINY_BOUNDARY,
        noise_magnitude=NOISE,
        seed=derive_session_seed(seed, session),
    )
    return [pipeline.infer(image[None]).logits.tobytes() for image in images]


class TestFusedByteIdentity:
    def test_fused_rows_match_serial_per_session_runs(self, victim):
        """Three sessions fused into one pass == three standalone runs.

        tiny_victim's program crosses every fusion axis case: linear
        layers (batch axis 0), flattened ReLU (axis 0) and the maxpool
        tournament (stacked pair material, axis 1).
        """
        sessions = ["alice", "bob", "carol"]
        images = _images(3)
        server = C2PIServer(
            victim, TINY_BOUNDARY, noise_magnitude=NOISE, seed=SEED,
            max_batch=4, warm_bundles=0,
        )
        for session, image in zip(sessions, images):
            server.submit(image, session=session)
        replies = server.step()
        assert len(replies) == 3
        assert all(reply.batch_size == 3 for reply in replies)
        assert server.metrics.fused_batches == 1
        assert server.metrics.batches == 1
        for session, image, reply in zip(sessions, images, replies):
            serial = _serial_logits(victim, session, image[None])[0]
            assert reply.logits.tobytes() == serial, session

    def test_fusion_streams_advance_per_session_across_batches(self, victim):
        """Request j of a session draws its j-th stream values no matter
        which fused batch it rides in or who it shares the batch with."""
        images = _images(4, seed=5)
        server = C2PIServer(
            victim, TINY_BOUNDARY, noise_magnitude=NOISE, seed=SEED,
            max_batch=2, warm_bundles=0,
        )
        # alice sends two requests; they land in *different* fused
        # batches with different companions.
        server.submit(images[0], session="alice")
        server.submit(images[1], session="bob")
        server.submit(images[2], session="alice")
        server.submit(images[3], session="carol")
        replies = server.drain()
        assert server.metrics.fused_batches == 2
        by_id = {reply.request_id: reply for reply in replies}
        alice_serial = _serial_logits(victim, "alice", images[[0, 2]])
        assert by_id[0].logits.tobytes() == alice_serial[0]
        assert by_id[2].logits.tobytes() == alice_serial[1]
        assert by_id[1].logits.tobytes() == _serial_logits(victim, "bob", images[[1]])[0]
        assert by_id[3].logits.tobytes() == _serial_logits(victim, "carol", images[[3]])[0]

    def test_single_named_request_matches_serial(self, victim):
        """k=1 on the fusion path is still the session's own stream."""
        image = _images(1, seed=9)[0]
        server = C2PIServer(
            victim, TINY_BOUNDARY, noise_magnitude=NOISE, seed=SEED, warm_bundles=0
        )
        server.submit(image, session="solo")
        (reply,) = server.step()
        assert reply.logits.tobytes() == _serial_logits(victim, "solo", image[None])[0]

    def test_anonymous_path_is_untouched_by_fused_traffic(self, victim):
        """Anonymous bytes with fused batches interleaved == without.

        The engine's own share rng must not move during fused passes
        (input sharing is injected), or this fails. The reference serves
        the same anonymous batch composition (two batch-1 steps —
        anonymous bytes have always depended on coalescing width, the
        historical behaviour this pins).
        """
        images = _images(4, seed=13)
        plain = C2PIServer(
            victim, TINY_BOUNDARY, noise_magnitude=NOISE, seed=SEED,
            max_batch=2, warm_bundles=0,
        )
        plain.submit(images[0])
        plain_bytes = [plain.step()[0].logits.tobytes()]
        plain.submit(images[1])
        plain_bytes.append(plain.step()[0].logits.tobytes())

        mixed = C2PIServer(
            victim, TINY_BOUNDARY, noise_magnitude=NOISE, seed=SEED,
            max_batch=2, warm_bundles=0,
        )
        mixed.submit(images[0])
        mixed.submit(images[2], session="alice")
        mixed.submit(images[3], session="bob")
        mixed.submit(images[1])
        replies = {r.request_id: r for r in mixed.drain()}
        # FIFO same-kind prefixes: [anon], [alice+bob fused], [anon].
        assert mixed.metrics.fused_batches == 1
        assert mixed.metrics.batches == 3
        assert [replies[0].logits.tobytes(), replies[3].logits.tobytes()] == plain_bytes

    def test_fifo_prefix_never_mixes_kinds(self, victim):
        """One step serves either anonymous or named rows, never both."""
        images = _images(3, seed=17)
        server = C2PIServer(
            victim, TINY_BOUNDARY, noise_magnitude=NOISE, seed=SEED,
            max_batch=4, warm_bundles=0,
        )
        server.submit(images[0], session="alice")
        server.submit(images[1])
        server.submit(images[2], session="bob")
        first = server.step()
        assert [r.request_id for r in first] == [0]
        second = server.step()
        assert [r.request_id for r in second] == [1]
        third = server.step()
        assert [r.request_id for r in third] == [2]

    def test_warm_session_pools_are_consumed(self, victim):
        """warm_sessions pre-pools batch-1 bundles; the fused pass then
        performs zero online dealer generation for those rows."""
        images = _images(2, seed=23)
        server = C2PIServer(
            victim, TINY_BOUNDARY, noise_magnitude=NOISE, seed=SEED,
            max_batch=2, warm_bundles=0,
        )
        server.warm_sessions(["alice", "bob"], bundles=1)
        server.submit(images[0], session="alice")
        server.submit(images[1], session="bob")
        replies = server.step()
        assert all(reply.offline_miss_s == 0.0 for reply in replies)
        snapshot = server.snapshot()
        for session in ("alice", "bob"):
            stats = snapshot["session_pools"][session]
            assert stats["bundles_consumed"] == 1
            assert stats["misses"] == 0
        # ...and the per-row bytes still match the standalone runs.
        for session, image, reply in zip(("alice", "bob"), images, replies):
            assert reply.logits.tobytes() == _serial_logits(
                victim, session, image[None]
            )[0]


class TestFusionFailureContainment:
    @pytest.mark.parametrize("sessions", ([None, None], ["alice", "bob"]),
                             ids=("anonymous-batch-2", "two-named-sessions"))
    def test_failed_fused_pass_rewinds_streams_and_requeues(
        self, victim, monkeypatch, sessions
    ):
        """A failure in the clear tail — after material, share rng and
        noise have all been consumed — must leave pools, rngs and the
        queue exactly where a retry reproduces the fault-free bytes."""
        images = _images(2, seed=29)

        def serve(fault):
            server = C2PIServer(
                victim, TINY_BOUNDARY, noise_magnitude=NOISE, seed=SEED,
                max_batch=2, warm_bundles=0,
            )
            if sessions[0] is None:
                server.warm(1)
            else:
                server.warm_sessions(sessions, bundles=1)
            for image, session in zip(images, sessions):
                server.submit(image, session=session)
            if fault:
                with monkeypatch.context() as patch:
                    patch.setattr(c2pi, "clear_tail", _exploding_tail)
                    with pytest.raises(RuntimeError, match="injected tail failure"):
                        server.step()
                assert server.pending == 2  # requeued, in order
            replies = server.step()
            assert [reply.request_id for reply in replies] == [0, 1]
            snapshot = server.snapshot()
            pools = (
                [snapshot["pools"][2]]
                if sessions[0] is None
                else [snapshot["session_pools"][key] for key in sessions]
            )
            return [reply.logits.tobytes() for reply in replies], pools

        clean, _ = serve(fault=False)
        retried, pools = serve(fault=True)
        assert retried == clean
        for stats in pools:
            assert stats["bundles_returned"] == 1  # restored to the front
            assert stats["misses"] == 0
            # The books balance: each pool served exactly one bundle.
            assert (
                stats["bundles_consumed"]
                - stats["bundles_returned"]
                - stats["bundles_poisoned"]
            ) == 1

    def test_retry_on_a_warm_fused_buffer_reproduces_fault_free_bytes(
        self, victim, monkeypatch
    ):
        """The same failure after one successful fused step: the retry
        fuses into the buffer that step left behind."""
        sessions = ["alice", "bob"]
        images = _images(4, seed=31)

        def serve(fault):
            server = C2PIServer(
                victim, TINY_BOUNDARY, noise_magnitude=NOISE, seed=SEED,
                max_batch=2, warm_bundles=0,
            )
            server.warm_sessions(sessions, bundles=2)
            for image, session in zip(images[:2], sessions):
                server.submit(image, session=session)
            replies = server.step()
            for image, session in zip(images[2:], sessions):
                server.submit(image, session=session)
            if fault:
                with monkeypatch.context() as patch:
                    patch.setattr(c2pi, "clear_tail", _exploding_tail)
                    with pytest.raises(RuntimeError, match="injected tail failure"):
                        server.step()
                assert server.pending == 2
            replies += server.step()
            assert [reply.request_id for reply in replies] == [0, 1, 2, 3]
            pools = [server.snapshot()["session_pools"][key] for key in sessions]
            return [reply.logits.tobytes() for reply in replies], pools

        clean, _ = serve(fault=False)
        retried, pools = serve(fault=True)
        assert retried == clean
        for stats in pools:
            assert stats["bundles_returned"] == 1
            assert stats["misses"] == 0
            assert (
                stats["bundles_consumed"]
                - stats["bundles_returned"]
                - stats["bundles_poisoned"]
            ) == 2


def _exploding_tail(program, boundary_ring):
    raise RuntimeError("injected tail failure")


class TestRetainedFusedBuffer:
    def test_alternating_widths_match_standalone_pipelines(self, victim):
        """Widths 3 -> 2 -> 3 -> 3: the buffer is replaced, then reused,
        and every row still equals its session running alone."""
        sessions = ["alice", "bob", "carol"]
        images = _images(11, seed=37)
        server = C2PIServer(
            victim, TINY_BOUNDARY, noise_magnitude=NOISE, seed=SEED,
            max_batch=3, warm_bundles=0,
        )
        sent = {session: [] for session in sessions}
        replies = {}
        feed = iter(images)
        for width in (3, 2, 3, 3):
            for session in sessions[:width]:
                image = next(feed)
                sent[session].append((server.submit(image, session=session), image))
            step = server.step()
            assert [reply.batch_size for reply in step] == [width] * width
            replies.update((reply.request_id, reply) for reply in step)
        for session, requests in sent.items():
            serial = _serial_logits(victim, session, [image for _, image in requests])
            assert [replies[rid].logits.tobytes() for rid, _ in requests] == serial

    def test_snapshot_offline_split_counts_named_sessions(self, victim):
        """A server that only fuses named sessions reports the offline
        seconds its session pools spent, not the anonymous pipeline's 0."""
        server = C2PIServer(
            victim, TINY_BOUNDARY, noise_magnitude=NOISE, seed=SEED,
            max_batch=2, warm_bundles=0,
        )
        server.warm_sessions(["alice", "bob"], bundles=1)
        for image, session in zip(_images(2, seed=41), ("alice", "bob")):
            server.submit(image, session=session)
        server.step()
        snapshot = server.snapshot()
        pools = [*snapshot["pools"].values(), *snapshot["session_pools"].values()]
        assert snapshot["offline_s"] == pytest.approx(
            sum(stats["offline_seconds"] for stats in pools)
        )
        assert snapshot["offline_s"] > 0
        assert all(stats["misses"] == 0 for stats in pools)


def _pooled_bundles(program, count, dealer_seed=3):
    pool = PreprocessingPool(program, 1, dealer_seed=dealer_seed)
    pool.refill(count)
    return [pool.acquire_bundle() for _ in range(count)]


def _arrays(bundle):
    return [getattr(material, f.name) for _, material in bundle for f in fields(material)]


def _bundle_bytes(bundle):
    return [array.tobytes() for array in _arrays(bundle)]


class TestFuseBundlesContract:
    def test_mismatched_plan_length_is_rejected(self, victim):
        program = C2PIPipeline(victim, TINY_BOUNDARY, seed=SEED).program
        pool = PreprocessingPool(program, 1, dealer_seed=3)
        pool.refill(2)
        bundles = [pool.acquire_bundle(), pool.acquire_bundle()]
        with pytest.raises(MaterialMismatch):
            fuse_bundles(bundles, material_plan(program, 2)[:-1])

    def test_fused_bundle_matches_batched_plan_shapes(self, victim):
        program = C2PIPipeline(victim, TINY_BOUNDARY, seed=SEED).program
        pool = PreprocessingPool(program, 1, dealer_seed=3)
        pool.refill(3)
        bundles = [pool.acquire_bundle() for _ in range(3)]
        plan = material_plan(program, 3)
        fused = fuse_bundles(bundles, plan)
        assert [request.shape for request, _ in fused] == [
            request.shape for request in plan
        ]

    @pytest.fixture
    def program(self, victim):
        return C2PIPipeline(victim, TINY_BOUNDARY, seed=SEED).program

    def test_destination_matches_allocating_fusion_byte_for_byte(self, program):
        plan = material_plan(program, 3)
        bundles = _pooled_bundles(program, 3)
        dest = fuse_bundles(_pooled_bundles(program, 3, dealer_seed=4), plan)
        reference = fuse_bundles(bundles, plan)
        assert fuse_bundles(bundles, plan, dest) is dest
        assert [r.shape for r, _ in dest] == [r.shape for r, _ in reference]
        assert _bundle_bytes(dest) == _bundle_bytes(reference)

    def test_prefilled_destination_is_fully_overwritten(self, program):
        plan = material_plan(program, 2)
        bundles = _pooled_bundles(program, 2)
        dest = fuse_bundles(bundles, plan)
        for array in _arrays(dest):
            array.flags.writeable = True
            array.view(np.uint8)[...] = 0xFF
            array.flags.writeable = False
        fuse_bundles(bundles, plan, dest)
        assert _bundle_bytes(dest) == _bundle_bytes(fuse_bundles(bundles, plan))

    def test_destination_arrays_are_reused(self, program):
        plan = material_plan(program, 2)
        dest = fuse_bundles(_pooled_bundles(program, 2), plan)
        before = _arrays(dest)
        fuse_bundles(_pooled_bundles(program, 2, dealer_seed=5), plan, dest)
        after = _arrays(dest)
        assert len(after) == len(before)
        assert all(np.shares_memory(a, b) for a, b in zip(before, after))

    def test_destination_of_another_width_or_program_is_rejected(self, victim, program):
        bundles = _pooled_bundles(program, 2)
        wider = fuse_bundles(_pooled_bundles(program, 3), material_plan(program, 3))
        with pytest.raises(MaterialMismatch):
            fuse_bundles(bundles, material_plan(program, 2), wider)
        other = C2PIPipeline(victim, 1.5, seed=SEED).program
        foreign = fuse_bundles(_pooled_bundles(other, 2), material_plan(other, 2))
        with pytest.raises(MaterialMismatch):
            fuse_bundles(bundles, material_plan(program, 2), foreign)

    def test_mismatch_leaves_destination_untouched(self, program):
        plan = material_plan(program, 2)
        dest = fuse_bundles(_pooled_bundles(program, 2), plan)
        before = _bundle_bytes(dest)
        bundles = _pooled_bundles(program, 2, dealer_seed=6)
        # Only the last item disagrees: every earlier one would fuse.
        request, material = bundles[1][-1]
        bundles[1][-1] = (MaterialRequest(request.method, (*request.shape, 1)), material)
        with pytest.raises(MaterialMismatch, match=f"item {len(plan) - 1}"):
            fuse_bundles(bundles, plan, dest)
        assert _bundle_bytes(dest) == before

    def test_writing_into_fused_material_while_the_engine_runs_raises(
        self, victim, monkeypatch
    ):
        """A protocol that wrote into its material would corrupt the next
        step's; the fused arrays are read-only, so it raises instead —
        and the step requeues as for any other failure."""
        server = C2PIServer(
            victim, TINY_BOUNDARY, noise_magnitude=NOISE, seed=SEED,
            max_batch=2, warm_bundles=0,
        )
        images = _images(2, seed=43)
        for image, session in zip(images, ("alice", "bob")):
            server.submit(image, session=session)
        replay = ReplayDealer._material

        def writing(self, method, shape, ring_fn=None):
            material = replay(self, method, shape, ring_fn)
            getattr(material, fields(material)[0].name)[...] = 0
            return material

        with monkeypatch.context() as patch:
            patch.setattr(ReplayDealer, "_material", writing)
            with pytest.raises(ValueError, match="read-only"):
                server.step()
        assert server.pending == 2
        replies = server.step()
        for session, image, reply in zip(("alice", "bob"), images, replies):
            assert reply.logits.tobytes() == _serial_logits(victim, session, [image])[0]
