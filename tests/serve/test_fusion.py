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

import numpy as np
import pytest

from repro.core import c2pi
from repro.core.c2pi import C2PIPipeline
from repro.mpc.preprocessing import (
    MaterialMismatch,
    PreprocessingPool,
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
        assert all(reply.used_pool for reply in replies)
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


def _exploding_tail(program, boundary_ring):
    raise RuntimeError("injected tail failure")


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
