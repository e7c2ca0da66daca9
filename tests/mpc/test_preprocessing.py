"""Offline preprocessing pools: determinism, exhaustion and the clean split."""

import threading
import time

import numpy as np
import pytest

from repro import nn
from repro.core import C2PIPipeline
from repro.models import vgg16
from repro.mpc import (
    PreprocessingPool,
    SecureInferenceEngine,
    compile_program,
)
from repro.mpc.dealer import TrustedDealer
from repro.mpc.party import program_fingerprint
from repro.mpc.pool_store import PoolStore
from repro.mpc.preprocessing import (
    MaterialMismatch,
    RecordingDealer,
    join_party_bundle,
    material_plan,
    unpack_party_bundle,
)
from repro.serve import C2PIServer
from repro.serve.chaos_check import TINY_BOUNDARY, tiny_victim
from repro.serve.dealer_service import (
    DealerBackedPool,
    DealerBusy,
    DealerClient,
    DealerError,
    DealerServer,
    DealerUnreachable,
    _unpack_record,
)


@pytest.fixture(scope="module")
def victim():
    return vgg16(width_mult=0.125, rng=np.random.default_rng(0)).eval()


@pytest.fixture(scope="module")
def program(victim):
    return compile_program(victim, 2.5)


@pytest.fixture(scope="module")
def image():
    return np.random.default_rng(7).random((1, 3, 32, 32), dtype=np.float32)


class TestPoolDeterminism:
    def test_same_seed_same_material(self, program, image):
        runs = []
        for _ in range(2):
            pool = PreprocessingPool(program, batch=1, dealer_seed=11)
            pool.refill(1)
            engine = SecureInferenceEngine.from_program(program, share_seed=5)
            runs.append(engine.run(image, material=pool.acquire()).shares[0])
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_cold_and_warmed_pipelines_give_identical_logits(self, victim, image):
        """A cold pool draws on a miss exactly the bundle a warmed pool
        drew ahead of time: one seed, one stream, the same bytes."""
        cold = C2PIPipeline(victim, 2.5, noise_magnitude=0.1, seed=3)
        warmed = C2PIPipeline(victim, 2.5, noise_magnitude=0.1, seed=3)
        warmed.prepare_offline(batch=1, bundles=2)
        for _ in range(2):
            a = cold.infer(image)
            b = warmed.infer(image)
            np.testing.assert_array_equal(a.logits, b.logits)
            np.testing.assert_array_equal(a.server_view, b.server_view)
        assert cold.pool_stats()[1]["misses"] == 2
        assert warmed.pool_stats()[1]["misses"] == 0

    def test_online_phase_generates_nothing(self, victim, image):
        pipeline = C2PIPipeline(victim, 2.5, seed=0)
        pipeline.prepare_offline(batch=1, bundles=1)
        result = pipeline.infer(image)
        stats = pipeline.pool_stats()[1]
        assert stats["misses"] == 0 and result.offline_miss_s == 0.0
        assert stats["bundles_generated"] == stats["bundles_consumed"] == 1

    def test_prepare_offline_fills_the_pool_before_returning(self, victim):
        pipeline = C2PIPipeline(victim, 2.5, seed=0)
        threads = threading.active_count()
        pool = pipeline.prepare_offline(batch=1, bundles=2)
        assert pool.available == pool.stats.bundles_generated == 2
        assert threading.active_count() == threads  # drawn on this thread


class TestBundleSeeds:
    """Each bundle opens with 32 bytes off the secret stream: the stream
    position — session, sequence number, rewind — fixes the seed."""

    def test_no_two_bundles_of_a_stream_share_a_seed(self, program):
        pool = PreprocessingPool(program, batch=1, dealer_seed=11)
        pool.refill(16)
        seeds = [pool.acquire_bundle().seed for _ in range(16)]
        assert all(len(seed) == 32 for seed in seeds)
        assert len(set(seeds)) == 16
        # The same stream again deals the same seeds in the same order.
        again = PreprocessingPool(program, batch=1, dealer_seed=11)
        assert [again.acquire_bundle().seed for _ in range(16)] == seeds

    def test_no_two_sessions_share_a_seed(self, program):
        from repro.core.c2pi import derive_session_seed

        seeds = set()
        for session in (None, 0, 1, "alice", "bob"):
            pool = PreprocessingPool(
                program, batch=1, dealer_seed=derive_session_seed(5, session)
            )
            seeds.update(pool.acquire_bundle().seed for _ in range(3))
        assert len(seeds) == 15

    def test_a_rewound_dealer_replays_the_same_seed(self, program):
        pool = PreprocessingPool(program, batch=1, dealer_seed=4)
        pool.acquire_bundle()
        state = pool._dealer.state()  # a bundle boundary
        first = pool.acquire_bundle()
        pool._dealer.restore_state(state)
        replay = pool.acquire_bundle()
        assert replay.seed == first.seed
        for (_, ours), (_, theirs) in zip(replay, first, strict=True):
            for key, array in vars(theirs).items():
                np.testing.assert_array_equal(getattr(ours, key), array)


class TestNoStreamDealtTwice:
    """Material is dealt once: a request's masks never reach a second
    input. Two bundles that open with one seed carry the same masks, and
    the two masked inputs then subtract to the difference of the inputs
    (``tests/serve/test_remote.py::TestWireView`` reads it off the wire).
    On the 2x8x8 chaos-check victim, so each bundle is small."""

    @pytest.fixture(scope="class")
    def tiny(self):
        return tiny_victim(0)

    @pytest.fixture(scope="class")
    def tiny_program(self, tiny):
        return compile_program(tiny, TINY_BOUNDARY)

    @staticmethod
    def _images(count):
        return np.random.default_rng(9).random((count, 2, 8, 8), np.float32)

    def test_cold_then_warm_requests_share_no_material(self, tiny, monkeypatch):
        acquired = _record_acquisitions(monkeypatch)
        pipeline = C2PIPipeline(tiny, TINY_BOUNDARY, seed=5)
        images = self._images(2)
        pipeline.infer(images[:1])  # cold: the pool misses and draws
        pipeline.prepare_offline(batch=1, bundles=1)
        pipeline.infer(images[1:])  # warm: the bundle drawn ahead
        assert len(acquired) == 2
        cold, warm = acquired
        assert cold.seed != warm.seed
        assert not _shared_words(cold, warm).size
        stats = pipeline.pool_stats()[1]
        assert stats["misses"] == 1 and stats["bundles_generated"] == 2

    def test_batch_sizes_under_one_seed_deal_distinct_streams(self, tiny_program):
        narrow, wide = (
            PreprocessingPool(tiny_program, batch, dealer_seed=77).acquire_bundle()
            for batch in (1, 2)
        )
        assert narrow.seed != wide.seed
        assert not _shared_words(narrow, wide).size

    def test_dealer_streams_of_two_batch_sizes_are_distinct(
        self, tiny_program, tmp_path
    ):
        with PoolStore(tmp_path) as store:
            dealer = DealerServer(tiny_program, store=store)
            dealer.start()
            client = DealerClient("127.0.0.1", dealer.port)
            try:
                narrow, wide = (
                    _joined(client.fetch(batch, 77, 0)) for batch in (1, 2)
                )
            finally:
                client.close()
                dealer.stop()
        assert narrow.seed != wide.seed
        assert not _shared_words(narrow, wide).size
        # The batch-1 stream is the seed's own: a local pool deals it too.
        local = PreprocessingPool(tiny_program, 1, dealer_seed=77).acquire_bundle()
        assert narrow.seed == local.seed

    def test_server_remainder_steps_share_no_material(self, tiny, monkeypatch):
        acquired = _record_acquisitions(monkeypatch)
        server = C2PIServer(tiny, TINY_BOUNDARY, max_batch=4, warm_bundles=0)
        for image in self._images(7):
            server.submit(image)
        assert [reply.batch_size for reply in server.drain()] == [4] * 4 + [3] * 3
        four, three = acquired
        assert four.seed != three.seed
        assert not _shared_words(four, three).size


class TestMaterialPlan:
    """The analytic plan must match what a real execution actually consumes.

    ``material_plan`` mirrors the protocol internals (suffix-AND rounds,
    tournament levels); this pin makes any drift between plan and
    protocols fail loudly instead of corrupting pooled serving.
    """

    @pytest.mark.parametrize("batch", [1, 3])
    def test_plan_matches_recorded_execution(self, victim, program, batch):
        from repro.models import resnet20

        cases = [
            compile_program(victim, 2.5),  # conv/relu/maxpool
            compile_program(
                resnet20(width_mult=0.25, rng=np.random.default_rng(1)).eval(), 3.5
            ),  # residual lowering incl. share addition
        ]
        for compiled in cases:
            recorder = RecordingDealer(TrustedDealer(seed=0))
            engine = SecureInferenceEngine.from_program(compiled)
            zeros = np.zeros((batch, *compiled.input_shape), np.float32)
            engine.run(zeros, material=recorder)
            recorded = [(r.method, r.shape) for r in recorder.trace]
            planned = [
                (r.method, r.shape) for r in material_plan(compiled, batch)
            ]
            assert planned == recorded


class TestPoolLifecycle:
    def test_requirements_trace_is_shape_only(self, program):
        pool = PreprocessingPool(program, batch=1)
        trace = pool.requirements()
        methods = {request.method for request in trace}
        # conv layers need correlations; ReLUs need masks, AND triples,
        # daBits and Beaver triples.
        assert {
            "linear_correlation",
            "comparison_masks",
            "bit_triples",
            "dabits",
            "beaver_triples",
        } <= methods
        # The trace is cached: a second call returns an equal list.
        assert trace == pool.requirements()

    def test_empty_pool_generates_on_acquire(self, program, image):
        pool = PreprocessingPool(program, batch=1)
        assert pool.available == 0
        engine = SecureInferenceEngine.from_program(program)
        result = engine.run(image, material=pool.acquire())  # miss -> refill
        assert result.shares[0].shape == (1, *program.output_shape)
        assert pool.stats.misses == 1
        assert pool.stats.bundles_generated == 1

    def test_failed_refill_raises_to_its_caller_and_publishes_nothing(self, program):
        pool = PreprocessingPool(program, batch=1, dealer_seed=3)
        original, pool._generate = pool._generate, _exploding
        with pytest.raises(ValueError, match="exploded"):
            pool.refill(2)
        stats = pool.stats
        assert pool.available == stats.bundles_generated == stats.refills == 0
        pool._generate = original  # the generation lock was released
        pool.refill(1)
        assert pool.available == 1 and pool.stats.refills == 1

    def test_failed_miss_raises_to_the_acquirer(self, program):
        pool = PreprocessingPool(program, batch=1)
        original, pool._generate = pool._generate, _exploding
        with pytest.raises(ValueError, match="exploded"):
            pool.acquire_bundle()
        pool._generate = original
        assert pool.acquire_bundle()
        assert pool.stats.misses == 2
        assert pool.stats.bundles_generated == pool.stats.bundles_consumed == 1

    def test_refill_on_another_thread_deals_the_same_stream(self, program):
        pool = PreprocessingPool(program, batch=1, dealer_seed=3)
        twin = PreprocessingPool(program, batch=1, dealer_seed=3)
        _run_threads(lambda: pool.refill(2), 1)
        assert pool.available == 2
        twin.refill(2)
        seeds = [pool.acquire_bundle().seed for _ in range(2)]
        assert seeds == [twin.acquire_bundle().seed for _ in range(2)]
        assert pool.stats.misses == 0

    def test_wrong_batch_bundle_is_rejected(self, program):
        pool = PreprocessingPool(program, batch=2)
        pool.refill(1)
        engine = SecureInferenceEngine.from_program(program)
        single = np.zeros((1, 3, 32, 32), np.float32)
        with pytest.raises(MaterialMismatch):
            engine.run(single, material=pool.acquire())

    def test_stats_offline_seconds_accumulate(self, program):
        pool = PreprocessingPool(program, batch=1)
        pool.refill(2)
        stats = pool.stats.as_dict()
        assert stats["bundles_generated"] == 2
        assert stats["offline_seconds"] > 0
        assert stats["material_items"] > 0


class TestConcurrentAcquire:
    """A refill in flight on one thread must not stall an acquire on
    another: concurrent serving workers share the anonymous pools."""

    def test_acquire_does_not_block_behind_slow_refill(self, program):
        """Regression: generation must happen outside the pool lock.

        ``refill`` used to hold the pool lock for the whole dealer
        generation, so a refill on another thread blocked every
        concurrent ``acquire()`` — and even ``available`` — for the full
        generation time. With a ready bundle in the deque, both must
        complete while a deliberately slow refill is still in flight.
        """
        pool = PreprocessingPool(program, batch=1)
        pool.refill(1)  # the bundle a concurrent acquirer should get

        generation_entered = threading.Event()
        release_generation = threading.Event()
        original = pool._generate

        def slow_generate(trace):
            generation_entered.set()
            assert release_generation.wait(timeout=30.0)
            return original(trace)

        pool._generate = slow_generate
        try:
            refill_thread = threading.Thread(target=pool.refill)
            refill_thread.start()
            assert generation_entered.wait(timeout=30.0)
            # The refill worker is parked inside generation. The ready
            # bundle and the counters must stay reachable.
            start = time.perf_counter()
            assert pool.available == 1
            replay = pool.acquire()
            elapsed = time.perf_counter() - start
            assert replay.remaining > 0
            assert elapsed < 5.0  # not serialized behind the refill
        finally:
            release_generation.set()
            refill_thread.join(timeout=30.0)
        assert pool.stats.bundles_generated == 2
        assert pool.stats.misses == 0

    def test_concurrent_misses_each_take_a_distinct_bundle_of_the_stream(
        self, program
    ):
        consumers = 4
        pool = PreprocessingPool(program, batch=1, dealer_seed=3)
        seeds = []
        _run_threads(lambda: seeds.append(pool.acquire_bundle().seed), consumers)
        assert len(set(seeds)) == consumers
        stats = pool.stats
        assert stats.bundles_consumed == consumers
        assert stats.misses == stats.bundles_generated  # one draw per miss
        assert stats.bundles_generated == consumers + pool.available
        twin = PreprocessingPool(program, batch=1, dealer_seed=3)
        stream = {twin.acquire_bundle().seed for _ in range(stats.bundles_generated)}
        assert set(seeds) <= stream

    def test_concurrent_refills_draw_each_stream_position_once(self, program):
        pool = PreprocessingPool(program, batch=1, dealer_seed=3)
        _run_threads(lambda: pool.refill(2), 2)
        twin = PreprocessingPool(program, batch=1, dealer_seed=3)
        twin.refill(4)
        assert pool._dealer.state() == twin._dealer.state()
        seeds = {pool.acquire_bundle().seed for _ in range(4)}
        assert seeds == {twin.acquire_bundle().seed for _ in range(4)}
        assert pool.stats.refills == 2 and pool.stats.misses == 0


class TestRestoreAndPoison:
    """Fault-resolution bookkeeping: restore re-fronts, poison only counts."""

    def test_restore_puts_bundle_back_at_the_front(self, program):
        pool = PreprocessingPool(program, batch=1, dealer_seed=3)
        pool.refill(2)
        first = pool.acquire_bundle()
        second_peek = pool.acquire_bundle()
        pool.restore(second_peek)
        pool.restore(first)
        # Front placement restores the original dealer-stream order: the
        # next consumer sees exactly the bundles a fault-free run would.
        assert pool.acquire_bundle() is first
        assert pool.acquire_bundle() is second_peek
        stats = pool.stats.as_dict()
        assert stats["bundles_consumed"] == 4  # acquisitions, incl. re-sales
        assert stats["bundles_returned"] == 2
        assert stats["bundles_poisoned"] == 0

    def test_poison_balances_the_books(self, program):
        pool = PreprocessingPool(program, batch=1, dealer_seed=3)
        pool.refill(2)
        pool.acquire_bundle()  # served
        pool.acquire_bundle()  # half-shipped to a vanished client
        pool.poison()
        stats = pool.stats.as_dict()
        served = (
            stats["bundles_consumed"]
            - stats["bundles_returned"]
            - stats["bundles_poisoned"]
        )
        assert served == 1
        assert pool.available == 0


class TestAcquireReady:
    """``acquire_ready`` takes what is in the deque now and nothing else:
    no inline generation, no wait on a refill, no miss."""

    def test_empty_pool_returns_none_without_generating(self, program):
        pool = PreprocessingPool(program, batch=1)
        assert pool.acquire_ready() is None
        assert pool.stats.bundles_generated == 0
        assert pool.stats.bundles_consumed == 0
        assert pool.stats.misses == 0

    def test_ready_bundle_is_the_one_acquire_bundle_would_pop(self, program):
        pool = PreprocessingPool(program, batch=1, dealer_seed=3)
        twin = PreprocessingPool(program, batch=1, dealer_seed=3)
        pool.refill(2)
        twin.refill(2)
        for _ in range(2):
            ready, popped = pool.acquire_ready(), twin.acquire_bundle()
            assert ready.seed == popped.seed and len(ready) == len(popped)
        assert pool.acquire_ready() is None
        assert pool.stats.bundles_consumed == 2
        assert pool.stats.bundles_generated == 2
        assert pool.stats.misses == 0

    def test_refill_in_flight_is_not_waited_for(self, program):
        pool = PreprocessingPool(program, batch=1)
        entered, release = threading.Event(), threading.Event()
        original = pool._generate

        def slow_generate(trace):
            entered.set()
            assert release.wait(timeout=30.0)
            return original(trace)

        pool._generate = slow_generate
        refill = threading.Thread(target=pool.refill)
        refill.start()
        try:
            assert entered.wait(timeout=30.0)
            start = time.perf_counter()
            assert pool.acquire_ready() is None  # acquire_bundle would park here
            assert time.perf_counter() - start < 1.0
        finally:
            release.set()
            refill.join(timeout=30.0)
        assert not refill.is_alive()
        assert pool.acquire_ready() is not None  # the refill landed: ready now
        assert pool.stats.misses == 0

    def test_failed_refill_leaves_nothing_ready(self, program):
        pool = PreprocessingPool(program, batch=1)
        original, pool._generate = pool._generate, _exploding
        with pytest.raises(ValueError, match="exploded"):
            pool.refill()
        assert pool.acquire_ready() is None
        pool._generate = original
        assert pool.acquire_bundle()  # a caller that asks for work draws it
        assert pool.stats.misses == 1 and pool.stats.bundles_consumed == 1

    def test_restored_bundle_is_ready_and_first(self, program):
        pool = PreprocessingPool(program, batch=1, dealer_seed=3)
        pool.refill(2)
        first = pool.acquire_ready()
        pool.restore(first)
        assert pool.acquire_ready() is first
        pool.poison()
        stats = pool.stats.as_dict()
        assert stats["bundles_consumed"] == 2
        assert stats["bundles_returned"] == 1
        assert stats["bundles_poisoned"] == 1
        assert pool.available == 1


class TestDealerBackedPool:
    """A dealer-backed pool fetches each stream position or raises typed:
    it never draws a bundle itself. A dealer compiled at another boundary
    refuses the pool's fingerprint."""

    @staticmethod
    def _pool(program, port, deadline=0.3, batch=1):
        fingerprint = program_fingerprint(program)
        client = DealerClient("127.0.0.1", port, fingerprint, timeout=deadline)
        return DealerBackedPool(
            program, batch, 7, client=client, fetch_deadline=deadline
        )

    def test_fetched_stream_equals_the_local_stream(self, program, tmp_path):
        store = PoolStore(tmp_path)
        dealer = DealerServer(program, store=store)
        dealer.start()
        pools = [self._pool(program, dealer.port, 5.0, batch) for batch in (1, 2)]
        try:
            for pool in pools:
                local = PreprocessingPool(program, pool.batch, dealer_seed=7)
                for _ in range(2):
                    fetched, drawn = pool.acquire_bundle(), local.acquire_bundle()
                    assert fetched.seed == drawn.seed
                    for (_, ours), (_, theirs) in zip(fetched, drawn, strict=True):
                        for key, array in vars(theirs).items():
                            np.testing.assert_array_equal(getattr(ours, key), array)
                stats = pool.stats
                assert stats.bundles_fetched_remote == stats.bundles_generated == 2
        finally:
            for pool in pools:
                pool.close()
            dealer.stop()
            store.close()

    @pytest.mark.parametrize("fault, error", [
        ("stopped", DealerUnreachable), ("busy", DealerBusy), ("refusing", DealerError)
    ])
    def test_failed_fetch_raises_typed_and_draws_nothing(
        self, victim, program, fault, error, tmp_path
    ):
        served = compile_program(victim, 1.5) if fault == "refusing" else program
        store = PoolStore(tmp_path)
        dealer = DealerServer(served, store=store, max_active_generations=1)
        dealer.start()
        pool = self._pool(program, dealer.port)
        if fault == "stopped":
            dealer.stop()
        if fault == "busy":
            dealer._admission.acquire()  # the one generation slot is taken
        try:
            with pytest.raises(error):
                pool.acquire_bundle()
            stats = pool.stats
            assert stats.misses == 1 and pool.available == 0
            assert stats.bundles_generated == stats.bundles_fetched_remote == 0
            if fault == "busy":  # the retry fetches the position that failed
                dealer._admission.release()
                local = PreprocessingPool(program, batch=1, dealer_seed=7)
                assert pool.acquire_bundle().seed == local.acquire_bundle().seed
        finally:
            pool.close()
            dealer.stop()
            store.close()


def _exploding(trace):
    raise ValueError("dealer exploded mid-generation")


def _run_threads(target, count):
    threads = [threading.Thread(target=target) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
        assert not thread.is_alive()


def _record_acquisitions(monkeypatch) -> list:
    """Every bundle any pool hands out from here on, in order."""
    acquired, acquire = [], PreprocessingPool.acquire_bundle
    monkeypatch.setattr(
        PreprocessingPool,
        "acquire_bundle",
        lambda pool: acquired.append(acquire(pool)) or acquired[-1],
    )
    return acquired


def _shared_words(a, b) -> np.ndarray:
    """The 64-bit material words two bundles have in common."""
    a, b = (
        np.concatenate([
            array.ravel()
            for _, material in bundle
            for array in vars(material).values()
            if array is not None and array.dtype == np.uint64
        ])
        for bundle in (a, b)
    )
    return np.intersect1d(a, b)


def _joined(record):
    blob0, blob1, _state = _unpack_record(record)
    return join_party_bundle(unpack_party_bundle(blob0), unpack_party_bundle(blob1))
