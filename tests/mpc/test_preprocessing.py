"""Offline preprocessing pools: determinism, exhaustion and the clean split."""

import numpy as np
import pytest

from repro import nn
from repro.core import C2PIPipeline
from repro.models import vgg16
from repro.mpc import (
    PoolExhausted,
    PreprocessingPool,
    SecureInferenceEngine,
    compile_program,
)
from repro.mpc.dealer import TrustedDealer
from repro.mpc.preprocessing import (
    MaterialMismatch,
    RecordingDealer,
    ReplayDealer,
    material_plan,
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

    def test_pool_matches_inline_generation_byte_for_byte(self, victim, image):
        """Warm-pool inference reproduces the single-shot path exactly."""
        inline = C2PIPipeline(victim, 2.5, noise_magnitude=0.1, seed=3)
        pooled = C2PIPipeline(victim, 2.5, noise_magnitude=0.1, seed=3)
        pooled.prepare_offline(batch=1, bundles=2)
        for _ in range(2):  # bundle sequence mirrors the inline rng stream
            a = inline.infer(image)
            b = pooled.infer(image)
            np.testing.assert_array_equal(a.logits, b.logits)
            np.testing.assert_array_equal(a.server_view, b.server_view)
            assert b.used_pool and not a.used_pool

    def test_online_phase_generates_nothing(self, victim, image):
        pipeline = C2PIPipeline(victim, 2.5, seed=0)
        pipeline.prepare_offline(batch=1, bundles=1)
        dealer = pipeline.engine.dealer
        before = (
            dealer.triples_issued,
            dealer.bit_triples_issued,
            dealer.dabits_issued,
            dealer.comparison_masks_issued,
        )
        pipeline.infer(image)
        after = (
            dealer.triples_issued,
            dealer.bit_triples_issued,
            dealer.dabits_issued,
            dealer.comparison_masks_issued,
        )
        assert before == after == (0, 0, 0, 0)


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

    def test_inline_and_pooled_dealers_open_their_bundles_alike(self, program, image):
        """The engine's inline dealer takes each run's seed where a pool
        seeded alike takes its bundle's: same position, same seed, same
        shares — run after run."""
        inline = SecureInferenceEngine.from_program(program, dealer_seed=9, share_seed=5)
        pooled = SecureInferenceEngine.from_program(program, share_seed=5)
        pool = PreprocessingPool(program, batch=1, dealer_seed=9)
        seeds, begin = [], inline.dealer.begin_bundle
        inline.dealer.begin_bundle = lambda: seeds.append(begin()) or seeds[-1]
        for _ in range(2):
            bundle = pool.acquire_bundle()
            ours = inline.run(image).shares
            theirs = pooled.run(image, material=ReplayDealer(bundle)).shares
            np.testing.assert_array_equal(ours, theirs)
            assert seeds[-1] == bundle.seed
        assert len(set(seeds)) == 2
        assert inline.dealer.state() == pool._dealer.state()

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

    def test_exhaustion_raises_when_strict(self, program, image):
        pool = PreprocessingPool(program, batch=1, auto_refill=False)
        pool.refill(1)
        engine = SecureInferenceEngine.from_program(program)
        engine.run(image, material=pool.acquire())
        with pytest.raises(PoolExhausted):
            pool.acquire()
        assert pool.stats.misses == 1

    def test_exhaustion_refills_when_auto(self, program, image):
        pool = PreprocessingPool(program, batch=1, auto_refill=True)
        assert pool.available == 0
        engine = SecureInferenceEngine.from_program(program)
        result = engine.run(image, material=pool.acquire())  # miss -> refill
        assert result.shares[0].shape == (1, *program.output_shape)
        assert pool.stats.misses == 1
        assert pool.stats.bundles_generated == 1

    def test_background_refill(self, program, image):
        pool = PreprocessingPool(program, batch=1)
        pool.refill_async(1).join()
        assert pool.available == 1
        assert pool.stats.bundles_generated == 1
        # acquire() also joins a pending refill on demand.
        pool.refill_async(1)
        engine = SecureInferenceEngine.from_program(program)
        engine.run(image, material=pool.acquire())
        assert pool.stats.misses == 0

    def test_background_refill_failure_surfaces_on_next_acquire(self, program):
        """A generation error in the daemon refill thread must not
        evaporate: the pool records it and re-raises it from the next
        acquire(), instead of parking the acquirer (or silently serving
        nothing) while the error dies with the thread."""
        pool = PreprocessingPool(program, batch=1)

        def throwing_generate(trace):
            raise ValueError("dealer exploded mid-generation")

        pool._generate = throwing_generate
        pool.refill_async(1).join()
        with pytest.raises(RuntimeError, match="background preprocessing refill"):
            pool.acquire()
        # The error is delivered once; with generation still broken the
        # subsequent acquire fails in the miss path, not with a stale error.
        with pytest.raises(ValueError, match="dealer exploded"):
            pool.acquire()

    def test_background_refill_failure_surfaces_on_next_refill(self, program):
        pool = PreprocessingPool(program, batch=1)
        original_generate = pool._generate

        def throwing_generate(trace):
            raise ValueError("dealer exploded mid-generation")

        pool._generate = throwing_generate
        pool.refill_async(1).join()
        pool._generate = original_generate
        with pytest.raises(RuntimeError, match="background preprocessing refill"):
            pool.refill(1)
        # The deferred failure is consumed: the pool works again.
        pool.refill(1)
        assert pool.available == 1

    def test_waiting_acquirer_wakes_on_failed_refill(self, program):
        """An acquirer already parked on a pending refill is woken by the
        failure and re-raises it — it must not wait forever for material
        that will never arrive."""
        import threading

        release = threading.Event()

        pool = PreprocessingPool(program, batch=1)

        def blocking_then_throwing(trace):
            release.wait(5.0)
            raise ValueError("dealer exploded mid-generation")

        pool._generate = blocking_then_throwing
        pool.refill_async(1)
        failures = []

        def acquirer():
            try:
                pool.acquire()
            except RuntimeError as exc:
                failures.append(exc)

        thread = threading.Thread(target=acquirer, daemon=True)
        thread.start()
        release.set()
        thread.join(timeout=5.0)
        assert not thread.is_alive(), "acquirer still parked after failed refill"
        assert len(failures) == 1
        assert isinstance(failures[0].__cause__, ValueError)

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
    """Regression: concurrent consumers must not double-generate bundles.

    The seed tracked only the *latest* refill thread and checked
    ``is_alive() and not available`` outside the lock, so a consumer that
    lost the race joined a stale (or finished) thread and fell through to
    miss-generation even though a scheduled refill covered its demand.
    Pending refills are now registered under the lock before the worker
    starts, making the assertion below deterministic.
    """

    def test_concurrent_acquire_waits_for_scheduled_refill(self, program):
        import threading

        consumers = 4
        pool = PreprocessingPool(program, batch=1)
        pool.refill_async(consumers)  # registered before any acquire runs
        acquired = []
        errors = []

        def consume():
            try:
                acquired.append(pool.acquire())
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=consume) for _ in range(consumers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert len(acquired) == consumers
        # Exactly the scheduled bundles were generated: no miss, no double.
        assert pool.stats.bundles_generated == consumers
        assert pool.stats.misses == 0
        assert pool.stats.bundles_consumed == consumers
        assert pool.available == 0

    def test_strict_pool_waits_rather_than_raising_for_pending_refill(
        self, program
    ):
        pool = PreprocessingPool(program, batch=1, auto_refill=False)
        pool.refill_async(1)
        # With a refill scheduled, a strict pool waits for it instead of
        # raising PoolExhausted.
        replay = pool.acquire()
        assert replay.remaining > 0
        assert pool.stats.misses == 0

    def test_acquire_does_not_block_behind_slow_refill(self, program):
        """Regression: generation must happen outside the pool lock.

        ``refill`` used to hold the pool RLock for the whole dealer
        generation, so a "background" ``refill_async`` blocked every
        concurrent ``acquire()`` — and even ``available`` — for the full
        generation time. With a ready bundle in the deque, both must
        complete while a deliberately slow refill is still in flight.
        """
        import threading
        import time

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
            refill_thread = pool.refill_async(1)
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
        strict = PreprocessingPool(program, batch=1, auto_refill=False)
        assert strict.acquire_ready() is None  # not PoolExhausted either
        for stats in (pool.stats, strict.stats):
            assert stats.bundles_generated == 0
            assert stats.bundles_consumed == 0
            assert stats.misses == 0

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
        import threading
        import time

        pool = PreprocessingPool(program, batch=1)
        entered, release = threading.Event(), threading.Event()
        original = pool._generate

        def slow_generate(trace):
            entered.set()
            assert release.wait(timeout=30.0)
            return original(trace)

        pool._generate = slow_generate
        refill = pool.refill_async(1)
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

    def test_parked_refill_failure_stays_parked(self, program):
        pool = PreprocessingPool(program, batch=1)

        def throwing_generate(trace):
            raise ValueError("dealer exploded mid-generation")

        pool._generate = throwing_generate
        pool.refill_async(1).join()
        assert pool.acquire_ready() is None
        with pytest.raises(RuntimeError, match="background preprocessing refill"):
            pool.acquire()  # still there for a caller that asked for work

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
