"""The batched C2PI serving layer: coalescing, metrics, warm pools."""

import numpy as np
import pytest

from repro import nn
from repro.core import c2pi
from repro.models import vgg16
from repro.serve import C2PIServer


@pytest.fixture(scope="module")
def victim():
    return vgg16(width_mult=0.125, rng=np.random.default_rng(0)).eval()


@pytest.fixture(scope="module")
def images():
    return np.random.default_rng(3).random((5, 3, 32, 32), dtype=np.float32)


@pytest.fixture(scope="module")
def server_and_replies(victim, images):
    server = C2PIServer(
        victim, boundary=1.5, noise_magnitude=0.0, max_batch=2, warm_bundles=2
    )
    for image in images:
        server.submit(image)
    replies = server.drain()
    return server, replies


class TestServing:
    def test_all_requests_answered_in_order(self, server_and_replies, images):
        _, replies = server_and_replies
        assert [r.request_id for r in replies] == list(range(len(images)))
        assert all(r.batch_size <= 2 for r in replies)

    def test_logits_match_plaintext_model(self, victim, server_and_replies, images):
        """With zero noise the served logits equal plaintext inference up to
        fixed-point error."""
        _, replies = server_and_replies
        with nn.no_grad():
            plain = victim(nn.Tensor(images)).data
        for reply in replies:
            np.testing.assert_allclose(reply.logits, plain[reply.request_id], atol=5e-2)

    def test_coalescing_batches(self, server_and_replies):
        server, replies = server_and_replies
        snapshot = server.snapshot()
        # 5 requests at max_batch=2 -> 3 secure executions (2+2+1).
        assert snapshot["requests"] == 5
        assert snapshot["batches"] == 3
        sizes = [r.batch_size for r in replies]
        assert sizes == [2, 2, 2, 2, 1]

    def test_online_phase_is_generation_free_for_warm_batches(self, server_and_replies):
        server, replies = server_and_replies
        generation = server.snapshot()["online_dealer_generation"]
        assert set(generation.values()) == {0}
        assert all(r.used_pool for r in replies)

    def test_metrics_expose_label_breakdown(self, server_and_replies):
        server, _ = server_and_replies
        labels = server.snapshot()["traffic_by_label"]
        assert "input-share" in labels
        assert "noised-reveal" in labels
        assert all(bucket["bytes"] >= 0 for bucket in labels.values())

    def test_remainder_batch_recorded_as_pool_miss(self, server_and_replies):
        """The odd final request has no warmed batch-1 pool: served via
        refill-on-miss."""
        server, _ = server_and_replies
        pools = server.snapshot()["pools"]
        assert pools[2]["misses"] == 0  # warmed ahead of time
        assert pools[1]["misses"] == 1  # generated on demand

    def test_rejects_wrong_shape(self, victim):
        server = C2PIServer(victim, boundary=1.5, warm_bundles=0)
        with pytest.raises(ValueError):
            server.submit(np.zeros((1, 16, 16), np.float32))

    def test_step_on_empty_queue(self, victim):
        server = C2PIServer(victim, boundary=1.5, warm_bundles=0)
        assert server.step() == []


class TestRemainderBatches:
    """The queue length not divisible by max_batch: the smaller final
    batch is served from an on-demand pool, visible in every counter."""

    @pytest.fixture(scope="class")
    def remainder_run(self, victim, images):
        server = C2PIServer(
            victim, boundary=1.5, noise_magnitude=0.0, max_batch=3, warm_bundles=1
        )
        for image in images:  # 5 requests -> batches of 3 + 2
            server.submit(image)
        return server, server.drain()

    def test_batch_sizes_and_order(self, remainder_run, images):
        _, replies = remainder_run
        assert [r.request_id for r in replies] == list(range(len(images)))
        assert [r.batch_size for r in replies] == [3, 3, 3, 2, 2]

    def test_on_demand_pool_counters(self, remainder_run):
        server, _ = remainder_run
        pools = server.snapshot()["pools"]
        # The warmed max_batch pool served without a miss; the remainder
        # batch created its pool on demand and generated on miss.
        assert pools[3]["misses"] == 0
        assert pools[2]["misses"] == 1
        assert pools[2]["bundles_generated"] == 1
        assert pools[2]["bundles_consumed"] == 1

    def test_remainder_still_uses_pool_material(self, remainder_run):
        server, replies = remainder_run
        assert all(r.used_pool for r in replies)
        generation = server.snapshot()["online_dealer_generation"]
        assert set(generation.values()) == {0}

    def test_miss_offline_time_reported_separately(self, remainder_run):
        server, replies = remainder_run
        warm = [r for r in replies if r.batch_size == 3]
        cold = [r for r in replies if r.batch_size == 2]
        assert all(r.offline_miss_s == 0.0 for r in warm)
        assert all(r.offline_miss_s > 0.0 for r in cold)
        snapshot = server.snapshot()
        assert snapshot["miss_offline_s"] == pytest.approx(cold[0].offline_miss_s)

    def test_queue_wait_excludes_offline_generation(self, victim, images):
        """queued_s measures coalescing wait only: a cold-pool miss books
        its bundle generation under offline_miss_s, not queue wait. The
        request is stepped immediately after submit, so its true queue
        wait is microseconds while the miss generation is not."""
        server = C2PIServer(
            victim, boundary=1.5, noise_magnitude=0.0, max_batch=2, warm_bundles=0
        )
        server.submit(images[0])
        reply = server.step()[0]
        assert reply.offline_miss_s > 0.0
        assert reply.queued_s < reply.offline_miss_s
        assert server.snapshot()["miss_offline_s"] == pytest.approx(
            reply.offline_miss_s
        )


class TestStepFaultContainment:
    """A failed secure execution must not swallow its coalesced requests."""

    def test_failed_step_requeues_requests_in_order(
        self, victim, images, monkeypatch
    ):
        server = C2PIServer(
            victim, boundary=1.5, noise_magnitude=0.0, max_batch=2, warm_bundles=0
        )
        for image in images[:3]:
            server.submit(image)

        def exploding_tail(program, boundary_ring):
            raise RuntimeError("injected execution failure")

        with monkeypatch.context() as patch:
            patch.setattr(c2pi, "clear_tail", exploding_tail)
            with pytest.raises(RuntimeError, match="injected"):
                server.step()
        # The two popped requests are back at the front, same order.
        assert server.pending == 3
        replies = server.drain()
        assert [r.request_id for r in replies] == [0, 1, 2]
        assert server.snapshot()["requests"] == 3
