"""Batched C2PI serving: compile once, preprocess offline, serve many.

:class:`C2PIServer` is the deployment-shaped front-end over
:class:`~repro.core.c2pi.C2PIPipeline`:

* the crypto segment is compiled into a
  :class:`~repro.mpc.program.SecureProgram` **once**, at startup;
* per-batch :class:`~repro.mpc.preprocessing.PreprocessingPool`\\ s are
  kept warm (and can be refilled in the background between requests), so
  the request path is online-phase work only;
* queued requests are **coalesced** into batched secure executions —
  a batch of b images costs one protocol round trip per layer instead of
  b, which is where the serving throughput comes from;
* queued requests from **different named sessions fuse** into one engine
  pass too: each session keeps its own derived dealer seed, share rng and
  noise stream (see :func:`~repro.serve.remote.derive_session_seed`), its
  batch-1 bundles are concatenated along the batch axis
  (:func:`~repro.mpc.preprocessing.fuse_bundles`) and the input sharing
  is injected per row, so every fused row is byte-identical to the same
  session running alone on its own pipeline;
* every reply carries its own latency, and the server aggregates
  throughput, online/offline wall-clock and the per-label traffic
  breakdown of :class:`~repro.mpc.network.Channel`.

:func:`benchmark_serving` measures the batched warm-pool path against the
seed behaviour (one request at a time, correlated randomness generated
inline) and is what ``c2pi serve-bench`` reports.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..core.c2pi import C2PIPipeline
from ..core.noise import NoiseMechanism
from ..models.layered import LayeredModel
from ..mpc.fixedpoint import DEFAULT_CONFIG, FixedPointConfig
from ..mpc.preprocessing import (
    PreprocessingPool,
    ReplayDealer,
    fuse_bundles,
    material_plan,
)
from ..mpc.sharing import share_additive
from .remote import derive_session_seed

__all__ = [
    "InferenceRequest",
    "InferenceReply",
    "ServerMetrics",
    "C2PIServer",
    "benchmark_serving",
]


@dataclass
class InferenceRequest:
    """One queued client request (a single CHW image).

    ``session`` is the fusion key: ``None`` (anonymous) requests ride the
    historical single-engine coalescing path, while named requests fuse
    with other named requests under per-session crypto streams.
    """

    request_id: int
    image: np.ndarray
    enqueued_s: float
    session: int | str | None = None


@dataclass
class _SessionLane:
    """One named session's private crypto streams inside the fusion path.

    Seeded exactly like a standalone
    :class:`~repro.core.c2pi.C2PIPipeline` built with this session's
    derived seed: batch-1 pool dealer at ``seed``, share rng at
    ``seed + 1``, noise at ``seed`` — the byte-identity anchor the
    fusion tests pin.
    """

    seed: int
    share_rng: np.random.Generator
    noise: NoiseMechanism
    pool: PreprocessingPool


@dataclass
class InferenceReply:
    """The served outcome for one request."""

    request_id: int
    logits: np.ndarray
    prediction: int
    online_s: float  # secure online phase of the batch this rode in
    queued_s: float  # time spent waiting for coalescing (queue wait only)
    batch_size: int
    used_pool: bool
    offline_miss_s: float = 0.0  # cold-pool offline generation this batch paid


@dataclass
class ServerMetrics:
    """Aggregate serving counters (see :meth:`C2PIServer.metrics`)."""

    requests: int = 0
    batches: int = 0
    fused_batches: int = 0  # batches served on the cross-session path
    fused_requests: int = 0  # named-session rows those batches carried
    online_s: float = 0.0
    online_bytes: int = 0
    online_rounds: int = 0
    miss_offline_s: float = 0.0  # offline work forced onto the request path
    traffic_by_label: dict[str, dict] = field(default_factory=dict)

    def record_labels(self, breakdown) -> None:
        for label, snapshot in breakdown.items():
            bucket = self.traffic_by_label.setdefault(
                label, {"bytes": 0, "messages": 0, "rounds": 0}
            )
            bucket["bytes"] += snapshot.total_bytes
            bucket["messages"] += snapshot.messages
            bucket["rounds"] += snapshot.rounds

    @property
    def amortized_online_s(self) -> float:
        return self.online_s / self.requests if self.requests else 0.0


class C2PIServer:
    """Serve private inferences from warm preprocessing pools.

    Parameters
    ----------
    model, boundary, noise_magnitude, config, seed:
        Forwarded to the underlying :class:`C2PIPipeline` (one compiled
        program, one engine).
    max_batch:
        Coalescing width: :meth:`step` packs up to this many queued
        requests into one secure execution.
    warm_bundles:
        Preprocessing bundles generated for full ``max_batch`` batches at
        startup. Pools for other (remainder) batch sizes are created on
        demand and refill on miss.
    """

    def __init__(
        self,
        model: LayeredModel,
        boundary: float,
        noise_magnitude: float = 0.1,
        config: FixedPointConfig = DEFAULT_CONFIG,
        seed: int = 0,
        max_batch: int = 4,
        warm_bundles: int = 1,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        self.pipeline = C2PIPipeline(
            model, boundary, noise_magnitude=noise_magnitude, config=config, seed=seed
        )
        self.seed = seed
        self.max_batch = max_batch
        self.metrics = ServerMetrics()
        self._queue: deque[InferenceRequest] = deque()
        # Named-session fusion lanes, created on first submit for a key.
        # Only step() touches them — the secure execution is single-engine,
        # so steps are serialized by construction.
        self._lanes: dict[int | str, _SessionLane] = {}
        self._next_id = 0
        # Concurrent submitters (e.g. a request thread feeding a serving
        # loop) only contend on the queue and the counters; the secure
        # execution itself stays single-engine.
        self._queue_lock = threading.Lock()
        if warm_bundles:
            self.warm(warm_bundles)

    @property
    def program(self):
        return self.pipeline.program

    # ------------------------------------------------------------------
    def warm(self, bundles: int = 1, batch: int | None = None, background: bool = False):
        """Offline phase: pool ``bundles`` bundles for ``batch``-sized runs."""
        return self.pipeline.prepare_offline(
            batch=batch or self.max_batch, bundles=bundles, background=background
        )

    def submit(self, image: np.ndarray, session: int | str | None = None) -> int:
        """Queue one image (CHW) for inference; returns the request id.

        A ``session`` key routes the request onto the cross-session
        fusion path: its crypto streams derive from
        ``derive_session_seed(self.seed, session)``, independent of every
        other session and of the anonymous engine. Anonymous requests
        (``session=None``) keep the historical byte-exact behaviour.
        """
        image = np.asarray(image, dtype=np.float32)
        if image.ndim == 4 and image.shape[0] == 1:
            image = image[0]
        if image.shape != self.program.input_shape:
            raise ValueError(
                f"expected image of shape {self.program.input_shape}, got {image.shape}"
            )
        with self._queue_lock:
            request = InferenceRequest(
                request_id=self._next_id,
                image=image,
                enqueued_s=time.perf_counter(),
                session=session,
            )
            self._next_id += 1
            self._queue.append(request)
        return request.request_id

    @property
    def pending(self) -> int:
        with self._queue_lock:
            return len(self._queue)

    # ------------------------------------------------------------------
    def step(self) -> list[InferenceReply]:
        """Coalesce up to ``max_batch`` queued requests into one secure run.

        Requests fuse with their own kind, in FIFO order: the longest
        anonymous prefix runs on the single-engine path, the longest
        named prefix (any mix of session keys) runs as one fused pass
        with per-session crypto streams.
        """
        with self._queue_lock:
            if not self._queue:
                return []
            named = self._queue[0].session is not None
            take = 0
            for request in self._queue:
                if take >= self.max_batch or (request.session is not None) != named:
                    break
                take += 1
            requests = [self._queue.popleft() for _ in range(take)]
        if named:
            return self._step_fused(requests)
        images = np.stack([r.image for r in requests])
        # Queue wait ends here: whatever follows (pool creation, a
        # cold-pool miss generating a bundle inside infer) is offline
        # work, reported separately rather than inflating queued_s.
        dequeued = time.perf_counter()
        pool = self.pipeline.prepare_offline(batch=take, bundles=0)
        misses_before = pool.stats.misses
        offline_before = pool.stats.offline_seconds

        try:
            result = self.pipeline.infer(images)
        except Exception:
            # A failed secure execution must not swallow the requests it
            # coalesced: put them back at the queue front (in order) so
            # the next step() retries them, and let the caller see the
            # failure.
            with self._queue_lock:
                self._queue.extendleft(reversed(requests))
            raise
        missed = pool.stats.misses > misses_before
        offline_miss_s = (
            pool.stats.offline_seconds - offline_before if missed else 0.0
        )

        self.metrics.requests += take
        self.metrics.batches += 1
        self.metrics.online_s += result.online_s
        self.metrics.online_bytes += result.total_bytes
        self.metrics.online_rounds += result.crypto_rounds + 1
        self.metrics.miss_offline_s += offline_miss_s
        self.metrics.record_labels(result.traffic_by_label)

        return [
            InferenceReply(
                request_id=request.request_id,
                logits=result.logits[i],
                prediction=int(result.logits[i].argmax()),
                online_s=result.online_s,
                queued_s=dequeued - request.enqueued_s,
                batch_size=take,
                used_pool=result.used_pool,
                offline_miss_s=offline_miss_s,
            )
            for i, request in enumerate(requests)
        ]

    # ------------------------------------------------------------------
    def _lane(self, session: int | str) -> _SessionLane:
        """This session's fusion lane, created on first use."""
        lane = self._lanes.get(session)
        if lane is None:
            seed = derive_session_seed(self.seed, session)
            lane = _SessionLane(
                seed=seed,
                share_rng=np.random.default_rng(seed + 1),
                noise=NoiseMechanism(self.pipeline.noise.magnitude, seed=seed),
                pool=PreprocessingPool(self.program, 1, dealer_seed=seed),
            )
            self._lanes[session] = lane
        return lane

    def warm_sessions(self, sessions, bundles: int = 1) -> None:
        """Offline phase for named sessions: pre-pool batch-1 bundles."""
        for session in sessions:
            self._lane(session).pool.refill(bundles)

    def _step_fused(self, requests: list[InferenceRequest]) -> list[InferenceReply]:
        """One engine pass over ``k`` named-session rows, streams kept private.

        Row ``i`` consumes exactly what a standalone run of its session
        would have: the next batch-1 bundle of its derived-seed pool, the
        next draw of its share rng, the next draw of its noise rng. The
        bundles are concatenated along the batch axis and the input
        sharing injected, so the engine's own rng does not move and the
        fused logits are byte-identical per row to the serial runs.
        """
        dequeued = time.perf_counter()
        config = self.pipeline.config
        lanes = [self._lane(request.session) for request in requests]
        # Failure containment mirrors the anonymous path's re-queue, plus
        # stream rewind: a failed pass must leave every session's rng and
        # pool exactly where a fault-free future retry expects them.
        rng_states: dict[int | str, tuple] = {}
        miss_base: dict[int | str, tuple] = {}
        for request, lane in zip(requests, lanes):
            if request.session not in rng_states:
                rng_states[request.session] = (
                    lane.share_rng.bit_generator.state,
                    lane.noise.rng.bit_generator.state,
                )
                miss_base[request.session] = (
                    lane.pool.stats.misses,
                    lane.pool.stats.offline_seconds,
                )
        acquired: list[tuple[_SessionLane, list]] = []
        try:
            bundles = []
            for lane in lanes:
                bundle = lane.pool.acquire_bundle()
                acquired.append((lane, bundle))
                bundles.append(bundle)
            row_shares = [
                share_additive(config.encode(request.image[None]), lane.share_rng)
                for request, lane in zip(requests, lanes)
            ]
            input_shares = np.concatenate(row_shares, axis=1)
            images = np.stack([request.image for request in requests])
            fused = fuse_bundles(bundles, material_plan(self.program, len(requests)))
            start = time.perf_counter()
            execution = self.pipeline.engine.run(
                images, material=ReplayDealer(fused), input_shares=input_shares
            )
            # The noised reveal, row by row from each session's own stream.
            client_share = np.concatenate(
                [
                    lane.noise.perturb_share(
                        execution.shares[0][i : i + 1], config
                    )
                    for i, lane in enumerate(lanes)
                ]
            )
            reveal_bytes = client_share.nbytes
            execution.channel.send(0, reveal_bytes, label="noised-reveal")
            execution.channel.tick_round("noised-reveal")
            boundary_ring = (client_share + execution.shares[1]).astype(np.uint64)
            server_view = config.decode(boundary_ring)
            # The clear tail runs per row on purpose: batched float BLAS
            # uses different summation orders than batch-1 calls, and the
            # byte-identity contract is against each session's standalone
            # (batch-1) run. The crypto segment above is exactly
            # row-separable in the ring; only the float layers are not.
            with nn.no_grad():
                logits = np.concatenate(
                    [
                        self.pipeline.model.forward_from(
                            nn.Tensor(server_view[i : i + 1]),
                            self.pipeline.boundary,
                        ).data
                        for i in range(len(requests))
                    ]
                )
            online_s = time.perf_counter() - start
        except Exception:
            # Rewind: bundles back to their pools' fronts (reverse
            # acquisition order restores each pool's original ordering),
            # rng streams back to their pre-pass states, requests back to
            # the queue front.
            for lane, bundle in reversed(acquired):
                lane.pool.restore(bundle)
            for request, lane in zip(requests, lanes):
                if request.session in rng_states:
                    share_state, noise_state = rng_states.pop(request.session)
                    lane.share_rng.bit_generator.state = share_state
                    lane.noise.rng.bit_generator.state = noise_state
            with self._queue_lock:
                self._queue.extendleft(reversed(requests))
            raise

        offline_miss_s = 0.0
        for session, (misses, offline_s) in miss_base.items():
            pool = self._lanes[session].pool
            if pool.stats.misses > misses:
                offline_miss_s += pool.stats.offline_seconds - offline_s

        take = len(requests)
        self.metrics.requests += take
        self.metrics.batches += 1
        self.metrics.fused_batches += 1
        self.metrics.fused_requests += take
        self.metrics.online_s += online_s
        self.metrics.online_bytes += execution.channel.total_bytes
        self.metrics.online_rounds += execution.channel.rounds
        self.metrics.miss_offline_s += offline_miss_s
        self.metrics.record_labels(execution.channel.label_breakdown())

        return [
            InferenceReply(
                request_id=request.request_id,
                logits=logits[i],
                prediction=int(logits[i].argmax()),
                online_s=online_s,
                queued_s=dequeued - request.enqueued_s,
                batch_size=take,
                used_pool=True,
                offline_miss_s=offline_miss_s,
            )
            for i, request in enumerate(requests)
        ]

    def drain(self) -> list[InferenceReply]:
        """Serve everything queued; returns replies in completion order."""
        replies: list[InferenceReply] = []
        while self.pending:
            replies.extend(self.step())
        return replies

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-able metrics: request/batch counters, offline/online split,
        dealer counters and the per-label traffic breakdown."""
        pools = self.pipeline.pool_stats()
        offline_s = sum(stats["offline_seconds"] for stats in pools.values())
        dealer = self.pipeline.engine.dealer
        return {
            "requests": self.metrics.requests,
            "batches": self.metrics.batches,
            "fused_batches": self.metrics.fused_batches,
            "fused_requests": self.metrics.fused_requests,
            "max_batch": self.max_batch,
            "online_s": self.metrics.online_s,
            "amortized_online_s": self.metrics.amortized_online_s,
            "throughput_rps": (
                self.metrics.requests / self.metrics.online_s
                if self.metrics.online_s
                else 0.0
            ),
            "online_bytes": self.metrics.online_bytes,
            "online_rounds": self.metrics.online_rounds,
            "offline_s": offline_s,
            "miss_offline_s": self.metrics.miss_offline_s,
            "pools": pools,
            "session_pools": {
                str(session): lane.pool.stats.as_dict()
                for session, lane in self._lanes.items()
            },
            "online_dealer_generation": {
                "triples": dealer.triples_issued,
                "bit_triples": dealer.bit_triples_issued,
                "dabits": dealer.dabits_issued,
                "comparison_masks": dealer.comparison_masks_issued,
            },
            "traffic_by_label": self.metrics.traffic_by_label,
        }


# ----------------------------------------------------------------------
def benchmark_serving(
    model: LayeredModel,
    boundary: float,
    images: np.ndarray,
    max_batch: int = 4,
    noise_magnitude: float = 0.1,
    seed: int = 0,
    networked: bool = False,
    networks: tuple = (),
    clients: int = 0,
    clients_network=None,
) -> dict:
    """Measure batched warm-pool serving against the seed behaviour.

    The *baseline* is what the engine did before the offline/online split:
    one request at a time, with the dealer generating every piece of
    correlated randomness inline during ``run()``. The *served* path
    compiles once, pre-generates pools sized for the workload, then
    coalesces the same requests into ``max_batch``-sized secure runs.
    Returns a JSON-able comparison dict.

    With ``networked=True`` the same workload is additionally served over
    a real loopback socket (:func:`repro.serve.remote.benchmark_networked`)
    and, for each :class:`~repro.mpc.network.NetworkModel` in
    ``networks``, under token-bucket LAN/WAN shaping — reporting measured
    wall-clock next to the cost model's prediction for the same run.

    With ``clients > 0`` the networked report additionally carries a
    ``concurrent`` section (:func:`repro.serve.remote.benchmark_concurrent`):
    ``clients`` sessions served at once by one multi-worker
    :class:`~repro.serve.remote.RemoteServer` over ``clients_network``-shaped
    connections, with throughput scaling vs the serialised run of the same
    sessions and byte-identical per-session logits pinned.
    """
    images = np.asarray(images, dtype=np.float32)
    n = images.shape[0]
    if n == 0:
        raise ValueError("benchmark needs at least one image")

    # --- baseline: per-request pipeline with inline dealer generation.
    baseline = C2PIPipeline(model, boundary, noise_magnitude=noise_magnitude, seed=seed)
    start = time.perf_counter()
    baseline_results = [baseline.infer(images[i : i + 1]) for i in range(n)]
    baseline_s = time.perf_counter() - start

    # --- served: compile once, preprocess offline, coalesce online.
    server = C2PIServer(
        model,
        boundary,
        noise_magnitude=noise_magnitude,
        seed=seed,
        max_batch=max_batch,
        warm_bundles=0,
    )
    full_batches, remainder = divmod(n, max_batch)
    offline_start = time.perf_counter()
    if full_batches:
        server.warm(full_batches, batch=max_batch)
    if remainder:
        server.warm(1, batch=remainder)
    offline_s = time.perf_counter() - offline_start

    for i in range(n):
        server.submit(images[i])
    replies = server.drain()
    snapshot = server.snapshot()

    baseline_amortized = baseline_s / n
    served_amortized = snapshot["amortized_online_s"]
    agree = all(
        int(baseline_results[reply.request_id].prediction[0]) == reply.prediction
        for reply in replies
    )
    networked_report = None
    if networked:
        from .remote import benchmark_networked

        networked_report = benchmark_networked(
            model,
            boundary,
            images,
            max_batch=max_batch,
            noise_magnitude=noise_magnitude,
            seed=seed,
            networks=networks,
        )
        networked_report["predictions_agree_with_baseline"] = all(
            int(baseline_results[i].prediction[0]) == prediction
            for i, prediction in enumerate(networked_report["loopback"]["predictions"])
        )
        if clients:
            from .remote import benchmark_concurrent

            networked_report["concurrent"] = benchmark_concurrent(
                model,
                boundary,
                images,
                clients=clients,
                max_batch=max_batch,
                noise_magnitude=noise_magnitude,
                seed=seed,
                network=clients_network,
            )
    return {
        "model": model.name,
        "boundary": boundary,
        "requests": n,
        "max_batch": max_batch,
        "baseline": {
            "total_s": baseline_s,
            "amortized_s": baseline_amortized,
            "bytes": sum(r.total_bytes for r in baseline_results),
        },
        "served": {
            "online_s": snapshot["online_s"],
            "amortized_online_s": served_amortized,
            "offline_s": offline_s,
            "bytes": snapshot["online_bytes"],
            "batches": snapshot["batches"],
            "pool_misses": sum(p["misses"] for p in snapshot["pools"].values()),
            "online_dealer_generation": snapshot["online_dealer_generation"],
        },
        "speedup_online": (
            baseline_amortized / served_amortized if served_amortized else float("inf")
        ),
        "predictions_agree": agree,
        "traffic_by_label": snapshot["traffic_by_label"],
        "networked": networked_report,
    }
