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
  pass too: a session *is* a :class:`~repro.core.c2pi.C2PIPipeline`
  seeded with :func:`~repro.core.c2pi.derive_session_seed`, and
  :func:`~repro.core.c2pi.infer_groups` runs one row group per request on
  its session's own pool, share rng and noise stream, so every fused row
  is byte-identical to the same session running alone;
* every reply carries its own latency, and the server aggregates
  throughput, online/offline wall-clock and the per-label traffic
  breakdown of :class:`~repro.mpc.network.Channel`
  (:meth:`C2PIServer.snapshot`: the offline/online split, pool misses
  and the online dealer-generation counters, which must read zero).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..core.c2pi import C2PIPipeline, derive_session_seed, infer_groups
from ..models.layered import LayeredModel
from ..mpc.fixedpoint import DEFAULT_CONFIG, FixedPointConfig

__all__ = [
    "InferenceRequest",
    "InferenceReply",
    "ServerMetrics",
    "C2PIServer",
]


@dataclass
class InferenceRequest:
    """One queued client request (a single CHW image).

    ``session`` is the fusion key: ``None`` (anonymous) requests coalesce
    into one batch on the server's own pipeline, while named requests
    fuse with other named requests, each on its session's pipeline.
    """

    request_id: int
    image: np.ndarray
    enqueued_s: float
    session: int | str | None = None


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
        # Named sessions' pipelines, created on first use of a key. Only
        # step() and warm_sessions() touch them — steps are serialized by
        # construction.
        self._sessions: dict[int | str, C2PIPipeline] = {}
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

        A ``session`` key runs the request on that session's own
        pipeline: its crypto streams derive from
        ``derive_session_seed(self.seed, session)``, independent of every
        other session and of the anonymous pipeline.
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
        anonymous prefix is one row group on the server's own pipeline,
        the longest named prefix (any mix of session keys) is one batch-1
        group per request on its session's pipeline. Either way the
        groups make one :func:`~repro.core.c2pi.infer_groups` pass.
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
        # Queue wait ends here: whatever follows (pool creation, a
        # cold-pool miss generating a bundle) is offline work, reported
        # separately rather than inflating queued_s.
        dequeued = time.perf_counter()
        if named:
            groups = [
                (self._session(request.session), request.image[None])
                for request in requests
            ]
        else:
            groups = [(self.pipeline, np.stack([r.image for r in requests]))]
        try:
            for pipeline, images in groups:
                pipeline.prepare_offline(batch=len(images), bundles=0)
            result = infer_groups(groups)
        except Exception:
            # A failed secure execution must not swallow the requests it
            # coalesced: infer_groups has put bundles and rngs back, put
            # the requests back at the queue front (in order) so the next
            # step() retries them, and let the caller see the failure.
            with self._queue_lock:
                self._queue.extendleft(reversed(requests))
            raise

        self.metrics.requests += take
        self.metrics.batches += 1
        if named:
            self.metrics.fused_batches += 1
            self.metrics.fused_requests += take
        self.metrics.online_s += result.online_s
        self.metrics.online_bytes += result.total_bytes
        self.metrics.online_rounds += result.crypto_rounds + 1
        self.metrics.miss_offline_s += result.offline_miss_s
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
                offline_miss_s=result.offline_miss_s,
            )
            for i, request in enumerate(requests)
        ]

    # ------------------------------------------------------------------
    def _session(self, session: int | str) -> C2PIPipeline:
        """This named session's pipeline, created on first use.

        The same object a client running this session alone would build:
        the byte-identity anchor the fusion tests pin.
        """
        pipeline = self._sessions.get(session)
        if pipeline is None:
            pipeline = C2PIPipeline(
                self.pipeline.model,
                self.pipeline.boundary,
                noise_magnitude=self.pipeline.noise.magnitude,
                config=self.pipeline.config,
                seed=derive_session_seed(self.seed, session),
                program=self.program,
            )
            self._sessions[session] = pipeline
        return pipeline

    def warm_sessions(self, sessions, bundles: int = 1) -> None:
        """Offline phase for named sessions: pre-pool batch-1 bundles."""
        for session in sessions:
            self._session(session).prepare_offline(batch=1, bundles=bundles)

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
                str(session): pipeline.pool_stats()[1]
                for session, pipeline in self._sessions.items()
            },
            "online_dealer_generation": {
                "triples": dealer.triples_issued,
                "bit_triples": dealer.bit_triples_issued,
                "dabits": dealer.dabits_issued,
                "comparison_masks": dealer.comparison_masks_issued,
            },
            "traffic_by_label": self.metrics.traffic_by_label,
        }
