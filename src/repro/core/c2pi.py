"""The C2PI crypto-clear private-inference pipeline (Figure 2).

One :class:`C2PIPipeline` fixes a victim model, a boundary layer and a
noise magnitude, then serves inferences:

1. **Crypto phase** — the layers up to the boundary run under the 2PC
   engine (:mod:`repro.mpc.engine`); both parties end holding additive
   shares of the boundary activation.
2. **Reveal** — the client perturbs its share with uniform noise and sends
   it to the server (one message of boundary size).
3. **Clear phase** — the server reconstructs ``M_l(x) + Delta`` and runs
   the remaining layers in plaintext, entirely locally, then returns the
   prediction to the client.

The server's whole view of the client's data is the noised boundary
activation (plus protocol messages that are individually uniform) — this is
exactly what the IDPAs of :mod:`repro.attacks` consume, closing the loop
between the privacy evaluation and the deployed pipeline. Setting the
boundary to the last layer recovers standard full PI (zero clear layers),
which is how the Table II baselines are produced.

The pipeline compiles its crypto segment into a
:class:`~repro.mpc.program.SecureProgram` once at construction and can
split the work into a real offline/online phase pair:
:meth:`C2PIPipeline.prepare_offline` fills per-batch preprocessing pools
(:mod:`repro.mpc.preprocessing`), after which :meth:`C2PIPipeline.infer`
consumes pooled material and performs zero dealer generation online.

The flow itself is written once, over the party axis: :func:`noised_reveal`
and :func:`clear_tail` take the channel they are handed as the placement
(both parties in this process, or one party of
:class:`~repro.serve.remote.RemoteServer` / ``RemoteClient`` over a
transport), and :func:`infer_groups` is the one in-process request —
:meth:`C2PIPipeline.infer` calls it with one row group,
:class:`~repro.serve.server.C2PIServer` with one group per coalesced
batch or per named session (a session is a pipeline seeded with
:func:`derive_session_seed`).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..models.layered import LayeredModel
from ..mpc.costs import BackendCostModel, CostEstimate
from ..mpc.engine import LayerTally, SecureInferenceEngine
from ..mpc.fixedpoint import DEFAULT_CONFIG, FixedPointConfig
from ..mpc.network import Channel, NetworkModel, TrafficSnapshot
from ..mpc.preprocessing import (
    PreprocessingPool,
    ReplayDealer,
    fuse_bundles,
    material_plan,
)
from ..mpc.program import SecureProgram, compile_program, split_macs
from ..mpc.sharing import share_additive
from .noise import NoiseMechanism

__all__ = [
    "C2PIResult",
    "C2PIPipeline",
    "derive_session_seed",
    "noised_reveal",
    "clear_tail",
    "infer_groups",
    "full_pi_tallies",
]


@dataclass
class C2PIResult:
    """Outcome of one C2PI inference."""

    logits: np.ndarray
    server_view: np.ndarray  # the noised boundary activation
    boundary: float
    crypto_bytes: int
    crypto_rounds: int
    reveal_bytes: int
    tallies: list[LayerTally]
    traffic_by_label: dict[str, TrafficSnapshot] = field(default_factory=dict)
    online_s: float = 0.0
    used_pool: bool = False
    offline_miss_s: float = 0.0  # cold-pool generation this request paid

    @property
    def prediction(self) -> np.ndarray:
        return self.logits.argmax(axis=1)

    @property
    def total_bytes(self) -> int:
        return self.crypto_bytes + self.reveal_bytes


class C2PIPipeline:
    """Serve private inferences with a crypto/clear split at ``boundary``."""

    def __init__(
        self,
        model: LayeredModel,
        boundary: float,
        noise_magnitude: float = 0.1,
        config: FixedPointConfig = DEFAULT_CONFIG,
        seed: int = 0,
        program: SecureProgram | None = None,
    ):
        self.model = model
        self.boundary = boundary
        self.config = config
        self.noise = NoiseMechanism(noise_magnitude, seed=seed)
        self.program = (
            program
            if program is not None
            else compile_program(model, boundary, config)
        )
        self.engine = SecureInferenceEngine.from_program(
            self.program, dealer_seed=seed, share_seed=seed + 1
        )
        self._pools: dict[int, PreprocessingPool] = {}

    # ------------------------------------------------------------------
    def prepare_offline(
        self, batch: int = 1, bundles: int = 1, background: bool = False
    ) -> PreprocessingPool:
        """Run the offline phase: pool ``bundles`` sets of correlated
        randomness for ``batch``-sized requests.

        The pool's dealer is seeded like the engine's, so warm-pool
        inference is byte-identical to the single-shot path. With
        ``background=True`` generation happens in a daemon thread and
        ``infer`` joins it on demand.
        """
        pool = self._pools.get(batch)
        if pool is None:
            pool = PreprocessingPool(
                self.program, batch, dealer_seed=self.engine.dealer_seed
            )
            self._pools[batch] = pool
        if bundles:
            (pool.refill_async if background else pool.refill)(bundles)
        return pool

    def pool_stats(self) -> dict[int, dict]:
        """Offline-phase counters per batch size (serving metrics)."""
        return {batch: pool.stats.as_dict() for batch, pool in self._pools.items()}

    # ------------------------------------------------------------------
    def infer(self, images: np.ndarray) -> C2PIResult:
        """Run the full protocol on a float NCHW batch.

        When :meth:`prepare_offline` has pooled material for this batch
        size, only that material is consumed — the engine's dealer
        generates nothing online.
        """
        return infer_groups([(self, images)])

    # ------------------------------------------------------------------
    def cost_estimate(
        self, backend: BackendCostModel, batch: int = 1
    ) -> CostEstimate:
        """Modeled backend cost of the crypto phase plus the reveal.

        Clear-layer compute is plaintext inference on the server; it is
        charged at a nominal 0.5 ns/MAC (three to four orders of magnitude
        below the cryptographic per-op costs, matching the paper's framing
        that clear layers are effectively free).
        """
        estimate = CostEstimate.from_tallies(self.program.tallies(batch), backend)
        boundary_elements = batch * int(np.prod(self.program.output_shape))
        estimate.online_bytes += boundary_elements * 8  # the noised reveal
        estimate.rounds += 1
        clear_macs = split_macs(self.model, self.boundary, batch)[1]
        estimate.compute_s += clear_macs * 0.5e-9
        return estimate

    def latency(self, backend: BackendCostModel, network: NetworkModel) -> float:
        return self.cost_estimate(backend).latency(network)


def derive_session_seed(base_seed: int, session: int | str | None) -> int:
    """The seed of one session's :class:`C2PIPipeline`.

    ``None`` (an anonymous session) maps to ``base_seed`` itself — the
    historical single-client behaviour. A named session hashes
    ``(base_seed, session)`` into an independent 64-bit seed, so each
    session owns deterministic dealer, share and noise streams that no
    interleaving with other sessions can perturb: the same session key
    against the same server seed always replays the same draws, whether
    it runs alone, fused with other sessions' rows in one
    :func:`infer_groups` pass, or among ``N`` concurrent remote clients.
    """
    if session is None:
        return base_seed
    digest = hashlib.blake2b(
        f"c2pi-session:{base_seed}:{session!r}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def noised_reveal(
    channel: Channel,
    shares: np.ndarray,
    noises: list[tuple[NoiseMechanism, slice]],
    config: FixedPointConfig,
) -> np.ndarray | None:
    """The paper's one declassification: the client's noised boundary share.

    ``shares`` carries the party axis of ``channel``. Where the client's
    row lives, each ``(mechanism, rows)`` entry of ``noises`` perturbs
    the batch rows it names from its own stream (the entries tile the
    batch, in order) and the result is handed to the server as one
    message — length-checked against the boundary shape like every
    handed message; where the server's row lives, the ring-encoded noised
    boundary activation is returned.
    """
    client, server = channel.row(0), channel.row(1)
    received = channel.hand(
        "noised-reveal",
        shares.shape[1:],
        lambda out: np.concatenate(
            [
                mechanism.perturb_share(shares[client][rows], config)
                for mechanism, rows in noises
            ],
            out=out,
        ),
    )
    channel.tick_round("noised-reveal")
    channel.flush_deferred()
    return None if server is None else received + shares[server]


def clear_tail(
    program: SecureProgram, boundary_ring: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The server's clear phase: ``(server_view, logits)``.

    Decodes the noised boundary activation and runs the remaining layers
    in plaintext. Batched float BLAS sums in a different order than
    batch-1 calls, so the bytes depend on how many rows one call covers.
    """
    server_view = program.config.decode(boundary_ring)
    with nn.no_grad():
        logits = program.model.forward_from(
            nn.Tensor(server_view), program.boundary
        ).data
    return server_view, logits


def infer_groups(groups: list[tuple[C2PIPipeline, np.ndarray]]) -> C2PIResult:
    """One in-process C2PI request over row groups, both parties here.

    Each ``(pipeline, images)`` group consumes exactly what that pipeline
    running ``images`` alone would: the next bundle of its pool for that
    batch size, the next draw of its share rng, the next draw of its
    noise rng, and its own clear-tail call — so every group's logits are
    byte-identical to the standalone run, however many groups share the
    pass. The crypto segment runs once over all rows (the protocols are
    element-wise over the batch; the bundles are fused along it).
    A lone group without a pool has the engine's dealer generate inline.

    Any failure restores the acquired bundles to their pools' fronts
    (reverse order, so each pool's ordering survives) and rewinds every
    share and noise rng, so a retry reproduces the fault-free bytes.
    """
    lead = groups[0][0]
    program, config = lead.program, lead.config
    bounds = np.cumsum([0] + [len(images) for _, images in groups])
    rows = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
    rngs = [
        rng
        for pipeline, _ in groups
        for rng in (pipeline.engine.share_rng, pipeline.noise.rng)
    ]
    states = [rng.bit_generator.state for rng in rngs]
    acquired: list[tuple[PreprocessingPool, list]] = []
    offline_miss_s = 0.0
    try:
        # Acquisition and fusion stay outside the online clock: a pool
        # miss refills synchronously, and those seconds are offline work.
        for pipeline, images in groups:
            pool = pipeline._pools.get(len(images))
            if pool is None:
                continue
            misses, offline_s = pool.stats.misses, pool.stats.offline_seconds
            acquired.append((pool, pool.acquire_bundle()))
            if pool.stats.misses > misses:
                offline_miss_s += pool.stats.offline_seconds - offline_s
        bundles = [bundle for _, bundle in acquired]
        if len(bundles) > 1:  # the plan is only read to fuse
            bundles = [fuse_bundles(bundles, material_plan(program, int(bounds[-1])))]
        material = ReplayDealer(bundles[0]) if bundles else None
        start = time.perf_counter()
        input_shares = np.concatenate(
            [
                share_additive(config.encode(images), pipeline.engine.share_rng)
                for pipeline, images in groups
            ],
            axis=1,
        )
        execution = lead.engine.run(
            np.concatenate([images for _, images in groups]),
            material=material,
            input_shares=input_shares,
        )
        channel = execution.channel
        crypto_bytes, crypto_rounds = channel.total_bytes, channel.rounds
        boundary_ring = noised_reveal(
            channel,
            execution.shares,
            [(pipeline.noise, part) for (pipeline, _), part in zip(groups, rows)],
            config,
        )
        tails = [clear_tail(program, boundary_ring[part]) for part in rows]
        online_s = time.perf_counter() - start
    except Exception:
        for pool, bundle in reversed(acquired):
            pool.restore(bundle)
        for rng, state in zip(rngs, states):
            rng.bit_generator.state = state
        raise
    return C2PIResult(
        logits=np.concatenate([logits for _, logits in tails]),
        server_view=np.concatenate([view for view, _ in tails]),
        boundary=lead.boundary,
        crypto_bytes=crypto_bytes,
        crypto_rounds=crypto_rounds,
        reveal_bytes=channel.total_bytes - crypto_bytes,
        tallies=execution.tallies,
        traffic_by_label=channel.label_breakdown(),
        online_s=online_s,
        used_pool=material is not None,
        offline_miss_s=offline_miss_s,
    )


def full_pi_tallies(model: LayeredModel, batch: int = 1) -> list[LayerTally]:
    """Tallies for conventional full PI (every layer under MPC).

    Full PI is the boundary-at-the-last-layer special case of C2PI; these
    tallies feed the Table II baselines.
    """
    last = model.layer_ids[-1]
    return compile_program(model, last, encode_weights=False).tallies(batch)
