"""Offline preprocessing pools: generate correlated randomness ahead of time.

The PI protocols C2PI builds on (Delphi, Cheetah, CrypTFlow2) all split
inference into an *offline* phase — independent of the client's input —
and a cheap *online* phase. The trusted dealer of :mod:`repro.mpc.dealer`
models the offline cryptography, but the seed engine invoked it lazily,
in the middle of the online protocol stream. This module makes the split
real:

* :class:`PreprocessingPool` owns a compiled
  :class:`~repro.mpc.program.SecureProgram` and a batch size. It derives
  the program's exact material needs from the op shapes alone
  (:func:`material_plan` — the protocols are data-oblivious, so the
  request stream depends only on shapes) and generates whole
  per-inference **bundles** of
  :class:`~repro.mpc.dealer.LinearCorrelation` /
  :class:`~repro.mpc.dealer.ComparisonMask` / triple material, eagerly or
  in a background thread.
* :class:`ReplayDealer` serves one bundle back in consumption order —
  the one material consumer of both placements: a whole bundle for the
  in-process engine, one party's row view (:func:`split_bundle`, or a
  blob through :func:`unpack_party_bundle`) for a party over a
  transport. The online phase then performs zero dealer generation.

Determinism: a pool seeded like the engine's inline dealer generates the
byte-identical material stream the engine would have generated lazily, so
warm-pool inference reproduces the single-shot results bit for bit (see
the equivalence tests).
"""

from __future__ import annotations

import json
import math
import struct
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np

from .dealer import (
    CLIENT_MASKS,
    SEED_BYTES,
    BeaverTriple,
    BitTriple,
    ComparisonMask,
    DaBit,
    LinearCorrelation,
    TrustedDealer,
    client_stream,
)
from .fixedpoint import FixedPointConfig
from .program import AvgPoolOp, ConvOp, LinearOp, MaxPoolOp, ReluOp, SecureProgram
from .protocols import SUFFIX_STEPS
from .transport import MAX_FRAME_BYTES

__all__ = [
    "Bundle",
    "MaterialRequest",
    "draw_bundle",
    "MaterialMismatch",
    "PoolExhausted",
    "RecordingDealer",
    "ReplayDealer",
    "PoolStats",
    "PreprocessingPool",
    "material_plan",
    "fuse_bundles",
    "split_bundle",
    "join_party_bundle",
    "party_bundle_segments",
    "pack_party_bundle",
    "unpack_party_bundle",
]


@dataclass(frozen=True)
class MaterialRequest:
    """One dealer request in a program's (deterministic) consumption order."""

    method: str  # beaver_triples | bit_triples | dabits | comparison_masks | linear_correlation
    shape: tuple[int, ...]
    ring_fn: Callable[[np.ndarray], np.ndarray] | None = None

    def draw(self, dealer):
        """Generate this request's material from ``dealer``."""
        if self.method == "linear_correlation":
            return dealer.linear_correlation(self.shape, self.ring_fn)
        return getattr(dealer, self.method)(self.shape)


class Bundle(list):
    """One bundle's ``(request, material)`` pairs, in consumption order.

    ``seed``: the 32 bytes the dealer opened it with, all of party 0's
    half that travels; party 1's rows, and a fused batch, carry none."""

    def __init__(self, items=(), seed: bytes | None = None):
        super().__init__(items)
        self.seed = seed


def draw_bundle(dealer: TrustedDealer, trace: list[MaterialRequest]) -> Bundle:
    """The dealer's next bundle: open it, then draw ``trace`` in order."""
    seed = dealer.begin_bundle()
    return Bundle(((request, request.draw(dealer)) for request in trace), seed)


class MaterialMismatch(RuntimeError):
    """A replayed bundle was asked for material it does not hold next."""


class PoolExhausted(RuntimeError):
    """``acquire()`` on an empty pool with automatic refill disabled."""


class _DealerFace:
    """The dealer methods the protocols call, over one ``_material`` hook."""

    def beaver_triples(self, shape):
        return self._material("beaver_triples", shape)

    def bit_triples(self, shape):
        return self._material("bit_triples", shape)

    def dabits(self, shape):
        return self._material("dabits", shape)

    def comparison_masks(self, shape):
        return self._material("comparison_masks", shape)

    def linear_correlation(self, input_shape, ring_fn):
        return self._material("linear_correlation", input_shape, ring_fn)


class RecordingDealer(_DealerFace):
    """Wraps a real dealer; keeps every (request, material) pair, in order."""

    def __init__(self, base: TrustedDealer):
        self.base = base
        self.items = Bundle()

    @property
    def trace(self) -> list[MaterialRequest]:
        """The requests alone, in order."""
        return [request for request, _ in self.items]

    def take(self) -> Bundle:
        """Hand over (and forget) everything recorded so far: one bundle."""
        items, self.items = self.items, Bundle()
        return items

    def _material(self, method: str, shape, ring_fn=None):
        if not self.items:  # the first request of a bundle opens it
            self.items.seed = self.base.begin_bundle()
        request = MaterialRequest(method, tuple(shape), ring_fn=ring_fn)
        material = request.draw(self.base)
        self.items.append((request, material))
        return material


class ReplayDealer(_DealerFace):
    """Serves one pre-generated bundle in consumption order.

    Duck-types the :class:`~repro.mpc.dealer.TrustedDealer` interface the
    protocols call, but *generates nothing*: every method pops the next
    (request, material) pair and validates that the online protocol asked
    for exactly the method **and** shape the offline phase produced — on
    every placement, so a wrong-batch or wrong-program bundle is a
    :class:`MaterialMismatch` at its first item on both parties, never a
    broadcasting error on one and a timeout on the other.
    """

    def __init__(self, items: list[tuple[MaterialRequest, object]]):
        self._items = deque(items)
        self.consumed = 0

    @property
    def remaining(self) -> int:
        return len(self._items)

    def _material(self, method: str, shape, ring_fn=None):
        shape = tuple(shape)
        if not self._items:
            raise MaterialMismatch(
                f"bundle exhausted: online phase requested {method}{shape} "
                "but no material is left"
            )
        request, material = self._items.popleft()
        # shape None: a lone server half of a linear correlation (its
        # only array has the *output* shape) — see unpack_party_bundle.
        if request.method != method or request.shape not in (shape, None):
            raise MaterialMismatch(
                f"online phase requested {method}{shape} but the bundle holds "
                f"{request.method}{request.shape} — program/batch mismatch"
            )
        self.consumed += 1
        return material


def _relu_requests(shape: tuple[int, ...], out: list[MaterialRequest]) -> None:
    """The dealer requests one ``secure_relu`` over ``shape`` consumes.

    As :func:`repro.mpc.protocols.secure_relu` draws them: one comparison
    mask, the bitsliced 63-lane suffix-AND circuit (6 doubling rounds + the
    final strict AND, each one batched ``bit_triples`` call over one
    packed ``uint64`` word per element), one daBit batch for B2A and one
    Beaver triple batch for the multiplexing multiply.
    """
    out.append(MaterialRequest("comparison_masks", shape))
    for _ in SUFFIX_STEPS:  # suffix-AND by doubling
        out.append(MaterialRequest("bit_triples", shape))
    out.append(MaterialRequest("bit_triples", shape))  # strict AND
    out.append(MaterialRequest("dabits", shape))
    out.append(MaterialRequest("beaver_triples", shape))


def material_plan(program: SecureProgram, batch: int) -> list[MaterialRequest]:
    """The dealer requests one execution of ``program`` consumes, in order.

    Derived from the op shapes alone — the protocols are data-oblivious,
    so no secure execution is needed. The plan mirrors the engine's
    dealer-suite op handlers; ``tests/mpc/test_preprocessing.py`` pins it
    against a :class:`RecordingDealer` trace of a real run, so drift
    between plan and protocols fails loudly.
    """
    plan: list[MaterialRequest] = []
    for op in program.ops:
        if isinstance(op, (ConvOp, LinearOp)):
            plan.append(
                MaterialRequest(
                    "linear_correlation", (batch, *op.in_shape), ring_fn=op.ring_fn()
                )
            )
        elif isinstance(op, ReluOp):
            # DealerSuite.relu flattens before calling secure_relu.
            _relu_requests((batch * int(np.prod(op.in_shape)),), plan)
        elif isinstance(op, MaxPoolOp):
            # The engine's k*k tournament: each level merges `half` pairs
            # with one batched secure_maximum (a ReLU on the differences).
            c = op.in_shape[0]
            windows = int(np.prod(op.out_shape[1:]))
            candidates = op.kernel_size**2
            while candidates > 1:
                half = candidates // 2
                _relu_requests((half, batch * c, windows), plan)
                candidates -= half
        elif isinstance(op, AvgPoolOp):
            pass  # local sums + public-constant multiply: no material
    return plan


@dataclass
class PoolStats:
    """Counters a pool keeps about its offline work.

    ``bundles_consumed`` counts *acquisitions*; the fault-tolerant
    serving layer resolves each acquisition as served, returned
    (``restore()``: the request failed before any material left the
    server, so the intact bundle went back to the front of the deque) or
    poisoned (``poison()``: material partially revealed to a vanished
    client — never resold). The balance invariant the chaos suite pins:
    ``consumed - returned - poisoned == requests actually served``.
    """

    bundles_generated: int = 0
    bundles_consumed: int = 0
    bundles_returned: int = 0  # restored intact after a pre-ship failure
    bundles_poisoned: int = 0  # half-consumed by a failed request, discarded
    refills: int = 0
    misses: int = 0  # acquire() found the pool empty
    offline_seconds: float = 0.0
    material_items: int = 0
    # Crypto-producer offload (zero for purely local pools): bundles that
    # arrived from a remote dealer process, dealer RPC attempts that had
    # to be retried, and bundles generated inline because the dealer was
    # unreachable past its deadline (the graceful-degradation path).
    bundles_fetched_remote: int = 0
    dealer_rpc_retries: int = 0
    dealer_fallbacks: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


class PreprocessingPool:
    """Per-(program, batch) pool of ready-to-serve preprocessing bundles.

    Parameters
    ----------
    program:
        The compiled crypto segment the material is for.
    batch:
        Batch size of the online executions this pool feeds (the request
        shapes include the batch dimension, so one pool serves exactly one
        batch size).
    dealer_seed:
        Seed of the generating dealer. Match the engine's ``dealer_seed``
        to reproduce the inline (single-shot) results byte for byte.
    auto_refill:
        When True (default), ``acquire()`` on an empty pool synchronously
        generates one bundle (recorded as a *miss*); when False it raises
        :class:`PoolExhausted` — the strict mode the exhaustion tests use.
    """

    def __init__(
        self,
        program: SecureProgram,
        batch: int,
        dealer_seed: int = 0,
        auto_refill: bool = True,
    ):
        if batch < 1:
            raise ValueError("batch must be positive")
        self.program = program
        self.batch = batch
        self.auto_refill = auto_refill
        self.stats = PoolStats()
        self._dealer = TrustedDealer(seed=dealer_seed)
        self._bundles: deque[list[tuple[MaterialRequest, object]]] = deque()
        self._trace: list[MaterialRequest] | None = None
        self._lock = threading.RLock()
        # Dealer generation runs under its own lock so the rng stream
        # stays strictly ordered (determinism) *without* holding the pool
        # lock for the whole generation: `available` and `acquire()` of an
        # already-generated bundle must complete while a slow refill is in
        # flight. Only the deque/stats mutations take the pool lock.
        self._generation_lock = threading.Lock()
        # Bundles scheduled by refill_async but not yet generated. Tracked
        # under the lock so concurrent acquirers can tell "a refill is on
        # its way" from "the pool is genuinely dry" without racing on a
        # thread handle (the seed kept only the *latest* thread and
        # checked is_alive() outside the lock, so two consumers could
        # join a stale thread and both fall through to miss-generation).
        self._pending_refills = 0
        self._refill_done = threading.Condition(self._lock)
        # A generation failure inside a background refill thread must not
        # evaporate with the daemon thread while acquirers keep waiting
        # for material that will never arrive: the worker parks it here
        # and the next acquire()/refill() re-raises it to a caller that
        # can actually handle (or report) it.
        self._refill_error: BaseException | None = None

    # ------------------------------------------------------------------
    @property
    def available(self) -> int:
        """Bundles ready to serve right now."""
        with self._lock:
            return len(self._bundles)

    def requirements(self) -> list[MaterialRequest]:
        """The program's material needs at this batch size, in order.

        Computed from the op shapes by :func:`material_plan` — no secure
        execution involved, so deriving a cold pool's plan is cheap even
        on the serving request path.
        """
        with self._lock:
            if self._trace is None:
                self._trace = material_plan(self.program, self.batch)
            return list(self._trace)

    # ------------------------------------------------------------------
    def _generate(self, trace: list[MaterialRequest]) -> Bundle:
        """One bundle's dealer generation. Callers hold ``_generation_lock``."""
        return draw_bundle(self._dealer, trace)

    def refill(self, bundles: int = 1) -> None:
        """Generate ``bundles`` fresh bundles (the offline phase).

        The expensive dealer generation happens under a dedicated
        generation lock — serialising concurrent refills keeps the rng
        stream deterministic — while the pool lock is only taken to
        publish each finished bundle, so concurrent ``acquire()`` of
        already-generated bundles (and ``available``) never block behind
        a refill in progress.
        """
        self._raise_deferred_failure()
        trace = self.requirements()
        for _ in range(bundles):
            with self._generation_lock:
                start = time.perf_counter()
                bundle = self._generate(trace)
                elapsed = time.perf_counter() - start
            with self._lock:
                self._bundles.append(bundle)
                self.stats.bundles_generated += 1
                self.stats.material_items += len(bundle)
                self.stats.offline_seconds += elapsed
                self._refill_done.notify_all()
        with self._lock:
            self.stats.refills += 1

    def refill_async(self, bundles: int = 1) -> threading.Thread:
        """Refill in a background thread (daemon); returns the thread.

        The scheduled bundle count is registered under the lock *before*
        the thread starts, so an ``acquire()`` that races the generator
        waits for it instead of double-generating miss bundles.
        """
        with self._lock:
            self._pending_refills += bundles

        def work() -> None:
            try:
                self.refill(bundles)
            except BaseException as exc:  # noqa: BLE001 - deferred, not dropped
                # The daemon thread is the wrong place for this failure to
                # die: record it so the next acquire()/refill() raises it
                # where a caller is actually listening.
                with self._lock:
                    self._refill_error = exc
            finally:
                with self._lock:
                    self._pending_refills -= bundles
                    self._refill_done.notify_all()

        thread = threading.Thread(
            target=work, name="c2pi-preprocessing", daemon=True
        )
        thread.start()
        return thread

    def _raise_deferred_failure(self) -> None:
        """Re-raise (once) a generation error parked by a background refill."""
        with self._lock:
            error, self._refill_error = self._refill_error, None
        if error is not None:
            raise RuntimeError(
                "background preprocessing refill failed; the pool recorded "
                "the error and is re-raising it on the next acquire/refill"
            ) from error

    def restore(self, bundle: list[tuple[MaterialRequest, object]]) -> None:
        """Return an acquired-but-unused bundle to the *front* of the pool.

        Only safe while no byte of the bundle has left the server: the
        fault-tolerant session teardown calls this when a request failed
        after ``acquire_bundle()`` but before its client half shipped.
        Front placement preserves the dealer-stream ordering that the
        per-session byte-identity guarantee rests on — the next request
        draws exactly the bundle the fault-free run would have drawn.
        """
        with self._lock:
            self._bundles.appendleft(bundle)
            self.stats.bundles_returned += 1
            self._refill_done.notify_all()

    def poison(self, count: int = 1) -> None:
        """Record ``count`` acquired bundles as spent-but-unserved.

        A bundle whose client half (even partially) reached a client that
        then vanished is cryptographically burnt: reselling it would
        correlate two executions. The serving layer discards the
        material and accounts it here so pool books still balance.
        """
        with self._lock:
            self.stats.bundles_poisoned += count

    def acquire(self) -> ReplayDealer:
        """Pop the oldest bundle as a :class:`ReplayDealer`.

        Waits for any pending background refill first if the pool is
        empty; failing that, either generates one bundle on the spot (a
        *miss*, when ``auto_refill``) or raises :class:`PoolExhausted`.
        """
        return ReplayDealer(self.acquire_bundle())

    def acquire_bundle(self) -> list[tuple[MaterialRequest, object]]:
        """Pop the oldest raw bundle (the two-process serving path splits
        it into per-party halves before shipping the client's half)."""
        while True:
            self._raise_deferred_failure()
            with self._lock:
                while not self._bundles and self._pending_refills:
                    self._refill_done.wait()
                if self._refill_error is not None:
                    continue  # woken by a failed refill: re-raise at loop top
                if self._bundles:
                    self.stats.bundles_consumed += 1
                    return self._bundles.popleft()
                self.stats.misses += 1
                if not self.auto_refill:
                    raise PoolExhausted(
                        f"preprocessing pool for batch={self.batch} is empty "
                        "(auto_refill disabled)"
                    )
            # Miss generation happens outside the pool lock too; a racing
            # consumer may pop the fresh bundle first, in which case the
            # loop simply generates another.
            self.refill(1)

    def acquire_ready(self) -> list[tuple[MaterialRequest, object]] | None:
        """Pop the oldest raw bundle if one is in the deque *now*, else ``None``.

        The ask of a caller that wants material only if it costs
        nothing: never generates inline, never waits on a pending
        background refill and — a :class:`DealerBackedPool` inherits this
        unchanged — never calls the dealer. A pop is an acquisition like
        any other (``bundles_consumed``, resolved by serve / ``restore``
        / ``poison``); coming away empty is not a miss, and a parked
        refill failure stays parked for a caller that asked for work.
        """
        with self._lock:
            if not self._bundles:
                return None
            self.stats.bundles_consumed += 1
            return self._bundles.popleft()


# ----------------------------------------------------------------------
# cross-session batch fusion
# ----------------------------------------------------------------------
_MATERIAL_TYPES = {
    "beaver_triples": BeaverTriple,
    "bit_triples": BitTriple,
    "dabits": DaBit,
    "comparison_masks": ComparisonMask,
    "linear_correlation": LinearCorrelation,
}


def fuse_bundles(
    bundles: list[list[tuple[MaterialRequest, object]]],
    plan: list[MaterialRequest],
) -> list[tuple[MaterialRequest, object]]:
    """Fuse ``k`` batch-1 bundles into one bundle matching a batch-``k`` plan.

    The protocols are data-oblivious and element-wise over the batch, so a
    fused execution touches row ``i``'s elements with exactly the material
    row ``i``'s own bundle holds — provided each item is concatenated
    along the axis its batch dimension lives on. That axis is read off the
    plan: it is the (single) axis where the batch-1 request shape differs
    from the batch-``k`` one (axis 0 for linear layers and flattened ReLU,
    axis 1 for the maxpool tournament's stacked pair material). Bit-packed
    words (:class:`~repro.mpc.dealer.BitTriple`, comparison low bits) pack
    per element, so concatenation preserves element order.

    Raises :class:`MaterialMismatch` when the bundles do not agree with
    each other or cannot tile the plan — a program/batch mixup, never a
    data-dependent condition.
    """
    if len(bundles) == 1:  # the bundle itself, seed and all
        return Bundle(bundles[0], getattr(bundles[0], "seed", None))
    for bundle in bundles:
        if len(bundle) != len(plan):
            raise MaterialMismatch(
                f"cannot fuse a bundle of {len(bundle)} items into a plan "
                f"of {len(plan)}"
            )
    fused: list[tuple[MaterialRequest, object]] = []
    for index, request in enumerate(plan):
        rows = [bundle[index] for bundle in bundles]
        base = rows[0][0]
        for row_request, _ in rows[1:]:
            if row_request.method != base.method or row_request.shape != base.shape:
                raise MaterialMismatch(
                    f"bundles disagree at item {index}: "
                    f"{row_request.method}{row_request.shape} vs "
                    f"{base.method}{base.shape}"
                )
        if base.method != request.method or len(base.shape) != len(request.shape):
            raise MaterialMismatch(
                f"cannot fuse {base.method}{base.shape} into "
                f"{request.method}{request.shape}"
            )
        differing = [
            axis
            for axis, (have, want) in enumerate(zip(base.shape, request.shape))
            if have != want
        ]
        if len(differing) != 1:
            raise MaterialMismatch(
                f"cannot fuse {base.method}{base.shape} into {request.shape}: "
                "expected exactly one batch axis to widen"
            )
        materials = [material for _, material in rows]
        kind = type(materials[0])
        if kind is not _MATERIAL_TYPES.get(base.method):
            raise MaterialMismatch(f"unknown dealer material: {materials[0]!r}")
        # Party-stacked fields carry the party axis in front of the
        # request's axes.
        axis = differing[0] + (kind is not LinearCorrelation)
        fused.append(
            (
                request,
                kind(
                    **{
                        f.name: np.concatenate(
                            [getattr(m, f.name) for m in materials], axis=axis
                        )
                        for f in fields(kind)
                    }
                ),
            )
        )
    return fused


# ----------------------------------------------------------------------
# one party's rows (the two-process split)
# ----------------------------------------------------------------------
# In the two-process deployment neither party may hold the other's halves
# of the correlated randomness: the dealer (co-located with the server's
# offline phase, like Delphi's preprocessing) takes each party's rows of
# every bundle and ships the client its rows as an opaque blob before the
# online phase. A party's bundle is the same list of (request, material)
# pairs with one-row fields, consumed by the same ReplayDealer.
def split_bundle(
    bundle: list[tuple[MaterialRequest, object]], party: int
) -> Bundle:
    """One party's rows of a whole preprocessing bundle — views, no copy.
    Party 0's keep the bundle's seed (all of them that travels)."""
    if party not in (0, 1):
        raise ValueError(f"party must be 0 or 1, got {party}")
    rows = Bundle(seed=getattr(bundle, "seed", None) if party == 0 else None)
    for request, material in bundle:
        if isinstance(material, LinearCorrelation):
            # Asymmetric: the client holds the input mask and its offline
            # output offset; the server holds only its random offset (it
            # evaluates the linear map itself, online).
            row = (
                LinearCorrelation(
                    mask=material.mask, client_offset=material.client_offset
                )
                if party == 0
                else LinearCorrelation(server_offset=material.server_offset)
            )
        elif type(material) in _MATERIAL_TYPES.values():
            row = type(material)(
                **{
                    f.name: getattr(material, f.name)[party : party + 1]
                    for f in fields(material)
                }
            )
        else:
            raise TypeError(f"unknown dealer material: {material!r}")
        rows.append((request, row))
    return rows


def join_party_bundle(
    items0: list[tuple[MaterialRequest, object]],
    items1: list[tuple[MaterialRequest, object]],
) -> list[tuple[MaterialRequest, object]]:
    """Inverse of :func:`split_bundle`: rebuild the joint bundle.

    The crypto-producer service ships a serving process both parties'
    rows of each bundle; restacking them yields a bundle indistinguishable
    from local :class:`TrustedDealer` generation (``ring_fn`` is not
    reconstructed — it is a generation-time input, never consumed on the
    replay path). The serving pool can therefore split/retain/restore the
    rejoined bundle exactly as it does a locally generated one.
    """
    if len(items0) != len(items1):
        raise MaterialMismatch(
            f"party bundles disagree in length: {len(items0)} vs {len(items1)}"
        )
    joined = Bundle(seed=getattr(items0, "seed", None))
    for (request, rows0), (other, rows1) in zip(items0, items1):
        if request.method != other.method:
            raise MaterialMismatch(
                f"party bundles disagree: {request.method} vs {other.method}"
            )
        if isinstance(rows0, LinearCorrelation):
            # Copies, like the restacked fields below: the halves may be
            # views of a receive buffer, which a pooled bundle must not pin.
            material = LinearCorrelation(
                mask=rows0.mask.copy(),
                client_offset=rows0.client_offset.copy(),
                server_offset=rows1.server_offset.copy(),
            )
        else:
            material = type(rows0)(
                **{
                    f.name: np.concatenate(
                        (getattr(rows0, f.name), getattr(rows1, f.name))
                    )
                    for f in fields(rows0)
                }
            )
        joined.append((MaterialRequest(request.method, request.shape), material))
    return joined


def _wire_arrays(material) -> dict[str, np.ndarray]:
    """The arrays of one party's row view as they travel: no party axis."""
    held = {f.name: getattr(material, f.name) for f in fields(material)}
    if isinstance(material, LinearCorrelation):
        held = {key: array for key, array in held.items() if array is not None}
        joint = len(held) == 3
    else:
        joint = any(len(array) != 1 for array in held.values())
        held = {key: array[0] for key, array in held.items()}
    if joint:
        # Packing both parties' rows would hand one party the other's
        # halves of the correlated randomness.
        raise ValueError(
            "pack_party_bundle takes one party's rows (split_bundle), not a "
            "joint bundle"
        )
    return held


# ----------------------------------------------------------------------
# the container one party's rows are stored and shipped in
# ----------------------------------------------------------------------
#     <4sIQ     magic | version | manifest length m
#     m bytes   JSON manifest, space-padded so what follows starts 8-aligned
#     bodies    raw little-endian C-order array bytes, each 8-aligned
#        or     the bundle's 32-byte seed, when the rows are party 0's
#
# The manifest is ``{"items": [{"method", "arrays": [[key, dtype code,
# shape, offset], ...]}, ...], "bytes": total body length}``; offsets
# count from the first body byte and every array starts where the one
# before it ended (8-aligned). Party 0's rows are the bundle's client
# stream laid out exactly so: their container says ``"seed": 32`` and
# carries the seed where the bodies would be. Nothing in either form
# depends on when or where it was written, so the same material always
# packs to the same bytes.
_CONTAINER = struct.Struct("<4sIQ")
_CONTAINER_MAGIC = b"C2PB"
_CONTAINER_VERSION = 2
_ALIGN = 8
_WIRE_DTYPES = {code: np.dtype(code) for code in ("<u8", "|u1")}


def party_bundle_segments(items: list[tuple[MaterialRequest, object]]) -> list:
    """One party's bundle in container form, as the buffers that make it up.

    The first segment is the header and manifest; the rest are views of
    the material's own arrays (plus alignment padding), so a carrier that
    scatters segments (a framed socket, a file) never copies the bodies —
    or, for party 0's rows (``items.seed``), the seed alone.
    """
    entries, bodies, offset = [], [], 0
    for request, material in items:
        arrays = []
        for key, array in _wire_arrays(material).items():
            code = array.dtype.newbyteorder("<").str
            if code not in _WIRE_DTYPES:
                raise TypeError(
                    f"dealer material of dtype {array.dtype} has no container code"
                )
            arrays.append([key, code, list(array.shape), offset])
            if array.size:
                body = np.ascontiguousarray(array, dtype=_WIRE_DTYPES[code])
                bodies.append(memoryview(body).cast("B"))
                offset += body.nbytes
                pad = -offset % _ALIGN
                if pad:
                    bodies.append(bytes(pad))
                    offset += pad
        entries.append({"method": request.method, "arrays": arrays})
    manifest = {"items": entries, "bytes": offset}
    seed = getattr(items, "seed", None)
    if seed is not None:  # party 0's rows: the same manifest over their seed
        manifest["seed"], bodies = len(seed), [seed]
    manifest = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
    manifest += b" " * (-(_CONTAINER.size + len(manifest)) % _ALIGN)
    head = _CONTAINER.pack(_CONTAINER_MAGIC, _CONTAINER_VERSION, len(manifest))
    return [head + manifest, *bodies]


def pack_party_bundle(items: list[tuple[MaterialRequest, object]]) -> bytes:
    """Serialise one party's bundle: the container above, as one string."""
    return b"".join(party_bundle_segments(items))


def _malformed(why: str) -> MaterialMismatch:
    return MaterialMismatch(f"malformed party bundle: {why}")


def _array_spec(spec, offset: int, extent: int) -> tuple[str, np.dtype, list, int]:
    """One manifest entry as ``(key, dtype, shape, byte size)``: it must start
    at ``offset``, where the one before it ended, and end inside ``extent``."""
    if not (isinstance(spec, list) and len(spec) == 4):
        raise _malformed("an array entry is not [key, dtype, shape, offset]")
    key, code, shape, declared = spec
    if not isinstance(key, str):
        raise _malformed("an array key is not a string")
    dtype = _WIRE_DTYPES.get(code) if isinstance(code, str) else None
    if dtype is None:
        raise _malformed(f"array {key!r} has unknown dtype code {code!r}")
    if not isinstance(shape, list) or len(shape) > 32 or not all(
        type(dim) is int and 0 <= dim <= extent for dim in shape
    ):
        raise _malformed(f"array {key!r} declares an impossible shape")
    if type(declared) is not int or declared != offset:
        raise _malformed(f"array {key!r} declares a bad offset")
    size = math.prod(shape) * dtype.itemsize
    if offset + size > extent:
        raise _malformed(f"array {key!r} overruns the container")
    return key, dtype, shape, size


def unpack_party_bundle(data) -> Bundle:
    """Inverse of :func:`pack_party_bundle`.

    ``data`` is any bytes-like object; the arrays handed back are
    **read-only views** of its bodies — nothing is copied. Party 0's
    container holds a seed instead: its bodies are one draw of the seed's
    stream, masked field by field (:data:`~repro.mpc.dealer.CLIENT_MASKS`),
    made once the whole manifest has been checked and no larger than a
    frame. Anything that is not a well-formed container is a
    :class:`MaterialMismatch`.

    The request shapes are read back off the arrays. A server half of a
    linear correlation carries only its output-shaped offset, so its
    request shape is ``None`` (unknown; :class:`ReplayDealer` then checks
    the method alone) — a serving process never runs from a lone server
    half, it holds the joint bundle.
    """
    view = memoryview(data).toreadonly().cast("B")
    if view.nbytes < _CONTAINER.size:
        raise _malformed("shorter than its header")
    magic, version, manifest_len = _CONTAINER.unpack_from(view)
    if magic != _CONTAINER_MAGIC:
        raise MaterialMismatch(f"bad magic {magic!r}: not a party bundle")
    if version != _CONTAINER_VERSION:
        raise MaterialMismatch(f"unknown party bundle version {version}")
    start = _CONTAINER.size + manifest_len
    if start > view.nbytes:
        raise _malformed("the manifest overruns the container")
    try:
        manifest = json.loads(str(view[_CONTAINER.size : start], "utf-8"))
    except (ValueError, RecursionError) as exc:
        raise _malformed("the manifest is not JSON") from exc
    body = view[start:]
    entries = manifest.get("items") if isinstance(manifest, dict) else None
    extent = manifest.get("bytes") if entries is not None else None
    if not isinstance(entries, list) or type(extent) is not int:
        raise _malformed("the manifest does not describe these bytes")
    seeded = "seed" in manifest
    if seeded:
        if manifest["seed"] != SEED_BYTES or body.nbytes != SEED_BYTES:
            raise _malformed(f"a seeded half ends in its {SEED_BYTES}-byte seed")
        if not 0 <= extent <= MAX_FRAME_BYTES:
            raise _malformed("the seed is asked for more than a frame of rows")
    elif extent != body.nbytes:
        raise _malformed("the manifest does not describe these bytes")
    layout, offset = [], 0
    for entry in entries:
        specs = entry.get("arrays") if isinstance(entry, dict) else None
        if not isinstance(specs, list):
            raise _malformed("an item lists no arrays")
        method = entry.get("method")
        kind = _MATERIAL_TYPES.get(method) if isinstance(method, str) else None
        if kind is None:
            raise MaterialMismatch(f"unknown material method {method!r}")
        arrays = []
        for spec in specs:
            key, dtype, shape, size = _array_spec(spec, offset, extent)
            arrays.append((key, dtype, shape, offset))
            offset += size + -size % _ALIGN
        keys = [key for key, *_ in arrays]
        if kind is LinearCorrelation:
            whole = keys == (["mask", "client_offset"] if seeded else ["server_offset"])
        else:
            whole = keys == [f.name for f in fields(kind)] and all(
                shape == arrays[0][2] for _, _, shape, _ in arrays
            )
        if seeded and whole:  # each field in the dtype it is drawn in
            whole = all(
                dtype == CLIENT_MASKS[method][key].dtype for key, dtype, _, _ in arrays
            )
        if not whole:
            raise _malformed(f"{method} does not hold one party's fields")
        layout.append((method, kind, arrays))
    if offset != extent:
        raise _malformed("the manifest does not describe these bytes")
    items = Bundle(seed=bytes(body) if seeded else None)
    if seeded:
        words = FixedPointConfig.random_ring(client_stream(items.seed), extent // _ALIGN)
        body = memoryview(words.astype("<u8", copy=False)).cast("B")
    for method, kind, arrays in layout:
        held = {
            key: np.frombuffer(body, dtype, math.prod(shape), at).reshape(shape)
            for key, dtype, shape, at in arrays
        }
        if seeded:
            for key, array in held.items():
                array &= CLIENT_MASKS[method][key]
                array.flags.writeable = False  # material is, however it came
        shape = None if "server_offset" in held else next(iter(held.values())).shape
        if kind is not LinearCorrelation:
            held = {key: array[None] for key, array in held.items()}
        items.append((MaterialRequest(method, shape), kind(**held)))
    return items
