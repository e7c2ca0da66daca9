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
  :class:`~repro.mpc.dealer.ComparisonMask` / triple material, on the
  caller's thread.
* :class:`ReplayDealer` serves one bundle back in consumption order —
  the one material consumer of both placements: a whole bundle for the
  in-process engine, one party's row view (:func:`split_bundle`, or a
  blob through :func:`unpack_party_bundle`) for a party over a
  transport. The online phase then performs zero dealer generation.

Determinism: a pool's dealer is seeded with
:func:`~repro.mpc.dealer.stream_seed` of its seed and batch size, so one
``(seed, batch)`` names one material stream wherever it is dealt — a
local pool, a dealer-service stream, a cold miss or a warm refill — and
two batch sizes under one seed never deal the same material.
"""

from __future__ import annotations

import json
import math
import struct
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, fields
from functools import cached_property
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
    stream_seed,
)
from .fixedpoint import FixedPointConfig
from .program import AvgPoolOp, ConvOp, LinearOp, MaxPoolOp, ReluOp, SecureProgram
from .protocols import RELU_MATERIAL
from .transport import MAX_FRAME_BYTES

__all__ = [
    "Bundle",
    "MaterialRequest",
    "draw_bundle",
    "MaterialMismatch",
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
        """Generate this request's material from ``dealer``, read-only.

        Material is replayed on a retry, so nothing may write it: every
        array is frozen here (a flags flip, not a copy), as fused bundles
        and unpacked halves are, and an in-place write raises instead of
        corrupting the replay.
        """
        if self.method == "linear_correlation":
            material = dealer.linear_correlation(self.shape, self.ring_fn)
        else:
            material = getattr(dealer, self.method)(self.shape)
        for field in fields(material):
            array = getattr(material, field.name)
            if array is not None:
                array.flags.writeable = False
        return material


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
    every placement and either party's half (each names every request's
    shape), so a wrong-batch or wrong-program bundle is a
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
        if request.method != method or request.shape != shape:
            raise MaterialMismatch(
                f"online phase requested {method}{shape} but the bundle holds "
                f"{request.method}{request.shape} — program/batch mismatch"
            )
        self.consumed += 1
        return material


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
            shape = (batch * int(np.prod(op.in_shape)),)
            plan.extend(MaterialRequest(method, shape) for method in RELU_MATERIAL)
        elif isinstance(op, MaxPoolOp):
            # The engine's k*k tournament: each level merges `half` pairs
            # with one batched secure_maximum (a ReLU on the differences).
            c = op.in_shape[0]
            windows = int(np.prod(op.out_shape[1:]))
            candidates = op.kernel_size**2
            while candidates > 1:
                half = candidates // 2
                shape = (half, batch * c, windows)
                plan.extend(MaterialRequest(method, shape) for method in RELU_MATERIAL)
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
    # arrived from a remote dealer process, and dealer RPC attempts that
    # had to be retried.
    bundles_fetched_remote: int = 0
    dealer_rpc_retries: int = 0

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
        The seed (a session's, see
        :func:`~repro.core.c2pi.derive_session_seed`) whose batch-``batch``
        stream this pool deals: its dealer is seeded with
        :func:`~repro.mpc.dealer.stream_seed` ``(dealer_seed, batch)``.
    """

    def __init__(self, program: SecureProgram, batch: int, dealer_seed: int = 0):
        if batch < 1:
            raise ValueError("batch must be positive")
        self.program = program
        self.batch = batch
        self.dealer_seed = dealer_seed
        self.stats = PoolStats()
        self._bundles: deque[list[tuple[MaterialRequest, object]]] = deque()
        self._trace: list[MaterialRequest] | None = None
        self._lock = threading.Lock()
        # Dealer generation runs under its own lock so the rng stream
        # stays strictly ordered (determinism) *without* holding the pool
        # lock for the whole generation: `available` and `acquire()` of an
        # already-generated bundle must complete while a slow refill is in
        # flight — concurrent workers share the anonymous pools. Only the
        # deque/stats mutations take the pool lock.
        self._generation_lock = threading.Lock()

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
    @cached_property
    def _dealer(self) -> TrustedDealer:
        """The stream's dealer, built by the first draw (a
        :class:`~repro.serve.dealer_service.DealerBackedPool` never draws)."""
        return TrustedDealer(seed=stream_seed(self.dealer_seed, self.batch))

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
        with self._lock:
            self.stats.refills += 1

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
        """Pop the oldest bundle as a :class:`ReplayDealer`."""
        return ReplayDealer(self.acquire_bundle())

    def acquire_bundle(self) -> list[tuple[MaterialRequest, object]]:
        """Pop the oldest raw bundle, or — on an empty pool — generate one
        now, on the caller's thread (a *miss*). The two-process serving
        path splits it into per-party halves before shipping the
        client's half."""
        while True:
            with self._lock:
                if self._bundles:
                    self.stats.bundles_consumed += 1
                    return self._bundles.popleft()
                self.stats.misses += 1
            # Miss generation happens outside the pool lock too; a racing
            # consumer may pop the fresh bundle first, in which case the
            # loop simply generates another.
            self.refill(1)

    def acquire_ready(self) -> list[tuple[MaterialRequest, object]] | None:
        """Pop the oldest raw bundle if one is in the deque *now*, else ``None``.

        The ask of a caller that wants material only if it costs
        nothing: never generates inline, never waits on a refill in
        flight and — a :class:`DealerBackedPool` inherits this unchanged
        — never calls the dealer. A pop is an acquisition like any other
        (``bundles_consumed``, resolved by serve / ``restore`` /
        ``poison``); coming away empty is not a miss.
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
    into: Bundle | None = None,
) -> Bundle:
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

    ``into`` is the destination, returned: a bundle an earlier call fused
    for this plan is overwritten in place (no allocation, so no fresh pages
    to fault in), an empty one — or ``None`` — is filled with new arrays.
    The fused arrays are read-only except while being written.

    Raises :class:`MaterialMismatch` when the bundles do not agree with
    each other, cannot tile the plan, or ``into`` holds another plan's
    fusion — a program/batch mixup, never a data-dependent condition.
    Everything is checked before the first write, so a mismatch leaves
    ``into`` untouched.
    """
    if len(bundles) == 1:  # the bundle itself, seed and all
        return Bundle(bundles[0], getattr(bundles[0], "seed", None))
    into = Bundle() if into is None else into
    for bundle in (*bundles, *([into] if into else [])):
        if len(bundle) != len(plan):
            raise MaterialMismatch(
                f"cannot fuse a bundle of {len(bundle)} items into a plan "
                f"of {len(plan)}"
            )
    writes = []  # per plan item: what to write where, once all are checked
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
        parts = {f.name: [getattr(m, f.name) for m in materials] for f in fields(kind)}
        specs = {name: _fused_spec(arrays, axis) for name, arrays in parts.items()}
        if into:
            held_request, held = into[index]
            if held_request.shape != request.shape or type(held) is not kind or any(
                (getattr(held, name).shape, getattr(held, name).dtype) != spec
                for name, spec in specs.items()
            ):
                raise MaterialMismatch(
                    f"the destination holds {held_request.method}"
                    f"{held_request.shape} at item {index}, not {request.method}"
                    f"{request.shape}"
                )
        writes.append((request, kind, axis, parts, specs))
    if not into:
        into.extend(
            (request, kind(**{name: np.empty(*spec) for name, spec in specs.items()}))
            for request, kind, _, _, specs in writes
        )
    for (_, held), (_, _, axis, parts, _) in zip(into, writes):
        for name, arrays in parts.items():
            out = getattr(held, name)
            out.flags.writeable = True
            np.concatenate(arrays, axis=axis, out=out)
            out.flags.writeable = False
    return into


def _fused_spec(arrays: list[np.ndarray], axis: int) -> tuple[tuple, np.dtype]:
    """Shape and dtype of ``arrays`` concatenated along ``axis``."""
    shape = list(arrays[0].shape)
    shape[axis] = sum(array.shape[axis] for array in arrays)
    return tuple(shape), arrays[0].dtype


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


# ----------------------------------------------------------------------
# the container one party's rows are stored and shipped in
# ----------------------------------------------------------------------
#     <4sIQ     magic | version | manifest length m
#     m bytes   JSON manifest, space-padded so what follows starts 8-aligned
#     bodies    party 1: raw little-endian C-order field bytes, each 8-aligned
#        or     party 0: the bundle's 32-byte seed
#
# The manifest is ``{"party": p, "items": [[method, shape], ...]}``, a
# linear correlation's item ``[method, input shape, output shape]``: what
# the material plan cannot derive. Everything else comes from _FIELDS —
# which fields party ``p`` holds of each item, in order, their dtypes and
# shapes — so every field starts where the one before it ended (8-aligned)
# and the body length is the sum. Party 0's rows are the bundle's client
# stream laid out exactly so, and travel as its seed. Nothing in either
# form depends on when or where it was written, so the same material
# always packs to the same bytes.
_CONTAINER = struct.Struct("<4sIQ")
_CONTAINER_MAGIC = b"C2PB"
_CONTAINER_VERSION = 3
_ALIGN = 8
# Per method, every field either party holds, in container order, and its
# dtype: the client stream's (CLIENT_MASKS), plus the server's linear offset.
_FIELDS = {
    method: {key: np.dtype(mask.dtype).newbyteorder("<") for key, mask in masks.items()}
    for method, masks in CLIENT_MASKS.items()
}
_FIELDS["linear_correlation"]["server_offset"] = np.dtype("<u8")
_LINEAR_KEYS = (("mask", "client_offset"), ("server_offset",))  # by party
_OUTPUT_KEYS = ("client_offset", "server_offset")  # of a linear layer's output shape


def _layout(method: str, party: int, shape: tuple, out: tuple | None) -> list:
    """``(key, dtype, shape)`` of each field ``party`` holds of one item."""
    held = _FIELDS[method]
    keys = _LINEAR_KEYS[party] if method == "linear_correlation" else held
    return [(key, held[key], out if key in _OUTPUT_KEYS else shape) for key in keys]


def _body_segments(request: MaterialRequest, material, out) -> list:
    """Party 1's fields of one item as body segments: a view of each array,
    then its alignment padding."""
    if type(material) is not _MATERIAL_TYPES.get(request.method):
        raise TypeError(f"unknown dealer material: {material!r}")
    linear = isinstance(material, LinearCorrelation)
    held = [getattr(material, f.name) for f in fields(material)]
    layout = _layout(request.method, 1, request.shape, out)
    if sum(a is not None for a in held) != len(layout) or not linear and any(
        len(a) != 1 for a in held
    ):
        # Packing both parties' rows would hand one party the other's
        # halves of the correlated randomness; party 0's travel as a seed.
        raise ValueError(
            "pack_party_bundle takes one party's rows (split_bundle), party "
            "0's under their seed, not a joint bundle"
        )
    segments = []
    for key, dtype, shape in layout:
        array = getattr(material, key) if linear else getattr(material, key)[0]
        if (array.dtype, array.shape) != (dtype, shape):
            raise TypeError(
                f"{request.method} {key} is {array.dtype}{array.shape}, not "
                f"the {dtype}{shape} its request implies"
            )
        if array.size:
            segments.append(memoryview(np.ascontiguousarray(array)).cast("B"))
            if array.nbytes % _ALIGN:
                segments.append(bytes(-array.nbytes % _ALIGN))
    return segments


def party_bundle_segments(items: list[tuple[MaterialRequest, object]]) -> list:
    """One party's bundle in container form, as the buffers that make it up.

    A seeded bundle (``items.seed``: as drawn, or party 0's rows of it)
    is written as party 0's half, from its requests and seed alone —
    nothing of its arrays but a linear layer's output shape is read. Any
    other is party 1's rows: the first segment is the header and
    manifest, the rest views of the material's own arrays (plus alignment
    padding), so a carrier that scatters segments (a framed socket, a
    file) never copies the bodies.
    """
    seed = getattr(items, "seed", None)
    entries, bodies = [], []
    for request, material in items:
        entry, out = [request.method, list(request.shape)], None
        if request.method == "linear_correlation":  # off either offset it holds
            offset = material.client_offset
            out = (offset if offset is not None else material.server_offset).shape
            entry.append(list(out))
        entries.append(entry)
        if seed is None:
            bodies += _body_segments(request, material, out)
    manifest = {"party": 1 if seed is None else 0, "items": entries}
    manifest = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
    manifest += b" " * (-(_CONTAINER.size + len(manifest)) % _ALIGN)
    head = _CONTAINER.pack(_CONTAINER_MAGIC, _CONTAINER_VERSION, len(manifest))
    return [head + manifest, *(bodies if seed is None else [seed])]


def pack_party_bundle(items: list[tuple[MaterialRequest, object]]) -> bytes:
    """Serialise one party's bundle: the container above, as one string."""
    return b"".join(party_bundle_segments(items))


def _malformed(why: str) -> MaterialMismatch:
    return MaterialMismatch(f"malformed party bundle: {why}")


def _shape(dims) -> tuple[int, ...]:
    if not isinstance(dims, list) or len(dims) > 32 or not all(
        type(dim) is int and 0 <= dim <= MAX_FRAME_BYTES for dim in dims
    ):
        raise _malformed("an item declares an impossible shape")
    return tuple(dims)


def _item(entry) -> tuple[str, tuple, tuple | None]:
    """One manifest item as ``(method, request shape, output shape | None)``."""
    method = entry[0] if isinstance(entry, list) and entry else None
    if not isinstance(method, str) or method not in _FIELDS:
        raise MaterialMismatch(f"unknown material method {method!r}")
    linear = method == "linear_correlation"
    if len(entry) != 2 + linear:
        shapes = "input shape, output shape" if linear else "shape"
        raise _malformed(f"a {method} item is [method, {shapes}]")
    return method, _shape(entry[1]), _shape(entry[2]) if linear else None


def unpack_party_bundle(data) -> Bundle:
    """Inverse of :func:`pack_party_bundle`.

    ``data`` is any bytes-like object; party 1's arrays handed back are
    **read-only views** of its bodies — nothing is copied. Party 0's
    container holds a seed instead: its bodies are one draw of the seed's
    stream, masked field by field (:data:`~repro.mpc.dealer.CLIENT_MASKS`).
    The layout of either comes from the items' methods and shapes alone
    (``_FIELDS``), and is checked whole — every method known, every shape
    a list of at most 32 non-negative ints, a linear item's output shape
    present, a frame's worth of rows at most, party 1's bodies exactly as
    long as it implies, party 0's exactly its 32-byte seed — before a view
    is made or a word is drawn. Anything that is not a well-formed
    container is a :class:`MaterialMismatch`; so is a container of another
    version (``unknown party bundle version 2``).

    Each item comes back under its request, shape and all, so
    :class:`ReplayDealer` checks method and shape on either party's half.
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
    party = manifest.get("party") if isinstance(manifest, dict) else None
    entries = manifest.get("items") if type(party) is int else None
    if party not in (0, 1) or not isinstance(entries, list):
        raise _malformed("the manifest is not {party, items}")
    body = view[start:]
    if party == 0 and body.nbytes != SEED_BYTES:
        raise _malformed(f"a seeded half ends in its {SEED_BYTES}-byte seed")
    layout, offset = [], 0
    for entry in entries:
        method, shape, out = _item(entry)
        placed = []
        for key, dtype, dims in _layout(method, party, shape, out):
            size = math.prod(dims) * dtype.itemsize
            placed.append((key, dtype, dims, offset))
            offset += size + -size % _ALIGN
            if offset > MAX_FRAME_BYTES:
                raise _malformed("the items ask for more than a frame of rows")
        layout.append((method, shape, placed))
    if party == 1 and offset != body.nbytes:
        raise _malformed("the manifest does not describe these bytes")
    items = Bundle(seed=bytes(body) if party == 0 else None)
    if party == 0:
        words = FixedPointConfig.random_ring(client_stream(items.seed), offset // _ALIGN)
        body = memoryview(words.astype("<u8", copy=False)).cast("B")
    for method, shape, placed in layout:
        held = {
            key: np.frombuffer(body, dtype, math.prod(dims), at).reshape(dims)
            for key, dtype, dims, at in placed
        }
        if party == 0:
            for key, array in held.items():
                array &= CLIENT_MASKS[method][key]
                array.flags.writeable = False  # material is, however it came
        kind = _MATERIAL_TYPES[method]
        if kind is not LinearCorrelation:
            held = {key: array[None] for key, array in held.items()}
        items.append((MaterialRequest(method, shape), kind(**held)))
    return items
