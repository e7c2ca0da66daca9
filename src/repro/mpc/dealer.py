"""Trusted dealer producing correlated randomness for the 2PC protocols.

The dealer plays the role of the *preprocessing phase* of the PI protocols
the paper builds on: Delphi implements it with linearly homomorphic
encryption, Cheetah with lattice encodings and VOLE-style OT. Replacing
those cryptographic instantiations with a dealer preserves the online data
flow and the semi-honest privacy argument (each party's view remains
uniformly random and independent of the other party's input), while the
modelled preprocessing costs are charged by :mod:`repro.mpc.costs`.

One deliberate modelling choice, documented in DESIGN.md: for linear layers
the dealer evaluates the server's (integer-encoded) linear function on the
random mask — exactly the quantity Delphi's client obtains by sending an
encrypted mask to the server. The dealer therefore stands in for "client's
HE ciphertext + server's homomorphic evaluation", and learns the model
weights like the Delphi server does, but never sees the client's input.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fixedpoint import FixedPointConfig
from .sharing import (
    LOW63_MASK,
    random_bits,
    random_lanes,
    share_additive,
    share_boolean,
    share_boolean_words,
)

__all__ = [
    "BeaverTriple",
    "BitTriple",
    "DaBit",
    "ComparisonMask",
    "LinearCorrelation",
    "CLIENT_MASKS",
    "SEED_BYTES",
    "client_stream",
    "stream_seed",
    "TrustedDealer",
]

_random_ring = FixedPointConfig.random_ring


# Every shared field below is one ``(2, ...)`` array whose row ``p`` is
# party ``p``'s half (``field[0]`` / ``field[1]`` and ``f0, f1 = field``
# read as on a pair). The halves are stacked here, at generation time, so
# the online phase never assembles or splits them; a party that holds only
# its own half holds the same record with one-row ``(1, ...)`` fields.
@dataclass
class BeaverTriple:
    """Additive shares of (a, b, c) with c = a*b (mod 2^64)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


@dataclass
class BitTriple:
    """XOR shares of (a, b, c) with c = a AND b.

    Bitsliced: each array entry is a ``uint64`` word carrying the 63
    comparison-bit lanes of one ring element (lane 63 is zero), so one
    triple word covers a whole element's AND gates for one circuit round.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


@dataclass
class DaBit:
    """A random bit shared both ways: XOR shares and arithmetic shares."""

    boolean: np.ndarray
    arithmetic: np.ndarray


@dataclass
class ComparisonMask:
    """Correlated randomness for one masked-reveal DReLU invocation.

    ``r`` is a uniform ring mask, additively shared; its low 63 bits are
    also boolean-shared — packed one ``uint64`` word per element — so the
    parties can compare the public ``z = x + r`` against ``r`` inside
    GF(2), and ``msb`` carries XOR shares of r's top bit (byte-per-bit:
    it is a single bit per element).
    """

    r: np.ndarray
    low_bits: np.ndarray  # packed words
    msb: np.ndarray


@dataclass
class LinearCorrelation:
    """Delphi-style preprocessing for one linear layer.

    The client holds the input mask ``m`` and a uniform offset ``c``;
    the server receives the correction ``s = f(m) - c``. Online the
    client reveals ``x0 - m`` (uniform), the server evaluates ``f`` on
    ``(x0 - m) + x1`` and adds ``s``. Asymmetric, so not party-stacked:
    a party's own half leaves the other party's fields ``None``.
    """

    mask: np.ndarray | None = None
    client_offset: np.ndarray | None = None
    server_offset: np.ndarray | None = None


# Party 0's row of every field is a run of whole words off the bundle's
# client stream, in this order, masked to the lanes the field uses (and
# of the mask's dtype). The dealer draws them inside the splitters; the
# client redraws the whole run from the seed (``unpack_party_bundle``).
_RING, _BIT = np.uint64((1 << 64) - 1), np.uint8(1)
CLIENT_MASKS = {
    "beaver_triples": {"a": _RING, "b": _RING, "c": _RING},
    "bit_triples": {"a": LOW63_MASK, "b": LOW63_MASK, "c": LOW63_MASK},
    "dabits": {"boolean": _BIT, "arithmetic": _RING},
    "comparison_masks": {"r": _RING, "low_bits": LOW63_MASK, "msb": _BIT},
    "linear_correlation": {"mask": _RING, "client_offset": _RING},
}
SEED_BYTES = 32


def client_stream(seed: bytes) -> np.random.Generator:
    """The generator a bundle's party-0 rows are drawn from."""
    return np.random.default_rng(int.from_bytes(seed, "little"))


def stream_seed(seed: int, batch: int) -> int:
    """The dealer seed of ``seed``'s stream of batch-``batch`` bundles.

    Every pool and dealer-service stream is seeded here, so two batch
    sizes never deal one stream (image 0 of a batch-2 bundle would carry
    the batch-1 bundle's masks). Batch 1 keeps ``seed``; a wider batch
    hashes ``(seed, batch)`` under a prefix of its own.
    """
    if batch == 1:
        return seed
    digest = hashlib.blake2b(
        f"c2pi-stream:{seed}:{batch}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


class TrustedDealer:
    """Generates all correlated randomness from one seeded generator.

    Two streams. The *secret* stream (the seeded generator) draws what
    neither party may learn alone. Each bundle opens (:meth:`begin_bundle`;
    a new dealer has one open) by taking 32 bytes off it that seed the
    bundle's *client stream*, from which every party-0 row is drawn and
    nothing else: the client's half of a bundle is that seed, and the
    secret stream's position — session, batch, sequence, rewind — fixes
    it.
    """

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)
        self.begin_bundle()

    # ------------------------------------------------------------------
    def state(self) -> dict:
        """The secret stream's position, as a JSON-able dict.

        Taken at a bundle boundary it pins every bundle after it, seed
        included. The crypto-producer service persists it next to each
        spilled bundle: a restarted dealer restores the last stored state
        and continues the stream byte-identically.
        """
        return self._rng.bit_generator.state

    def restore_state(self, state: dict) -> None:
        """Rewind/fast-forward to a :meth:`state` snapshot (a bundle boundary)."""
        self._rng.bit_generator.state = state

    def begin_bundle(self) -> bytes:
        """Open the next bundle; returns the seed of its client stream."""
        seed = _random_ring(self._rng, SEED_BYTES // 8).astype("<u8").tobytes()
        self._client = client_stream(seed)
        return seed

    # ------------------------------------------------------------------
    def beaver_triples(self, shape) -> BeaverTriple:
        """Elementwise multiplication triples over Z_2^64."""
        a = _random_ring(self._rng, shape)
        b = _random_ring(self._rng, shape)
        return BeaverTriple(*(share_additive(x, self._client) for x in (a, b, a * b)))

    def bit_triples(self, shape) -> BitTriple:
        """Bitsliced AND-gate triples over GF(2).

        ``shape`` is the *element* shape: each element receives one
        ``uint64`` triple word whose low 63 lanes are independent AND
        triples (lane 63 is zero on every share).
        """
        a = random_lanes(self._rng, shape)
        b = random_lanes(self._rng, shape)
        return BitTriple(
            *(share_boolean_words(x, self._client) for x in (a, b, a & b))
        )

    def dabits(self, shape) -> DaBit:
        """Random bits shared in both GF(2) and Z_2^64 (for B2A)."""
        bits = random_bits(self._rng, shape)
        return DaBit(
            boolean=share_boolean(bits, self._client),
            arithmetic=share_additive(bits.astype(np.uint64), self._client),
        )

    def comparison_masks(self, shape) -> ComparisonMask:
        """Masks for the masked-reveal DReLU protocol (packed low bits)."""
        r = _random_ring(self._rng, shape)
        msb = (r >> np.uint64(63)).astype(np.uint8)
        return ComparisonMask(
            r=share_additive(r, self._client),
            low_bits=share_boolean_words(r & LOW63_MASK, self._client),
            msb=share_boolean(msb, self._client),
        )

    def linear_correlation(
        self,
        input_shape: tuple[int, ...],
        ring_linear_fn: Callable[[np.ndarray], np.ndarray],
    ) -> LinearCorrelation:
        """Preprocessing for a server-known linear layer.

        ``ring_linear_fn`` is the layer's integer linear map over Z_2^64
        (convolution or matmul with encoded weights, **without** bias —
        masks must pass through the homogeneous part only). Both client
        fields are free draws; the server's offset is the correction.
        """
        mask = _random_ring(self._client, input_shape)
        f_mask = ring_linear_fn(mask).astype(np.uint64)
        client_offset = _random_ring(self._client, f_mask.shape)
        return LinearCorrelation(
            mask=mask,
            client_offset=client_offset,
            server_offset=f_mask - client_offset,
        )
