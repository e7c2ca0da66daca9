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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fixedpoint import FixedPointConfig
from .sharing import (
    COMPARISON_BITS,
    bit_decompose,
    random_bits,
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
    "TrustedDealer",
]


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

    The client receives the input mask ``m`` and its offline share
    ``f(m) - s``; the server receives ``s``. Online the client reveals
    ``x0 - m`` (uniform), the server evaluates ``f`` on
    ``(x0 - m) + x1`` and adds ``s``. Asymmetric, so not party-stacked:
    a party's own half leaves the other party's fields ``None``.
    """

    mask: np.ndarray | None = None
    client_offset: np.ndarray | None = None
    server_offset: np.ndarray | None = None


class TrustedDealer:
    """Generates all correlated randomness from one seeded generator."""

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)
        self.triples_issued = 0
        self.bit_triples_issued = 0
        self.dabits_issued = 0
        self.comparison_masks_issued = 0

    # ------------------------------------------------------------------
    def state(self) -> dict:
        """The generator's position in its stream, as a JSON-able dict.

        The dealer's entire output is a pure function of (seed, number of
        draws), so this state pins "everything generated so far". The
        crypto-producer service persists it next to each spilled bundle:
        a restarted dealer restores the last stored state and continues
        the stream byte-identically without regenerating the prefix, and
        a serving process falling back to inline generation fast-forwards
        its local dealer to the same position.
        """
        return self._rng.bit_generator.state

    def restore_state(self, state: dict) -> None:
        """Rewind/fast-forward the generator to a :meth:`state` snapshot."""
        self._rng.bit_generator.state = state

    # ------------------------------------------------------------------
    def beaver_triples(self, shape) -> BeaverTriple:
        """Elementwise multiplication triples over Z_2^64."""
        rng = self._rng
        a = FixedPointConfig.random_ring(rng, shape)
        b = FixedPointConfig.random_ring(rng, shape)
        c = (a * b).astype(np.uint64)
        self.triples_issued += int(np.prod(shape))
        return BeaverTriple(
            a=share_additive(a, rng), b=share_additive(b, rng), c=share_additive(c, rng)
        )

    def bit_triples(self, shape) -> BitTriple:
        """Bitsliced AND-gate triples over GF(2).

        ``shape`` is the *element* shape: each element receives one
        ``uint64`` triple word whose low 63 lanes are independent AND
        triples (lane 63 is zero). The underlying randomness is drawn
        bit-plane-wise — exactly the draws the byte-per-bit seed
        implementation made for ``(*shape, 63)`` — so the dealer's rng
        stream (and with it every downstream arithmetic draw) is
        unchanged by the packing. ``bit_triples_issued`` keeps counting
        AND *gates* (63 per word), the unit the serving metrics have
        always reported.
        """
        rng = self._rng
        bit_shape = (*tuple(shape), COMPARISON_BITS)
        a = random_bits(rng, bit_shape)
        b = random_bits(rng, bit_shape)
        c = a & b
        self.bit_triples_issued += int(np.prod(shape)) * COMPARISON_BITS
        return BitTriple(
            a=share_boolean_words(a, rng),
            b=share_boolean_words(b, rng),
            c=share_boolean_words(c, rng),
        )

    def dabits(self, shape) -> DaBit:
        """Random bits shared in both GF(2) and Z_2^64 (for B2A)."""
        rng = self._rng
        bits = random_bits(rng, shape)
        self.dabits_issued += int(np.prod(shape))
        return DaBit(
            boolean=share_boolean(bits, rng),
            arithmetic=share_additive(bits.astype(np.uint64), rng),
        )

    def comparison_masks(self, shape) -> ComparisonMask:
        """Masks for the masked-reveal DReLU protocol (packed low bits)."""
        rng = self._rng
        r = FixedPointConfig.random_ring(rng, shape)
        low = bit_decompose(r, COMPARISON_BITS)
        msb = ((r >> np.uint64(63)) & np.uint64(1)).astype(np.uint8)
        self.comparison_masks_issued += int(np.prod(shape))
        return ComparisonMask(
            r=share_additive(r, rng),
            low_bits=share_boolean_words(low, rng),
            msb=share_boolean(msb, rng),
        )

    def linear_correlation(
        self,
        input_shape: tuple[int, ...],
        ring_linear_fn: Callable[[np.ndarray], np.ndarray],
    ) -> LinearCorrelation:
        """Preprocessing for a server-known linear layer.

        ``ring_linear_fn`` is the layer's integer linear map over Z_2^64
        (convolution or matmul with encoded weights, **without** bias —
        masks must pass through the homogeneous part only).
        """
        rng = self._rng
        mask = FixedPointConfig.random_ring(rng, input_shape)
        f_mask = ring_linear_fn(mask).astype(np.uint64)
        server_offset = FixedPointConfig.random_ring(rng, f_mask.shape)
        client_offset = (f_mask - server_offset).astype(np.uint64)
        return LinearCorrelation(
            mask=mask, client_offset=client_offset, server_offset=server_offset
        )
