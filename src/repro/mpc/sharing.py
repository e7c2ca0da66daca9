"""Additive and boolean secret sharing, including the bitsliced GF(2) layer.

Arithmetic shares live in Z_2^64 (``uint64``): ``x = x0 + x1 (mod 2^64)``.
Boolean shares come in two layouts:

* **byte-per-bit** (``uint8`` containing 0/1): one array slot per bit —
  the layout single-bit material (daBits, MSB shares) still uses;
* **bitsliced words** (``uint64``): up to 64 bits of one element packed
  little-endian into a single word, so a word-level ``&``/``^``/``>>``
  acts on all bit lanes of an element at once. The comparison circuit
  runs entirely in this layout (one word per ring element), which is
  what makes the DReLU hot path word-parallel.

Both are information-theoretically hiding: a single share is uniformly
distributed and independent of the secret.

Every splitter draws row 0 as one raw generator draw in the layout it is
consumed in — whole ``uint64`` words, masked to the lanes in use — and
derives row 1 from it, so whoever holds the generator redraws row 0.
"""

from __future__ import annotations

import math

import numpy as np

from .fixedpoint import FixedPointConfig

__all__ = [
    "COMPARISON_BITS",
    "LOW63_MASK",
    "share_additive",
    "reconstruct_additive",
    "random_bits",
    "random_lanes",
    "share_boolean",
    "reconstruct_boolean",
    "share_boolean_words",
    "reconstruct_boolean_words",
]

# The comparison circuit compares the low 63 bits of the ring; the 64th
# bit is the sign the circuit is extracting. One uint64 word therefore
# holds a whole element's circuit state with lane 63 permanently zero.
COMPARISON_BITS = 63
LOW63_MASK = np.uint64((1 << 63) - 1)


def _split(secret: np.ndarray, free: np.ndarray, correct) -> np.ndarray:
    """``(2, ...)``: row 0 the free draw, row 1 ``correct(secret, row 0)``."""
    shares = np.empty((2, *secret.shape), dtype=secret.dtype)
    shares[0] = free
    correct(secret, free, out=shares[1:])
    return shares


def share_additive(secret: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Split a uint64 array into two uniformly random additive shares.

    The result is one ``(2, ...)`` array — row ``p`` is party ``p``'s
    share — so ``shares[0]`` / ``shares[1]`` and ``s0, s1 = shares`` read
    as they would on a pair.
    """
    secret = np.asarray(secret, dtype=np.uint64)
    return _split(secret, FixedPointConfig.random_ring(rng, secret.shape), np.subtract)


def reconstruct_additive(share0: np.ndarray, share1: np.ndarray) -> np.ndarray:
    """Recombine additive shares: ``x = x0 + x1 (mod 2^64)``."""
    return (np.asarray(share0, dtype=np.uint64) + np.asarray(share1, dtype=np.uint64)).astype(
        np.uint64
    )


def random_bits(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform 0/1 ``uint8`` bits: the low bit of every byte of a word draw.

    Whole words, so a draw of ``n`` bits moves the stream by ``ceil(n / 8)``
    words — the 8-aligned footprint the array has in a bundle container.
    """
    count = math.prod(shape)
    words = FixedPointConfig.random_ring(rng, -(-count // 8))
    octets = words.astype("<u8", copy=False).view(np.uint8)[:count]
    octets &= 1
    return octets.reshape(shape)


def random_lanes(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform comparison words: 63 independent bit lanes, lane 63 zero."""
    words = FixedPointConfig.random_ring(rng, shape)
    words &= LOW63_MASK
    return words


def share_boolean(bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Split a 0/1 uint8 array into two XOR shares (a ``(2, ...)`` array)."""
    bits = np.asarray(bits, dtype=np.uint8)
    return _split(bits, random_bits(rng, bits.shape), np.bitwise_xor)


def reconstruct_boolean(share0: np.ndarray, share1: np.ndarray) -> np.ndarray:
    """Recombine XOR shares."""
    return (np.asarray(share0, dtype=np.uint8) ^ np.asarray(share1, dtype=np.uint8)).astype(
        np.uint8
    )


def share_boolean_words(words: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """XOR-share comparison words (lane 63 zero) as ``(2, ...)`` such words."""
    words = np.asarray(words, dtype=np.uint64)
    return _split(words, random_lanes(rng, words.shape), np.bitwise_xor)


def reconstruct_boolean_words(share0: np.ndarray, share1: np.ndarray) -> np.ndarray:
    """Recombine word-packed XOR shares (stays packed)."""
    return (np.asarray(share0, dtype=np.uint64) ^ np.asarray(share1, dtype=np.uint64)).astype(
        np.uint64
    )
