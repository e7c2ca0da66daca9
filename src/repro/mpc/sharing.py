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
    "share_boolean",
    "reconstruct_boolean",
    "share_boolean_words",
    "reconstruct_boolean_words",
    "bit_decompose",
    "pack_bit_words",
    "unpack_bit_words",
]

# The comparison circuit compares the low 63 bits of the ring; the 64th
# bit is the sign the circuit is extracting. One uint64 word therefore
# holds a whole element's circuit state with lane 63 permanently zero.
COMPARISON_BITS = 63
LOW63_MASK = np.uint64((1 << 63) - 1)

# Hoisted bit-index constants: the per-call ``np.arange(63)`` allocations
# the seed's hot paths performed are shared module-level state now.
_BIT_POSITIONS = np.arange(64, dtype=np.uint64)
_WORD_DTYPE = np.dtype("<u8")


def share_additive(secret: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Split a uint64 array into two uniformly random additive shares.

    The result is one ``(2, ...)`` array — row ``p`` is party ``p``'s
    share — so ``shares[0]`` / ``shares[1]`` and ``s0, s1 = shares`` read
    as they would on a pair.
    """
    secret = np.asarray(secret, dtype=np.uint64)
    shares = np.empty((2, *secret.shape), dtype=np.uint64)
    shares[0] = FixedPointConfig.random_ring(rng, secret.shape)
    np.subtract(secret, shares[0], out=shares[1:])
    return shares


def reconstruct_additive(share0: np.ndarray, share1: np.ndarray) -> np.ndarray:
    """Recombine additive shares: ``x = x0 + x1 (mod 2^64)``."""
    return (np.asarray(share0, dtype=np.uint64) + np.asarray(share1, dtype=np.uint64)).astype(
        np.uint64
    )


def random_bits(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform 0/1 ``uint8`` bits: ``rng.integers(0, 2, size=shape, dtype=np.uint8)``.

    The same values from the same draws, and the generator is left in the
    same state. numpy fills a bounded ``uint8`` draw one byte at a time —
    the bytes of successive 32-bit outputs, low byte first, of which the
    range [0, 2) keeps the top bit and rejects nothing — so one call for
    the 32-bit outputs and one shift read the same stream about three
    times as fast. The dealer spends most of its time in this draw;
    ``tests/mpc/test_bitsliced.py`` pins the equality.
    """
    count = math.prod(shape)
    raw = rng.integers(0, 1 << 32, size=-(-count // 4), dtype=np.uint32)
    octets = raw.astype("<u4", copy=False).view(np.uint8)[:count]
    octets >>= 7
    return octets.reshape(shape)


def share_boolean(bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Split a 0/1 uint8 array into two XOR shares (a ``(2, ...)`` array)."""
    bits = np.asarray(bits, dtype=np.uint8)
    shares = np.empty((2, *bits.shape), dtype=np.uint8)
    shares[0] = random_bits(rng, bits.shape)
    np.bitwise_xor(bits, shares[0], out=shares[1:])
    return shares


def reconstruct_boolean(share0: np.ndarray, share1: np.ndarray) -> np.ndarray:
    """Recombine XOR shares."""
    return (np.asarray(share0, dtype=np.uint8) ^ np.asarray(share1, dtype=np.uint8)).astype(
        np.uint8
    )


def share_boolean_words(bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """XOR-share a ``(..., k)`` bit-plane array as ``(2, ...)`` packed words.

    Draws exactly the random bits :func:`share_boolean` would draw for the
    same bit-plane shape (one :func:`random_bits` call over ``bits.shape``),
    so a dealer switching to packed emission consumes its random stream
    identically — this is what keeps packed runs byte-identical to the
    byte-per-bit seed implementation.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    share0 = random_bits(rng, bits.shape)
    shares = np.empty((2, *bits.shape[:-1]), dtype=np.uint64)
    shares[0] = pack_bit_words(share0)
    shares[1] = pack_bit_words(np.bitwise_xor(bits, share0, out=share0))
    return shares


def reconstruct_boolean_words(share0: np.ndarray, share1: np.ndarray) -> np.ndarray:
    """Recombine word-packed XOR shares (stays packed)."""
    return (np.asarray(share0, dtype=np.uint64) ^ np.asarray(share1, dtype=np.uint64)).astype(
        np.uint64
    )


def bit_decompose(values: np.ndarray, bits: int) -> np.ndarray:
    """Little-endian bit decomposition: result[..., i] is bit ``i``.

    Used by the dealer to produce boolean shares of the comparison masks.
    """
    values = np.asarray(values, dtype=np.uint64)
    positions = _BIT_POSITIONS[:bits]
    return ((values[..., None] >> positions) & np.uint64(1)).astype(np.uint8)


def pack_bit_words(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(..., k)`` little-endian 0/1 array into uint64 words.

    ``k`` may be at most 64; lanes ``k..63`` of every word are zero. The
    result drops the trailing bit axis: shape ``(...,)``.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    k = bits.shape[-1]
    if k > 64:
        raise ValueError(f"cannot pack {k} bits into a uint64 word")
    shape = bits.shape[:-1]
    if k < 64:
        # Widen every row to a full word first: packing one flat run of
        # 64-lane rows is far cheaper than packing k-lane rows one by one.
        lanes = np.zeros((*shape, 64), dtype=np.uint8)
        lanes[..., :k] = bits
        bits = lanes
    words = np.packbits(bits.reshape(-1), bitorder="little").view(_WORD_DTYPE)
    return words.reshape(shape).astype(np.uint64, copy=False)


def unpack_bit_words(words: np.ndarray, bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bit_words`: ``(...,)`` words -> ``(..., bits)``."""
    # Force little-endian storage so the uint8 view is bit i -> lane i on
    # any host.
    words = np.ascontiguousarray(words, dtype=_WORD_DTYPE)
    as_bytes = words[..., None].view(np.uint8)
    planes = np.unpackbits(as_bytes, axis=-1, count=bits, bitorder="little")
    return planes.astype(np.uint8)
