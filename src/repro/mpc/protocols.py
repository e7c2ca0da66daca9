"""The online 2PC protocols, written once over a party axis.

Secret-sharing 2PC is SPMD: every primitive is "the same local operation
on each party's share, then one exchange". So every shared value here is
one array whose leading axis is the *party axis* — two rows when both
parties share an address space, one row when this process is one party —
and each primitive is a single definition over such arrays. Whether the
exchange combines two local rows or swaps a frame with the peer process
is decided by the ``channel`` the caller passes (the placement: a
:class:`~repro.mpc.network.Channel` or a
:class:`~repro.mpc.transport.Transport`), never by a second code path.
The few steps that only one party performs — party 0 adds ``d*e``, ORs
the public shift fill and absorbs public terms; party 1 negates around the
truncating shift; the server evaluates the linear map — are row-local
writes at ``channel.row(party)``, skipped where that row is not held.
Both parties therefore run the same ``open_*`` / ``hand`` call on the same
line: a label mismatch or a forgotten round cannot be written.

**Beaver multiplication** (arithmetic and GF(2)): mask the operands with
the dealer's triple, open the masked ``(d, e)`` pair — uniformly random,
hence safe — as one two-operand frame, combine locally.

**Sign extraction** (every ReLU and max-pool comparison):

1. *Masked reveal.* The dealer hands the parties additive shares of a
   uniform ring mask ``r`` plus boolean shares of r's bits. The parties
   open ``z = x + r`` — uniformly distributed, so the reveal leaks nothing
   about ``x``.
2. *Borrow computation.* Writing ``x = z - r (mod 2^64)``, the sign bit is
   ``MSB(x) = z_63 XOR r_63 XOR borrow`` with
   ``borrow = [z mod 2^63 < r mod 2^63]``. The comparison of the *public*
   ``z`` against the *bit-shared* ``r`` is evaluated inside GF(2) with a
   log-depth suffix-AND circuit (6 batched AND rounds for 63 bits).
3. ``DReLU(x) = 1 - MSB(x)``; a daBit converts the boolean result to an
   arithmetic sharing, and ``ReLU(x) = x * DReLU(x)`` costs one Beaver
   multiplication.

The whole GF(2) stage is bitsliced: packed ``uint64`` words, one per ring
element, little-endian lane ``i`` = bit ``i`` of the element, lane 63
permanently zero. The public low bits of ``z`` are just
``z & LOW63_MASK``; the suffix-AND-by-doubling is an in-word
``suffix & (suffix >> step)`` with public-one padding ORed into the
vacated high lanes; the final disjoint OR is a local word parity.

**Linear layers** are Delphi's, with the dealer standing in for the
offline homomorphic exchange (see :mod:`repro.mpc.dealer`): the client
hands the server ``x0 - m`` (uniform, one message), the server evaluates
the integer linear map on ``(x0 - m) + x1`` and adds its offset and the
bias, the client's output share is its offline offset. Both parties then
run the SecureML *local truncation*, exact up to one unit in the last
fractional bit except with probability ~|x| / 2^62.

This is the ABY/SecureML lineage; Delphi's garbled circuits and Cheetah's
VOLE-OT millionaire realise the same functionality with different cost
profiles (see :mod:`repro.mpc.costs`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .fixedpoint import FixedPointConfig
from .network import Channel
from .sharing import LOW63_MASK

__all__ = [
    "SUFFIX_STEPS",
    "RingLinearFunction",
    "beaver_multiply",
    "boolean_and",
    "public_less_than_shared",
    "secure_msb",
    "secure_drelu",
    "bit_to_arithmetic",
    "secure_relu",
    "secure_maximum",
    "secure_linear",
    "truncate_shares",
    "multiply_public_constant",
    "word_parity",
]

RingLinearFunction = Callable[[np.ndarray], np.ndarray]

# Doubling steps of the inclusive suffix-AND over 63 bit lanes: after
# steps 1..32 the window spans >= 63 lanes. Module-level so the hot path
# allocates nothing per call.
SUFFIX_STEPS = (1, 2, 4, 8, 16, 32)
_STEP_WORDS = {step: np.uint64(step) for step in SUFFIX_STEPS}
# Public-one padding for the lanes a right-shift by ``step`` vacates
# inside the 63-lane window (lanes 63-step .. 62).
_FILL_WORDS = {
    step: np.uint64(int(LOW63_MASK) & ~(int(LOW63_MASK) >> step))
    for step in SUFFIX_STEPS
}
_ONE = np.uint64(1)
_TWO = np.uint64(2)
_MSB_SHIFT = np.uint64(63)
# Parity fold shifts for a 64-lane word.
_PARITY_SHIFTS = tuple(np.uint64(s) for s in (32, 16, 8, 4, 2, 1))


def word_parity(words: np.ndarray, reuse: bool = False) -> np.ndarray:
    """XOR of all 64 lanes of each word (uint8 0/1) — a local XOR fold.

    ``reuse=True`` folds in place: only for callers handing over a fresh
    scratch array they will never read again (e.g. the output of the
    final ``boolean_and``), which saves the defensive copy per round.
    """
    folded = np.asarray(words, dtype=np.uint64)
    if not reuse:
        folded = folded.copy()
    for shift in _PARITY_SHIFTS:
        folded ^= folded >> shift
    return (folded & _ONE).astype(np.uint8)


# ----------------------------------------------------------------------
# multiplication
# ----------------------------------------------------------------------
def beaver_multiply(
    x: np.ndarray, y: np.ndarray, dealer, channel: Channel
) -> np.ndarray:
    """Elementwise product of two additively shared arrays over Z_2^64.

    Returns fresh shares of ``x * y`` (no truncation — callers re-scale
    fixed-point products themselves when both operands carry fractions).
    """
    shape = x.shape[1:]
    triple = dealer.beaver_triples(shape)
    opening = channel.frame("beaver-open", (2, *shape))
    np.subtract(x, triple.a, out=opening[:, 0])
    np.subtract(y, triple.b, out=opening[:, 1])
    d, e = channel.open_add(opening, "beaver-open")

    z = triple.c + d * triple.b + e * triple.a
    first = channel.row(0)
    if first is not None:
        z[first] += d * e
    return z


def boolean_and(
    x: np.ndarray, y: np.ndarray, dealer, channel: Channel
) -> np.ndarray:
    """Lane-wise AND of two bitsliced XOR-shared uint64 word arrays.

    One word carries all 63 comparison-bit lanes of a ring element, so a
    single GF(2) Beaver triple word evaluates an element's whole gate
    column and every word in the call opens in one batched round — the
    comparison circuit relies on this to keep its round count
    logarithmic. The wire payload is the raw word bytes of (d, e): no
    per-call bit packing.
    """
    shape = x.shape[1:]
    triple = dealer.bit_triples(shape)
    opening = channel.frame("and-open", (2, *shape))
    np.bitwise_xor(x, triple.a, out=opening[:, 0])
    np.bitwise_xor(y, triple.b, out=opening[:, 1])
    d, e = channel.open_xor(opening, "and-open")

    z = triple.c ^ (d & triple.b) ^ (e & triple.a)
    first = channel.row(0)
    if first is not None:
        z[first] ^= d & e
    return z


# ----------------------------------------------------------------------
# comparison / ReLU
# ----------------------------------------------------------------------
def public_less_than_shared(
    z_low: np.ndarray, r_words: np.ndarray, dealer, channel: Channel
) -> np.ndarray:
    """XOR shares of ``[Z < R]`` for public Z and bit-shared R (bitsliced).

    ``z_low`` holds the public low-63-bit words of Z (``z & LOW63_MASK``);
    ``r_words`` are packed XOR-share words of R's low bits. The standard
    decomposition is used: ``Z < R`` iff there is a bit position i with
    ``R_i = 1, Z_i = 0`` and all higher bits equal; the events are
    disjoint so the OR collapses to a free XOR — here a local word
    parity.
    """
    first = channel.row(0)
    # t_i = r_i AND (NOT z_i): affine in the shared bit (z public). Lane
    # 63 stays zero on every share (not_z masks it off).
    not_z = ~np.asarray(z_low, dtype=np.uint64) & LOW63_MASK
    t = r_words & not_z

    # eq_i = 1 XOR z_i XOR r_i: party 0 absorbs the public part. A copy —
    # the dealer's material, which retries must be able to replay, is
    # never written.
    suffix = r_words.copy()
    if first is not None:
        suffix[first] ^= not_z

    # Inclusive suffix-AND by doubling, entirely in-word: after the loop,
    # suffix_i = AND_{j >= i} eq_j over lanes 0..62. A right-shift pulls
    # lane i+step into lane i; the vacated high lanes must behave as
    # public 1 (share pattern: party 0 = fill, party 1 = 0).
    for step in SUFFIX_STEPS:
        shifted = suffix >> _STEP_WORDS[step]
        if first is not None:
            shifted[first] |= _FILL_WORDS[step]
        suffix = boolean_and(suffix, shifted, dealer, channel)

    # strict_i = AND_{j > i} eq_j = inclusive suffix shifted down by one
    # (lane 62 becomes public 1).
    strict = suffix >> _STEP_WORDS[1]
    if first is not None:
        strict[first] |= _FILL_WORDS[1]
    term = boolean_and(t, strict, dealer, channel)

    # Disjoint OR == XOR == parity across the word's lanes (local); the
    # term is this call's own scratch, so the fold may consume it.
    return word_parity(term, reuse=True)


def secure_msb(x: np.ndarray, dealer, channel: Channel) -> np.ndarray:
    """XOR shares of the sign bit of an additively shared array."""
    mask = dealer.comparison_masks(x.shape[1:])
    masked = channel.frame("masked-reveal", x.shape[1:])
    np.add(x, mask.r, out=masked)
    z = channel.open_add(masked, "masked-reveal")

    borrow = public_less_than_shared(z & LOW63_MASK, mask.low_bits, dealer, channel)

    msb = mask.msb ^ borrow
    first = channel.row(0)
    if first is not None:
        msb[first] ^= ((z >> _MSB_SHIFT) & _ONE).astype(np.uint8)
    return msb


def secure_drelu(x: np.ndarray, dealer, channel: Channel) -> np.ndarray:
    """XOR shares of ``DReLU(x) = 1 - MSB(x)`` (1 where x >= 0)."""
    drelu = secure_msb(x, dealer, channel)
    first = channel.row(0)
    if first is not None:
        drelu[first] ^= 1
    return drelu


def bit_to_arithmetic(b: np.ndarray, dealer, channel: Channel) -> np.ndarray:
    """Convert XOR-shared bits to additive shares over Z_2^64 (daBit B2A)."""
    dabit = dealer.dabits(b.shape[1:])
    e = channel.open_bits(b ^ dabit.boolean, "b2a-open").astype(np.uint64)

    # b = e XOR d = e + d - 2 e d, with e public: flip is 1 or -1 mod 2^64.
    flip = _ONE - _TWO * e
    shares = flip * dabit.arithmetic
    first = channel.row(0)
    if first is not None:
        shares[first] += e
    return shares


def secure_relu(x: np.ndarray, dealer, channel: Channel) -> np.ndarray:
    """Fresh additive shares of ``ReLU(x)``.

    The multiplication by the 0/1 indicator is scale-free, so no truncation
    is required afterwards.
    """
    indicator = bit_to_arithmetic(secure_drelu(x, dealer, channel), dealer, channel)
    return beaver_multiply(x, indicator, dealer, channel)


def secure_maximum(
    a: np.ndarray, b: np.ndarray, dealer, channel: Channel
) -> np.ndarray:
    """Shares of ``max(a, b) = b + ReLU(a - b)`` (the max-pool primitive)."""
    return b + secure_relu(a - b, dealer, channel)


# ----------------------------------------------------------------------
# linear layers and local share arithmetic
# ----------------------------------------------------------------------
def secure_linear(
    x: np.ndarray,
    ring_linear_fn: RingLinearFunction | None,
    bias_2f: np.ndarray | None,
    dealer,
    channel: Channel,
) -> np.ndarray:
    """Shares of ``f(x) + bias`` for a server-known linear map ``f``.

    ``ring_linear_fn`` and ``bias_2f`` are the server's: a client-only
    placement passes ``None`` for both — it needs neither the weights nor
    the bias, which is what makes the weight-free client program of the
    two-process deployment possible. ``bias_2f`` must be encoded at
    double scale (2f fractional bits) to match the un-truncated product;
    pass ``None`` for bias-free layers.
    """
    shape = x.shape[1:]
    correlation = dealer.linear_correlation(shape, ring_linear_fn)
    client, server = channel.row(0), channel.row(1)
    masked = channel.hand(
        "linear-masked-input",
        shape,
        lambda out: np.subtract(x[client], correlation.mask, out=out),
    )
    channel.tick_round("linear")

    rows: list = [None] * len(x)
    if client is not None:
        rows[client] = correlation.client_offset
    if server is not None:
        y = ring_linear_fn(masked + x[server]) + correlation.server_offset
        if bias_2f is not None:
            y += bias_2f
        rows[server] = y
    return np.stack(rows)


def truncate_shares(
    shares: np.ndarray, frac_bits: int, channel: Channel
) -> np.ndarray:
    """Local probabilistic truncation by ``frac_bits`` (SecureML).

    Party 0 logically shifts its share; party 1 negates, shifts, negates —
    which together divide the underlying signed value by ``2^f`` up to one
    LSB, provided ``|x|`` is far from the ring boundary.
    """
    shift = np.uint64(frac_bits)
    truncated = np.empty_like(shares)
    client, server = channel.row(0), channel.row(1)
    if client is not None:
        np.right_shift(shares[client], shift, out=truncated[client])
    if server is not None:
        truncated[server] = FixedPointConfig.neg(
            FixedPointConfig.neg(shares[server]) >> shift
        )
    return truncated


def multiply_public_constant(
    shares: np.ndarray, constant_f: np.ndarray | int
) -> np.ndarray:
    """Multiply shares by a public fixed-point constant (local operation).

    The result carries doubled fractional scale; callers follow up with
    :func:`truncate_shares`. Used by average pooling (constant ``1/k^2``).
    """
    constant = (
        np.uint64(constant_f)
        if np.isscalar(constant_f)
        else np.asarray(constant_f, dtype=np.uint64)
    )
    return shares * constant
