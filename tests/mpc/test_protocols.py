"""Tests for the online 2PC protocols against plaintext oracles.

Every oracle test runs its primitive through ``run_placements``: once
with both parties' rows in this process and once as two one-row parties
over a loopback transport, which must agree bit for bit (result, per-label
accounting, raw wire payload) before the oracle is consulted.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from placements import run_placements

from repro.mpc import Channel, FixedPointConfig, TrustedDealer
from repro.mpc.protocols import (
    beaver_multiply,
    bit_to_arithmetic,
    boolean_and,
    multiply_public_constant,
    public_less_than_shared,
    secure_drelu,
    secure_linear,
    secure_maximum,
    secure_msb,
    secure_relu,
    truncate_shares,
)
from repro.mpc.sharing import (
    LOW63_MASK,
    reconstruct_additive,
    reconstruct_boolean,
    reconstruct_boolean_words,
    share_additive,
    share_boolean,
    share_boolean_words,
)

CFG = FixedPointConfig(frac_bits=12)


def setup(seed=0):
    return TrustedDealer(seed=seed), Channel(), np.random.default_rng(seed + 100)


def both(seed, primitive, *shared, public=()):
    """``primitive(*public, *shared, dealer, channel)`` under both placements."""
    return run_placements(
        lambda rows, dealer, channel: primitive(
            *public, *(rows(array) for array in shared), dealer, channel
        ),
        seed,
    )


class TestBeaver:
    @given(st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_multiply_matches_ring_product(self, seed):
        rng = np.random.default_rng(seed + 100)
        x = FixedPointConfig.random_ring(rng, (64,))
        y = FixedPointConfig.random_ring(rng, (64,))
        zs, _ = both(seed, beaver_multiply, share_additive(x, rng), share_additive(y, rng))
        np.testing.assert_array_equal(reconstruct_additive(*zs), (x * y).astype(np.uint64))

    def test_multiply_counts_one_round(self):
        dealer, channel, rng = setup()
        x = share_additive(FixedPointConfig.random_ring(rng, (8,)), rng)
        beaver_multiply(x, x, dealer, channel)
        assert channel.rounds == 1
        assert channel.total_bytes == 2 * 2 * 8 * 8  # (d,e) both ways

    @given(st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_boolean_and(self, seed):
        """Bitsliced AND: 128 elements x 63 lanes in one word-parallel call."""
        rng = np.random.default_rng(seed + 100)
        a = rng.integers(0, 2**63, size=(128,), dtype=np.uint64)
        b = rng.integers(0, 2**63, size=(128,), dtype=np.uint64)
        zs, _ = both(
            seed, boolean_and, share_boolean_words(a, rng), share_boolean_words(b, rng)
        )
        np.testing.assert_array_equal(reconstruct_boolean_words(*zs), a & b)

    def test_boolean_and_payload_is_raw_word_bytes(self):
        dealer, channel, rng = setup(1)
        words = rng.integers(0, 2**63, size=(64,), dtype=np.uint64)
        shares = share_boolean_words(words, rng)
        boolean_and(shares, shares, dealer, channel)
        # (d, e) words both ways: 2 * 2 * 8 bytes per element, one round.
        assert channel.total_bytes == 2 * 2 * 8 * 64
        assert channel.rounds == 1


class TestComparison:
    @given(st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_public_less_than_shared(self, seed):
        rng = np.random.default_rng(seed + 100)
        z = rng.integers(0, 2**63, size=(50,), dtype=np.uint64)
        r = rng.integers(0, 2**63, size=(50,), dtype=np.uint64)
        r_words = share_boolean_words(r, rng)
        lt, _ = both(
            seed, public_less_than_shared, r_words, public=(z & LOW63_MASK,)
        )
        np.testing.assert_array_equal(reconstruct_boolean(*lt), (z < r).astype(np.uint8))

    def test_less_than_equal_values_is_false(self):
        dealer, channel, rng = setup(3)
        z = rng.integers(0, 2**63, size=(20,), dtype=np.uint64)
        r_words = share_boolean_words(z, rng)
        lt = public_less_than_shared(z & LOW63_MASK, r_words, dealer, channel)
        np.testing.assert_array_equal(reconstruct_boolean(*lt), 0)

    def test_comparison_round_count_is_logarithmic(self):
        dealer, channel, rng = setup()
        z = rng.integers(0, 2**63, size=(4,), dtype=np.uint64)
        r = rng.integers(0, 2**63, size=(4,), dtype=np.uint64)
        public_less_than_shared(
            z & LOW63_MASK,
            share_boolean_words(r, rng),
            dealer,
            channel,
        )
        # 6 suffix-AND doubling levels + 1 final AND level.
        assert channel.rounds == 7

    @given(st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_secure_msb(self, seed):
        rng = np.random.default_rng(seed + 100)
        values = rng.uniform(-50, 50, size=(40,)).astype(np.float32)
        encoded = CFG.encode(values)
        msb, _ = both(seed, secure_msb, share_additive(encoded, rng))
        np.testing.assert_array_equal(
            reconstruct_boolean(*msb), (values < 0).astype(np.uint8)
        )

    @given(st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_secure_drelu(self, seed):
        rng = np.random.default_rng(seed + 100)
        values = rng.uniform(-10, 10, size=(40,)).astype(np.float32)
        drelu, _ = both(seed, secure_drelu, share_additive(CFG.encode(values), rng))
        np.testing.assert_array_equal(
            reconstruct_boolean(*drelu), (values >= 0).astype(np.uint8)
        )

    def test_drelu_at_zero_is_one(self):
        dealer, channel, rng = setup()
        drelu = secure_drelu(
            share_additive(CFG.encode(np.zeros(8)), rng), dealer, channel
        )
        np.testing.assert_array_equal(reconstruct_boolean(*drelu), 1)


class TestB2AAndReLU:
    @given(st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_bit_to_arithmetic(self, seed):
        rng = np.random.default_rng(seed + 100)
        bits = rng.integers(0, 2, size=(64,), dtype=np.uint8)
        arith, _ = both(seed, bit_to_arithmetic, share_boolean(bits, rng))
        np.testing.assert_array_equal(
            reconstruct_additive(*arith), bits.astype(np.uint64)
        )

    @given(st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_secure_relu_matches_plaintext(self, seed):
        rng = np.random.default_rng(seed + 100)
        values = rng.uniform(-20, 20, size=(100,)).astype(np.float32)
        ys, _ = both(seed, secure_relu, share_additive(CFG.encode(values), rng))
        decoded = CFG.decode(reconstruct_additive(*ys))
        np.testing.assert_allclose(decoded, np.maximum(values, 0), atol=2e-3)

    def test_secure_relu_round_budget(self):
        """1 reveal + 7 comparison + 1 b2a + 1 beaver = 10 rounds."""
        dealer, channel, rng = setup()
        secure_relu(share_additive(CFG.encode(np.ones(16)), rng), dealer, channel)
        assert channel.rounds == 10

    @given(st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_secure_maximum(self, seed):
        rng = np.random.default_rng(seed + 100)
        a = rng.uniform(-10, 10, size=(50,)).astype(np.float32)
        b = rng.uniform(-10, 10, size=(50,)).astype(np.float32)
        ms, _ = both(
            seed,
            secure_maximum,
            share_additive(CFG.encode(a), rng),
            share_additive(CFG.encode(b), rng),
        )
        np.testing.assert_allclose(
            CFG.decode(reconstruct_additive(*ms)), np.maximum(a, b), atol=2e-3
        )


class TestLinearAndTruncation:
    def test_truncation_error_at_most_one_lsb(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(-100, 100, size=(5000,)).astype(np.float64)
        encoded_2f = CFG.encode(values, frac_bits=24)
        shares = share_additive(encoded_2f, rng)
        truncated, _ = run_placements(
            lambda rows, dealer, channel: truncate_shares(rows(shares), 12, channel)
        )
        decoded = CFG.decode(reconstruct_additive(*truncated))
        np.testing.assert_allclose(decoded, values, atol=2.5 / 4096)

    def test_multiply_public_constant(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(-5, 5, size=(64,)).astype(np.float32)
        shares = share_additive(CFG.encode(values), rng)
        scaled = multiply_public_constant(shares, CFG.encode(np.array(0.25)))
        decoded = CFG.decode(
            reconstruct_additive(*truncate_shares(scaled, CFG.frac_bits, Channel()))
        )
        np.testing.assert_allclose(decoded, values * 0.25, atol=1e-3)

    def test_secure_linear_matmul(self):
        rng = np.random.default_rng(107)
        x = rng.uniform(-2, 2, size=(4, 10)).astype(np.float32)
        w = rng.uniform(-1, 1, size=(6, 10)).astype(np.float32)
        b = rng.uniform(-1, 1, size=(6,)).astype(np.float32)
        w_ring = CFG.encode(w)
        bias_2f = np.broadcast_to(CFG.encode(b, frac_bits=24), (4, 6)).astype(np.uint64)

        def ring_fn(v):
            return np.matmul(v, w_ring.T)

        shares = share_additive(CFG.encode(x), rng)

        def linear(rows, dealer, channel):
            # The weights and the bias are the server's alone.
            serves = channel.row(1) is not None
            ys = secure_linear(
                rows(shares),
                ring_fn if serves else None,
                bias_2f if serves else None,
                dealer,
                channel,
            )
            channel.flush_deferred()  # no later opening to carry the message
            return truncate_shares(ys, CFG.frac_bits, channel)

        truncated, channel = run_placements(linear, seed=7)
        assert channel.rounds == 1
        decoded = CFG.decode(reconstruct_additive(*truncated))
        np.testing.assert_allclose(decoded, x @ w.T + b, atol=2e-2)

    def test_secure_linear_is_one_message(self):
        dealer, channel, rng = setup()
        x = share_additive(CFG.encode(np.ones((2, 4))), rng)
        w_ring = CFG.encode(np.eye(4, dtype=np.float32))
        secure_linear(x, lambda v: np.matmul(v, w_ring.T), None, dealer, channel)
        assert channel.rounds == 1
        assert channel.bytes_server_to_client == 0  # client->server only

    def test_open_add_reveals_the_secret_to_both_parties(self):
        rng = np.random.default_rng(100)
        secret = FixedPointConfig.random_ring(rng, (16,))
        shares = share_additive(secret, rng)

        def opened(rows, dealer, channel):
            # Public afterwards: every held row sees the same value.
            value = channel.open_add(rows(shares), "open")
            return np.stack([value] * len(channel.parties))

        both_views, channel = run_placements(opened)
        np.testing.assert_array_equal(both_views, np.stack([secret, secret]))
        assert channel.rounds == 1


class TestSecurityProperties:
    def test_masked_reveal_is_uniform(self):
        """The opened z = x + r must look uniform regardless of x."""
        dealer = TrustedDealer(seed=0)
        mask = dealer.comparison_masks((20000,))
        r = reconstruct_additive(*mask.r)
        x = CFG.encode(np.full(20000, 3.14159))
        z = (x + r).astype(np.uint64)
        top = (z >> np.uint64(63)).astype(float)
        assert abs(top.mean() - 0.5) < 0.02

    def test_linear_masked_message_is_uniform(self):
        """The client's online linear message x0 - m is uniform."""
        dealer, channel, rng = setup()
        constant_input = share_additive(CFG.encode(np.zeros(20000)), rng)
        w_ring = CFG.encode(np.eye(1, dtype=np.float32))
        correlation = dealer.linear_correlation((20000,), lambda v: v)
        masked = constant_input[0] - correlation.mask
        top = (masked >> np.uint64(63)).astype(float)
        assert abs(top.mean() - 0.5) < 0.02
