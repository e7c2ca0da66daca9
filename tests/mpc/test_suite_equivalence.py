"""Property-based equivalence of the three linear-layer protocols.

The dealer, Paillier (Delphi) and RLWE (Cheetah) linear protocols are
three implementations of the same functionality — shares of ``f(x) +
bias`` for a server-known linear map. On random ring matrices all three
must reconstruct to the identical ring value: the dealer result is the
oracle, and any divergence in the homomorphic paths (mask arithmetic,
packing, noise) would surface here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpc.backends import DealerSuite
from repro.mpc.backends.cheetah import CheetahSuite
from repro.mpc.backends.delphi import DelphiSuite
from repro.mpc.dealer import TrustedDealer
from repro.mpc.network import Channel
from repro.mpc.sharing import reconstruct_additive, share_additive


def _random_case(seed):
    rng = np.random.default_rng(seed)
    in_features = int(rng.integers(2, 7))
    out_features = int(rng.integers(2, 7))
    # Weights at fixed-point magnitudes (|w| <= 2^20 as ring elements):
    # the RLWE noise budget is sized for encoded network weights, not for
    # full-range ring values (see CheetahSuite's docstring).
    weight = rng.integers(-2**20, 2**20, (out_features, in_features)).astype(
        np.int64
    ).astype(np.uint64)
    x = rng.integers(0, 2**64, (1, in_features), dtype=np.uint64)
    bias = rng.integers(0, 2**64, (1, out_features), dtype=np.uint64)

    def ring_fn(values):
        return np.matmul(values, weight.T)

    expected = (ring_fn(x) + bias).astype(np.uint64)
    return ring_fn, share_additive(x, rng), bias, expected


class TestLinearProtocolEquivalence:
    @given(st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_dealer_linear_is_exact(self, seed):
        ring_fn, shares, bias, expected = _random_case(seed)
        suite = DealerSuite(TrustedDealer(seed=seed))
        y = suite.linear(shares, ring_fn, bias, Channel())
        np.testing.assert_array_equal(reconstruct_additive(*y), expected)

    @pytest.mark.slow
    @given(st.integers(0, 2**31))
    @settings(max_examples=4, deadline=None)
    def test_paillier_linear_matches_dealer(self, seed):
        ring_fn, shares, bias, expected = _random_case(seed)
        suite = DelphiSuite(np.random.default_rng(seed), key_bits=256, ot_security=40)
        y = suite.linear(shares, ring_fn, bias, Channel())
        np.testing.assert_array_equal(reconstruct_additive(*y), expected)

    @pytest.mark.slow
    @given(st.integers(0, 2**31))
    @settings(max_examples=4, deadline=None)
    def test_rlwe_linear_matches_dealer(self, seed):
        ring_fn, shares, bias, expected = _random_case(seed)
        suite = CheetahSuite(np.random.default_rng(seed), ring_dim=64, ot_security=40)
        y = suite.linear(shares, ring_fn, bias, Channel())
        np.testing.assert_array_equal(reconstruct_additive(*y), expected)

    def test_all_three_produce_distinct_share_randomness(self):
        # Equal functionality, independent masking: the client shares from
        # the three protocols must differ even on identical inputs.
        ring_fn, shares, bias, _ = _random_case(123)
        outputs = []
        for suite in (
            DealerSuite(TrustedDealer(seed=5)),
            DelphiSuite(np.random.default_rng(5), key_bits=256, ot_security=40),
            CheetahSuite(np.random.default_rng(5), ring_dim=64, ot_security=40),
        ):
            y = suite.linear(shares, ring_fn, bias, Channel())
            outputs.append(y[0].copy())
        assert not np.array_equal(outputs[0], outputs[1])
        assert not np.array_equal(outputs[1], outputs[2])
