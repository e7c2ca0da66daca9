"""Hypothesis property tests for the full secure-op stack.

These complement tests/mpc/test_protocols.py by driving whole-layer ops
(max-pool windows, avg-pool, ReLU grids) with randomly shaped inputs, and
by checking protocol-level invariants (traffic monotonicity, share
freshness). The protocol-algebra properties run under both placements
(``run_placements``): both rows in-process, and two one-row parties over
a loopback transport, which must agree bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from placements import run_placements

from repro import nn
from repro.mpc import FixedPointConfig, SecureInferenceEngine
from repro.mpc.protocols import secure_maximum, secure_relu
from repro.mpc.sharing import reconstruct_additive, share_additive
from repro.models.layered import LayeredModel

CFG = FixedPointConfig(frac_bits=12)


def _tiny_model(seed: int, with_avgpool: bool = False) -> LayeredModel:
    rng = np.random.default_rng(seed)
    pool = nn.AvgPool2d(2) if with_avgpool else nn.MaxPool2d(2)
    modules = [
        nn.Conv2d(1, 3, 3, padding=1, rng=rng),
        nn.ReLU(),
        pool,
        nn.Conv2d(3, 2, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.Flatten(),
        nn.Linear(2 * 4 * 4, 4, rng=rng),
    ]
    return LayeredModel(modules, name="tiny", input_shape=(1, 8, 8))


class TestEngineProperties:
    @given(st.integers(0, 2**31), st.booleans())
    @settings(max_examples=8, deadline=None)
    def test_random_tiny_models_match_plaintext(self, seed, with_avgpool):
        model = _tiny_model(seed, with_avgpool).eval()
        rng = np.random.default_rng(seed + 1)
        x = rng.random((1, 1, 8, 8), dtype=np.float32)
        boundary = model.layer_ids[-1]
        engine = SecureInferenceEngine(model, boundary, dealer_seed=seed)
        secure = engine.run(x).reconstruct()
        plain = model.forward_to(nn.Tensor(x), boundary).data
        np.testing.assert_allclose(secure, plain, atol=3e-2)

    @given(st.integers(0, 2**31))
    @settings(max_examples=6, deadline=None)
    def test_traffic_grows_with_boundary(self, seed):
        model = _tiny_model(seed).eval()
        rng = np.random.default_rng(seed)
        x = rng.random((1, 1, 8, 8), dtype=np.float32)
        totals = []
        for boundary in (1.0, 2.5, 3.0):
            result = SecureInferenceEngine(model, boundary, dealer_seed=0).run(x)
            totals.append(result.total_bytes)
        assert totals == sorted(totals)
        assert totals[0] < totals[-1]

    @given(st.integers(0, 2**31))
    @settings(max_examples=6, deadline=None)
    def test_output_shares_are_fresh(self, seed):
        """Output shares must be re-randomised, not input-share reuses."""
        model = _tiny_model(seed).eval()
        rng = np.random.default_rng(seed)
        x = rng.random((1, 1, 8, 8), dtype=np.float32)
        result = SecureInferenceEngine(model, 1.0, dealer_seed=seed).run(x)
        # Each share individually decodes to ring-scale noise (huge values),
        # not to anything on the activation's scale.
        share_mag = np.abs(result.config.decode(result.shares[0])).mean()
        value_mag = np.abs(result.reconstruct()).mean() + 1e-9
        assert share_mag > 1e3 * value_mag


class TestProtocolAlgebra:
    @given(st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_relu_plus_negated_relu_is_identity(self, seed):
        """relu(x) - relu(-x) == x, evaluated entirely under MPC."""
        rng = np.random.default_rng(seed)
        values = rng.uniform(-10, 10, (64,)).astype(np.float32)
        xs = share_additive(CFG.encode(values), rng)

        def recompose(rows, dealer, channel):
            x = rows(xs)
            return secure_relu(x, dealer, channel) - secure_relu(
                FixedPointConfig.neg(x), dealer, channel
            )

        recomposed, _ = run_placements(recompose, seed)
        decoded = CFG.decode(reconstruct_additive(*recomposed))
        np.testing.assert_allclose(decoded, values, atol=4e-3)

    @given(st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_max_is_commutative(self, seed):
        rng = np.random.default_rng(seed)
        a_vals = rng.uniform(-5, 5, (32,)).astype(np.float32)
        b_vals = rng.uniform(-5, 5, (32,)).astype(np.float32)
        a = share_additive(CFG.encode(a_vals), rng)
        b = share_additive(CFG.encode(b_vals), rng)

        def both_orders(rows, dealer, channel):
            return np.stack(
                [
                    secure_maximum(rows(a), rows(b), dealer, channel),
                    secure_maximum(rows(b), rows(a), dealer, channel),
                ],
                axis=1,
            )

        result, _ = run_placements(both_orders, seed)
        ab, ba = CFG.decode(reconstruct_additive(*result))
        np.testing.assert_allclose(ab, ba, atol=4e-3)
        np.testing.assert_allclose(ab, np.maximum(a_vals, b_vals), atol=4e-3)

    @given(st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_max_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-5, 5, (32,)).astype(np.float32)
        a = share_additive(CFG.encode(values), rng)
        result, _ = run_placements(
            lambda rows, dealer, channel: secure_maximum(
                rows(a), rows(a), dealer, channel
            ),
            seed,
        )
        np.testing.assert_allclose(
            CFG.decode(reconstruct_additive(*result)), values, atol=4e-3
        )
