"""Integration tests: the functional Delphi/Cheetah suites vs plaintext."""

import numpy as np
import pytest

from repro import nn
from repro.models.layered import LayeredModel
from repro.mpc.backends import DealerSuite, linear_map_matrix
from repro.mpc.backends.cheetah import CheetahSuite
from repro.mpc.backends.delphi import DelphiSuite
from repro.mpc.backends.suite import PlacementError
from repro.mpc.engine import SecureInferenceEngine
from repro.mpc.network import Channel
from repro.mpc.transport import QueueTransport


def _tiny_model(seed=0):
    rng = np.random.default_rng(seed)
    body = [
        nn.Conv2d(2, 3, 3, padding=1),
        nn.ReLU(),
        nn.MaxPool2d(2, 2),
        nn.Conv2d(3, 4, 3, padding=1),
        nn.ReLU(),
    ]
    model = LayeredModel(body, "tiny", (2, 8, 8))
    for p in model.parameters():
        p.data = rng.normal(0, 0.3, p.data.shape).astype(np.float32)
    return model


def _reference(model, x, boundary):
    with nn.no_grad():
        return model.forward_to(nn.Tensor(x), boundary).data


class TestLinearMapMatrix:
    def test_matches_direct_matmul(self):
        rng = np.random.default_rng(0)
        weight = rng.integers(0, 2**32, (5, 7), dtype=np.uint64)

        def ring_fn(x):
            return np.matmul(x, weight.T)

        matrix = linear_map_matrix(ring_fn, (7,))
        np.testing.assert_array_equal(matrix, weight)

    def test_conv_probing_shape(self):
        conv_weight = np.random.default_rng(1).integers(
            0, 100, (3, 2, 3, 3), dtype=np.uint64
        )
        from repro.nn.functional import im2col

        def ring_fn(x):
            cols, oh, ow = im2col(x, 3, 3, 1, 1)
            out = np.matmul(conv_weight.reshape(3, -1), cols)
            return out.reshape(x.shape[0], 3, oh, ow)

        matrix = linear_map_matrix(ring_fn, (2, 4, 4))
        assert matrix.shape == (3 * 4 * 4, 2 * 4 * 4)


class TestFunctionalSuitesNeedBothRows:
    """The functional stacks run both parties in one address space: handed
    one party's transport they refuse with a typed error, before any
    cryptography runs."""

    @pytest.mark.parametrize(
        "make_suite",
        [
            lambda: DelphiSuite(np.random.default_rng(1), key_bits=256, ot_security=40),
            lambda: CheetahSuite(np.random.default_rng(2), ring_dim=64, ot_security=40),
        ],
        ids=["delphi", "cheetah"],
    )
    def test_one_row_placement_is_a_typed_error(self, make_suite):
        suite = make_suite()
        one_row = np.zeros((1, 1, 4), np.uint64)
        for io in QueueTransport.pair():
            with pytest.raises(PlacementError, match="both parties"):
                suite.relu(one_row, io)
            with pytest.raises(PlacementError, match="both parties"):
                suite.linear(one_row, lambda v: v, None, io)
            with pytest.raises(PlacementError, match="both parties"):
                suite.maximum(one_row, one_row, io)


@pytest.mark.slow
class TestFunctionalSuites:
    @pytest.mark.parametrize(
        "make_suite",
        [
            lambda: DelphiSuite(np.random.default_rng(1), key_bits=256,
                                gc_bits=64, ot_security=48),
            lambda: CheetahSuite(np.random.default_rng(2), ring_dim=256,
                                 ot_security=48),
        ],
        ids=["delphi", "cheetah"],
    )
    def test_end_to_end_inference_matches_plaintext(self, make_suite):
        model = _tiny_model()
        rng = np.random.default_rng(3)
        x = rng.normal(0, 0.5, (1, 2, 8, 8)).astype(np.float32)
        reference = _reference(model, x, 2.5)
        engine = SecureInferenceEngine(model, 2.5, suite=make_suite())
        result = engine.run(x)
        np.testing.assert_allclose(result.reconstruct(), reference, atol=0.01)

    def test_suites_diverge_in_cost_shape(self):
        # Delphi: byte-heavy (GC tables), few rounds. Cheetah: lean bytes,
        # round-heavy (OT interactions) - the paper's LAN/WAN trade-off.
        model = _tiny_model()
        x = np.random.default_rng(4).normal(0, 0.5, (1, 2, 8, 8)).astype(np.float32)

        delphi = SecureInferenceEngine(
            model, 1.5,
            suite=DelphiSuite(np.random.default_rng(1), ot_security=48),
        ).run(x)
        cheetah = SecureInferenceEngine(
            model, 1.5,
            suite=CheetahSuite(np.random.default_rng(2), ring_dim=256,
                               ot_security=48),
        ).run(x)
        assert delphi.total_bytes > cheetah.total_bytes
        assert cheetah.rounds > delphi.rounds

    def test_dealer_suite_is_engine_default(self):
        model = _tiny_model()
        engine = SecureInferenceEngine(model, 1.5)
        assert isinstance(engine.suite, DealerSuite)

    def test_cheetah_rejects_oversized_layer(self):
        suite = CheetahSuite(np.random.default_rng(0), ring_dim=16, ot_security=48)
        shares = (np.zeros((1, 32), np.uint64), np.zeros((1, 32), np.uint64))

        def ring_fn(x):
            return x.copy()

        with pytest.raises(ValueError):
            suite.linear(shares, ring_fn, None, Channel())

    def test_delphi_offline_bytes_dominate(self):
        model = _tiny_model()
        x = np.random.default_rng(5).normal(0, 0.5, (1, 2, 8, 8)).astype(np.float32)
        suite = DelphiSuite(np.random.default_rng(1), ot_security=48)
        engine = SecureInferenceEngine(model, 1.0, suite=suite)
        result = engine.run(x)
        # The Paillier ciphertext exchange is the bulk of Delphi's traffic.
        assert suite.offline_bytes > 0.5 * result.total_bytes

    def test_maximum_via_relu_fallback(self):
        suite = CheetahSuite(np.random.default_rng(6), ring_dim=64, ot_security=40)
        rng = np.random.default_rng(7)
        a = rng.integers(-100, 100, 6).astype(np.int64)
        b = rng.integers(-100, 100, 6).astype(np.int64)
        a0 = rng.integers(0, 2**63, 6, dtype=np.uint64)
        b0 = rng.integers(0, 2**63, 6, dtype=np.uint64)
        left = (a0, (a.astype(np.uint64) - a0).astype(np.uint64))
        right = (b0, (b.astype(np.uint64) - b0).astype(np.uint64))
        m0, m1 = suite.maximum(left, right, Channel())
        np.testing.assert_array_equal((m0 + m1).astype(np.int64), np.maximum(a, b))
