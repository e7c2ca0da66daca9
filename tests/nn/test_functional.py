"""Tests for conv/pool/batchnorm primitives, including gradient checks and
cross-validation of the im2col convolution against scipy."""

import numpy as np
import pytest
from scipy.signal import correlate

from repro.nn import Tensor
from repro.nn import functional as F
from tests.conftest import assert_gradients_close


def reference_conv2d(x, w, b=None, stride=1, padding=0, dilation=1):
    """Direct (slow) NCHW convolution used as an oracle."""
    n, c, h, wdt = x.shape
    o, _, kh, kw = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    eff_kh = dilation * (kh - 1) + 1
    eff_kw = dilation * (kw - 1) + 1
    out_h = (x.shape[2] - eff_kh) // stride + 1
    out_w = (x.shape[3] - eff_kw) // stride + 1
    out = np.zeros((n, o, out_h, out_w))
    for img in range(n):
        for oc in range(o):
            for i in range(out_h):
                for j in range(out_w):
                    hi, wj = i * stride, j * stride
                    patch = x[
                        img,
                        :,
                        hi : hi + eff_kh : dilation,
                        wj : wj + eff_kw : dilation,
                    ]
                    out[img, oc, i, j] = (patch * w[oc]).sum()
            if b is not None:
                out[img, oc] += b[oc]
    return out


class TestConv2d:
    @pytest.mark.parametrize("stride,padding,dilation", [(1, 0, 1), (1, 1, 1), (2, 1, 1), (1, 2, 2)])
    def test_forward_matches_reference(self, rng, stride, padding, dilation):
        x = rng.standard_normal((2, 3, 8, 8))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        out = F.conv2d(
            Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding, dilation=dilation
        )
        ref = reference_conv2d(x, w, b, stride, padding, dilation)
        np.testing.assert_allclose(out.data, ref, atol=1e-4)

    def test_forward_matches_scipy_same(self, rng):
        x = rng.standard_normal((1, 3, 10, 10))
        w = rng.standard_normal((5, 3, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), padding=1)
        ref = np.stack(
            [sum(correlate(x[0, c], w[o, c], mode="same") for c in range(3)) for o in range(5)]
        )
        np.testing.assert_allclose(out.data[0], ref, atol=1e-4)

    def test_gradients(self, rng):
        x = rng.standard_normal((1, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        assert_gradients_close(
            lambda xx, ww, bb: (F.conv2d(xx, ww, bb, stride=1, padding=1) ** 2).sum(),
            [x, w, b],
        )

    def test_gradients_strided_dilated(self, rng):
        x = rng.standard_normal((1, 1, 7, 7))
        w = rng.standard_normal((2, 1, 3, 3))
        assert_gradients_close(
            lambda xx, ww: (F.conv2d(xx, ww, stride=2, padding=2, dilation=2) ** 2).sum(),
            [x, w],
        )

    @pytest.mark.parametrize("stride,padding,dilation", [(1, 1, 1), (2, 1, 1), (1, 2, 2)])
    def test_a_row_does_not_depend_on_its_batch(self, rng, stride, padding, dilation):
        """A batch-8 forward makes the batch-1 product once per row, so
        each row's bytes equal that row convolved alone."""
        x = rng.standard_normal((8, 16, 12, 12)).astype(np.float32)
        w = rng.standard_normal((24, 16, 3, 3)).astype(np.float32)

        def conv(rows):
            return F.conv2d(
                Tensor(rows), Tensor(w), stride=stride, padding=padding, dilation=dilation
            ).data

        alone = np.concatenate([conv(x[i : i + 1]) for i in range(len(x))])
        assert conv(x).tobytes() == alone.tobytes()

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 5, 5)))
        w = Tensor(rng.standard_normal((2, 4, 3, 3)))
        with pytest.raises(ValueError, match="channel mismatch"):
            F.conv2d(x, w)


class TestConv2dBytes:
    """A batched ``conv2d`` gathers its patches straight into a contiguous
    (N, K, L) array and rebuilds im2col's strided layout only for the
    weight gradient. Its forward output and every gradient byte-equal the
    path it replaced, kept here as the reference: ``matmul`` over
    ``ascontiguousarray(im2col(...))`` forward, and the einsum over
    im2col's strided cols backward (einsum sums in stride order, so a
    weight gradient read off the contiguous cols would differ)."""

    @staticmethod
    def reference(x, w, b, grad, stride, padding, dilation):
        n = x.shape[0]
        out_channels, _, kh, kw = w.shape
        cols, out_h, out_w = F.im2col(x, kh, kw, stride, padding, dilation)
        w_mat = w.reshape(out_channels, -1)
        out = np.matmul(w_mat, np.ascontiguousarray(cols)) + b.reshape(1, -1, 1)
        grad_mat = grad.reshape(n, out_channels, -1)
        grad_w = np.einsum("nol,nkl->ok", grad_mat, cols).reshape(w.shape)
        grad_cols = np.matmul(w_mat.T, grad_mat)
        grad_x = F.col2im(grad_cols, x.shape, kh, kw, stride, padding, dilation)
        grad_b = grad_mat.sum(axis=(0, 2))
        return out.reshape(n, out_channels, out_h, out_w), grad_x, grad_w, grad_b

    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("dilation", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_equal_the_im2col_path(self, dtype, stride, padding, dilation, batch):
        rng = np.random.default_rng([stride, padding, dilation, batch])
        x = rng.standard_normal((batch, 6, 11, 10)).astype(dtype)
        w = rng.standard_normal((7, 6, 3, 3)).astype(dtype)
        b = rng.standard_normal(7).astype(dtype)
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = F.conv2d(xt, wt, bt, stride=stride, padding=padding, dilation=dilation)
        grad = rng.standard_normal(out.shape).astype(dtype)
        out.backward(grad)

        want = self.reference(x, w, b, grad, stride, padding, dilation)
        for got, ref in zip((out.data, xt.grad, wt.grad, bt.grad), want):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


class TestCol2im:
    @staticmethod
    def reference_col2im(cols, x_shape, kh, kw, stride, padding, dilation):
        """The element-wise ``np.add.at`` scatter over the im2col index."""
        n, c, h, w = x_shape
        out = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
        channels, rows, colidx, _, _ = F._col_indices(
            c, h, w, kh, kw, stride, padding, dilation
        )
        np.add.at(out, (slice(None), channels, rows, colidx), cols)
        if padding > 0:
            out = out[:, :, padding:-padding, padding:-padding]
        return out

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "kernel,stride,padding,dilation",
        [(3, 1, 1, 1), (3, 2, 1, 1), (4, 3, 2, 1), (3, 1, 2, 2), (2, 2, 0, 1), (1, 2, 0, 1)],
    )
    def test_bytes_equal_add_at(self, rng, dtype, kernel, stride, padding, dilation):
        """Overlapping patches sum in the same order as ``np.add.at``:
        the gradient bytes do not move, at any stride or dilation."""
        x_shape = (3, 2, 9, 8)
        out_h = F.conv_output_size(9, kernel, stride, padding, dilation)
        out_w = F.conv_output_size(8, kernel, stride, padding, dilation)
        scale = 10.0 ** rng.integers(-6, 6, (3, 2 * kernel * kernel, out_h * out_w))
        cols = (rng.standard_normal(scale.shape) * scale).astype(dtype)
        got = F.col2im(cols, x_shape, kernel, kernel, stride, padding, dilation)
        want = self.reference_col2im(cols, x_shape, kernel, kernel, stride, padding, dilation)
        assert got.dtype == want.dtype and got.shape == want.shape == x_shape
        assert got.tobytes() == want.tobytes()


class TestConvTranspose2d:
    def test_inverts_stride_shape(self, rng):
        x = Tensor(rng.standard_normal((2, 4, 5, 5)))
        w = Tensor(rng.standard_normal((4, 3, 2, 2)))
        out = F.conv_transpose2d(x, w, stride=2)
        assert out.shape == (2, 3, 10, 10)

    def test_adjoint_of_conv(self, rng):
        """<conv(x), y> == <x, conv_transpose(y)> for matching geometry."""
        x = rng.standard_normal((1, 2, 6, 6)).astype(np.float64)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float64)
        y = rng.standard_normal((1, 3, 4, 4)).astype(np.float64)
        conv_x = F.conv2d(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64)).data
        # conv_transpose weight layout is (in=3, out=2, kh, kw) == w as-is
        ct_y = F.conv_transpose2d(Tensor(y, dtype=np.float64), Tensor(w, dtype=np.float64)).data
        np.testing.assert_allclose((conv_x * y).sum(), (x * ct_y).sum(), rtol=1e-10)

    def test_gradients(self, rng):
        x = rng.standard_normal((1, 2, 4, 4))
        w = rng.standard_normal((2, 3, 2, 2))
        b = rng.standard_normal(3)
        assert_gradients_close(
            lambda xx, ww, bb: (F.conv_transpose2d(xx, ww, bb, stride=2) ** 2).sum(),
            [x, w, b],
        )


class TestPooling:
    def test_max_pool_forward(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_avg_pool_forward(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_max_pool_gradients(self, rng):
        x = rng.standard_normal((1, 2, 4, 4))
        # Perturbing by eps should not change the argmax: keep entries separated.
        x = np.round(x * 10) + np.linspace(0, 0.4, 32).reshape(x.shape)
        assert_gradients_close(lambda xx: (F.max_pool2d(xx, 2) ** 2).sum(), [x])

    def test_avg_pool_gradients(self, rng):
        x = rng.standard_normal((2, 2, 4, 4))
        assert_gradients_close(lambda xx: (F.avg_pool2d(xx, 2) ** 2).sum(), [x])

    def test_upsample_nearest(self, rng):
        x = rng.standard_normal((1, 1, 2, 2)).astype(np.float32)
        out = F.upsample_nearest2d(Tensor(x), 2)
        assert out.shape == (1, 1, 4, 4)
        np.testing.assert_allclose(out.data[0, 0, :2, :2], x[0, 0, 0, 0])

    def test_upsample_gradients(self, rng):
        x = rng.standard_normal((1, 2, 3, 3))
        assert_gradients_close(lambda xx: (F.upsample_nearest2d(xx, 2) ** 2).sum(), [x])

    def test_pool_inverse_relationship(self, rng):
        """avg_pool(upsample(x)) == x — consistency of the two resamplers."""
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        roundtrip = F.avg_pool2d(F.upsample_nearest2d(Tensor(x), 2), 2)
        np.testing.assert_allclose(roundtrip.data, x, atol=1e-6)


class TestBatchNorm:
    def test_normalises_in_training(self, rng):
        x = Tensor(rng.standard_normal((8, 3, 4, 4)) * 5 + 2)
        gamma, beta = Tensor(np.ones(3)), Tensor(np.zeros(3))
        rm, rv = np.zeros(3, np.float32), np.ones(3, np.float32)
        out = F.batch_norm2d(x, gamma, beta, rm, rv, training=True)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0, atol=1e-4)
        np.testing.assert_allclose(out.data.std(axis=(0, 2, 3)), 1, atol=1e-2)

    def test_running_stats_updated(self, rng):
        x = Tensor(rng.standard_normal((8, 3, 4, 4)) + 7)
        gamma, beta = Tensor(np.ones(3)), Tensor(np.zeros(3))
        rm, rv = np.zeros(3, np.float32), np.ones(3, np.float32)
        F.batch_norm2d(x, gamma, beta, rm, rv, training=True, momentum=1.0)
        np.testing.assert_allclose(rm, x.data.mean(axis=(0, 2, 3)), atol=1e-4)

    def test_eval_uses_running_stats(self, rng):
        x = Tensor(rng.standard_normal((4, 2, 3, 3)))
        gamma, beta = Tensor(np.ones(2) * 2), Tensor(np.ones(2))
        rm = np.zeros(2, np.float32)
        rv = np.ones(2, np.float32)
        out = F.batch_norm2d(x, gamma, beta, rm, rv, training=False, eps=0.0)
        np.testing.assert_allclose(out.data, 2 * x.data + 1, atol=1e-5)

    def test_training_gradients(self, rng):
        x = rng.standard_normal((4, 2, 3, 3))
        gamma = rng.standard_normal(2) + 1.5
        beta = rng.standard_normal(2)

        def loss(xx, gg, bb):
            rm, rv = np.zeros(2), np.ones(2)
            return (F.batch_norm2d(xx, gg, bb, rm, rv, training=True) ** 2).sum()

        assert_gradients_close(loss, [x, gamma, beta])


class TestSoftmaxAndDropout:
    def test_softmax_sums_to_one(self, rng):
        x = Tensor(rng.standard_normal((5, 7)) * 10)
        probs = F.softmax(x)
        np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, rtol=1e-5)

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = Tensor(rng.standard_normal((3, 6)))
        np.testing.assert_allclose(
            F.log_softmax(x).data, np.log(F.softmax(x).data), atol=1e-5
        )

    def test_softmax_stable_for_large_logits(self):
        x = Tensor(np.array([[1000.0, 1000.0, -1000.0]]))
        probs = F.softmax(x).data
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs[0, :2], 0.5, atol=1e-6)

    def test_dropout_eval_identity(self, rng):
        x = Tensor(rng.standard_normal((4, 4)))
        out = F.dropout(x, 0.5, training=False, rng=rng)
        np.testing.assert_allclose(out.data, x.data)

    def test_dropout_preserves_expectation(self, rng):
        x = Tensor(np.ones((200, 200), dtype=np.float32))
        out = F.dropout(x, 0.3, training=True, rng=rng)
        assert abs(out.data.mean() - 1.0) < 0.02
