"""``ConvOp.ring_fn`` is exact: one 2-D uint64 product over the im2col
gather equals the per-sample ``np.matmul`` it replaced, bit for bit.

uint64 arithmetic wraps mod 2^64 in any summation order, so the two must
agree on full-range inputs and weights at every batch size and stride.
"""

import numpy as np
import pytest

from repro.mpc.program import ConvOp
from repro.nn.functional import conv_output_size, im2col

C_IN, C_OUT, SIZE = 3, 5, 9
CONVS = {  # kernel, stride, padding
    "3x3-s1-p1": (3, 1, 1),
    "3x3-s2-p1": (3, 2, 1),
    "1x1-s2-p0": (1, 2, 0),
}
TOP = np.iinfo(np.uint64).max


def _full_range(rng, shape):
    """Uniform uint64 words, with the ring's edge values planted up front."""
    words = rng.integers(0, TOP, shape, dtype=np.uint64, endpoint=True)
    edges = np.array([0, 1, TOP, 1 << 63, (1 << 63) - 1], dtype=np.uint64)
    words.reshape(-1)[: len(edges)] = edges
    return words


def _per_sample_reference(op, x):
    """The per-sample integer ``np.matmul`` over the im2col patches."""
    weight = op.weight_ring.reshape(op.out_channels, -1)
    cols, out_h, out_w = im2col(
        x, op.kernel_size, op.kernel_size, op.stride, op.padding, op.dilation
    )
    return np.matmul(weight, cols).reshape(len(x), op.out_channels, out_h, out_w)


@pytest.mark.parametrize("batch", [1, 2, 3, 8])
@pytest.mark.parametrize("conv", CONVS)
def test_ring_fn_equals_per_sample_matmul(conv, batch):
    kernel, stride, padding = CONVS[conv]
    rng = np.random.default_rng([kernel, stride, padding, batch])
    out = conv_output_size(SIZE, kernel, stride, padding, 1)
    op = ConvOp(
        kind="conv",
        name=f"conv-{conv}",
        in_shape=(C_IN, SIZE, SIZE),
        out_shape=(C_OUT, out, out),
        in_channels=C_IN,
        out_channels=C_OUT,
        kernel_size=kernel,
        stride=stride,
        padding=padding,
        dilation=1,
        weight_ring=_full_range(rng, (C_OUT, C_IN, kernel, kernel)),
    )
    x = _full_range(rng, (batch, C_IN, SIZE, SIZE))

    got = op.ring_fn()(x)
    want = _per_sample_reference(op, x)
    assert got.dtype == np.uint64
    assert got.shape == want.shape == (batch, *op.out_shape)
    assert np.array_equal(got, want)


SERVED = {  # c_in, c_out, size, kernel, stride, padding, dilation
    "stem-K27": (3, 4, 10, 3, 1, 1, 1),
    "projection-1x1-s2": (4, 8, 10, 1, 2, 0, 1),
    "wide-16to32": (16, 32, 6, 1, 1, 0, 1),
    "dilated-d2": (4, 6, 11, 3, 1, 2, 2),
}


@pytest.mark.parametrize("batch", [1, 2, 8])
@pytest.mark.parametrize("conv", SERVED)
def test_patch_rows_equal_per_sample_matmul(conv, batch):
    """The (N*L, K) patch-row product at the served nets' shapes: the
    3-channel stem (K = 27), a 1x1 stride-2 projection, O > K and a
    dilated conv, on full-range words. A patch row must hold one output
    position's K elements: a (K, L)-ordered gather scrambles it."""
    c_in, c_out, size, kernel, stride, padding, dilation = SERVED[conv]
    rng = np.random.default_rng([c_in, c_out, kernel, stride, dilation, batch])
    out = conv_output_size(size, kernel, stride, padding, dilation)
    op = ConvOp(
        kind="conv",
        name=f"conv-{conv}",
        in_shape=(c_in, size, size),
        out_shape=(c_out, out, out),
        in_channels=c_in,
        out_channels=c_out,
        kernel_size=kernel,
        stride=stride,
        padding=padding,
        dilation=dilation,
        weight_ring=_full_range(rng, (c_out, c_in, kernel, kernel)),
    )
    x = _full_range(rng, (batch, c_in, size, size))

    got = op.ring_fn()(x)
    want = _per_sample_reference(op, x)
    assert got.dtype == np.uint64 and got.flags.c_contiguous
    assert got.shape == want.shape == (batch, *op.out_shape)
    assert np.array_equal(got, want)
