"""Differentiable neural-network primitives on :class:`~repro.nn.tensor.Tensor`.

The convolution family is implemented with the im2col/col2im lowering: a
convolution becomes one big matrix multiplication, which is the only way to
get acceptable throughput for VGG-scale models in pure numpy. Dilation is
supported because the DINA attack model uses dilated convolutions in its
basic inverse blocks (Section III-B of the paper).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .tensor import Tensor

__all__ = [
    "im2col",
    "im2row",
    "conv_output_size",
    "col2im",
    "conv2d",
    "conv_transpose2d",
    "max_pool2d",
    "avg_pool2d",
    "upsample_nearest2d",
    "batch_norm2d",
    "linear",
    "softmax",
    "log_softmax",
    "relu",
    "dropout",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int, dilation: int = 1) -> int:
    """Spatial output size of a convolution along one axis."""
    effective = dilation * (kernel - 1) + 1
    return (size + 2 * padding - effective) // stride + 1


@lru_cache(maxsize=128)
def _col_indices(
    c: int,
    h: int,
    w: int,
    kh: int,
    kw: int,
    stride: int,
    padding: int,
    dilation: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Index arrays mapping a padded NCHW image into its im2col matrix.

    Cached per (shape, kernel) signature: a served model lowers the same
    convolutions request after request, and rebuilding these index
    matrices dominated the per-inference clear-path profile. The cached
    arrays are frozen — callers use them as read-only fancy indices.
    """
    out_h = conv_output_size(h, kh, stride, padding, dilation)
    out_w = conv_output_size(w, kw, stride, padding, dilation)

    i0 = dilation * np.repeat(np.arange(kh), kw)
    i0 = np.tile(i0, c)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = dilation * np.tile(np.arange(kw), kh * c)
    j1 = stride * np.tile(np.arange(out_w), out_h)

    rows = i0.reshape(-1, 1) + i1.reshape(1, -1)
    cols = j0.reshape(-1, 1) + j1.reshape(1, -1)
    channels = np.repeat(np.arange(c), kh * kw).reshape(-1, 1)
    for index in (channels, rows, cols):
        index.setflags(write=False)
    return channels, rows, cols, out_h, out_w


@lru_cache(maxsize=128)
def _flat_gather(
    c: int,
    h: int,
    w: int,
    kh: int,
    kw: int,
    stride: int,
    padding: int,
    dilation: int,
) -> tuple[np.ndarray, int, int, int, int]:
    """The im2col gather as one raveled index into the padded image.

    A single-axis ``take`` over this precomputed flat index selects the
    same elements as the three-array fancy index it replaces, several
    times faster.
    """
    channels, rows, cols, out_h, out_w = _col_indices(
        c, h, w, kh, kw, stride, padding, dilation
    )
    h_padded, w_padded = h + 2 * padding, w + 2 * padding
    flat = ((channels * h_padded + rows) * w_padded + cols).ravel()
    flat.setflags(write=False)
    return flat, channels.shape[0], rows.shape[1], out_h, out_w


@lru_cache(maxsize=128)
def _row_gather(
    c: int,
    h: int,
    w: int,
    kh: int,
    kw: int,
    stride: int,
    padding: int,
    dilation: int,
) -> tuple[np.ndarray, int, int, int, int]:
    """:func:`_flat_gather`'s index reordered to (L, K): output position
    by output position, each one's K patch elements adjacent."""
    flat, k, patch_cols, out_h, out_w = _flat_gather(
        c, h, w, kh, kw, stride, padding, dilation
    )
    rows = flat.reshape(k, patch_cols).T.ravel()
    rows.setflags(write=False)
    return rows, k, patch_cols, out_h, out_w


def _padded_rows(x: np.ndarray, padding: int) -> np.ndarray:
    """The NCHW ``x`` zero-padded on both spatial axes, one row per sample."""
    n, c, h, w = x.shape
    if padding > 0:
        # Hand-rolled zero pad: np.pad's generality costs more Python
        # time than the whole gather for small feature maps.
        padded = np.zeros(
            (n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype
        )
        padded[:, :, padding : padding + h, padding : padding + w] = x
        x = padded
    return x.reshape(n, -1)


def im2col(
    x: np.ndarray,
    kh: int,
    kw: int,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
) -> tuple[np.ndarray, int, int]:
    """Lower an NCHW array into a (N, C*kh*kw, out_h*out_w) patch matrix."""
    n, c, h, w = x.shape
    flat, k, patch_cols, out_h, out_w = _flat_gather(
        c, h, w, kh, kw, stride, padding, dilation
    )
    # The gather lands in the exact memory layout the old three-array
    # fancy index produced — a (K, L, N) base transposed to (N, K, L) —
    # so every downstream float reduction keeps its summation order and
    # the pinned logits stay bit-identical.
    patches = (
        _padded_rows(x, padding)
        .T.take(flat, axis=0)
        .reshape(k, patch_cols, n)
        .transpose(2, 0, 1)
    )
    return patches, out_h, out_w


def im2row(
    x: np.ndarray,
    kh: int,
    kw: int,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
) -> tuple[np.ndarray, int, int]:
    """Lower an NCHW array into contiguous (N, out_h*out_w, C*kh*kw) patch
    rows: :func:`im2col` transposed, each output position's patch adjacent
    in memory."""
    n, c, h, w = x.shape
    rows, k, patch_cols, out_h, out_w = _row_gather(
        c, h, w, kh, kw, stride, padding, dilation
    )
    patches = _padded_rows(x, padding).take(rows, axis=1).reshape(n, patch_cols, k)
    return patches, out_h, out_w


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter patch gradients back to NCHW.

    One strided add per kernel offset, in offset order: every pixel sums
    its patches in the order ``np.add.at`` over the im2col index would,
    so the bytes are the same, without its per-element loop.
    """
    n, c, h, w = x_shape
    h_padded, w_padded = h + 2 * padding, w + 2 * padding
    out_h = conv_output_size(h, kh, stride, padding, dilation)
    out_w = conv_output_size(w, kw, stride, padding, dilation)
    out = np.zeros((n, c, h_padded, w_padded), dtype=cols.dtype)
    patches = cols.reshape(n, c, kh, kw, out_h, out_w)
    for i in range(kh):
        rows = slice(i * dilation, i * dilation + stride * out_h, stride)
        for j in range(kw):
            cols_j = slice(j * dilation, j * dilation + stride * out_w, stride)
            out[:, :, rows, cols_j] += patches[:, :, i, j]
    if padding > 0:
        out = out[:, :, padding:-padding, padding:-padding]
    return out


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
) -> Tensor:
    """2-D convolution (cross-correlation) of NCHW input with OIHW weights."""
    n, c, h, w = x.shape
    out_channels, in_channels, kh, kw = weight.shape
    if in_channels != c:
        raise ValueError(f"conv2d channel mismatch: input {c}, weight {in_channels}")

    flat, k, patch_cols, out_h, out_w = _flat_gather(
        c, h, w, kh, kw, stride, padding, dilation
    )
    # Each sample's patch matrix gathered contiguous: the product is then
    # one BLAS call per sample, the same call a batch-1 forward makes, so
    # a row's output cannot depend on its batch. On im2col's strided
    # (N, K, L) view numpy falls back to its own loop, about ten times
    # slower.
    cols = _padded_rows(x.data, padding).take(flat, axis=1).reshape(n, k, patch_cols)
    w_mat = weight.data.reshape(out_channels, -1)
    out = np.matmul(w_mat, cols)  # (N, O, out_h*out_w)
    if bias is not None:
        out = out + bias.data.reshape(1, -1, 1)
    out = out.reshape(n, out_channels, out_h, out_w)

    x_shape = x.shape
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        grad_mat = grad.reshape(n, out_channels, -1)
        # The weight gradient reads im2col's (K, L, N) layout: einsum's
        # summation order follows the strides, and these are its bytes.
        strided = np.ascontiguousarray(cols.transpose(1, 2, 0)).transpose(2, 0, 1)
        grad_w = np.einsum("nol,nkl->ok", grad_mat, strided).reshape(weight.shape)
        grad_cols = np.matmul(w_mat.T, grad_mat)
        grad_x = col2im(grad_cols, x_shape, kh, kw, stride, padding, dilation)
        if bias is None:
            return (grad_x, grad_w)
        grad_b = grad_mat.sum(axis=(0, 2))
        return (grad_x, grad_w, grad_b)

    return Tensor._make(out, parents, backward)


def conv_transpose2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
    output_padding: int = 0,
) -> Tensor:
    """Transposed convolution (a.k.a. deconvolution) for NCHW input.

    ``weight`` uses the (in_channels, out_channels, kh, kw) layout. The
    forward pass is exactly the adjoint of a strided convolution, so it is
    implemented with :func:`col2im`; the backward pass re-uses the forward
    im2col machinery.
    """
    n, c, h, w = x.shape
    in_channels, out_channels, kh, kw = weight.shape
    if in_channels != c:
        raise ValueError(f"conv_transpose2d channel mismatch: input {c}, weight {in_channels}")

    out_h = (h - 1) * stride - 2 * padding + kh + output_padding
    out_w = (w - 1) * stride - 2 * padding + kw + output_padding

    w_mat = weight.data.reshape(in_channels, -1)  # (C, O*kh*kw)
    x_mat = x.data.reshape(n, c, -1)
    cols = np.matmul(w_mat.T, x_mat)  # (N, O*kh*kw, h*w)
    out = col2im(
        cols,
        (n, out_channels, out_h, out_w),
        kh,
        kw,
        stride=stride,
        padding=padding,
        dilation=1,
    )
    if bias is not None:
        out = out + bias.data.reshape(1, -1, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        grad_cols, _, _ = im2col(grad, kh, kw, stride=stride, padding=padding)
        grad_x = np.matmul(w_mat, grad_cols).reshape(x.shape)
        grad_w = np.einsum("ncl,nkl->ck", x_mat, grad_cols).reshape(weight.shape)
        if bias is None:
            return (grad_x, grad_w)
        grad_b = grad.sum(axis=(0, 2, 3))
        return (grad_x, grad_w, grad_b)

    return Tensor._make(out, parents, backward)


def max_pool2d(x: Tensor, kernel_size: int = 2, stride: int | None = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) square windows."""
    stride = stride or kernel_size
    n, c, h, w = x.shape
    cols, out_h, out_w = im2col(
        x.data.reshape(n * c, 1, h, w), kernel_size, kernel_size, stride=stride
    )
    # cols: (N*C, k*k, L)
    argmax = cols.argmax(axis=1)
    out = np.take_along_axis(cols, argmax[:, None, :], axis=1).reshape(n, c, out_h, out_w)

    def backward(grad):
        grad_flat = grad.reshape(n * c, 1, -1)
        grad_cols = np.zeros_like(cols)
        np.put_along_axis(grad_cols, argmax[:, None, :], grad_flat, axis=1)
        grad_x = col2im(grad_cols, (n * c, 1, h, w), kernel_size, kernel_size, stride=stride)
        return (grad_x.reshape(x.shape),)

    return Tensor._make(out, (x,), backward)


def avg_pool2d(x: Tensor, kernel_size: int = 2, stride: int | None = None) -> Tensor:
    """Average pooling over square windows."""
    stride = stride or kernel_size
    n, c, h, w = x.shape
    cols, out_h, out_w = im2col(
        x.data.reshape(n * c, 1, h, w), kernel_size, kernel_size, stride=stride
    )
    out = cols.mean(axis=1).reshape(n, c, out_h, out_w)
    window = kernel_size * kernel_size

    def backward(grad):
        grad_cols = np.repeat(grad.reshape(n * c, 1, -1), window, axis=1) / window
        grad_x = col2im(grad_cols, (n * c, 1, h, w), kernel_size, kernel_size, stride=stride)
        return (grad_x.reshape(x.shape),)

    return Tensor._make(out, (x,), backward)


def upsample_nearest2d(x: Tensor, scale: int = 2) -> Tensor:
    """Nearest-neighbour spatial upsampling by an integer factor."""
    data = x.data.repeat(scale, axis=2).repeat(scale, axis=3)
    n, c, h, w = x.shape

    def backward(grad):
        g = grad.reshape(n, c, h, scale, w, scale).sum(axis=(3, 5))
        return (g,)

    return Tensor._make(data, (x,), backward)


def batch_norm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalisation over the channel axis of an NCHW tensor.

    ``running_mean``/``running_var`` are plain numpy buffers updated in place
    during training (they are state, not differentiable parameters).
    """
    if training:
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mean = running_mean
        var = running_var

    mean_b = mean.reshape(1, -1, 1, 1)
    inv_std = 1.0 / np.sqrt(var.reshape(1, -1, 1, 1) + eps)
    x_hat = (x.data - mean_b) * inv_std
    out = gamma.data.reshape(1, -1, 1, 1) * x_hat + beta.data.reshape(1, -1, 1, 1)

    n, c, h, w = x.shape
    m = n * h * w

    def backward(grad):
        grad_gamma = (grad * x_hat).sum(axis=(0, 2, 3))
        grad_beta = grad.sum(axis=(0, 2, 3))
        grad_xhat = grad * gamma.data.reshape(1, -1, 1, 1)
        if training:
            # Standard batch-norm backward through the batch statistics.
            sum_grad = grad_xhat.sum(axis=(0, 2, 3), keepdims=True)
            sum_grad_xhat = (grad_xhat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
            grad_x = (inv_std / m) * (m * grad_xhat - sum_grad - x_hat * sum_grad_xhat)
        else:
            grad_x = grad_xhat * inv_std
        return (grad_x.astype(grad.dtype), grad_gamma, grad_beta)

    return Tensor._make(out.astype(x.data.dtype), (x, gamma, beta), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with (out, in)-shaped weights."""
    out = x @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


def relu(x: Tensor) -> Tensor:
    return x.relu()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: identity at evaluation time."""
    if not training or p <= 0.0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(x.data.dtype) / keep
    return x * Tensor(mask)
