"""Structural similarity index (SSIM), Wang et al. 2004.

The paper quantifies attack success by the SSIM between the recovered and
true inputs, with a failure threshold (usually 0.3): a reconstruction whose
SSIM falls below the threshold is deemed unrecognisable (Figure 1). This is
the reference implementation used by every experiment: 11x11 Gaussian
window with sigma 1.5 and the standard stabilisation constants
``C1=(0.01 L)^2``, ``C2=(0.03 L)^2``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ssim", "ssim_batch", "psnr"]

_SIGMA = 1.5
_TRUNCATE = 3.5  # covers the conventional 11x11 window at sigma=1.5


def _filter(x: np.ndarray) -> np.ndarray:
    # On first use: scipy is ~25 MB resident, and no serving process filters.
    from scipy.ndimage import gaussian_filter

    return gaussian_filter(x, sigma=_SIGMA, truncate=_TRUNCATE, mode="reflect")


def _ssim_single_channel(x: np.ndarray, y: np.ndarray, data_range: float) -> float:
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2

    mu_x = _filter(x)
    mu_y = _filter(y)
    mu_xx = mu_x * mu_x
    mu_yy = mu_y * mu_y
    mu_xy = mu_x * mu_y

    sigma_xx = _filter(x * x) - mu_xx
    sigma_yy = _filter(y * y) - mu_yy
    sigma_xy = _filter(x * y) - mu_xy

    numerator = (2.0 * mu_xy + c1) * (2.0 * sigma_xy + c2)
    denominator = (mu_xx + mu_yy + c1) * (sigma_xx + sigma_yy + c2)
    return float(np.mean(numerator / denominator))


def ssim(x: np.ndarray, y: np.ndarray, data_range: float = 1.0) -> float:
    """SSIM between two images.

    Accepts HxW (grayscale) or CxHxW (multi-channel; channels averaged,
    matching the common colour-SSIM convention used by the IDPA literature).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.ndim == 2:
        return _ssim_single_channel(x, y, data_range)
    if x.ndim == 3:
        channels = [
            _ssim_single_channel(x[c], y[c], data_range) for c in range(x.shape[0])
        ]
        return float(np.mean(channels))
    raise ValueError(f"expected HxW or CxHxW image, got shape {x.shape}")


def ssim_batch(x: np.ndarray, y: np.ndarray, data_range: float = 1.0) -> float:
    """Average SSIM over a batch of NxCxHxW image pairs.

    This is the "Avg. SSIM" quantity on the y-axes of Figures 4-6 and 8.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape or x.ndim != 4:
        raise ValueError(f"expected matching NxCxHxW batches, got {x.shape} vs {y.shape}")
    values = [ssim(x[i], y[i], data_range) for i in range(x.shape[0])]
    return float(np.mean(values))


def psnr(x: np.ndarray, y: np.ndarray, data_range: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB (auxiliary reconstruction metric)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    mse = float(np.mean((x - y) ** 2))
    if mse == 0:
        return float("inf")
    return float(10.0 * np.log10(data_range**2 / mse))
