"""Point-spread-function modeling and FFT-based circulant convolution.

The blur operator is circulant in both image axes, so it diagonalizes in
the 2-D Fourier basis: applications and the quadratic image update are all
O(n log n). Transfer functions are cached per image shape; the cache is
filled once and then only read, so sharing a Psf across threads is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Psf", "half_width_within", "make_parametric_psf", "conv_apply", "deconv_update"]


@dataclass
class Psf:
    """Convolution kernel with odd dimensions and its peak at the center."""

    kernel: np.ndarray  # (2a+1, 2b+1)
    _tf_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.kernel = np.asarray(self.kernel, dtype=np.float64)
        if self.kernel.ndim != 2:
            raise ValueError("kernel must be 2-D")
        if self.kernel.shape[0] % 2 == 0 or self.kernel.shape[1] % 2 == 0:
            raise ValueError("kernel dimensions must be odd")
        if not np.all(np.isfinite(self.kernel)):
            raise ValueError("kernel contains non-finite values")
        if np.max(np.abs(self.kernel)) <= 0:
            raise ValueError("kernel must be nonzero")

    def transfer_function(self, shape):
        """2-D spectrum of the kernel embedded centered-at-origin in ``shape``."""
        key = tuple(shape)
        tf = self._tf_cache.get(key)
        if tf is None:
            nz, nx = shape
            ka, kb = self.kernel.shape
            if ka > nz or kb > nx:
                raise ValueError(
                    "kernel %s larger than image %s" % (self.kernel.shape, key)
                )
            emb = np.zeros((nz, nx))
            emb[:ka, :kb] = self.kernel
            emb = np.roll(emb, (-(ka // 2), -(kb // 2)), axis=(0, 1))
            tf = np.fft.rfft2(emb)
            self._tf_cache[key] = tf
        return tf


def half_width_within(half, n):
    """``half`` clamped so that a centered box of 2 half + 1 pixels fits an
    axis of n pixels with a pixel to spare on each side; an axis of one or
    two pixels keeps a one-pixel box. A kernel fits its image by this rule."""
    center = n // 2
    return max(min(half, center - 1, n - center - 2), 0)


def make_parametric_psf(f0, fs, axial_fbw, lateral_sigma, shape=None):
    """Separable pulse-echo kernel: Gaussian-enveloped tone by a lateral Gaussian.

    Parameters
    ----------
    f0, fs : float
        Center and sampling frequencies in Hz (0 < f0 < fs/2).
    axial_fbw : float
        Fractional bandwidth of the axial pulse at -6 dB, in (0, 2].
    lateral_sigma : float
        Lateral Gaussian standard deviation in pixels.
    shape : (nz, nx) or None
        Image the kernel is for: only the half-widths ``half_width_within``
        lets fit it are built. None builds the whole kernel.

    The axial profile is exp(-t^2 / 2 sigma_t^2) cos(2 pi f0 t) sampled at
    1/fs, with sigma_t set so the -6 dB spectral width equals axial_fbw * f0,
    and both profiles reach 3 standard deviations out. The kernel is
    normalized to unit peak; its center is exactly 1, so a fitted kernel is
    the center crop of the whole one.
    """
    if not 0 < f0 < fs / 2:
        raise ValueError("need 0 < f0 < fs/2")
    if not 0 < axial_fbw <= 2:
        raise ValueError("axial fractional bandwidth must lie in (0, 2]")
    if not lateral_sigma > 0:
        raise ValueError("lateral_sigma must be positive")
    try:
        lateral_var = 2.0 * lateral_sigma**2
    except OverflowError:
        raise OverflowError("lateral_sigma %g: its square overflows" % lateral_sigma) from None
    sigma_t = np.sqrt(2.0 * np.log(2.0)) / (np.pi * axial_fbw * f0)
    half_ax = max(int(np.floor(3.0 * sigma_t * fs)), 1)
    half_lat = int(np.floor(3.0 * lateral_sigma))
    if shape is not None:
        half_ax, half_lat = map(half_width_within, (half_ax, half_lat), shape)
    t = np.arange(-half_ax, half_ax + 1) / fs
    axial = np.exp(-(t**2) / (2.0 * sigma_t**2)) * np.cos(2.0 * np.pi * f0 * t)
    u = np.arange(-half_lat, half_lat + 1)
    lateral = np.exp(-(u**2) / lateral_var)
    kernel = np.outer(axial, lateral)
    kernel /= kernel[half_ax, half_lat]
    return Psf(kernel=kernel)


def conv_apply(psf, image, adjoint=False):
    """Circular 2-D convolution of an image with the centered kernel.

    With ``adjoint=True`` applies the transpose operator (correlation, i.e.
    convolution with the point-reflected kernel). Computed spectrally.
    """
    image = np.asarray(image, dtype=np.float64)
    tf = psf.transfer_function(image.shape)
    if adjoint:
        tf = np.conj(tf)
    return np.fft.irfft2(tf * np.fft.rfft2(image), s=image.shape)


def deconv_update(y_das, psf, w, z, lam1, lam2, gamma_d, beta):
    """Closed-form image update of the blur-fidelity subproblem.

    Returns the minimizer of

        gamma_d/2 ||y_das - H u||^2 + beta/2 ||u - w + lam1/beta||^2
                                    + beta/2 ||u - z + lam2/beta||^2

    solved exactly in the Fourier domain, where H is the circulant blur.
    With gamma_d = 0 the blur drops out and the average of the two proximal
    targets is returned in closed form.
    """
    if not beta > 0:
        raise ValueError("beta must be positive")
    y_das = np.asarray(y_das, dtype=np.float64)
    for name, arr in (("w", w), ("z", z), ("lam1", lam1), ("lam2", lam2)):
        if np.shape(arr) != y_das.shape:
            raise ValueError("%s does not match image shape" % name)
    if gamma_d == 0.0:
        return (beta * w + beta * z - lam1 - lam2) / (2.0 * beta)
    tf = psf.transfer_function(y_das.shape)
    rhs_hat = (
        gamma_d * np.conj(tf) * np.fft.rfft2(y_das)
        + np.fft.rfft2(beta * w + beta * z - lam1 - lam2)
    )
    denom = gamma_d * np.abs(tf) ** 2 + 2.0 * beta
    return np.fft.irfft2(rhs_hat / denom, s=y_das.shape)
