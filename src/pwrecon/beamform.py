"""Delay-and-sum beamforming, coherent compounding, and B-mode conversion."""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .acquisition import check_grid
from .forward_model import element_geometry

__all__ = [
    "RfImage",
    "BModeImage",
    "das_beamform",
    "compound",
    "envelope",
    "log_compress",
    "export_png",
]


@dataclass
class RfImage:
    """Real-valued image on an ImagingGrid (RF or envelope domain)."""

    data: np.ndarray  # (nz, nx)
    grid: object

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.shape != self.grid.shape:
            raise ValueError(
                "image shape %s does not match grid %s"
                % (self.data.shape, self.grid.shape)
            )
        if not np.all(np.isfinite(self.data)):
            raise ValueError("image contains non-finite values")


@dataclass
class BModeImage:
    """Log-compressed display image in dB, max 0, floor -dynamic_range."""

    data: np.ndarray  # (nz, nx), values in [-dynamic_range, 0]
    grid: object
    dynamic_range: float = 60.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if not 0 < self.dynamic_range < np.inf:
            raise ValueError("dynamic_range must be positive and finite")
        if self.data.shape != self.grid.shape:
            raise ValueError("image shape does not match grid")
        if self.data.size and (
            self.data.min() < -self.dynamic_range - 1e-9 or self.data.max() > 1e-9
        ):
            raise ValueError("B-mode values must lie in [-dynamic_range, 0]")


def das_beamform(ch, grid, apod):
    """Delay-and-sum image of one plane-wave acquisition.

    Each pixel sums apodization-weighted, linearly interpolated channel
    samples at the pixel's round-trip delay; delays falling outside the
    recorded window contribute zero.
    """
    probe = ch.probe
    fs = probe.sampling_freq
    t0 = probe.t0_offset
    m_count = ch.num_samples
    traces = np.ascontiguousarray(ch.samples.T)  # one contiguous row per element
    acc = np.zeros(grid.num_pixels)
    # a pixel outside an element's aperture adds w * value = +-0, which leaves
    # every sum as it is, as a sum from +0 is never -0; the others add in
    # element order
    geometry = element_geometry(probe, grid, ch.tx, apod, aperture_only=True)
    for n, (span, tau, w) in enumerate(geometry):
        s = (tau - t0) * fs
        valid = (s >= 0.0) & (s <= m_count - 1)
        base = np.floor(s)
        frac = s - base
        # a delay outside the window reads clipped indices; its value is
        # dropped below
        i0 = base.astype(np.int64)
        trace = traces[n]
        vals = (1.0 - frac) * trace.take(i0, mode="clip") + frac * trace.take(
            i0 + 1, mode="clip"
        )
        acc[span] += np.where(valid, w * vals, 0.0)
    # acc is in column (Fortran) order; images are stored C-contiguous
    return RfImage(np.ascontiguousarray(acc.reshape(grid.shape, order="F")), grid)


def compound(images):
    """Coherent compounding: element-wise mean of RF images on one grid."""
    if not images:
        raise ValueError("cannot compound an empty image list")
    grid = images[0].grid
    check_grid(grid, "image 0", **{"image %d" % i: img for i, img in enumerate(images)})
    data = np.mean([img.data for img in images], axis=0)
    return RfImage(data=data, grid=grid)


def envelope(img):
    """Envelope via the analytic signal along the axial (row) direction.

    Computed per column by one-sided spectral doubling; output is
    nonnegative.
    """
    nz = img.grid.nz
    if nz < 4:
        raise ValueError("envelope needs at least 4 axial samples")
    # scipy.signal.hilbert's arithmetic, without importing scipy: the
    # positive frequencies of the real transform doubled, the negative ones
    # zero, DC (and Nyquist for even nz) kept
    spectrum = np.zeros(img.data.shape, dtype=np.complex128)
    spectrum[: nz // 2 + 1] = np.fft.rfft(img.data, axis=0)
    spectrum[1 : (nz + 1) // 2] *= 2.0
    return RfImage(data=np.abs(np.fft.ifft(spectrum, axis=0)), grid=img.grid)


def log_compress(env, dynamic_range=60.0):
    """Convert a nonnegative envelope to dB relative to its maximum.

    Values are clamped to [-dynamic_range, 0]; an all-zero envelope maps to
    a uniform floor.
    """
    if not 0 < dynamic_range < np.inf:
        raise ValueError("dynamic_range must be positive and finite")
    data = env.data
    if data.size and data.min() < 0:
        raise ValueError("envelope must be nonnegative")
    peak = data.max() if data.size else 0.0
    if peak <= 0:
        db = np.full(data.shape, -dynamic_range)
    else:
        with np.errstate(divide="ignore"):
            db = 20.0 * np.log10(data / peak)
        db = np.clip(db, -dynamic_range, 0.0)
    return BModeImage(data=db, grid=env.grid, dynamic_range=dynamic_range)


def export_png(bmode, path):
    """Write an 8-bit grayscale PNG (stdlib zlib, no imaging dependency).

    The dB range [-dynamic_range, 0] maps linearly to [0, 255].
    """
    scale = 255.0 / bmode.dynamic_range
    gray = np.rint((bmode.data + bmode.dynamic_range) * scale)
    gray = np.clip(gray, 0, 255).astype(np.uint8)
    nz, nx = gray.shape
    raw = b"".join(b"\x00" + gray[r].tobytes() for r in range(nz))

    def chunk(tag, payload):
        body = tag + payload
        return struct.pack(">I", len(payload)) + body + struct.pack(
            ">I", zlib.crc32(body) & 0xFFFFFFFF
        )

    ihdr = struct.pack(">IIBBBBB", nx, nz, 8, 0, 0, 0, 0)  # 8-bit grayscale
    png = (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(raw, 9))
        + chunk(b"IEND", b"")
    )
    with open(path, "wb") as f:
        f.write(png)
