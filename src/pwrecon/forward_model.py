"""Sparse system matrix mapping image pixels to plane-wave channel samples.

A channel sample at time t receives contributions from every pixel whose
round-trip delay tau lands within one sampling period of t. Contributing
pixels are weighted by 1 - |t - tau| / t_max, where t_max is the largest
such mismatch among the sample's contributors, then scaled by the receive
apodization window. Rows are ordered sample-major within element
(row = element * M + sample); image vectors are axial-major within lateral
(column = ix * nz + iz), i.e. Fortran-order flattening of (nz, nx) arrays.

The assembled matrix is immutable and safe to share across threads; products
use fixed-order accumulation so results are bit-reproducible.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp

from .acquisition import ImagingGrid, PlaneWaveTx, ProbeGeometry

__all__ = [
    "ApodizationSpec",
    "SparseSystemMatrix",
    "propagation_delay",
    "apodization_weight",
    "element_geometry",
    "build_system_matrix",
    "suggest_time_window",
    "save_matrix",
    "load_matrix",
    "cached_system_matrix",
]

WINDOWS = ("rectangular", "hanning", "tukey")


@dataclass(frozen=True)
class ApodizationSpec:
    """Receive apodization: window shape plus f-number aperture growth.

    The active half-aperture at depth z is z / (2 f_number), optionally
    clamped from below by ``min_half_aperture`` so very shallow pixels keep
    at least one element in view.
    """

    window: str = "hanning"
    f_number: float = 0.5
    taper: float = 0.25  # tukey only: tapered fraction of the aperture
    min_half_aperture: float = 0.0

    def __post_init__(self):
        if self.window not in WINDOWS:
            raise ValueError("window must be one of %s" % (WINDOWS,))
        if self.f_number <= 0:
            raise ValueError("f_number must be positive")
        if not 0.0 <= self.taper <= 1.0:
            raise ValueError("tukey taper must lie in [0, 1]")
        if self.min_half_aperture < 0:
            raise ValueError("min_half_aperture must be nonnegative")


def propagation_delay(pixel, element_x, tx, sound_speed):
    """Two-way delay for a pixel: plane-wave transmit plus return to element.

    Transmit leg is (z cos(angle) + x sin(angle)) / c, return leg is the
    euclidean distance from pixel to element over c. Accepts scalars or
    arrays for the pixel coordinates.
    """
    z, x = pixel
    tau_t = (z * np.cos(tx.angle) + x * np.sin(tx.angle)) / sound_speed
    tau_r = np.sqrt(z**2 + (x - element_x) ** 2) / sound_speed
    return tau_t + tau_r


def _window_value(d, spec):
    """Window amplitude at absolute normalized aperture offsets d in [0, 1]."""
    if spec.window == "hanning":
        return np.cos(np.pi * d / 2.0) ** 2
    val = np.ones_like(d)
    if spec.window == "tukey":
        # flat for d <= 1 - taper, cosine roll-off to zero at d = 1; a taper
        # too small to move 1 - taper off 1 leaves no ramp to divide by
        a = spec.taper
        ramp = d > 1.0 - a
        val[ramp] = 0.5 * (1.0 + np.cos(np.pi * (d[ramp] - (1.0 - a)) / a))
    return val


def apodization_weight(pixel, element_x, spec):
    """Receive apodization weight in [0, 1] for a pixel-element pair.

    Zero outside the f-number aperture and for pixels at z <= 0 (degenerate
    aperture). Accepts scalars or arrays.
    """
    z, x = pixel
    z = np.asarray(z, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    half = np.maximum(z / (2.0 * spec.f_number), spec.min_half_aperture)
    # a denormal aperture overflows the offset to inf, which is outside it
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d = np.abs(x - element_x) / half
    inside = (z > 0) & (d <= 1.0)
    w = np.zeros(inside.shape)
    w[inside] = _window_value(d[inside], spec)
    if w.ndim == 0:
        return float(w)
    return w


def element_geometry(probe, grid, tx, apod):
    """Round-trip delay and receive apodization of every pixel, per element.

    Yields one ``(tau, weight)`` pair of pixel arrays per receive element, in
    element order, with pixels in system-matrix column order. This is the
    geometry both the system matrix and delay-and-sum are built from.
    """
    pixel = (np.tile(grid.z_positions, grid.nx), np.repeat(grid.x_positions, grid.nz))
    for elem_x in probe.element_positions:
        yield (
            propagation_delay(pixel, elem_x, tx, probe.sound_speed),
            apodization_weight(pixel, elem_x, apod),
        )


@dataclass
class SparseSystemMatrix:
    """CSR weighting matrix with apodization folded in, plus its provenance."""

    matrix: sp.csr_matrix  # (M*N, nz*nx)
    probe: ProbeGeometry
    grid: ImagingGrid
    tx: PlaneWaveTx
    apodization: ApodizationSpec
    num_time_samples: int
    fingerprint: str

    @property
    def num_rows(self):
        return self.matrix.shape[0]

    @property
    def num_cols(self):
        return self.matrix.shape[1]

    @property
    def nnz(self):
        return self.matrix.nnz

    def apply(self, x):
        """Forward product: image vector -> channel vector."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.num_cols,):
            raise ValueError(
                "expected image vector of length %d, got shape %s"
                % (self.num_cols, x.shape)
            )
        return self.matrix @ x

    def apply_adjoint(self, y):
        """Transpose product: channel vector -> image vector."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.num_rows,):
            raise ValueError(
                "expected channel vector of length %d, got shape %s"
                % (self.num_rows, y.shape)
            )
        return self.matrix.T @ y


def matrix_geometry(probe, grid, tx, num_samples, apod):
    """Everything a system matrix depends on, as stored in its container."""
    return {
        "probe": asdict(probe),
        "grid": asdict(grid),
        "tx": asdict(tx),
        "apodization": asdict(apod),
        "num_samples": num_samples,
    }


def geometry_fingerprint(probe, grid, tx, num_samples, apod):
    """sha256 of the matrix geometry JSON (sorted keys) that identifies a matrix."""
    geometry = matrix_geometry(probe, grid, tx, num_samples, apod)
    return hashlib.sha256(json.dumps(geometry, sort_keys=True).encode()).hexdigest()


def build_system_matrix(probe, grid, tx, num_samples, apod):
    """Assemble the sparse pixel-to-sample weighting matrix.

    Parameters
    ----------
    probe, grid, tx : acquisition geometry. The grid spacings must match the
        probe (dz = c / 2fs, dx = pitch).
    num_samples : int
        Number of time samples M per element; rows total M * num_elements.
    apod : ApodizationSpec
        Receive window multiplied into every stored weight.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be at least 1")
    if grid.num_pixels < 1 or probe.num_elements < 1:
        raise ValueError("grid and probe must be nonempty")
    expected_dz = probe.sound_speed / (2.0 * probe.sampling_freq)
    if grid.dz != expected_dz or grid.dx != probe.pitch:
        raise ValueError("grid spacing must be dz = c/(2 fs) and dx = pitch")

    fs = probe.sampling_freq
    t0 = probe.t0_offset
    gate = 1.0 / fs
    m_count = num_samples
    pix_idx = np.arange(grid.num_pixels, dtype=np.int64)

    # element n owns rows n*M .. (n+1)*M - 1, so each element's entries,
    # ordered by (sample, column), are one contiguous stretch of the CSR
    # arrays: only per-row counts, int32 columns and weights are kept
    counts_out = []
    indices_out = []
    weights_out = []
    for tau, apw in element_geometry(probe, grid, tx, apod):
        base = np.floor((tau - t0) * fs).astype(np.int64)
        samp_list = []
        col_list = []
        dt_list = []
        # each pixel can land within the gate of at most a few neighbor samples
        for k in (-1, 0, 1, 2):
            i = base + k
            t_i = i / fs + t0
            dt = np.abs(t_i - tau)
            ok = (dt <= gate) & (i >= 0) & (i < m_count)
            samp_list.append(i[ok])
            col_list.append(pix_idx[ok])
            dt_list.append(dt[ok])
        samp = np.concatenate(samp_list)
        col = np.concatenate(col_list)
        dt = np.concatenate(dt_list)

        # per-sample max mismatch and contributor count (apodization-independent)
        t_max = np.zeros(m_count)
        np.maximum.at(t_max, samp, dt)
        counts = np.bincount(samp, minlength=m_count)
        raw = 1.0 - dt / np.where(t_max[samp] > 0.0, t_max[samp], 1.0)
        # a sample with a single contributor (or all mismatches zero) keeps it
        # at full weight instead of annihilating the only datum
        raw = np.where((counts[samp] == 1) | (t_max[samp] == 0.0), 1.0, raw)

        w = raw * apw[col]
        keep = w > 0.0
        samp, col, w = samp[keep], col[keep], w[keep]
        order = np.lexsort((col, samp))
        counts_out.append(np.bincount(samp, minlength=m_count))
        indices_out.append(col[order].astype(np.int32))
        weights_out.append(w[order])

    shape = (m_count * probe.num_elements, grid.num_pixels)
    nnz = sum(block.size for block in indices_out)
    indptr = np.zeros(shape[0] + 1, dtype=np.int32 if nnz < 2**31 else np.int64)
    np.cumsum(np.concatenate(counts_out), out=indptr[1:])
    # drop each block list once joined, so at most one copy of either exists
    indices = np.concatenate(indices_out)
    del indices_out
    data = np.concatenate(weights_out)
    del weights_out
    matrix = sp.csr_matrix((data, indices, indptr), shape=shape)
    return SparseSystemMatrix(
        matrix=matrix,
        probe=probe,
        grid=grid,
        tx=tx,
        apodization=apod,
        num_time_samples=m_count,
        fingerprint=geometry_fingerprint(probe, grid, tx, m_count, apod),
    )


def suggest_time_window(probe, grid, tx, guard=2):
    """Start offset and sample count covering every pixel-element delay.

    Returns (t0_offset, num_samples) such that all round-trip delays over
    the grid fall inside the acquisition window with ``guard`` spare samples
    on each side. A steered transmit can open the window before t = 0.
    """
    x = grid.x_positions
    elems = probe.element_positions
    # the receive leg is shortest at the element nearest the pixel and
    # longest at an end element, so three delays per pixel bound them all
    nearest = elems[np.abs(x[:, None] - elems).argmin(axis=1)]
    taus = [
        propagation_delay((grid.z_positions[:, None], x), elem_x, tx, probe.sound_speed)
        for elem_x in (nearest, elems[0], elems[-1])
    ]
    lo = min(float(t.min()) for t in taus)
    hi = max(float(t.max()) for t in taus)
    fs = probe.sampling_freq
    t0 = np.floor(lo * fs - guard) / fs
    num = int(np.ceil((hi - t0) * fs)) + 1 + guard
    return t0, num


def save_matrix(model, path):
    """Write a system matrix as a "matrix" container (atomic)."""
    from .io import write_container  # io imports this module

    write_container(model, path)


def load_matrix(path):
    """Read a "matrix" container back into a SparseSystemMatrix.

    The fingerprint is re-derived from the stored geometry and checked.
    """
    from .io import StructureError, read_container

    model = read_container(path)
    if not isinstance(model, SparseSystemMatrix):
        raise StructureError("%s does not hold a system matrix" % path)
    return model


def cached_system_matrix(probe, grid, tx, num_samples, apod, cache_dir=None):
    """Build a system matrix, reusing an on-disk copy when available.

    The cache directory comes from ``cache_dir`` or the PWRECON_CACHE_DIR
    environment variable; with neither set the matrix is built in memory.
    """
    cache_dir = cache_dir or os.environ.get("PWRECON_CACHE_DIR")
    if not cache_dir:
        return build_system_matrix(probe, grid, tx, num_samples, apod)
    fp = geometry_fingerprint(probe, grid, tx, num_samples, apod)
    path = os.path.join(cache_dir, "sysmat_%s.usjm" % fp[:16])
    if os.path.exists(path):
        try:
            model = load_matrix(path)
            if model.fingerprint == fp:
                return model
        except ValueError:
            pass  # stale or corrupt cache entry: rebuild below
    model = build_system_matrix(probe, grid, tx, num_samples, apod)
    os.makedirs(cache_dir, exist_ok=True)
    save_matrix(model, path)
    return model
