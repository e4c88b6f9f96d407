"""Sparse system matrix mapping image pixels to plane-wave channel samples.

A channel sample at time t receives contributions from every pixel whose
round-trip delay tau lands within one sampling period of t. Contributing
pixels are weighted by 1 - |t - tau| / t_max, where t_max is the largest
such mismatch among the sample's contributors, then scaled by the receive
apodization window. Rows are ordered sample-major within element
(row = element * M + sample); image vectors are axial-major within lateral
(column = ix * nz + iz), i.e. Fortran-order flattening of (nz, nx) arrays.

The assembled matrix is immutable and safe to share across threads. Each
product runs scipy's compiled kernels on the CSR's own arrays, into its own
output, in two row blocks cut where the entries split in half: the second
on one worker thread shared by every matrix. The cut depends only on the
matrix, and the adjoint sums the two blocks' parts in one fixed order, so
every machine, whatever its core count, gets the same bytes: the forward
product those of the unsplit CSR product, the adjoint those of the
two-block sum.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

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


def _new_pool():
    """Make ``_POOL``, the one worker that computes the second row block of
    every product; its thread starts at the first product. It runs only
    scipy's kernels on the blocks, never a pwrecon function: callers may
    trace pwrecon's functions on one span stack, which is not thread-safe.
    A forked child makes its own, as it inherits the parent's record of a
    worker but not the worker thread, and a product would wait forever."""
    global _POOL
    _POOL = ThreadPoolExecutor(max_workers=1, thread_name_prefix="pwrecon-product")


_new_pool()
os.register_at_fork(after_in_child=_new_pool)


@dataclass(frozen=True)
class ApodizationSpec:
    """Receive apodization: window shape plus f-number aperture growth.

    The active half-aperture at depth z is z / (2 f_number).
    """

    window: str = "hanning"
    f_number: float = 0.5
    taper: float = 0.25  # tukey only: tapered fraction of the aperture

    def __post_init__(self):
        if self.window not in WINDOWS:
            raise ValueError("window must be one of %s" % (WINDOWS,))
        if not self.f_number > 0:
            raise ValueError("f_number must be positive")
        if not 0.0 <= self.taper <= 1.0:
            raise ValueError("tukey taper must lie in [0, 1]")


def _transmit_leg(pixel, tx, sound_speed):
    """Plane-wave transmit delay (z cos(angle) + x sin(angle)) / c of a pixel."""
    z, x = pixel
    return (z * np.cos(tx.angle) + x * np.sin(tx.angle)) / sound_speed


def _receive_leg(z_squared, offset, sound_speed):
    """Return delay from a pixel at squared depth ``z_squared`` to an element
    at lateral ``offset`` from it: their euclidean distance over c."""
    return np.sqrt(z_squared + offset**2) / sound_speed


def propagation_delay(pixel, element_x, tx, sound_speed):
    """Two-way delay for a pixel: plane-wave transmit plus return to element.

    Transmit leg is (z cos(angle) + x sin(angle)) / c, return leg is the
    euclidean distance from pixel to element over c. Accepts scalars or
    arrays for the pixel coordinates.
    """
    z, x = pixel
    return _transmit_leg(pixel, tx, sound_speed) + _receive_leg(
        z**2, x - element_x, sound_speed
    )


def _within_aperture(positive, offset, half):
    """Lateral ``offset`` in aperture half-widths ``half``, and the mask of
    pixels within the aperture: of ``positive`` depth and offset at most 1."""
    # a denormal aperture overflows the offset to inf, which is outside it
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d = np.abs(offset) / half
    return d, positive & (d <= 1.0)


def _weight(d, inside, spec):
    """Window amplitude at absolute normalized aperture offsets ``d`` where
    ``inside`` (offsets in [0, 1]), zero elsewhere."""
    d = d[inside]
    if spec.window == "hanning":
        val = np.cos(np.pi * d / 2.0) ** 2
    else:
        val = np.ones_like(d)
    if spec.window == "tukey":
        # flat for d <= 1 - taper, cosine roll-off to zero at d = 1; a taper
        # too small to move 1 - taper off 1 leaves no ramp to divide by
        a = spec.taper
        ramp = d > 1.0 - a
        val[ramp] = 0.5 * (1.0 + np.cos(np.pi * (d[ramp] - (1.0 - a)) / a))
    w = np.zeros(inside.shape)
    w[inside] = val
    return w


def apodization_weight(pixel, element_x, spec):
    """Receive apodization weight in [0, 1] for a pixel-element pair.

    Zero outside the f-number aperture and for pixels at z <= 0 (degenerate
    aperture). Accepts scalars or arrays.
    """
    z, x = pixel
    z = np.asarray(z, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    w = _weight(*_within_aperture(z > 0, x - element_x, z / (2.0 * spec.f_number)), spec)
    if w.ndim == 0:
        return float(w)
    return w


def element_geometry(probe, grid, tx, apod, aperture_only=False):
    """Round-trip delay and receive apodization of pixels, per element.

    Yields one ``(span, tau, weight)`` triple per receive element, in
    element order: a slice of system-matrix columns, and the
    ``propagation_delay`` and ``apodization_weight`` of its pixels. This is
    the geometry both the system matrix and delay-and-sum are built from.
    The span is the whole grid, unless ``aperture_only``: then it is the
    grid columns within the element's aperture at the deepest row, which
    hold every pixel within it (z > 0 and an offset of at most one
    half-width), as the aperture widens with depth. Every weight of the
    span outside the aperture is exactly zero.

    The receive leg and the window depend only on a pixel's depth and its
    distance |x - e| from the element, so they are computed once per depth
    and distinct distance, as two tables that each element's grid columns
    gather their rows from. Each entry is the per-pixel expression on the
    same float64 inputs, as (-a)**2 == a**2 and |-a| == a.
    """
    nz, z = grid.nz, grid.z_positions
    c = probe.sound_speed
    tau_t = _transmit_leg((np.tile(z, grid.nx), np.repeat(grid.x_positions, nz)), tx, c)
    half = z / (2.0 * apod.f_number)
    offset = grid.x_positions - probe.element_positions[:, None]
    distance, row = np.unique(np.abs(offset), return_inverse=True)
    row = row.reshape(offset.shape)  # element, grid column -> table row
    receive = _receive_leg(z**2, distance[:, None], c)
    window = _weight(*_within_aperture(z > 0, distance[:, None], half), apod)
    spans = [slice(0, grid.num_pixels)] * len(offset)
    if aperture_only:
        _, within = _within_aperture(True, offset, half[-1])
        first, count = within.argmax(axis=1), within.sum(axis=1)
        spans = [slice(a * nz, (a + k) * nz) for a, k in zip(first, count)]
    for rows, span in zip(row, spans):
        rows = rows[span.start // nz : span.stop // nz]
        yield span, tau_t[span] + receive[rows].ravel(), window[rows].ravel()


@dataclass(frozen=True)
class SparseSystemMatrix:
    """CSR weighting matrix with apodization folded in, plus its geometry."""

    matrix: sp.csr_matrix  # (M*N, nz*nx)
    probe: ProbeGeometry
    grid: ImagingGrid
    tx: PlaneWaveTx
    apodization: ApodizationSpec

    @property
    def num_rows(self):
        return self.matrix.shape[0]

    @property
    def num_cols(self):
        return self.matrix.shape[1]

    @property
    def nnz(self):
        return self.matrix.nnz

    @property
    def num_time_samples(self):
        """Samples M per element: each element owns M rows."""
        return self.num_rows // self.probe.num_elements

    @property
    def fingerprint(self):
        """``geometry_fingerprint`` of the geometry the matrix was built for."""
        return geometry_fingerprint(
            self.probe, self.grid, self.tx, self.num_time_samples, self.apodization
        )

    def _operand(self, v, length, kind):
        """``v`` as a float64 vector of ``length``, and the cut of a product's
        halves: the first row boundary at or past half the entries."""
        v = np.asarray(v, dtype=np.float64, order="C")
        if v.shape != (length,):
            raise ValueError(
                "expected %s vector of length %d, got shape %s" % (kind, length, v.shape)
            )
        ptr = self.matrix.indptr
        return v, ptr.searchsorted(ptr[-1] // 2)

    def apply(self, x):
        """Forward product: image vector -> channel vector."""
        x, cut = self._operand(x, self.num_cols, "image")
        mat = self.matrix
        (rows, cols), ptr = mat.shape, mat.indptr
        # the bottom half's offsets ptr[cut:] are absolute
        out = np.zeros(rows)
        pending = _POOL.submit(
            csr_matvec, rows - cut, cols, ptr[cut:], mat.indices, mat.data, x, out[cut:]
        )
        csr_matvec(cut, cols, ptr, mat.indices, mat.data, x, out[:cut])
        pending.result()
        return out

    def apply_adjoint(self, y):
        """Transpose product: channel vector -> image vector."""
        y, cut = self._operand(y, self.num_rows, "channel")
        # apply's halves; a row block's CSR arrays are those of its transpose in CSC
        mat = self.matrix
        (rows, cols), ptr = mat.shape, mat.indptr
        out, part = np.zeros(cols), np.zeros(cols)
        pending = _POOL.submit(
            csc_matvec, cols, rows - cut, ptr[cut:], mat.indices, mat.data, y[cut:], part
        )
        csc_matvec(cols, cut, ptr, mat.indices, mat.data, y[:cut], out)
        pending.result()
        out += part
        return out


def geometry_fingerprint(probe, grid, tx, num_samples, apodization):
    """sha256 of the JSON (sorted keys) of everything a system matrix depends
    on, its geometry dataclasses as dicts and its sample count, as its
    container stores them: the hash identifies a matrix."""
    geometry = {
        "probe": asdict(probe),
        "grid": asdict(grid),
        "tx": asdict(tx),
        "apodization": asdict(apodization),
        "num_samples": num_samples,
    }
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
    if grid != ImagingGrid.for_probe(probe, grid.nz, grid.nx, grid.z_origin):
        raise ValueError("grid spacing must be dz = c/(2 fs) and dx = pitch")

    fs = probe.sampling_freq
    t0 = probe.t0_offset
    gate = 1.0 / fs
    m_count = num_samples
    num_elements = probe.num_elements

    # element n owns rows n*M .. (n+1)*M - 1, so each element's entries,
    # ordered by (sample, column), are one contiguous stretch of the CSR
    # arrays. They are gathered straight into that stretch; the two arrays
    # grow in place and shrink to nnz at the end, so no second copy of the
    # matrix is ever held and no per-element block is left in the heap
    row_counts = np.empty(num_elements * m_count, dtype=np.int64)
    indices = np.empty(0, dtype=np.int32)
    data = np.empty(0)
    nnz = 0
    # the span is the whole grid, so a column indexes tau and apw: the system
    # matrix takes every pixel, as its t_max counts zero-weight contributors
    columns = np.arange(grid.num_pixels, dtype=np.int32)
    for n, (_, tau, apw) in enumerate(element_geometry(probe, grid, tx, apod)):
        base = np.floor((tau - t0) * fs).astype(np.int64)
        # a delay lies between samples base and base + 1, within the gate of
        # both; it is within the gate of base - 1 (base + 2) only when it
        # sits on base (base + 1) up to rounding, so only such pixels are
        # tried there
        samp = np.concatenate((base, base + 1))
        dt = np.abs(samp / fs + t0 - np.concatenate((tau, tau)))
        on = np.flatnonzero(dt <= 1e-6 * gate)
        px = on % tau.size
        samp = np.concatenate((samp, samp[on] + np.where(on < tau.size, -1, 1)))
        col = np.concatenate((columns, columns, columns[px]))
        dt = np.concatenate((dt, np.abs(samp[dt.size :] / fs + t0 - tau[px])))
        ok = (dt <= gate) & (samp >= 0) & (samp < m_count)
        samp, col, dt = samp[ok], col[ok], dt[ok]

        # per-sample max mismatch and contributor count (apodization-independent)
        t_max = np.zeros(m_count)
        np.maximum.at(t_max, samp, dt)
        counts = np.bincount(samp, minlength=m_count)
        entry_max = t_max[samp]
        raw = 1.0 - dt / np.where(entry_max > 0.0, entry_max, 1.0)
        # a sample with a single contributor (or all mismatches zero) keeps it
        # at full weight instead of annihilating the only datum
        raw = np.where((counts[samp] == 1) | (entry_max == 0.0), 1.0, raw)

        w = raw * apw[col]
        keep = w > 0.0
        samp, col, w = samp[keep], col[keep], w[keep]
        row_counts[n * m_count : (n + 1) * m_count] = np.bincount(samp, minlength=m_count)
        end = nnz + samp.size
        if end > indices.size:
            # room for the mean block so far times the element count, and
            # at least an eighth more; realloc keeps the entries written
            size = max(end * num_elements // (n + 1), indices.size * 9 // 8, end)
            # no view of either array outlives the statement that makes it
            indices.resize(size, refcheck=False)
            data.resize(size, refcheck=False)
        order = np.lexsort((col, samp))
        np.take(col, order, out=indices[nnz:end])
        np.take(w, order, out=data[nnz:end])
        nnz = end
    indices.resize(nnz, refcheck=False)
    data.resize(nnz, refcheck=False)

    shape = (m_count * num_elements, grid.num_pixels)
    indptr = np.zeros(shape[0] + 1, dtype=np.int32 if nnz < 2**31 else np.int64)
    np.cumsum(row_counts, out=indptr[1:])
    matrix = sp.csr_matrix((data, indices, indptr), shape=shape)
    return SparseSystemMatrix(matrix=matrix, probe=probe, grid=grid, tx=tx, apodization=apod)


def suggest_time_window(probe, grid, tx):
    """Start offset and sample count covering every pixel-element delay.

    Returns (t0_offset, num_samples) such that all round-trip delays over
    the grid fall inside the acquisition window with two spare samples on
    each side. A steered transmit can open the window before t = 0.
    """
    x = grid.x_positions
    elems = probe.element_positions
    # the receive leg is shortest at the element nearest the pixel and
    # longest at an end element, so three delays per pixel bound them all
    nearest = elems[np.abs(x[:, None] - elems).argmin(axis=1)]
    with np.errstate(over="ignore"):
        taus = [
            propagation_delay((grid.z_positions[:, None], x), elem_x, tx, probe.sound_speed)
            for elem_x in (nearest, elems[0], elems[-1])
        ]
    lo = min(float(t.min()) for t in taus)
    hi = max(float(t.max()) for t in taus)
    if not np.isfinite(hi - lo):
        raise OverflowError(
            "sound_speed %g: the grid's round-trip delays overflow" % probe.sound_speed
        )
    fs = probe.sampling_freq
    t0 = np.floor(lo * fs - 2) / fs
    num = int(np.ceil((hi - t0) * fs)) + 3  # the last delay's sample and 2 spare
    return t0, num


def save_matrix(model, path):
    """Write a system matrix as a "matrix" container (atomic)."""
    from .io import write_container  # io imports this module

    write_container(model, path)


def load_matrix(path):
    """Read a "matrix" container back into a SparseSystemMatrix.

    The fingerprint is re-derived from the stored geometry and checked.
    """
    from .io import read_container

    return read_container(path, "matrix")


def cached_system_matrix(probe, grid, tx, num_samples, apod):
    """Build a system matrix, reusing an on-disk copy when available.

    The cache directory is the PWRECON_CACHE_DIR environment variable; unset,
    the matrix is built in memory.
    """
    cache_dir = os.environ.get("PWRECON_CACHE_DIR")
    if not cache_dir:
        return build_system_matrix(probe, grid, tx, num_samples, apod)
    fp = geometry_fingerprint(probe, grid, tx, num_samples, apod)
    path = os.path.join(cache_dir, "sysmat_%s.usjd" % fp[:16])
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
