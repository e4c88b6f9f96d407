"""Sparse system matrix mapping image pixels to plane-wave channel samples.

A channel sample at time t receives contributions from every pixel whose
round-trip delay tau lands within one sampling period of t. Contributing
pixels are weighted by 1 - |t - tau| / t_max, where t_max is the largest
such mismatch among the sample's contributors, then scaled by the receive
apodization window. Rows are ordered sample-major within element
(row = element * M + sample); image vectors are axial-major within lateral
(column = ix * nz + iz), i.e. Fortran-order flattening of (nz, nx) arrays.

The assembled matrix is immutable and safe to share across threads. Each
product is split into two fixed row blocks of the matrix, cut where its
entries split in half, and the second block's half runs on one worker
thread shared by every matrix. The cut depends only on the matrix, and the
adjoint sums the two blocks' parts in one fixed order, so every machine,
whatever its core count, gets the same bytes: the forward product those of
the unsplit CSR product, the adjoint those of the two-block sum.
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import cached_property

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


def _new_pool():
    """Make ``_POOL``, the one worker that computes the second row block of
    every product; its thread starts at the first product. It runs only
    scipy products on the blocks, never a pwrecon function: callers may
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


def _within_aperture(positive, offset, half):
    """Lateral ``offset`` in aperture half-widths ``half``, and the mask of
    pixels within the aperture: of ``positive`` depth and offset at most 1."""
    # a denormal aperture overflows the offset to inf, which is outside it
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d = np.abs(offset) / half
    return d, positive & (d <= 1.0)


def _weight(d, inside, spec):
    """Window amplitude at offsets ``d`` where ``inside``, zero elsewhere."""
    w = np.zeros(inside.shape)
    w[inside] = _window_value(d[inside], spec)
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

    Yields one ``(pixels, tau, weight)`` triple per receive element, in
    element order: the system-matrix columns of the pixels, ascending, and
    their ``propagation_delay`` and ``apodization_weight``. This is the
    geometry both the system matrix and delay-and-sum are built from. Every
    pixel is yielded, unless ``aperture_only``: then only those within the
    element's aperture (z > 0 and an offset of at most one half-width),
    outside which every weight is zero.
    """
    nz = grid.nz
    z = np.tile(grid.z_positions, grid.nx)
    x = np.repeat(grid.x_positions, nz)
    c = probe.sound_speed
    # the terms no element changes
    tau_t = _transmit_leg((z, x), tx, c)
    z_squared = z**2
    positive = z > 0
    half = z / (2.0 * apod.f_number)
    elements = probe.element_positions
    spans = [slice(None)] * len(elements)
    if aperture_only:
        # the aperture widens with depth, so the grid columns within it at
        # the deepest row, an interval, hold every pixel within it
        _, within = _within_aperture(True, grid.x_positions - elements[:, None], half[-1])
        first, count = within.argmax(axis=1), within.sum(axis=1)
        spans = [slice(a * nz, (a + k) * nz) for a, k in zip(first, count)]
    columns = np.arange(grid.num_pixels, dtype=np.int32)
    for elem_x, span in zip(elements, spans):
        offset = x[span] - elem_x
        d, inside = _within_aperture(positive[span], offset, half[span])
        if aperture_only:
            keep = np.flatnonzero(inside)
            pixels = keep + span.start
            yield (
                pixels,
                tau_t[pixels] + _receive_leg(z_squared[pixels], offset[keep], c),
                _window_value(d[keep], apod),
            )
        else:
            # the system matrix takes every pixel: its t_max counts
            # zero-weight contributors
            yield columns, tau_t + _receive_leg(z_squared, offset, c), _weight(d, inside, apod)


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
        (top, _), (bottom, _) = self._blocks
        pending = _POOL.submit(operator.matmul, bottom, x)
        return np.concatenate((top @ x, pending.result()))

    def apply_adjoint(self, y):
        """Transpose product: channel vector -> image vector."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.num_rows,):
            raise ValueError(
                "expected channel vector of length %d, got shape %s"
                % (self.num_rows, y.shape)
            )
        (top, top_t), (_, bottom_t) = self._blocks
        cut = top.shape[0]
        pending = _POOL.submit(operator.matmul, bottom_t, y[cut:])
        out = top_t @ y[:cut]
        out += pending.result()
        return out

    @cached_property
    def _blocks(self):
        # rows up to the first row boundary at or past half the entries, and
        # the rest: each as a CSR matrix and its transpose (CSC)
        matrix = self.matrix
        cut = int(np.searchsorted(matrix.indptr, matrix.nnz // 2))
        return _row_block(matrix, 0, cut), _row_block(matrix, cut, matrix.shape[0])


def _row_block(matrix, start, stop):
    """Rows ``start`` to ``stop`` of CSR ``matrix`` as a CSR matrix and its
    transpose (CSC) on views of its data and indices."""
    lo, hi = matrix.indptr[start], matrix.indptr[stop]
    arrays = (matrix.data[lo:hi], matrix.indices[lo:hi], matrix.indptr[start : stop + 1] - lo)
    shape = (stop - start, matrix.shape[1])
    block, transpose = sp.csr_matrix(shape), sp.csc_matrix(shape[::-1])
    for m in (block, transpose):
        # set after construction: scipy's constructor copies a view of less
        # than half of its array, which one block always is but for an even cut
        m.data, m.indices, m.indptr = arrays
    return block, transpose


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
    for n, (columns, tau, apw) in enumerate(element_geometry(probe, grid, tx, apod)):
        base = np.floor((tau - t0) * fs).astype(np.int64)
        samp_list = []
        col_list = []
        dt_list = []

        def within_gate(k, px):
            """Keep sample base + k of pixels ``px`` where it lies within the
            gate of the delay; return every tried pixel's mismatch."""
            i = base[px] + k
            dt = np.abs(i / fs + t0 - tau[px])
            ok = (dt <= gate) & (i >= 0) & (i < m_count)
            samp_list.append(i[ok])
            col_list.append(columns[px][ok])
            dt_list.append(dt[ok])
            return dt

        # a delay lies between samples base and base + 1, within the gate of
        # both; it is within the gate of base - 1 (base + 2) only when it
        # sits on base (base + 1) up to rounding, so only such pixels are
        # tried there
        for k, beyond in ((0, -1), (1, 2)):
            on_sample = np.flatnonzero(within_gate(k, slice(None)) <= 1e-6 * gate)
            within_gate(beyond, on_sample)
        samp = np.concatenate(samp_list)
        col = np.concatenate(col_list)
        dt = np.concatenate(dt_list)

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
    return SparseSystemMatrix(
        matrix=matrix,
        probe=probe,
        grid=grid,
        tx=tx,
        apodization=apod,
        num_time_samples=m_count,
        fingerprint=geometry_fingerprint(probe, grid, tx, m_count, apod),
    )


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
    taus = [
        propagation_delay((grid.z_positions[:, None], x), elem_x, tx, probe.sound_speed)
        for elem_x in (nearest, elems[0], elems[-1])
    ]
    lo = min(float(t.min()) for t in taus)
    hi = max(float(t.max()) for t in taus)
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
