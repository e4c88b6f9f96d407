"""Acquisition geometry, synthetic phantoms, and channel-data simulation.

All quantities are SI (meters, seconds, hertz) unless noted otherwise.
Every function here is pure given its inputs plus an explicit seed, so the
whole module is safe to use from multiple threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ProbeGeometry",
    "PlaneWaveTx",
    "ImagingGrid",
    "ChannelData",
    "PointTarget",
    "CystRegion",
    "TARGET_KINDS",
    "Phantom",
    "check_grid",
    "check_channel_probe",
    "disc_mask",
    "make_point_phantom",
    "make_cyst_phantom",
    "simulate_channel_data",
]


@dataclass(frozen=True)
class ProbeGeometry:
    """Linear-array probe description.

    Parameters
    ----------
    num_elements : int
        Number of transducer elements (at least 2).
    pitch : float
        Element-to-element spacing in meters.
    sound_speed : float
        Assumed propagation speed in m/s.
    sampling_freq : float
        RF sampling frequency in Hz. Must exceed twice the center frequency.
    center_freq : float
        Transmit center frequency in Hz.
    t0_offset : float
        Acquisition start time relative to transmit, in seconds. Sample m
        (0-based) corresponds to time m / sampling_freq + t0_offset. It may
        be negative: a steered transmit reaches shallow pixels on one side
        of the array before t = 0.
    """

    num_elements: int
    pitch: float
    sound_speed: float
    sampling_freq: float
    center_freq: float
    t0_offset: float = 0.0

    def __post_init__(self):
        if not self.num_elements >= 2:
            raise ValueError("num_elements must be at least 2")
        if not self.pitch > 0:
            raise ValueError("pitch must be positive")
        if not self.sound_speed > 0:
            raise ValueError("sound_speed must be positive")
        if not self.sampling_freq > 2.0 * self.center_freq:
            raise ValueError("sampling_freq must exceed twice center_freq")

    @property
    def element_positions(self):
        """Lateral element positions in meters, centered at 0."""
        idx = np.arange(self.num_elements) - (self.num_elements - 1) / 2.0
        return idx * self.pitch


@dataclass(frozen=True)
class PlaneWaveTx:
    """Plane-wave transmit with steering angle in radians (0 = normal)."""

    angle: float = 0.0

    def __post_init__(self):
        if not abs(self.angle) < np.pi / 2:
            raise ValueError("steering angle must satisfy |angle| < pi/2")


@dataclass(frozen=True)
class ImagingGrid:
    """Rectangular beamforming grid.

    Axial spacing matches one round-trip RF sample (dz = c / 2fs) and
    lateral spacing matches the probe pitch when built via ``for_probe``;
    lateral pixel positions sit on the same centered lattice as the
    elements.
    """

    nz: int
    nx: int
    dz: float
    dx: float
    z_origin: float

    def __post_init__(self):
        if not (self.nz >= 1 and self.nx >= 1):
            raise ValueError("grid must have at least one pixel per axis")
        if not (self.dz > 0 and self.dx > 0):
            raise ValueError("pixel spacing must be positive")

    @classmethod
    def for_probe(cls, probe, nz, nx=None, z_origin=0.0):
        """Grid matched to a probe: dz = c/(2 fs), dx = pitch."""
        if nx is None:
            nx = probe.num_elements
        dz = probe.sound_speed / (2.0 * probe.sampling_freq)
        return cls(nz=nz, nx=nx, dz=dz, dx=probe.pitch, z_origin=z_origin)

    @property
    def shape(self):
        return (self.nz, self.nx)

    @property
    def num_pixels(self):
        return self.nz * self.nx

    @property
    def z_positions(self):
        return self.z_origin + np.arange(self.nz) * self.dz

    @property
    def x_positions(self):
        idx = np.arange(self.nx) - (self.nx - 1) / 2.0
        return idx * self.dx


@dataclass
class ChannelData:
    """Raw RF channel data: samples[m, n] is time sample m of element n."""

    samples: np.ndarray  # (M, N) float64
    tx: PlaneWaveTx
    probe: ProbeGeometry

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2:
            raise ValueError("samples must be a 2-D (time, element) array")
        if self.samples.shape[0] < 1:
            raise ValueError("need at least one time sample")
        if self.samples.shape[1] != self.probe.num_elements:
            raise ValueError(
                "samples have %d columns but probe has %d elements"
                % (self.samples.shape[1], self.probe.num_elements)
            )
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("channel data contain non-finite samples")

    @property
    def num_samples(self):
        return self.samples.shape[0]

    def to_vector(self):
        """Column-major (element-major) flattening used by the system matrix."""
        return self.samples.reshape(-1, order="F")


@dataclass(frozen=True)
class PointTarget:
    """Annotation of a single point scatterer snapped to grid node (iz, ix)."""

    iz: int
    ix: int
    z: float
    x: float
    amplitude: float


@dataclass(frozen=True)
class CystRegion:
    """Annotation of an anechoic disc: center (z, x) and radius in meters."""

    z: float
    x: float
    radius: float


# target kind -> its annotation class, also the annotation tag in containers
TARGET_KINDS = {"point": PointTarget, "cyst": CystRegion}


@dataclass
class Phantom:
    """Ground-truth tissue reflectivity on a grid plus metric annotations."""

    trf: np.ndarray  # (nz, nx) float64
    grid: ImagingGrid
    annotations: list = field(default_factory=list)

    def __post_init__(self):
        self.trf = np.asarray(self.trf, dtype=np.float64)
        if self.trf.shape != self.grid.shape:
            raise ValueError("trf shape does not match grid")

    def to_vector(self):
        return self.trf.reshape(-1, order="F")


def check_grid(grid, against, **items):
    """Refuse each image or phantom of ``items`` (None is skipped) that is
    not on ``grid``, that of ``against``; the ValueError names both grids."""
    for name, item in items.items():
        if item is not None and item.grid != grid:
            raise ValueError(
                "%s grid %s differs from %s grid %s" % (name, item.grid, against, grid)
            )


def check_channel_probe(ch, probe, against, *pairs):
    """Refuse channel data ``ch`` recorded with another probe than ``probe``
    (center_freq only labels, and the sample window is the data's) or that
    differ in a further ``(name, data value, expected value)`` pair; the
    ValueError names each field that differs and ``against``."""
    names = ("num_elements", "pitch", "sound_speed", "sampling_freq")
    pairs += tuple((f, getattr(ch.probe, f), getattr(probe, f)) for f in names)
    diffs = ["%s %r vs %r" % p for p in pairs if p[1] != p[2]]
    if diffs:
        raise ValueError("channel data differ from %s in %s" % (against, "; ".join(diffs)))


def _nearest_node(grid, z, x):
    iz = int(np.rint((z - grid.z_origin) / grid.dz))
    ix = int(np.rint((x - grid.x_positions[0]) / grid.dx))
    return iz, ix


def make_point_phantom(grid, points, amplitude=1.0):
    """Phantom with single-pixel impulses at the nearest node of each point.

    Impulses accumulate when two points snap to the same node. Points whose
    nearest node falls outside the grid are rejected.
    """
    trf = np.zeros(grid.shape)
    annotations = []
    for z, x in points:
        iz, ix = _nearest_node(grid, z, x)
        if not (0 <= iz < grid.nz and 0 <= ix < grid.nx):
            raise ValueError(
                "point (z=%g m, x=%g m) lies outside the grid" % (z, x)
            )
        trf[iz, ix] += amplitude
        annotations.append(
            PointTarget(iz=iz, ix=ix, z=float(z), x=float(x), amplitude=float(amplitude))
        )
    return Phantom(trf=trf, grid=grid, annotations=annotations)


def disc_mask(grid, center, radius):
    """Boolean mask of pixels within ``radius`` meters of center (z, x)."""
    if not 0 <= radius < np.inf:
        raise ValueError("disc radius must be finite and nonnegative, got %r" % radius)
    cz, cx = center
    dist2 = (grid.z_positions[:, None] - cz) ** 2 + (grid.x_positions[None, :] - cx) ** 2
    return dist2 <= radius**2


def make_cyst_phantom(grid, center, radius, seed):
    """Anechoic-cyst phantom: unit-variance Gaussian speckle, zero inside the disc.

    Deterministic for a given seed. The cyst center must lie inside the
    grid; a radius covering the whole grid degenerates to an all-zero map.
    """
    if not radius > 0:
        raise ValueError("cyst radius must be positive")
    cz, cx = center
    z = grid.z_positions
    x = grid.x_positions
    if not (z[0] <= cz <= z[-1] and x[0] <= cx <= x[-1]):
        raise ValueError("cyst center (z=%g, x=%g) lies outside the grid" % (cz, cx))
    rng = np.random.default_rng(seed)
    trf = rng.standard_normal(grid.shape)
    trf[disc_mask(grid, center, radius)] = 0.0
    return Phantom(
        trf=trf,
        grid=grid,
        annotations=[CystRegion(z=float(cz), x=float(cx), radius=float(radius))],
    )


def simulate_channel_data(phantom, model, snr_db, seed):
    """Synthesize channel data as the sparse forward model applied to the TRF.

    Additive white Gaussian noise is scaled so that
    10 log10(signal power / noise power) equals ``snr_db`` in expectation;
    ``snr_db=None`` gives noiseless data. Output is deterministic for fixed
    (phantom, model, snr_db, seed).
    """
    check_grid(model.grid, "the system matrix", phantom=phantom)
    clean = model.apply(phantom.to_vector())
    m = model.num_time_samples
    n = model.probe.num_elements
    samples = clean.reshape((m, n), order="F").copy()
    if snr_db is not None:
        signal_power = float(np.mean(clean**2))
        sigma = np.sqrt(signal_power * 10.0 ** (-snr_db / 10.0))
        rng = np.random.default_rng(seed)
        samples += sigma * rng.standard_normal(samples.shape)
    return ChannelData(samples=samples, tx=model.tx, probe=model.probe)
