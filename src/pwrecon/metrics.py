"""Image-quality indexes: FWHM resolution, CNR/gCNR contrast, histogram matching.

Contrast indexes are conventionally measured on histogram-matched
log-compressed images with the delay-and-sum result as the reference;
resolution is measured on the envelope directly. All functions are pure
and thread-safe.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .acquisition import disc_mask
from .beamform import BModeImage

__all__ = [
    "MetricsReport",
    "UnresolvedPeakError",
    "disc_mask",
    "annulus_mask",
    "fwhm",
    "cnr",
    "gcnr",
    "histogram_match",
]


# gCNR histogram bins over the joint range of both regions. The bin edges
# follow the range, so two images that differ by about 1e-7 of the peak can
# read gCNR values that differ in the third decimal.
_GCNR_BINS = 256


class UnresolvedPeakError(ValueError):
    """Profile never falls below half maximum inside the search window."""


def annulus_mask(grid, center, inner_radius, outer_radius):
    """Boolean ring mask between the two radii (meters) around center."""
    if not 0 <= inner_radius < outer_radius:
        raise ValueError("need 0 <= inner_radius < outer_radius")
    return disc_mask(grid, center, outer_radius) & ~disc_mask(grid, center, inner_radius)


@dataclass
class MetricsReport:
    """Per-target / per-region index values plus their averages."""

    fwhm_axial_mm: list = field(default_factory=list)
    fwhm_lateral_mm: list = field(default_factory=list)
    cnr_db: list = field(default_factory=list)
    gcnr: list = field(default_factory=list)

    def _averages(self):
        lists = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: float(np.mean(v)) if v else None for k, v in lists.items()}

    def to_json_dict(self):
        return {**asdict(self), "averages": self._averages()}

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def to_text(self):
        """Aligned-column table of averaged indexes."""
        headers = ["FWHM_A (mm)", "FWHM_L (mm)", "CNR (dB)", "gCNR"]
        cells = ["-" if v is None else "%.4g" % v for v in self._averages().values()]
        widths = [max(len(h), len(c)) for h, c in zip(headers, cells)]
        line1 = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
        line2 = "  ".join(c.rjust(w) for c, w in zip(cells, widths))
        return line1 + "\n" + line2


def _half_crossing(profile, peak_idx, half, step):
    """Sub-sample distance from the peak to the half-max crossing."""
    j = peak_idx
    while True:
        nxt = j + step
        if nxt < 0 or nxt >= profile.size:
            raise UnresolvedPeakError(
                "profile does not fall below half maximum within the window"
            )
        if profile[nxt] < half:
            frac = (profile[j] - half) / (profile[j] - profile[nxt])
            return abs(j - peak_idx) + frac
        j = nxt


def fwhm(env, target, axis):
    """Full width at half maximum of a point target, in millimeters.

    Extracts the 1-D profile through the target along ``axis`` ("axial" or
    "lateral"), snaps the target to the local maximum within 5 pixels, and
    interpolates the two half-max crossings linearly.
    """
    iz, ix = target
    data = env.data
    if not (0 <= iz < data.shape[0] and 0 <= ix < data.shape[1]):
        raise ValueError("target lies outside the image")
    # snap to the local peak near the nominal location
    z_lo, z_hi = max(iz - 5, 0), min(iz + 6, data.shape[0])
    x_lo, x_hi = max(ix - 5, 0), min(ix + 6, data.shape[1])
    patch = data[z_lo:z_hi, x_lo:x_hi]
    pz, px = np.unravel_index(np.argmax(patch), patch.shape)
    iz, ix = z_lo + pz, x_lo + px

    if axis == "axial":
        profile = data[:, ix]
        peak_idx = iz
        spacing = env.grid.dz
    elif axis == "lateral":
        profile = data[iz, :]
        peak_idx = ix
        spacing = env.grid.dx
    else:
        raise ValueError("axis must be 'axial' or 'lateral'")
    peak = profile[peak_idx]
    if peak <= 0:
        raise UnresolvedPeakError("target peak is not positive")
    half = peak / 2.0
    width_px = _half_crossing(profile, peak_idx, half, -1) + _half_crossing(
        profile, peak_idx, half, +1
    )
    return width_px * spacing * 1000.0


def _values(img, regions):
    """The image's values in a (roi, background) mask pair, both nonempty."""
    roi, bg = (np.asarray(mask, dtype=bool) for mask in regions)
    if not roi.any() or not bg.any():
        raise ValueError("roi and background must both be nonempty")
    return img.data[roi], img.data[bg]


def cnr(img, regions):
    """Contrast-to-noise ratio in dB:

    20 log10( |mean_roi - mean_bg| / sqrt((var_roi + var_bg) / 2) ).

    A zero mean difference with nonzero spread yields -inf; a fully
    degenerate pair (equal means, zero spread) is rejected.
    """
    roi, bg = _values(img, regions)
    num = abs(float(roi.mean()) - float(bg.mean()))
    denom = np.sqrt((float(roi.var()) + float(bg.var())) / 2.0)
    if denom == 0.0:
        if num == 0.0:
            raise ValueError("CNR undefined: identical means and zero variance")
        return np.inf
    if num == 0.0:
        return -np.inf
    return 20.0 * np.log10(num / denom)


def gcnr(img, regions):
    """Generalized CNR: one minus the overlap of the two intensity histograms.

    Histograms share ``_GCNR_BINS`` bins spanning the union of both regions
    and are each normalized to unit mass; the result lies in [0, 1].
    """
    roi, bg = _values(img, regions)
    lo = min(roi.min(), bg.min())
    hi = max(roi.max(), bg.max())
    if lo == hi:
        return 0.0  # identical constant regions overlap completely
    edges = np.linspace(lo, hi, _GCNR_BINS + 1)
    p_roi, _ = np.histogram(roi, bins=edges)
    p_bg, _ = np.histogram(bg, bins=edges)
    p_roi = p_roi / p_roi.sum()
    p_bg = p_bg / p_bg.sum()
    if np.array_equal(p_roi, p_bg):
        return 0.0  # equal histograms overlap fully, whatever their sum rounds to
    return float(1.0 - np.minimum(p_roi, p_bg).sum())


def histogram_match(img, reference, speckle_roi):
    """Map image intensities so their distribution over a speckle ROI matches
    the reference's distribution over the same ROI.

    The mapping is the piecewise-linear quantile transport estimated on the
    ROI, extended beyond the ROI's support by constant offset so ordering
    is preserved, applied to every pixel, and clamped to the display range.
    Returns a new BModeImage on the reference's dynamic range.
    """
    mask = np.asarray(speckle_roi, dtype=bool)
    if mask.shape != img.data.shape or mask.shape != reference.data.shape:
        raise ValueError("mask shape must match both images")
    if not mask.any():
        raise ValueError("speckle ROI is empty")
    src = np.sort(img.data[mask])
    dst = np.sort(reference.data[mask])
    if src[0] == src[-1]:
        raise ValueError("speckle ROI of the input image is constant")
    values = img.data
    mapped = np.interp(values, src, dst)
    below = values < src[0]
    above = values > src[-1]
    mapped = np.where(below, values + (dst[0] - src[0]), mapped)
    mapped = np.where(above, values + (dst[-1] - src[-1]), mapped)
    mapped = np.clip(mapped, -reference.dynamic_range, 0.0)
    return BModeImage(
        data=mapped, grid=img.grid, dynamic_range=reference.dynamic_range
    )
