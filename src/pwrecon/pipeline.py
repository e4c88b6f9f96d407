"""End-to-end orchestration shared by the CLI and the acceptance suite."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .acquisition import (
    TARGET_KINDS,
    Phantom,
    PointTarget,
    check_channel_probe,
    check_grid,
    make_cyst_phantom,
    make_point_phantom,
    simulate_channel_data,
)
from .beamform import das_beamform, envelope, log_compress
from .config import ConfigError
from .forward_model import cached_system_matrix, suggest_time_window
from .metrics import (
    MetricsReport,
    annulus_mask,
    cnr,
    disc_mask,
    fwhm,
    gcnr,
    histogram_match,
)
from .psf import Psf, conv_apply, half_width_within, make_parametric_psf
from .solver import observations_needed, solve

__all__ = [
    "build_model",
    "make_phantom",
    "simulate",
    "reference_das",
    "psf_from_model",
    "resolve_psf",
    "run_reconstruction",
    "measure",
    "contrast",
]

# -6 dB fractional bandwidth of the parametric pulse's axial profile
_AXIAL_FBW = 0.67
# a cyst's ROI disc and the inner radius of its equal-area background ring,
# in cyst radii
_ROI_RATIO = 0.7
_BACKGROUND_INNER_RATIO = 1.2


def build_model(cfg, ch=None):
    """System matrix of a run config's transmit (disk-cached) over the sample
    window of channel data ``ch``, or else one covering every grid delay."""
    if ch is None:
        t0, num = suggest_time_window(cfg.probe, cfg.grid, cfg.tx())
    else:
        t0, num = ch.probe.t0_offset, ch.num_samples
    probe = replace(cfg.probe, t0_offset=t0)
    return cached_system_matrix(probe, cfg.grid, cfg.tx(), num, cfg.apodization)


def _parametric_psf(cfg, lateral_sigma):
    """Parametric kernel of the probe's pulse, built to fit the grid."""
    return make_parametric_psf(
        f0=cfg.probe.center_freq,
        fs=cfg.probe.sampling_freq,
        axial_fbw=_AXIAL_FBW,
        lateral_sigma=lateral_sigma,
        shape=cfg.grid.shape,
    )


def _blur_kernel(cfg):
    """Scatterer-sequence blur declared by the phantom block, if any.

    Blurring the reflectivity map with a band-limited pulse kernel gives the
    channel data the finite pulse length real acquisitions have; without it
    the purely geometric forward model produces unrealistically sharp
    baseline images.
    """
    spec = (cfg.phantom or {}).get("blur")
    if spec is None:
        return None
    return _parametric_psf(cfg, spec["lateral_sigma"])


def make_phantom(cfg):
    """Instantiate the phantom described by the run config."""
    spec = cfg.phantom
    if not spec:
        raise ConfigError("run config declares no phantom")
    kind = spec.get("type")
    if kind == "point":
        phantom = make_point_phantom(cfg.grid, [tuple(p) for p in spec["points"]])
    elif kind == "cyst":
        phantom = make_cyst_phantom(
            cfg.grid,
            tuple(spec["center"]),
            spec["radius"],
            seed=spec.get("seed", 0),
        )
    else:
        raise ConfigError("unknown phantom type %r" % kind)
    pulse = _blur_kernel(cfg)
    if pulse is not None:
        phantom = Phantom(
            trf=conv_apply(pulse, phantom.trf),
            grid=phantom.grid,
            annotations=phantom.annotations,
        )
    return phantom


def simulate(cfg, phantom, model):
    spec = cfg.phantom or {}
    return simulate_channel_data(
        phantom, model, snr_db=spec.get("snr_db"), seed=spec.get("seed", 0)
    )


def reference_das(geometry, ch, against="the system matrix"):
    """Delay-and-sum image of ``ch`` on the grid and apodization of ``geometry``,
    a system matrix or a run config; data of another probe are refused."""
    check_channel_probe(ch, geometry.probe, against)
    return das_beamform(ch, geometry.grid, geometry.apodization)


def psf_from_model(model, pre_blur=None):
    """Empirical system kernel: the beamformed image of a centered impulse.

    The impulse (optionally blurred by the same pulse kernel the phantom
    uses, so the estimate contains the pulse) is pushed through the forward
    model and delay-and-sum, cropped to the centered box where the response
    exceeds 5e-3 of its peak (at most 20 axial and 16 lateral half-widths),
    and normalized to unit peak. This is the blur that actually relates the
    reflectivity map to the delay-and-sum image under the linear model;
    reconstructing with it instead of a parametric kernel removes the
    model-mismatch floor, which is useful for matched-model experiments.
    """
    grid = model.grid
    trf = np.zeros(grid.shape)
    ciz, cix = grid.nz // 2, grid.nx // 2
    trf[ciz, cix] = 1.0
    if pre_blur is not None:
        trf = conv_apply(pre_blur, trf)
    phantom = Phantom(trf=trf, grid=grid)
    ch = simulate_channel_data(phantom, model, snr_db=None, seed=0)
    img = reference_das(model, ch).data
    peak = np.abs(img).max()
    if peak <= 0:
        raise ValueError("impulse response is identically zero")
    strong = np.abs(img) > 5e-3 * peak
    rows = np.where(strong.any(axis=1))[0]
    cols = np.where(strong.any(axis=0))[0]
    half_z = int(max(ciz - rows.min(), rows.max() - ciz))
    half_x = int(max(cix - cols.min(), cols.max() - cix))
    half_z = half_width_within(min(max(half_z, 1), 20), grid.nz)
    half_x = half_width_within(min(max(half_x, 1), 16), grid.nx)
    kernel = img[ciz - half_z : ciz + half_z + 1, cix - half_x : cix + half_x + 1]
    kernel = kernel / img[ciz, cix]
    return Psf(kernel=kernel)


def resolve_psf(cfg, model=None):
    """Kernel selected by the run config: parametric, or empirical through
    ``model`` (built from ``cfg`` if None). A PSF container is given to
    ``run_reconstruction`` (``solve --psf``) instead."""
    spec = cfg.psf
    kind = spec.get("type", "model")
    if kind == "parametric":
        return _parametric_psf(cfg, spec["lateral_sigma"])
    if kind != "model":
        raise ConfigError("unknown psf type %r" % kind)
    return psf_from_model(model or build_model(cfg), pre_blur=_blur_kernel(cfg))


def run_reconstruction(cfg, model, ch, psf=None, y_das=None):
    """Solve with the config's mode, deriving missing observations.

    ``solver.observations_needed`` names what the mode reads: ``ch`` for
    the channel term, and a PSF and ``y_das`` for the blur term, ``y_das``
    computed by ``reference_das`` from ``ch`` when not given.
    With ``model`` None the system matrix is built from ``cfg`` over the
    window of ``ch`` for the channel term (``resolve_psf`` builds its own).
    A given ``y_das`` must lie on the config's grid, whatever the mode.
    """
    check_grid(cfg.grid, "the run config's", reference=y_das)
    scfg = cfg.solver
    needs = observations_needed(scfg)
    needs_das = y_das is None and needs["das"]
    if ch is None and needs["channel"]:
        raise ConfigError("mode %r needs --channel data" % scfg.mode)
    if ch is None and needs_das:
        raise ConfigError("mode %r needs --das or channel data" % scfg.mode)
    if model is None and needs["channel"]:
        model = build_model(cfg, ch)
    if needs_das:
        y_das = reference_das(cfg, ch, "the run config")
    if psf is None and needs["psf"]:
        psf = resolve_psf(cfg, model=model)
    return solve(scfg, model=model, y_ch=ch, psf=psf, y_das=y_das)


def measure(cfg, phantom, image, reference=None, kind=None):
    """MetricsReport for a reconstructed image.

    Point targets: axial/lateral FWHM per target on the envelope. Cysts:
    CNR and gCNR per cyst on histogram-matched log-compressed images, with
    the reference (normally the delay-and-sum result) defining the target
    intensity distribution. ``kind`` None measures a phantom's point targets
    if it has any, else its cysts; a kind it holds no target of is a ConfigError.
    """
    check_grid(cfg.grid, "the run config's", phantom=phantom, image=image, reference=reference)
    has_points = any(isinstance(a, PointTarget) for a in phantom.annotations)
    kind = kind or ("point" if has_points else "cyst")
    if kind not in TARGET_KINDS:
        raise ConfigError("unknown metrics kind %r" % kind)
    targets = [a for a in phantom.annotations if isinstance(a, TARGET_KINDS[kind])]
    if not targets:
        raise ConfigError("metrics kind %r: the phantom has no %s target" % (kind, kind))
    if kind == "point":
        report = MetricsReport()
        env = envelope(image)
        for target in targets:
            report.fwhm_axial_mm.append(fwhm(env, (target.iz, target.ix), "axial"))
            report.fwhm_lateral_mm.append(
                fwhm(env, (target.iz, target.ix), "lateral")
            )
        return report
    regions = []
    for cyst in targets:
        center = (cyst.z, cyst.x)
        roi_r = _ROI_RATIO * cyst.radius
        bg_inner = _BACKGROUND_INNER_RATIO * cyst.radius
        bg_outer = float(np.sqrt(bg_inner**2 + roi_r**2))  # equal-area ring
        regions.append((
            disc_mask(cfg.grid, center, roi_r),
            annulus_mask(cfg.grid, center, bg_inner, bg_outer),
        ))
    return contrast(cfg, image, regions, reference)


def contrast(cfg, image, regions, reference):
    """MetricsReport of CNR and gCNR for each (roi, background) mask pair.

    Both are measured on the log-compressed image, histogram-matched on the
    pair's background to the log-compressed reference when one is given.
    """
    check_grid(cfg.grid, "the run config's", image=image, reference=reference)
    report = MetricsReport()
    bmode = log_compress(envelope(image), cfg.dynamic_range)
    ref_bmode = None
    if reference is not None:
        ref_bmode = log_compress(envelope(reference), cfg.dynamic_range)
    for roi, bg in regions:
        measured = bmode if ref_bmode is None else histogram_match(bmode, ref_bmode, bg)
        report.cnr_db.append(cnr(measured, (roi, bg)))
        report.gcnr.append(gcnr(measured, (roi, bg)))
    return report
