"""End-to-end orchestration shared by the CLI and the acceptance suite."""

from __future__ import annotations

import numpy as np

from .acquisition import (
    CystRegion,
    Phantom,
    PointTarget,
    make_cyst_phantom,
    make_point_phantom,
    simulate_channel_data,
)
from .beamform import das_beamform, envelope, log_compress
from .config import ConfigError
from .forward_model import cached_system_matrix
from .metrics import (
    MetricsReport,
    annulus_mask,
    cnr,
    disc_mask,
    fwhm,
    gcnr,
    histogram_match,
)
from .psf import Psf, conv_apply, make_parametric_psf
from .solver import solve

__all__ = [
    "build_model",
    "make_phantom",
    "simulate",
    "reference_das",
    "psf_from_model",
    "resolve_psf",
    "run_reconstruction",
    "measure",
]


def build_model(cfg):
    """System matrix of a run config's transmit (disk-cached)."""
    probe, num_samples = cfg.resolve_time_window()
    return cached_system_matrix(
        probe, cfg.grid, cfg.tx(), num_samples, cfg.apodization
    )


def _parametric_psf(cfg, spec, lateral_sigma):
    """Parametric kernel from a config block; unset keys from the probe."""
    return make_parametric_psf(
        f0=spec.get("f0", cfg.probe.center_freq),
        fs=spec.get("fs", cfg.probe.sampling_freq),
        axial_fbw=spec.get("axial_fbw", 0.67),
        lateral_sigma=spec.get("lateral_sigma", lateral_sigma),
    )


def _blur_kernel(cfg):
    """Scatterer-sequence blur declared by the phantom block, if any.

    Blurring the reflectivity map with a band-limited pulse kernel gives the
    channel data the finite pulse length real acquisitions have; without it
    the purely geometric forward model produces unrealistically sharp
    baseline images.
    """
    spec = (cfg.phantom or {}).get("blur")
    if not spec:
        return None
    return _parametric_psf(cfg, spec, lateral_sigma=0.5)


def make_phantom(cfg):
    """Instantiate the phantom described by the run config."""
    spec = cfg.phantom
    if not spec:
        raise ConfigError("run config declares no phantom")
    kind = spec.get("type")
    if kind == "point":
        phantom = make_point_phantom(
            cfg.grid,
            [tuple(p) for p in spec["points"]],
            amplitude=spec.get("amplitude", 1.0),
        )
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


def reference_das(model, ch):
    """Delay-and-sum image on the model's grid with its apodization."""
    return das_beamform(ch, model.grid, model.apodization)


def psf_from_model(model, pre_blur=None, threshold=5e-3, max_half=(20, 16)):
    """Empirical system kernel: the beamformed image of a centered impulse.

    The impulse (optionally blurred by the same pulse kernel the phantom
    uses, so the estimate contains the pulse) is pushed through the forward
    model and delay-and-sum, cropped to the centered box where the response
    exceeds ``threshold`` of its peak (capped at ``max_half`` half-widths),
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
    img = das_beamform(ch, grid, model.apodization).data
    peak = np.abs(img).max()
    if peak <= 0:
        raise ValueError("impulse response is identically zero")
    strong = np.abs(img) > threshold * peak
    rows = np.where(strong.any(axis=1))[0]
    cols = np.where(strong.any(axis=0))[0]
    half_z = int(max(ciz - rows.min(), rows.max() - ciz))
    half_x = int(max(cix - cols.min(), cols.max() - cix))
    half_z = min(max(half_z, 1), max_half[0], ciz - 1, grid.nz - ciz - 2)
    half_x = min(max(half_x, 1), max_half[1], cix - 1, grid.nx - cix - 2)
    kernel = img[ciz - half_z : ciz + half_z + 1, cix - half_x : cix + half_x + 1]
    kernel = kernel / img[ciz, cix]
    return Psf(kernel=kernel, dz=grid.dz, dx=grid.dx)


def resolve_psf(cfg, model=None, reader=None):
    """Kernel selected by the run config: empirical, parametric, or file."""
    spec = cfg.psf
    kind = spec.get("type", "model")
    if kind == "model":
        if model is None:
            raise ConfigError("psf type 'model' needs a system matrix")
        return psf_from_model(model, pre_blur=_blur_kernel(cfg))
    if kind == "parametric":
        return _parametric_psf(cfg, spec, lateral_sigma=1.0)
    if kind == "file":
        if reader is None:
            from .io import read_container as reader
        obj = reader(spec["path"])
        if not isinstance(obj, Psf):
            raise ConfigError("psf file %s does not hold a PSF" % spec["path"])
        return obj
    raise ConfigError("unknown psf type %r" % kind)


def run_reconstruction(cfg, model, ch, psf=None, y_das=None, x0=None):
    """Solve with the config's mode, deriving missing observations.

    The channel term (``gamma_b > 0``, and the first stage of sequential
    mode) reads ``ch``; the blur term reads ``y_das``, computed by
    delay-and-sum from ``ch`` when not given. With ``model`` None the
    system matrix is built from ``cfg`` only if one of those, or a
    ``"model"`` PSF, needs it.
    """
    scfg = cfg.solver
    sequential = scfg.mode == "sequential"
    needs_channel = scfg.gamma_b > 0 or sequential
    # sequential mode deblurs its own first stage, never a DAS image
    needs_das = y_das is None and scfg.gamma_d > 0 and not sequential
    needs_psf = psf is None and (scfg.gamma_d > 0 or sequential)
    if ch is None and needs_channel:
        raise ConfigError("mode %r needs --channel data" % scfg.mode)
    if ch is None and needs_das:
        raise ConfigError("mode %r needs --das or channel data" % scfg.mode)
    model_psf = needs_psf and cfg.psf.get("type", "model") == "model"
    if model is None and (needs_channel or needs_das or model_psf):
        model = build_model(cfg)
    if needs_das:
        y_das = reference_das(model, ch)
    if needs_psf:
        psf = resolve_psf(cfg, model=model)
    return solve(scfg, model=model, y_ch=ch, psf=psf, y_das=y_das, x0=x0)


def _point_targets(phantom):
    return [a for a in phantom.annotations if isinstance(a, PointTarget)]


def _cyst_regions(phantom):
    return [a for a in phantom.annotations if isinstance(a, CystRegion)]


def measure(cfg, phantom, image, reference=None):
    """MetricsReport for a reconstructed image.

    Point phantoms: axial/lateral FWHM per target on the envelope. Cyst
    phantoms: CNR and gCNR per cyst on histogram-matched log-compressed
    images, with the reference (normally the delay-and-sum result) defining
    the target intensity distribution.
    """
    kind = cfg.metrics.get("kind") or (
        "point" if _point_targets(phantom) else "cyst"
    )
    if kind == "point":
        report = MetricsReport()
        env = envelope(image)
        for target in _point_targets(phantom):
            report.fwhm_axial_mm.append(fwhm(env, (target.iz, target.ix), "axial"))
            report.fwhm_lateral_mm.append(
                fwhm(env, (target.iz, target.ix), "lateral")
            )
        return report
    if kind != "cyst":
        raise ConfigError("unknown metrics kind %r" % kind)
    roi_ratio = cfg.metrics.get("roi_ratio", 0.7)
    inner_ratio = cfg.metrics.get("background_inner_ratio", 1.2)
    regions = []
    for cyst in _cyst_regions(phantom):
        center = (cyst.z, cyst.x)
        roi_r = roi_ratio * cyst.radius
        bg_inner = inner_ratio * cyst.radius
        bg_outer = float(np.sqrt(bg_inner**2 + roi_r**2))  # equal-area ring
        regions.append((
            disc_mask(cfg.grid, center, roi_r),
            annulus_mask(cfg.grid, center, bg_inner, bg_outer),
        ))
    return _contrast(cfg, image, regions, reference)


def _contrast(cfg, image, regions, reference):
    """MetricsReport of CNR and gCNR for each (roi, background) mask pair.

    Both are measured on the log-compressed image, histogram-matched on the
    pair's background to the log-compressed reference when one is given.
    """
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
