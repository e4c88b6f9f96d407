"""Run configuration, hyperparameter presets, and bundled desk-scale setups.

A run config is a single JSON document describing probe, grid, transmit,
apodization, phantom, PSF choice, solver settings, and metric regions. It
is validated at load time; unknown or ill-typed keys fail with the
offending key named.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass, field, replace

from .acquisition import ImagingGrid, PlaneWaveTx, ProbeGeometry
from .forward_model import ApodizationSpec, suggest_time_window
from .solver import InnerSettings, SolverConfig

__all__ = [
    "ConfigError",
    "RunConfig",
    "PRESET_NAMES",
    "preset_solver_config",
    "load_run_config",
    "builtin_config_names",
    "get_builtin_config",
    "desk_sequential_config",
]


class ConfigError(ValueError):
    """Malformed run configuration."""


PRESET_NAMES = ("sr", "er", "sc", "ec", "cc", "cl")

# Per-experiment hyperparameters for each reconstruction flavor. The joint
# entries are (gamma_d, gamma_b, beta, mu); the single-term entries are
# (mu, beta) with the active data weight fixed to 1.
_JOINT_PRESETS = {
    "sr": (1.0, 0.1, 500.0, 5.0),
    "er": (2.0, 1.0, 1e3, 0.1),
    "sc": (1.0, 0.1, 1e3, 0.1),
    "ec": (1.0, 0.1, 1e3, 0.1),
    "cc": (0.5, 3.0, 5e3, 1.0),
    "cl": (0.5, 3.0, 5e3, 1.0),
}
_BEAMFORM_PRESETS = {
    "sr": (5.0, 1e3),
    "er": (0.05, 1e4),
    "sc": (0.5, 1e3),
    "ec": (0.05, 1e4),
    "cc": (0.5, 1e4),
    "cl": (0.5, 1e4),
}
_DECONV_PRESETS = {
    "sr": (3.0, 1e3),
    "er": (0.05, 1e3),
    "sc": (0.1, 1e3),
    "ec": (0.1, 1e3),
    "cc": (0.01, 1e3),
    "cl": (0.01, 1e3),
}


def preset_solver_config(mode, preset, **overrides):
    """SolverConfig for a named experiment preset and reconstruction mode.

    Sequential mode carries its deconvolution-stage hyperparameters in
    ``stage2``. Keyword overrides are applied last.
    """
    if preset not in PRESET_NAMES:
        raise ConfigError("unknown preset %r (choose from %s)" % (preset, PRESET_NAMES))
    if mode == "joint":
        gd, gb, beta, mu = _JOINT_PRESETS[preset]
        cfg = SolverConfig(gamma_d=gd, gamma_b=gb, beta=beta, mu=mu, mode="joint")
    elif mode == "beamform_only":
        mu, beta = _BEAMFORM_PRESETS[preset]
        cfg = SolverConfig(
            gamma_d=0.0, gamma_b=1.0, beta=beta, mu=mu, mode="beamform_only"
        )
    elif mode == "deconv_only":
        mu, beta = _DECONV_PRESETS[preset]
        cfg = SolverConfig(
            gamma_d=1.0, gamma_b=0.0, beta=beta, mu=mu, mode="deconv_only"
        )
    elif mode == "sequential":
        mu1, beta1 = _BEAMFORM_PRESETS[preset]
        mu2, beta2 = _DECONV_PRESETS[preset]
        stage2 = SolverConfig(
            gamma_d=1.0, gamma_b=0.0, beta=beta2, mu=mu2, mode="deconv_only"
        )
        cfg = SolverConfig(
            gamma_d=0.0,
            gamma_b=1.0,
            beta=beta1,
            mu=mu1,
            mode="sequential",
            stage2=stage2,
        )
    else:
        raise ConfigError("unknown mode %r" % mode)
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


@dataclass
class RunConfig:
    """Everything one reconstruction run needs, minus the data files."""

    probe: ProbeGeometry
    grid: ImagingGrid
    tx_angles: list = field(default_factory=lambda: [0.0])
    num_samples: int | None = None  # None: sized automatically from geometry
    apodization: ApodizationSpec = field(default_factory=ApodizationSpec)
    phantom: dict | None = None
    psf: dict = field(default_factory=lambda: {"type": "model"})
    solver: SolverConfig = field(default_factory=SolverConfig)
    metrics: dict = field(default_factory=dict)
    dynamic_range: float = 60.0

    def tx(self, index=0):
        return PlaneWaveTx(angle=self.tx_angles[index])

    def resolve_time_window(self):
        """Probe (with start offset) and sample count covering the grid.

        The window is the union of every transmit angle's own window, so
        steered transmits keep all their delays.
        """
        if self.num_samples is not None:
            return self.probe, self.num_samples
        windows = [
            suggest_time_window(self.probe, self.grid, self.tx(k))
            for k in range(len(self.tx_angles))
        ]
        t0 = min(start for start, _ in windows)
        fs = self.probe.sampling_freq
        num = max(round((start - t0) * fs) + count for start, count in windows)
        return replace(self.probe, t0_offset=t0), num


def _require(d, key, types, where):
    if key not in d:
        raise ConfigError("missing key %r in %s" % (key, where))
    val = d[key]
    if not isinstance(val, types):
        raise ConfigError(
            "key %r in %s has type %s" % (key, where, type(val).__name__)
        )
    return val


def _build_probe(d):
    fields = {}
    for key in ("num_elements",):
        fields[key] = int(_require(d, key, (int,), "probe"))
    for key in ("pitch", "sound_speed", "sampling_freq", "center_freq"):
        fields[key] = float(_require(d, key, (int, float), "probe"))
    fields["t0_offset"] = float(d.get("t0_offset", 0.0))
    try:
        return ProbeGeometry(**fields)
    except ValueError as err:
        raise ConfigError("probe: %s" % err)


def _build_grid(d, probe):
    nz = int(_require(d, "nz", (int,), "grid"))
    nx = int(d.get("nx", probe.num_elements))
    z_origin = float(d.get("z_origin", 0.0))
    try:
        return ImagingGrid.for_probe(probe, nz=nz, nx=nx, z_origin=z_origin)
    except ValueError as err:
        raise ConfigError("grid: %s" % err)


def _build_apodization(d):
    try:
        return ApodizationSpec(
            window=d.get("window", "hanning"),
            f_number=float(d.get("f_number", 0.5)),
            taper=float(d.get("taper", 0.25)),
            min_half_aperture=float(d.get("min_half_aperture", 0.0)),
        )
    except ValueError as err:
        raise ConfigError("apodization: %s" % err)


def _build_solver(d):
    mode = d.get("mode", "joint")
    preset = d.get("preset")
    keys = ("gamma_d", "gamma_b", "mu", "beta", "epsilon", "max_iter", "normalize")
    overrides = {k: d[k] for k in keys if k in d}
    if "inner" in d:
        overrides["inner"] = InnerSettings(**d["inner"])
    try:
        if preset is not None:
            return preset_solver_config(mode, preset, **overrides)
        return SolverConfig(mode=mode, **overrides)
    except (ValueError, TypeError) as err:
        raise ConfigError("solver: %s" % err)


def run_config_from_dict(doc):
    """Validate a parsed JSON document and build a RunConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("run config must be a JSON object")
    probe = _build_probe(_require(doc, "probe", (dict,), "run config"))
    grid = _build_grid(_require(doc, "grid", (dict,), "run config"), probe)
    tx_angles = doc.get("tx_angles", [0.0])
    if not isinstance(tx_angles, list) or not tx_angles:
        raise ConfigError("tx_angles must be a nonempty list of radians")
    num_samples = doc.get("num_samples")
    if num_samples is not None:
        num_samples = int(num_samples)
    apod = _build_apodization(doc.get("apodization", {}))
    solver = _build_solver(doc.get("solver", {}))
    phantom = doc.get("phantom")
    if phantom is not None and not isinstance(phantom, dict):
        raise ConfigError("phantom must be an object")
    psf = doc.get("psf", {"type": "model"})
    if not isinstance(psf, dict) or "type" not in psf:
        raise ConfigError("psf must be an object with a 'type' key")
    if psf["type"] == "file":
        path = psf.get("path")
        if not path or not os.path.exists(path):
            raise ConfigError("psf file %r does not exist" % path)
    metrics = doc.get("metrics", {})
    return RunConfig(
        probe=probe,
        grid=grid,
        tx_angles=[float(a) for a in tx_angles],
        num_samples=num_samples,
        apodization=apod,
        phantom=copy.deepcopy(phantom),
        psf=copy.deepcopy(psf),
        solver=solver,
        metrics=copy.deepcopy(metrics),
        dynamic_range=float(doc.get("dynamic_range", 60.0)),
    )


# Bundled desk-scale setups: a 128-element 5.2 MHz linear array (a common
# public plane-wave benchmark configuration) over a centimeter-scale grid.
# Point reflectivities are convolved with a band-limited pulse so the
# synthetic data carries a realistic finite pulse length, and channel noise
# is added so the acquisitions have the misfit floor real data has. The
# solver weights keep the customary deconvolution-dominant balance (strong
# blur term, weak channel term) with beta and mu rescaled to the unit-peak
# data normalization this solver applies; raw-amplitude RF data needs the
# named experiment presets instead.
_DESK_PROBE = {
    "num_elements": 128,
    "pitch": 0.3e-3,
    "sound_speed": 1540.0,
    "sampling_freq": 20.832e6,
    "center_freq": 5.208e6,
}

_DESK_COMMON = {
    "probe": _DESK_PROBE,
    "grid": {"nz": 96, "nx": 64, "z_origin": 7.0e-3},
    "tx_angles": [0.0],
    "apodization": {"window": "hanning", "f_number": 0.5},
    "psf": {"type": "parametric", "axial_fbw": 0.67, "lateral_sigma": 1.5},
    "dynamic_range": 60.0,
}

_BUILTIN_CONFIGS = {
    "desk_point": {
        **_DESK_COMMON,
        "phantom": {
            "type": "point",
            "points": [
                [7.5e-3, -6.0e-3],
                [8.0e-3, -3.0e-3],
                [8.5e-3, 0.0],
                [9.0e-3, 3.0e-3],
                [9.5e-3, 6.0e-3],
            ],
            "amplitude": 1.0,
            "snr_db": 0.0,
            "seed": 0,
            "blur": {"axial_fbw": 0.67, "lateral_sigma": 0.5},
        },
        "solver": {
            "mode": "joint",
            "gamma_d": 1.0,
            "gamma_b": 0.25,
            "beta": 12.0,
            "mu": 0.72,
        },
        "metrics": {"kind": "point"},
    },
    "desk_cyst": {
        **_DESK_COMMON,
        "phantom": {
            "type": "cyst",
            "center": [8.2e-3, 0.0],
            "radius": 1.4e-3,
            "snr_db": 10.0,
            "seed": 7,
            "blur": {"axial_fbw": 0.67, "lateral_sigma": 0.5},
        },
        "solver": {
            "mode": "joint",
            "gamma_d": 1.0,
            "gamma_b": 0.1,
            "beta": 24.0,
            "mu": 0.3,
        },
        "metrics": {
            "kind": "cyst",
            "roi_ratio": 0.7,
            "background_inner_ratio": 1.2,
        },
    },
}

# Sequential-mode stage hyperparameters matched to the desk configs above:
# stage 1 solves the channel-data problem alone, stage 2 deblurs its output.
DESK_SEQUENTIAL = {
    "desk_point": {"stage1": (1.0, 12.0, 0.06), "stage2": (1.0, 24.0, 0.1)},
    "desk_cyst": {"stage1": (1.0, 24.0, 0.3), "stage2": (1.0, 24.0, 0.3)},
}


def desk_sequential_config(name):
    """Sequential-mode SolverConfig matched to a bundled desk config."""
    if name not in DESK_SEQUENTIAL:
        raise ConfigError("no sequential preset for %r" % name)
    g1, b1, m1 = DESK_SEQUENTIAL[name]["stage1"]
    g2, b2, m2 = DESK_SEQUENTIAL[name]["stage2"]
    return SolverConfig(
        gamma_d=0.0,
        gamma_b=g1,
        beta=b1,
        mu=m1,
        mode="sequential",
        stage2=SolverConfig(gamma_d=g2, gamma_b=0.0, beta=b2, mu=m2, mode="deconv_only"),
    )


def builtin_config_names():
    return sorted(_BUILTIN_CONFIGS)


def get_builtin_config(name):
    """Deep copy of a bundled config document (edit freely)."""
    if name not in _BUILTIN_CONFIGS:
        raise ConfigError(
            "unknown builtin config %r (choose from %s)"
            % (name, builtin_config_names())
        )
    return copy.deepcopy(_BUILTIN_CONFIGS[name])


def load_run_config(source):
    """Load a RunConfig from a JSON file path or a ``builtin:<name>`` tag."""
    if isinstance(source, str) and source.startswith("builtin:"):
        return run_config_from_dict(get_builtin_config(source[len("builtin:"):]))
    if not os.path.exists(source):
        raise FileNotFoundError("run config %s does not exist" % source)
    with open(source, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as err:
            raise ConfigError("%s: %s" % (source, err))
    return run_config_from_dict(doc)
