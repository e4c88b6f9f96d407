"""Run configuration, hyperparameter presets, and bundled desk-scale setups.

A run config is a single JSON document describing probe, grid, transmit,
apodization, phantom, PSF choice, solver settings, and metric regions. It
is validated at load time; unknown or ill-typed keys fail with the
offending key named.
"""

from __future__ import annotations

import builtins
import copy
import json
import os
from dataclasses import MISSING, dataclass, field, fields, replace

from .acquisition import ImagingGrid, PlaneWaveTx, ProbeGeometry
from .forward_model import ApodizationSpec, suggest_time_window
from .solver import InnerSettings, SolverConfig

__all__ = [
    "ConfigError",
    "RunConfig",
    "PRESET_NAMES",
    "solver_config",
    "mode_fields",
    "load_run_config",
    "builtin_config_names",
    "get_builtin_config",
    "desk_sequential_config",
]


class ConfigError(ValueError):
    """Malformed run configuration."""


# Per-experiment hyperparameters: (gamma_d, gamma_b, beta, mu) of the joint
# reconstruction, then (mu, beta) of the beamform_only and of the deconv_only
# reconstructions, whose active data weight is fixed to 1.
_PRESETS = {
    "sr": ((1.0, 0.1, 500.0, 5.0), (5.0, 1e3), (3.0, 1e3)),
    "er": ((2.0, 1.0, 1e3, 0.1), (0.05, 1e4), (0.05, 1e3)),
    "sc": ((1.0, 0.1, 1e3, 0.1), (0.5, 1e3), (0.1, 1e3)),
    "ec": ((1.0, 0.1, 1e3, 0.1), (0.05, 1e4), (0.1, 1e3)),
    "cc": ((0.5, 3.0, 5e3, 1.0), (0.5, 1e4), (0.01, 1e3)),
    "cl": ((0.5, 3.0, 5e3, 1.0), (0.5, 1e4), (0.01, 1e3)),
}
PRESET_NAMES = tuple(_PRESETS)


def _preset_block(mode, preset):
    """Solver-block keys of a named preset; ``mode_fields`` adds the rest."""
    if preset not in PRESET_NAMES:
        raise ConfigError("unknown preset %r (choose from %s)" % (preset, PRESET_NAMES))
    joint, beamform, deconv = _PRESETS[preset]
    if mode == "joint":
        return dict(zip(("gamma_d", "gamma_b", "beta", "mu"), joint))
    block = dict(zip(("mu", "beta"), deconv if mode == "deconv_only" else beamform))
    if mode == "sequential":
        stage2 = dict(zip(("mu", "beta"), deconv), mode="deconv_only")
        block.update(gamma_d=0.0, gamma_b=1.0, stage2=stage2)
    return block


def mode_fields(mode, values):
    """SolverConfig fields that put keyword ``values`` into ``mode``.

    A single-term mode keeps one data term: beamform_only sets gamma_d = 0
    and keeps gamma_b, or 1.0 where gamma_b is unset or zero; deconv_only is
    the mirror image. Other modes change only ``mode``.
    """
    if mode == "beamform_only":
        return {"mode": mode, "gamma_d": 0.0, "gamma_b": values.get("gamma_b") or 1.0}
    if mode == "deconv_only":
        return {"mode": mode, "gamma_b": 0.0, "gamma_d": values.get("gamma_d") or 1.0}
    return {"mode": mode}


@dataclass
class RunConfig:
    """Everything one reconstruction run needs, minus the data files.

    A run images one plane-wave transmit, so ``tx_angles`` holds exactly one
    angle; images of several angles are combined with ``pwrecon compound``.
    """

    probe: ProbeGeometry
    grid: ImagingGrid
    tx_angles: list = field(default_factory=lambda: [0.0])
    num_samples: int | None = None  # None: sized to the transmit's delays
    apodization: ApodizationSpec = field(default_factory=ApodizationSpec)
    phantom: dict | None = None
    psf: dict = field(default_factory=lambda: {"type": "model"})
    solver: SolverConfig = field(default_factory=SolverConfig)
    metrics: dict = field(default_factory=dict)
    dynamic_range: float = 60.0

    def __post_init__(self):
        if len(self.tx_angles) != 1:
            raise ConfigError(
                "key 'tx_angles' must hold exactly one angle, got %d: run one "
                "config per angle and combine the images with `pwrecon compound`"
                % len(self.tx_angles)
            )

    def tx(self):
        return PlaneWaveTx(angle=self.tx_angles[0])

    def resolve_time_window(self):
        """Probe (with start offset) and sample count covering the grid."""
        if self.num_samples is not None:
            return self.probe, self.num_samples
        t0, num = suggest_time_window(self.probe, self.grid, self.tx())
        return replace(self.probe, t0_offset=t0), num


# Keys of the grid block (its spacing comes from the probe) and of the
# blocks a RunConfig keeps as plain dicts.
_GRID_KEYS = dict(nz="int", nx="int", z_origin="float")
_SHAPE_KEYS = dict.fromkeys(("f0", "fs", "axial_fbw", "lateral_sigma"), "float")
_PSF_KEYS = {"type": "str", "path": "str", **_SHAPE_KEYS}
_METRICS_KEYS = dict(kind="str", roi_ratio="float", background_inner_ratio="float")
_PHANTOM_KEYS = {
    "type": "str",
    "points": "list",
    "amplitude": "float",
    "center": "list",
    "radius": "float",
    "snr_db": "float | None",
    "seed": "int",
    "blur": lambda b, p: None if b is None else _read(b, _SHAPE_KEYS, p),
}
_PHANTOM_REQUIRED = {"point": ("points",), "cyst": ("center", "radius")}


def _value(val, kind, key, where):
    """A JSON value checked against a type annotation such as "float | None"."""
    if val is None and kind.endswith(" | None"):
        return None
    kind = kind.replace(" | None", "")
    types = (int, float) if kind == "float" else getattr(builtins, kind)
    # bool is an int subclass, yet true/false is no number and 1 no bool
    if isinstance(val, bool) != (kind == "bool") or not isinstance(val, types):
        raise ConfigError(
            "key %r in %s has type %s, expected %s"
            % (key, where, type(val).__name__, kind)
        )
    return float(val) if kind == "float" else val


def _read(block, types, path, required=()):
    """Checked values of a config block: ``types`` maps every allowed key to a
    JSON type name or to a reader ``f(value, path)`` of a nested block."""
    where = path or "run config"
    if not isinstance(block, dict):
        raise ConfigError("%s must be an object" % where)
    for key in required:
        if key not in block:
            raise ConfigError("missing key %r in %s" % (key, where))
    values = {}
    for key, val in block.items():
        if key not in types:
            raise ConfigError("unknown key %r in %s" % (key, where))
        kind = types[key]
        if callable(kind):
            values[key] = kind(val, "%s.%s" % (path, key) if path else key)
        else:
            values[key] = _value(val, kind, key, where)
    return values


def _construct(cls, values, where):
    try:
        return cls(**values)
    except ValueError as err:
        raise ConfigError("%s: %s" % (where, err))


def _build(cls, block, path):
    """A dataclass from a block keyed by its fields, typed by their annotations."""
    types = {f.name: f.type for f in fields(cls)}
    required = [
        f.name for f in fields(cls)
        if f.default is MISSING and f.default_factory is MISSING
    ]
    return _construct(cls, _read(block, types, path, required), path)


def solver_config(block, path="solver"):
    """SolverConfig from a solver block.

    Keys are SolverConfig's fields, ``inner`` and ``stage2`` being nested
    blocks, plus ``preset``: a named experiment preset whose values the
    block's own keys override. ``mode_fields`` completes single-term modes.
    """
    if isinstance(block, dict) and "preset" in block:
        block = {**_preset_block(block.get("mode", "joint"), block["preset"]), **block}
    types = {f.name: f.type for f in fields(SolverConfig)}
    types.update(
        preset="str",
        inner=lambda b, p: _build(InnerSettings, b, p),
        stage2=solver_config,
    )
    values = _read(block, types, path)
    values.pop("preset", None)
    values.update(mode_fields(values.get("mode", "joint"), values))
    return _construct(SolverConfig, values, path)


def _read_phantom(block, path):
    if block is None:
        return None
    kind = block.get("type") if isinstance(block, dict) else None
    return _read(block, _PHANTOM_KEYS, path, _PHANTOM_REQUIRED.get(kind, ()))


def run_config_from_dict(doc):
    """Validate a parsed JSON document and build a RunConfig.

    Every block is checked key by key: an unknown key, a missing required
    key or a value of the wrong JSON type raises ConfigError naming it.
    """
    types = {f.name: f.type for f in fields(RunConfig)}
    types.update(
        probe=lambda b, p: _build(ProbeGeometry, b, p),
        grid=lambda b, p: _read(b, _GRID_KEYS, p, ["nz"]),
        apodization=lambda b, p: _build(ApodizationSpec, b, p),
        phantom=_read_phantom,
        psf=lambda b, p: _read(b, _PSF_KEYS, p, ["type"]),
        solver=solver_config,
        metrics=lambda b, p: _read(b, _METRICS_KEYS, p),
    )
    values = _read(copy.deepcopy(doc), types, "", ["probe", "grid"])
    values["grid"] = _construct(
        ImagingGrid.for_probe, {"probe": values["probe"], **values["grid"]}, "grid"
    )
    values["tx_angles"] = [
        _value(angle, "float", "tx_angles", "run config")
        for angle in values.get("tx_angles", [0.0])
    ]
    psf = values.get("psf", {})
    if psf.get("type") == "file" and not os.path.exists(psf.get("path") or ""):
        raise ConfigError("psf file %r does not exist" % psf.get("path"))
    return RunConfig(**values)


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

# Sequential-mode solver blocks matched to the desk configs above: stage 1
# solves the channel-data problem alone, stage 2 deblurs its output.
DESK_SEQUENTIAL = {
    "desk_point": {
        "mode": "sequential", "gamma_d": 0.0, "gamma_b": 1.0, "beta": 12.0, "mu": 0.06,
        "stage2": {"mode": "deconv_only", "gamma_d": 1.0, "beta": 24.0, "mu": 0.1},
    },
    "desk_cyst": {
        "mode": "sequential", "gamma_d": 0.0, "gamma_b": 1.0, "beta": 24.0, "mu": 0.3,
        "stage2": {"mode": "deconv_only", "gamma_d": 1.0, "beta": 24.0, "mu": 0.3},
    },
}


def desk_sequential_config(name):
    """Sequential-mode SolverConfig matched to a bundled desk config."""
    if name not in DESK_SEQUENTIAL:
        raise ConfigError("no sequential preset for %r" % name)
    return solver_config(DESK_SEQUENTIAL[name])


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
