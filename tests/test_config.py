"""Run-config reading: strict keys and types, solver blocks, the mode rule."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwrecon import (
    ApodizationSpec,
    ImagingGrid,
    InnerSettings,
    ProbeGeometry,
    RunConfig,
    SolverConfig,
    beamform_update,
    deconv_update,
    make_cyst_phantom,
    make_parametric_psf,
    sparsity_update,
)
from pwrecon import pipeline
from pwrecon.cli import main
from pwrecon.config import (
    DESK_SEQUENTIAL,
    PRESET_NAMES,
    ConfigError,
    get_builtin_config,
    run_config_from_dict,
    solver_config,
)


_PROBE = dict(num_elements=16, pitch=3e-4, sound_speed=1540.0,
              sampling_freq=20.832e6, center_freq=5.208e6)
_GRID = dict(nz=4, nx=3, dz=1e-4, dx=3e-4, z_origin=0.0)


def _cyst(center):
    return {"type": "cyst", "center": center, "radius": 1.4e-3}


# (edit of the desk_point document, key the error must name)
BAD_DOCS = {
    "solver_typo": (lambda d: d["solver"].update(gama_b=0.3), "gama_b"),
    "top_level_typo": (lambda d: d.update(grdi={"nz": 8}), "grdi"),
    "probe_typo": (lambda d: d["probe"].update(pich=0.3e-3), "pich"),
    "apodization_typo": (lambda d: d["apodization"].update(fnumber=1.0), "fnumber"),
    "inner_typo": (lambda d: d["solver"].update(inner={"max_iters": 5}), "max_iters"),
    "point_without_points": (lambda d: d["phantom"].pop("points"), "points"),
    "cyst_without_radius": (
        lambda d: d.update(phantom={"type": "cyst", "center": [8.2e-3, 0.0]}),
        "radius",
    ),
    "number_as_string": (lambda d: d["probe"].update(pitch="0.3e-3"), "pitch"),
    "bool_as_number": (lambda d: d["solver"].update(mu=True), "mu"),
    "angle_as_string": (lambda d: d.update(tx_angles=["0.1"]), "tx_angles"),
    "several_angles": (lambda d: d.update(tx_angles=[0.0, -0.3, 0.3]), "tx_angles"),
    "no_angle": (lambda d: d.update(tx_angles=[]), "tx_angles"),
    "point_of_strings": (lambda d: d["phantom"].update(points=[["a", "b"]]), "points"),
    "point_as_number": (lambda d: d["phantom"].update(points=[0.008]), "points"),
    "point_of_three": (lambda d: d["phantom"].update(points=[[8e-3, 0.0, 1]]), "points"),
    "center_of_strings": (lambda d: d.update(phantom=_cyst(["a", 0])), "center"),
    "center_of_one": (lambda d: d.update(phantom=_cyst([8.2e-3])), "center"),
    # the sample window is the channel data's, or else covers the delays,
    # so neither its start nor its length is a setting
    "t0_offset_without_num_samples": (lambda d: d["probe"].update(t0_offset=5e-6), "t0_offset"),
    "num_samples": (lambda d: d.update(num_samples=400), "num_samples"),
    # a blur block names its sigma: null, not {}, is no blur
    "blur_without_lateral_sigma": (lambda d: d["phantom"].update(blur={}), "lateral_sigma"),
    "parametric_psf_without_lateral_sigma": (
        lambda d: d.update(psf={"type": "parametric"}), "lateral_sigma"
    ),
}

# Numbers json reads as NaN or Infinity: each would reach a solve, a
# simulation or a metric.
NON_FINITE = {
    "mu_nan": (lambda d: d["solver"].update(mu=math.nan), "mu"),
    "beta_infinity": (lambda d: d["solver"].update(beta=math.inf), "beta"),
    "epsilon_nan": (lambda d: d["solver"].update(epsilon=math.nan), "epsilon"),
    "inner_tol_nan": (lambda d: d["solver"].update(inner={"tol": math.nan}), "tol"),
    "snr_db_nan": (lambda d: d["phantom"].update(snr_db=math.nan), "snr_db"),
    "radius_nan": (
        lambda d: d.update(phantom={**_cyst([8.2e-3, 0.0]), "radius": math.nan}), "radius"
    ),
    "point_nan": (lambda d: d["phantom"].update(points=[[math.nan, 0.0]]), "points"),
    "angle_minus_infinity": (lambda d: d.update(tx_angles=[-math.inf]), "tx_angles"),
    "pitch_infinity": (lambda d: d["probe"].update(pitch=math.inf), "pitch"),
    "dynamic_range_nan": (lambda d: d.update(dynamic_range=math.nan), "dynamic_range"),
    "blur_sigma_nan": (
        lambda d: d["phantom"]["blur"].update(lateral_sigma=math.nan), "lateral_sigma"
    ),
    "integer_past_float_range": (lambda d: d["solver"].update(mu=10**400), "mu"),
}


def _stage2_in_stage2(doc):
    doc["solver"] = {**DESK_SEQUENTIAL["desk_point"], "stage2": {"stage2": {"mu": 0.5}}}


def _stage2_in_mode(mode):
    def edit(doc):
        doc["solver"] = {**DESK_SEQUENTIAL["desk_point"], "stage2": {"mode": mode}}

    return edit, "mode"


# Blocks the program would not read: an unknown type or kind, a key of
# another type, a second stage outside a sequential block, and a mode or a
# further stage in a second stage, which always runs deconv_only.
IGNORED = {
    "phantom_type": (lambda d: d["phantom"].update(type="line"), "type"),
    "psf_type": (lambda d: d.update(psf={"type": "bogus"}), "type"),
    "psf_file": (lambda d: d.update(psf={"type": "file", "path": "k.usjd"}), "type"),
    "psf_path": (lambda d: d["psf"].update(path="k.usjd"), "path"),
    "points_on_a_cyst": (
        lambda d: d.update(phantom={**_cyst([8.2e-3, 0.0]), "points": [[8e-3, 0.0]]}),
        "points",
    ),
    "radius_on_a_point": (lambda d: d["phantom"].update(radius=1.4e-3), "radius"),
    "shape_on_a_model_psf": (
        lambda d: d.update(psf={"type": "model", "lateral_sigma": 1.0}), "lateral_sigma"
    ),
    "stage2_in_joint": (lambda d: d["solver"].update(stage2={"mu": 0.1}), "stage2"),
    "stage2_in_stage2": (_stage2_in_stage2, "stage2"),
    "stage2_beamform_only": _stage2_in_mode("beamform_only"),
    "stage2_joint": _stage2_in_mode("joint"),
    "stage2_deconv_only": _stage2_in_mode("deconv_only"),
}

# Values the reader no longer knows, each at its former default (the
# metrics block at desk_point's): the probe fixes the pulse's frequencies,
# the phantom the kind of metrics, and no config varied the others. A key of
# the deleted metrics block is refused as the block.
REMOVED = {
    "metrics": {"kind": "point"},
    "phantom.amplitude": 1.0,
    "phantom.blur.f0": 5.208e6,
    "phantom.blur.fs": 20.832e6,
    "phantom.blur.axial_fbw": 0.67,
    "psf.f0": 5.208e6,
    "psf.fs": 20.832e6,
    "psf.axial_fbw": 0.67,
    "metrics.roi_ratio": 0.7,
    "metrics.background_inner_ratio": 1.2,
    "apodization.min_half_aperture": 0.0,
}


def _setting(path, value):
    """(edit that sets the key at ``path`` of the document to ``value``, the
    key the reader refuses: the first on the path that desk_point lacks)."""
    *blocks, key = path.split(".")

    def edit(doc):
        for block in blocks:
            doc = doc.setdefault(block, {})
        doc[key] = value

    doc = get_builtin_config("desk_point")
    for block in blocks:
        if block not in doc:
            return edit, block
        doc = doc[block]
    return edit, key


EVERY_BAD_DOC = {
    **BAD_DOCS, **NON_FINITE, **IGNORED,
    **{path: _setting(path, value) for path, value in REMOVED.items()},
}


@pytest.mark.parametrize("case", sorted(EVERY_BAD_DOC))
def test_bad_config_raises_config_error_naming_the_key(case):
    edit, key = EVERY_BAD_DOC[case]
    doc = get_builtin_config("desk_point")
    edit(doc)
    with pytest.raises(ConfigError, match=repr(key)):
        run_config_from_dict(doc)


@pytest.mark.parametrize("case", sorted(EVERY_BAD_DOC))
def test_bad_config_exits_4_through_the_cli(case, tmp_path, capsys):
    edit, key = EVERY_BAD_DOC[case]
    doc = get_builtin_config("desk_point")
    edit(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "c.usjd")])
    assert code == 4
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize("path", sorted(REMOVED))
def test_removed_value_is_an_unknown_key(path):
    doc = get_builtin_config("desk_point")
    edit, key = _setting(path, REMOVED[path])
    edit(doc)
    with pytest.raises(ConfigError) as err:
        run_config_from_dict(doc)
    parts = path.split(".")
    where = ".".join(parts[: parts.index(key)]) or "run config"
    assert str(err.value) == "unknown key %r in %s" % (key, where)


def test_blur_block_needs_its_sigma_and_null_is_no_blur():
    doc = get_builtin_config("desk_point")
    doc["phantom"]["blur"] = {}
    with pytest.raises(ConfigError) as err:
        run_config_from_dict(doc)
    assert str(err.value) == "missing key 'lateral_sigma' in phantom.blur"
    doc["phantom"]["blur"] = None
    phantom = pipeline.make_phantom(run_config_from_dict(doc))
    assert np.count_nonzero(phantom.trf) == len(doc["phantom"]["points"])


def test_parametric_psf_needs_its_sigma():
    doc = get_builtin_config("desk_point")
    doc["psf"] = {"type": "parametric"}
    with pytest.raises(ConfigError) as err:
        run_config_from_dict(doc)
    assert str(err.value) == "missing key 'lateral_sigma' in psf"


def test_readme_schema_block_is_read():
    """README's jsonc schema block, its // comments stripped, is a config the
    reader accepts, so a key the reader drops cannot linger there."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
    run_config_from_dict(json.loads(re.sub(r"//.*", "", block)))


# (constructor or factory, valid keyword arguments, the argument set to NaN):
# every guard is written so that NaN fails it
NAN_GUARDS = [
    (InnerSettings, {}, field) for field in ("max_iter", "tol")
] + [
    (SolverConfig, {}, field)
    for field in ("beta", "gamma_d", "gamma_b", "mu", "epsilon", "max_iter")
] + [
    (ProbeGeometry, _PROBE, field)
    for field in ("num_elements", "pitch", "sound_speed", "sampling_freq", "center_freq")
] + [
    (ImagingGrid, _GRID, field) for field in ("nz", "nx", "dz", "dx")
] + [
    (ApodizationSpec, {}, field) for field in ("f_number", "taper")
] + [
    (make_cyst_phantom, dict(grid=ImagingGrid(**_GRID), center=(1e-4, 0.0), radius=1e-4,
                             seed=0), "radius"),
    (make_parametric_psf, dict(f0=5.208e6, fs=20.832e6, axial_fbw=0.67, lateral_sigma=1.0),
     "lateral_sigma"),
] + [
    # the ADMM updates, each at a zero weight so that no operator is read
    (beamform_update, dict(model=None, y_ch=None, u=np.zeros(2), lam2=np.zeros(2),
                           gamma_b=0.0, beta=1.0, inner=InnerSettings()), "beta"),
    (sparsity_update, dict(u=np.zeros(2), lam1=np.zeros(2), mu=0.1, beta=1.0), "beta"),
    (deconv_update, dict(y_das=np.zeros(2), psf=None, w=np.zeros(2), z=np.zeros(2),
                         lam1=np.zeros(2), lam2=np.zeros(2), gamma_d=0.0, beta=1.0), "beta"),
]


@pytest.mark.parametrize(
    "build, valid, field", NAN_GUARDS,
    ids=["%s.%s" % (b.__name__, f) for b, _, f in NAN_GUARDS],
)
def test_nan_fails_every_guard(build, valid, field):
    build(**valid)
    with pytest.raises(ValueError):
        build(**{**valid, field: math.nan})


@pytest.mark.parametrize("angles", [[0.0, -0.3, 0.3], []])
def test_run_config_takes_exactly_one_angle(angles):
    cfg = run_config_from_dict(get_builtin_config("desk_point"))
    with pytest.raises(ConfigError, match="'tx_angles'.*pwrecon compound"):
        RunConfig(probe=cfg.probe, grid=cfg.grid, tx_angles=angles)


def _blocks(doc):
    """Every block of a full document, by path."""
    doc["solver"]["mode"] = "sequential"  # the one mode that reads stage2
    doc["solver"]["inner"] = {"max_iter": 20}
    doc["solver"]["stage2"] = {"mu": 0.1}
    return {
        "run config": doc,
        "probe": doc["probe"],
        "grid": doc["grid"],
        "apodization": doc["apodization"],
        "phantom": doc["phantom"],
        "phantom.blur": doc["phantom"]["blur"],
        "psf": doc["psf"],
        "solver": doc["solver"],
        "solver.inner": doc["solver"]["inner"],
        "solver.stage2": doc["solver"]["stage2"],
    }


class TestStrictBlocks:
    def test_full_document_is_accepted(self):
        doc = _blocks(get_builtin_config("desk_point"))["run config"]
        solver = run_config_from_dict(doc).solver
        assert solver.inner == InnerSettings(max_iter=20)
        assert solver.stage2 == SolverConfig(
            gamma_d=1.0, gamma_b=0.0, mu=0.1, mode="deconv_only"
        )

    @settings(max_examples=30, deadline=None)
    @given(
        where=st.sampled_from(sorted(_blocks(get_builtin_config("desk_point")))),
        key=st.text(max_size=8).map(lambda text: "~" + text),  # never a field name
        value=st.sampled_from([0, 1.5, "x", None, [], {}]),
    )
    def test_unknown_key_in_any_block_fails(self, where, key, value):
        doc = get_builtin_config("desk_point")
        _blocks(doc)[where][key] = value
        with pytest.raises(ConfigError) as err:
            run_config_from_dict(doc)
        assert str(err.value) == "unknown key %r in %s" % (key, where)


class TestSolverBlocks:
    def test_sequential_preset_stages(self):
        assert solver_config({"mode": "sequential", "preset": "cc"}) == SolverConfig(
            gamma_d=0.0,
            gamma_b=1.0,
            beta=1e4,
            mu=0.5,
            mode="sequential",
            stage2=SolverConfig(
                gamma_d=1.0, gamma_b=0.0, beta=1e3, mu=0.01, mode="deconv_only"
            ),
        )

    def test_desk_sequential_blocks(self):
        assert solver_config(DESK_SEQUENTIAL["desk_point"]) == SolverConfig(
            gamma_d=0.0,
            gamma_b=1.0,
            beta=12.0,
            mu=0.06,
            mode="sequential",
            stage2=SolverConfig(
                gamma_d=1.0, gamma_b=0.0, beta=24.0, mu=0.1, mode="deconv_only"
            ),
        )
        assert set(DESK_SEQUENTIAL) == {"desk_point", "desk_cyst"}

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_stage2_preset_is_the_deconvolution_preset(self, preset):
        stage2 = solver_config({"mode": "sequential", "stage2": {"preset": preset}}).stage2
        assert stage2 == solver_config({"mode": "sequential", "preset": preset}).stage2

    @pytest.mark.parametrize("key, value", [("mode", "deconv_only"), ("stage2", {})])
    def test_stage2_block_holds_no_mode_and_no_stage(self, key, value):
        block = {**DESK_SEQUENTIAL["desk_point"]}
        block["stage2"] = {**block["stage2"], key: value}
        with pytest.raises(ConfigError) as err:
            solver_config(block)
        assert str(err.value) == "unknown key %r in solver.stage2" % key

    def test_single_term_mode_needs_no_inactive_weight(self):
        beamform = solver_config({"mode": "beamform_only", "mu": 0.2})
        assert (beamform.gamma_d, beamform.gamma_b) == (0.0, 1.0)
        beamform = solver_config({"mode": "beamform_only", "gamma_b": 0.4})
        assert (beamform.gamma_d, beamform.gamma_b) == (0.0, 0.4)
        deconv = solver_config({"mode": "deconv_only", "gamma_d": 2.0})
        assert (deconv.gamma_d, deconv.gamma_b) == (2.0, 0.0)

    def test_cli_mode_flag_follows_the_same_rule(self, tmp_path, monkeypatch):
        from pwrecon import pipeline

        seen = []

        def fake_solve(scfg, **kwargs):
            seen.append(scfg)
            raise ConfigError("captured")

        monkeypatch.setattr(pipeline, "solve", fake_solve)
        doc = get_builtin_config("desk_point")
        doc["solver"] = {"mode": "beamform_only", "gamma_b": 0.5, "mu": 0.3, "beta": 12.0}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        ch = tmp_path / "ch.usjd"
        assert main(["simulate", "--config", str(path), "--out", str(ch)]) == 0
        for flag in ("deconv_only", "beamform_only"):
            argv = ["solve", "--config", str(path), "--channel", str(ch),
                    "--mode", flag, "--out", str(tmp_path / "x.usjd")]
            assert main(argv) == 4
        deconv, beamform = seen
        assert (deconv.mode, deconv.gamma_d, deconv.gamma_b) == ("deconv_only", 1.0, 0.0)
        assert beamform == solver_config(doc["solver"])
