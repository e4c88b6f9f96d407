"""Run-config reading: strict keys and types, solver blocks, the mode rule."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwrecon import InnerSettings, RunConfig, SolverConfig
from pwrecon.cli import main
from pwrecon.config import (
    DESK_SEQUENTIAL,
    ConfigError,
    desk_sequential_config,
    get_builtin_config,
    run_config_from_dict,
    solver_config,
)


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
}


@pytest.mark.parametrize("case", sorted(BAD_DOCS))
def test_bad_config_raises_config_error_naming_the_key(case):
    edit, key = BAD_DOCS[case]
    doc = get_builtin_config("desk_point")
    edit(doc)
    with pytest.raises(ConfigError, match=repr(key)):
        run_config_from_dict(doc)


@pytest.mark.parametrize("case", sorted(BAD_DOCS))
def test_bad_config_exits_4_through_the_cli(case, tmp_path, capsys):
    edit, key = BAD_DOCS[case]
    doc = get_builtin_config("desk_point")
    edit(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "c.usjd")])
    assert code == 4
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize("angles", [[0.0, -0.3, 0.3], []])
def test_run_config_takes_exactly_one_angle(angles):
    cfg = run_config_from_dict(get_builtin_config("desk_point"))
    with pytest.raises(ConfigError, match="'tx_angles'.*pwrecon compound"):
        RunConfig(probe=cfg.probe, grid=cfg.grid, tx_angles=angles)


def _blocks(doc):
    """Every block of a full document, by path."""
    doc["solver"]["inner"] = {"max_iter": 20}
    doc["solver"]["stage2"] = {"mode": "deconv_only", "mu": 0.1}
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
        "metrics": doc["metrics"],
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
        assert desk_sequential_config("desk_point") == SolverConfig(
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
        for flag in ("deconv", "beamform"):
            argv = ["solve", "--config", str(path), "--channel", str(ch),
                    "--mode", flag, "--out", str(tmp_path / "x.usjd")]
            assert main(argv) == 4
        deconv, beamform = seen
        assert (deconv.mode, deconv.gamma_d, deconv.gamma_b) == ("deconv_only", 1.0, 0.0)
        assert beamform == solver_config(doc["solver"])
