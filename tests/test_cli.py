"""Command-line pipeline: subcommands composing through container files."""

import contextlib
import json
import os
import shlex
import struct
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pwrecon import (
    ImagingGrid,
    Psf,
    RfImage,
    load_matrix,
    read_container,
    write_container,
)
from pwrecon.cli import _build_parser, main
from pwrecon.io import _picmus_channel
from pwrecon.solver import MODES

from conftest import channel_data
from test_io import picmus_mapping

README = Path(__file__).resolve().parents[1] / "README.md"


def test_cli_import_leaves_scipy_signal_out():
    """scipy.signal is about half of the CLI's start-up memory and scipy.fft
    another 7 MB; nothing pwrecon runs needs either."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    code = (
        "import sys, pwrecon.cli; "
        "print([m for m in ('scipy.signal', 'scipy.fft') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


@pytest.fixture()
def small_config(tmp_path):
    doc = {
        "probe": {
            "num_elements": 16,
            "pitch": 0.3e-3,
            "sound_speed": 1540.0,
            "sampling_freq": 20.832e6,
            "center_freq": 5.208e6,
        },
        "grid": {"nz": 32, "nx": 16, "z_origin": 3.0e-3},
        "tx_angles": [0.0],
        "apodization": {"window": "hanning", "f_number": 0.5},
        "phantom": {
            "type": "point",
            "points": [[3.5e-3, 0.0], [4.0e-3, 1.0e-3]],
            "snr_db": None,
            "seed": 0,
            "blur": {"lateral_sigma": 0.5},
        },
        "psf": {"type": "parametric", "lateral_sigma": 1.0},
        "solver": {
            "mode": "joint",
            "gamma_d": 1.0,
            "gamma_b": 0.25,
            "beta": 12.0,
            "mu": 0.3,
            "max_iter": 40,
        },
        "dynamic_range": 60.0,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestPipelineComposition:
    def test_full_pipeline(self, small_config, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("PWRECON_CACHE_DIR", str(cache))
        ch = tmp_path / "channel.usjd"
        ph = tmp_path / "phantom.usjd"
        assert main([
            "simulate", "--config", str(small_config),
            "--out", str(ch), "--phantom-out", str(ph),
        ]) == 0

        (mat,) = cache.glob("sysmat_*.usjd")
        assert load_matrix(mat).num_cols == 32 * 16

        das = tmp_path / "das.usjd"
        assert main([
            "das", "--config", str(small_config), "--channel", str(ch), "--out", str(das),
        ]) == 0

        comp = tmp_path / "comp.usjd"
        assert main(["compound", "--out", str(comp), str(das), str(das)]) == 0
        np.testing.assert_allclose(
            read_container(comp).data, read_container(das).data, rtol=1e-12
        )

        result = tmp_path / "joint.usjd"
        report = tmp_path / "report.json"
        assert main([
            "solve", "--config", str(small_config), "--channel", str(ch),
            "--das", str(das), "--out", str(result), "--report", str(report),
        ]) == 0
        rep = json.loads(report.read_text())
        # the solve's window is the channel data's, so it reads simulate's entry
        assert list(cache.glob("sysmat_*.usjd")) == [mat]
        assert rep["mode"] == "joint"
        assert rep["iterations"] >= 1
        assert len(rep["dual_residuals"]) == rep["iterations"]
        assert rep["forward_products"] > 0 and rep["adjoint_products"] > 0

        metrics = tmp_path / "metrics.json"
        assert main([
            "metrics", "--config", str(small_config), "--image", str(result),
            "--phantom", str(ph), "--kind", "point", "--out", str(metrics),
        ]) == 0
        doc = json.loads(metrics.read_text())
        assert len(doc["fwhm_axial_mm"]) == 2

        png = tmp_path / "img.png"
        assert main(["export-png", "--input", str(result), "--out", str(png)]) == 0
        assert png.read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"

    def test_solve_modes_and_das_autocompute(self, small_config, tmp_path):
        ch = tmp_path / "channel.usjd"
        assert main(["simulate", "--config", str(small_config), "--out", str(ch)]) == 0
        for mode in ("beamform_only", "deconv_only", "sequential"):
            out = tmp_path / ("%s.usjd" % mode)
            code = main([
                "solve", "--config", str(small_config), "--channel", str(ch),
                "--mode", mode, "--out", str(out),
            ])
            assert code == 0, mode
            assert np.all(np.isfinite(read_container(out).data))

    def test_preset_applies_published_values(self, small_config, tmp_path, capsys):
        from pwrecon.config import solver_config

        def preset(mode, name):
            return solver_config({"mode": mode, "preset": name})

        cfg = preset("joint", "sr")
        assert (cfg.gamma_d, cfg.gamma_b, cfg.beta, cfg.mu) == (1.0, 0.1, 500.0, 5.0)
        cfg = preset("joint", "sc")
        assert (cfg.gamma_d, cfg.gamma_b, cfg.beta, cfg.mu) == (1.0, 0.1, 1e3, 0.1)
        cfg = preset("beamform_only", "sr")
        assert (cfg.gamma_b, cfg.mu, cfg.beta) == (1.0, 5.0, 1e3)
        cfg = preset("deconv_only", "cc")
        assert (cfg.mu, cfg.beta) == (0.01, 1e3)
        cfg = preset("sequential", "sc")
        assert cfg.stage2 is not None and cfg.stage2.mu == 0.1

    def test_identical_masks_give_gcnr_zero(self, small_config, tmp_path):
        ch = tmp_path / "channel.usjd"
        das = tmp_path / "das.usjd"
        main(["simulate", "--config", str(small_config), "--out", str(ch)])
        main(["das", "--config", str(small_config), "--channel", str(ch), "--out", str(das)])
        out = tmp_path / "metrics.json"
        disc = "0.0035,0.0,0.0005"
        for reference in ([], ["--reference", str(das)]):
            assert main([
                "metrics", "--config", str(small_config), "--image", str(das),
                "--roi", disc, "--background", disc, "--out", str(out), *reference,
            ]) == 0
            doc = json.loads(out.read_text())
            assert doc["gcnr"][0] == 0.0

    @pytest.mark.parametrize("given, missing", [("--roi", "--background"),
                                                ("--background", "--roi")])
    def test_half_given_disc_pair_exit_code(
        self, small_config, tmp_path, capsys, given, missing
    ):
        # with a phantom at hand the lone disc must not be dropped silently
        ch = tmp_path / "channel.usjd"
        ph = tmp_path / "phantom.usjd"
        das = tmp_path / "das.usjd"
        main([
            "simulate", "--config", str(small_config), "--out", str(ch),
            "--phantom-out", str(ph),
        ])
        main(["das", "--config", str(small_config), "--channel", str(ch), "--out", str(das)])
        capsys.readouterr()
        code = main([
            "metrics", "--config", str(small_config), "--image", str(das),
            "--phantom", str(ph), given, "0.0035,0.0,0.0005",
        ])
        assert code == 4
        assert "%s is missing" % missing in capsys.readouterr().err


class TestCliErrors:
    def test_missing_input_file_exit_code(self, small_config, tmp_path):
        code = main([
            "das", "--config", str(small_config),
            "--channel", str(tmp_path / "absent.usjd"),
            "--out", str(tmp_path / "o.usjd"),
        ])
        assert code == 3

    def test_missing_picmus_file_exit_code(self, tmp_path, capsys):
        code = main([
            "ingest-picmus", "--file", str(tmp_path / "absent.hdf5"),
            "--out", str(tmp_path / "o.usjd"),
        ])
        assert code == 3
        assert "dataset not found" in capsys.readouterr().err

    def test_missing_h5py_exit_code(self, tmp_path, monkeypatch, capsys):
        # A None entry makes ``import h5py`` fail even where h5py is installed.
        monkeypatch.setitem(sys.modules, "h5py", None)
        junk = tmp_path / "junk.hdf5"
        junk.write_bytes(b"junk")
        code = main([
            "ingest-picmus", "--file", str(junk), "--out", str(tmp_path / "o.usjd"),
        ])
        assert code == 3
        assert "h5py" in capsys.readouterr().err

    @staticmethod
    def _rfimage(path):
        grid = ImagingGrid(nz=4, nx=3, dz=1e-4, dx=3e-4, z_origin=0.0)
        write_container(RfImage(np.ones(grid.shape), grid), path)
        blob = path.read_bytes()
        (meta_len,) = struct.unpack("<I", blob[14:18])
        return blob, meta_len

    def test_oversized_payload_count_exit_code(self, tmp_path, capsys):
        path = tmp_path / "img.usjd"
        blob, meta_len = self._rfimage(path)
        count_at = 18 + meta_len
        path.write_bytes(
            blob[:count_at] + struct.pack("<Q", 2**62) + blob[count_at + 8 :]
        )
        code = main([
            "export-png", "--input", str(path), "--out", str(tmp_path / "o.png"),
        ])
        assert code == 4
        assert "truncated" in capsys.readouterr().err

    def test_missing_metadata_key_exit_code(self, tmp_path, capsys):
        path = tmp_path / "img.usjd"
        blob, meta_len = self._rfimage(path)
        meta = json.loads(blob[18 : 18 + meta_len])
        del meta["grid"]
        meta_bytes = json.dumps(meta).encode()
        path.write_bytes(
            blob[:14] + struct.pack("<I", len(meta_bytes)) + meta_bytes
            + blob[18 + meta_len :]
        )
        code = main([
            "export-png", "--input", str(path), "--out", str(tmp_path / "o.png"),
        ])
        assert code == 4
        err = capsys.readouterr().err
        assert "rfimage" in err and "grid" in err and "Traceback" not in err

    @pytest.mark.parametrize("dynamic_range", ["nan", "inf", "-1"])
    def test_export_png_refuses_a_bad_dynamic_range(self, tmp_path, capsys, dynamic_range):
        path, png = tmp_path / "img.usjd", tmp_path / "o.png"
        self._rfimage(path)
        code = main([
            "export-png", "--input", str(path), "--out", str(png),
            "--dynamic-range", dynamic_range,
        ])
        assert code == 4 and not png.exists()
        assert "dynamic_range" in capsys.readouterr().err

    def test_bad_container_exit_code(self, small_config, tmp_path):
        bad = tmp_path / "bad.usjd"
        bad.write_bytes(b"JUNKJUNKJUNK")
        code = main([
            "das", "--config", str(small_config), "--channel", str(bad),
            "--out", str(tmp_path / "o.usjd"),
        ])
        assert code == 4

    def test_unknown_flag_exits_2(self, small_config):
        with pytest.raises(SystemExit) as err:
            main(["das", "--config", str(small_config), "--bogus", "x"])
        assert err.value.code == 2

    def test_solve_takes_no_preset_flag(self, small_config, tmp_path):
        # a preset is a solver-block key, the one place its normalization is set
        with pytest.raises(SystemExit) as err:
            main([
                "solve", "--config", str(small_config), "--preset", "sr",
                "--out", str(tmp_path / "o.usjd"),
            ])
        assert err.value.code == 2

    def test_bad_config_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"probe": {"num_elements": 1}}))
        code = main([
            "simulate", "--config", str(cfg), "--out", str(tmp_path / "ch.usjd"),
        ])
        assert code == 4

    def test_solve_mode_takes_the_solver_modes(self, small_config, tmp_path):
        (solve,) = (
            action.choices["solve"] for action in _build_parser()._actions
            if action.dest == "command"
        )
        (mode,) = (action for action in solve._actions if action.dest == "mode")
        assert tuple(mode.choices) == MODES
        for flag in ("beamform", "deconv"):
            with pytest.raises(SystemExit) as err:
                main(["solve", "--config", str(small_config), "--mode", flag,
                      "--out", str(tmp_path / "o.usjd")])
            assert err.value.code == 2

    def test_solve_without_channel_names_the_flag(self, small_config, tmp_path, capsys):
        code = main([
            "solve", "--config", str(small_config), "--mode", "beamform_only",
            "--out", str(tmp_path / "o.usjd"),
        ])
        assert code == 4
        assert "--channel" in capsys.readouterr().err

    def test_builtin_config_names_load(self):
        from pwrecon import get_builtin_config, load_run_config

        for name in ("desk_point", "desk_cyst"):
            cfg = load_run_config("builtin:%s" % name)
            assert cfg.grid.num_pixels > 0
            doc = get_builtin_config(name)
            assert doc["solver"]["mode"] == "joint"



class TestIngestPicmusStandIn:
    """``ingest-picmus`` end to end through a stand-in h5py whose one file
    holds a ``picmus_mapping`` layout. Without h5py it exits 3, as
    ``TestCliErrors.test_missing_h5py_exit_code`` checks."""

    @staticmethod
    def _ingest(root, tmp_path, monkeypatch):
        @contextlib.contextmanager
        def open_file(path, mode):
            assert mode == "r"
            yield root

        monkeypatch.setitem(sys.modules, "h5py", types.SimpleNamespace(File=open_file))
        src, out = tmp_path / "picmus.hdf5", tmp_path / "ch.usjd"
        src.write_bytes(b"stand-in")
        return main(["ingest-picmus", "--file", str(src), "--out", str(out)]), src, out

    def test_default_mapping_exits_0(self, tmp_path, monkeypatch):
        root = picmus_mapping()
        code, src, out = self._ingest(root, tmp_path, monkeypatch)
        assert code == 0
        expected = _picmus_channel(root, str(src), None)
        back = read_container(out, "channel")
        assert np.array_equal(back.samples, expected.samples.astype(np.float32))
        assert (back.tx, back.probe) == (expected.tx, expected.probe)

    def test_fewer_data_angles_than_angles_exits_4(self, tmp_path, monkeypatch, capsys):
        root = picmus_mapping(data={"real": np.zeros((16, 64))})
        code, _, out = self._ingest(root, tmp_path, monkeypatch)
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "data/real holds 1 angles, 'angles' lists 5" in err
        assert not out.exists()


class TestDocumentedExits:
    """Each documented exit that no other test reaches: one error line, the
    README's code and no output file."""

    @staticmethod
    def _exits(argv, code, message, capsys, out):
        assert main([str(a) for a in argv]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert message in err
        assert not out.exists()

    def test_diverging_solve_exits_5(self, tmp_path, capsys):
        from pwrecon import get_builtin_config

        doc = get_builtin_config("desk_point")
        doc["solver"]["beta"] = 1e-12
        config, ch, out = tmp_path / "diverge.json", tmp_path / "ch.usjd", tmp_path / "o.usjd"
        config.write_text(json.dumps(doc))
        assert main(["simulate", "--config", "builtin:desk_point", "--out", str(ch)]) == 0
        argv = ["solve", "--config", config, "--channel", ch, "--out", out]
        self._exits(argv, 5, "error: objective diverged at iteration 1", capsys, out)

    def test_absent_config_path_exits_3(self, tmp_path, capsys):
        out = tmp_path / "ch.usjd"
        argv = ["simulate", "--config", tmp_path / "absent.json", "--out", out]
        self._exits(argv, 3, "absent.json does not exist", capsys, out)

    def test_config_that_is_not_json_exits_4(self, tmp_path, capsys):
        config, out = tmp_path / "bad.json", tmp_path / "ch.usjd"
        config.write_text("{not json")
        self._exits(["simulate", "--config", config, "--out", out], 4, "bad.json", capsys, out)

    @pytest.fixture()
    def das_image(self, small_config, tmp_path):
        ch, das = tmp_path / "ch.usjd", tmp_path / "das.usjd"
        assert main(["simulate", "--config", str(small_config), "--out", str(ch)]) == 0
        assert main([
            "das", "--config", str(small_config), "--channel", str(ch), "--out", str(das),
        ]) == 0
        return das

    def test_metrics_without_phantom_or_discs_exits_4(
        self, small_config, das_image, tmp_path, capsys
    ):
        out = tmp_path / "m.json"
        argv = ["metrics", "--config", small_config, "--image", das_image, "--out", out]
        self._exits(argv, 4, "metrics needs --phantom or explicit --roi/--background",
                    capsys, out)

    def test_disc_of_two_numbers_exits_4(self, small_config, das_image, tmp_path, capsys):
        out = tmp_path / "m.json"
        argv = [
            "metrics", "--config", small_config, "--image", das_image, "--out", out,
            "--roi", "0.0035,0.0", "--background", "0.0045,0.0,0.0005",
        ]
        self._exits(argv, 4, "disc spec must be 'z,x,r' in meters", capsys, out)

    def test_deconv_only_without_das_or_channel_exits_4(self, small_config, tmp_path, capsys):
        out = tmp_path / "o.usjd"
        argv = ["solve", "--config", small_config, "--mode", "deconv_only", "--out", out]
        self._exits(argv, 4, "needs --das or channel data", capsys, out)


# ch, ph, rf and psf stand for channel, phantom, rfimage and psf containers
_DISCS = ["--roi", "0.0035,0.0,0.0005", "--background", "0.0045,0.0,0.0005"]
_WRONG_KIND_READS = {
    "solve --channel": (["solve", "--channel", "rf", "--out", "o"], "channel"),
    "solve --das": (["solve", "--channel", "ch", "--das", "ch", "--out", "o"], "rfimage"),
    "solve --psf": (["solve", "--channel", "ch", "--psf", "rf", "--out", "o"], "psf"),
    "das --channel": (["das", "--channel", "rf", "--out", "o"], "channel"),
    "metrics --phantom": (["metrics", "--image", "rf", "--phantom", "rf"], "phantom"),
    "metrics --reference, cyst": (
        ["metrics", "--image", "rf", "--phantom", "ph", "--kind", "cyst",
         "--reference", "ch"],
        "rfimage",
    ),
    "metrics --reference, discs": (
        ["metrics", "--image", "rf", *_DISCS, "--reference", "psf"], "rfimage"
    ),
    "metrics --reference, point": (
        ["metrics", "--image", "rf", "--phantom", "ph", "--kind", "point",
         "--reference", "ch"],
        "rfimage",
    ),
}


class TestWrongKind:
    """Each input flag reads the container kind it names; another kind exits 4."""

    @pytest.mark.parametrize("case", sorted(_WRONG_KIND_READS))
    def test_wrong_kind_exits_4_naming_it(self, small_config, tmp_path, capsys, case):
        files = {n: tmp_path / ("%s.usjd" % n) for n in ("ch", "ph", "rf", "psf", "o")}
        main([
            "simulate", "--config", str(small_config), "--out", str(files["ch"]),
            "--phantom-out", str(files["ph"]),
        ])
        main([
            "das", "--config", str(small_config), "--channel", str(files["ch"]),
            "--out", str(files["rf"]),
        ])
        write_container(Psf(kernel=np.ones((3, 3))), files["psf"])
        capsys.readouterr()
        argv, kind = _WRONG_KIND_READS[case]
        argv = [str(files.get(a, a)) for a in argv]
        code = main([argv[0], "--config", str(small_config), *argv[1:]])
        err = capsys.readouterr().err
        assert code == 4
        assert "container, expected %s" % kind in err
        assert len(err.splitlines()) == 1


def _write_config(small_config, tmp_path, edit):
    doc = json.loads(small_config.read_text())
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestMetricsKindMustFitThePhantom:
    """A metrics kind whose targets the phantom does not hold exits 4."""

    @pytest.mark.parametrize("phantom, kind", [("point", "cyst"), ("cyst", "point")])
    def test_other_kind_exits_4_naming_it(
        self, small_config, tmp_path, capsys, phantom, kind
    ):
        def edit(doc):
            if phantom == "cyst":
                doc["phantom"] = {"type": "cyst", "center": [3.6e-3, 0.0], "radius": 0.4e-3}

        config = _write_config(small_config, tmp_path, edit)
        ch, ph, rf = (str(tmp_path / n) for n in ("ch.usjd", "ph.usjd", "rf.usjd"))
        assert main(["simulate", "--config", config, "--out", ch, "--phantom-out", ph]) == 0
        assert main(["das", "--config", config, "--channel", ch, "--out", rf]) == 0
        metrics = ["metrics", "--config", config, "--image", rf, "--phantom", ph]
        assert main([*metrics, "--kind", phantom]) == 0
        capsys.readouterr()
        assert main([*metrics, "--kind", kind]) == 4
        err = capsys.readouterr().err
        assert err == "error: metrics kind %r: the phantom has no %s target\n" % (kind, kind)


class TestDiscRadiusMustBeValid:
    """A negative or infinite disc radius exits 4 instead of measuring a
    mirrored or whole-image region."""

    @pytest.fixture()
    def cyst_files(self, small_config, tmp_path):
        def edit(doc):
            doc["phantom"] = {"type": "cyst", "center": [3.6e-3, 0.0], "radius": 0.4e-3}

        config = _write_config(small_config, tmp_path, edit)
        ch, rf = str(tmp_path / "ch.usjd"), str(tmp_path / "rf.usjd")
        assert main(["simulate", "--config", config, "--out", ch]) == 0
        assert main(["das", "--config", config, "--channel", ch, "--out", rf]) == 0
        return ["metrics", "--config", config, "--image", rf]

    @pytest.mark.parametrize("radius", ["-0.0003", "inf"])
    def test_roi_radius_exits_4(self, cyst_files, capsys, radius):
        metrics = cyst_files
        background = ["--background", "0.0036,0.0,0.0006"]
        assert main([*metrics, "--roi", "0.0036,0.0,0.0003", *background]) == 0
        capsys.readouterr()
        assert main([*metrics, "--roi", "0.0036,0.0,%s" % radius, *background]) == 4
        err = capsys.readouterr().err
        assert "disc radius" in err and "Traceback" not in err


class TestModelPsfOnTinyGrids:
    """A "model" PSF is one pixel wide along an axis of one or two pixels."""

    @pytest.mark.parametrize("nz, nx", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_solves_in_joint_and_sequential_mode(self, small_config, tmp_path, nz, nx):
        from pwrecon import pipeline
        from pwrecon.config import load_run_config

        def edit(doc):
            doc["grid"].update(nz=nz, nx=nx)
            doc["phantom"]["points"] = [[3.0e-3, 0.0]]  # the grid's first row
            doc["psf"] = {"type": "model"}

        config = _write_config(small_config, tmp_path, edit)
        cfg = load_run_config(config)
        assert pipeline.resolve_psf(cfg, pipeline.build_model(cfg)).kernel.shape == (1, 1)
        ch = str(tmp_path / "ch.usjd")
        assert main(["simulate", "--config", config, "--out", ch]) == 0
        for mode in ("joint", "sequential"):
            out = tmp_path / ("%s.usjd" % mode)
            code = main([
                "solve", "--config", config, "--channel", ch, "--mode", mode,
                "--out", str(out),
            ])
            assert code == 0, mode
            assert np.all(np.isfinite(read_container(out).data))


class TestParametricKernelsOnSmallGrids:
    """The phantom's pulse kernel and a parametric PSF (13x3 and 13x7 at
    these probe settings) are cropped about their centers to fit a smaller
    grid."""

    @pytest.mark.parametrize("nz, nx", [(2, 16), (32, 1), (2, 1), (12, 3)])
    def test_simulate_with_blur_and_solve_exit_0(self, small_config, tmp_path, nz, nx):
        def edit(doc):
            doc["grid"].update(nz=nz, nx=nx)
            doc["phantom"]["points"] = [[3.0e-3, 0.0]]  # the grid's first row

        config = _write_config(small_config, tmp_path, edit)
        ch = tmp_path / "ch.usjd"
        assert main(["simulate", "--config", config, "--out", str(ch)]) == 0
        data = read_container(ch).samples
        assert np.all(np.isfinite(data)) and np.any(data)
        out = tmp_path / "rec.usjd"
        code = main(["solve", "--config", config, "--channel", str(ch), "--out", str(out)])
        assert code == 0
        assert np.all(np.isfinite(read_container(out).data))


class TestUnopenablePaths:
    """A path that cannot be opened exits 3 with one line and leaves no temp file."""

    @pytest.mark.parametrize("flag", ["--channel", "--config", "--out"])
    def test_directory_exits_3(self, small_config, tmp_path, capsys, flag):
        ch = tmp_path / "ch.usjd"
        main(["simulate", "--config", str(small_config), "--out", str(ch)])
        capsys.readouterr()
        args = {"--config": small_config, "--channel": ch, "--out": tmp_path / "das.usjd"}
        args[flag] = tmp_path / "dir"
        args[flag].mkdir()
        code = main(["das", *[str(v) for item in args.items() for v in item]])
        assert code == 3
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not list(tmp_path.glob("*.tmp"))


class TestSequentialComputesNoDas:
    @staticmethod
    def _no_das(monkeypatch):
        from pwrecon import pipeline

        def fail(*args, **kwargs):
            raise AssertionError("sequential mode never reads a DAS image")

        monkeypatch.setattr(pipeline, "das_beamform", fail)

    def test_run_reconstruction(self, small_config, monkeypatch):
        from pwrecon import pipeline
        from pwrecon.config import load_run_config, solver_config

        cfg = load_run_config(str(small_config))
        cfg.solver = solver_config(
            {"mode": "sequential", "gamma_d": 0.0, "gamma_b": 1.0, "mu": 0.1,
             "beta": 12.0, "max_iter": 10, "stage2": {}}
        )
        model = pipeline.build_model(cfg)
        ch = pipeline.simulate(cfg, pipeline.make_phantom(cfg), model)
        self._no_das(monkeypatch)
        report = pipeline.run_reconstruction(cfg, model, ch)
        assert len(report.stages) == 2

    def test_cli_solve(self, small_config, tmp_path, monkeypatch):
        ch = tmp_path / "channel.usjd"
        assert main(["simulate", "--config", str(small_config), "--out", str(ch)]) == 0
        self._no_das(monkeypatch)
        assert main([
            "solve", "--config", str(small_config), "--channel", str(ch),
            "--mode", "sequential", "--out", str(tmp_path / "seq.usjd"),
        ]) == 0

    def test_cli_still_reads_a_given_das_file(self, small_config, tmp_path):
        ch = tmp_path / "channel.usjd"
        assert main(["simulate", "--config", str(small_config), "--out", str(ch)]) == 0
        bad = tmp_path / "bad.usjd"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert main([
            "solve", "--config", str(small_config), "--channel", str(ch),
            "--das", str(bad), "--mode", "sequential", "--out", str(tmp_path / "o.usjd"),
        ]) == 4


class TestSequentialStages:
    """Each sequential stage is completed by the single-term rule."""

    def test_deconv_only_block_runs_sequential(self, small_config, tmp_path):
        doc = json.loads(small_config.read_text())
        doc["solver"] = {"mode": "deconv_only", "mu": 0.1, "beta": 24.0}
        small_config.write_text(json.dumps(doc))
        ch = tmp_path / "channel.usjd"
        assert main(["simulate", "--config", str(small_config), "--out", str(ch)]) == 0
        assert main([
            "solve", "--config", str(small_config), "--channel", str(ch),
            "--mode", "sequential", "--out", str(tmp_path / "seq.usjd"),
        ]) == 0

    def test_desk_point_joint_block_under_mode_sequential(self, tmp_path, monkeypatch):
        from pwrecon import SolverConfig, pipeline

        reports = []
        solve = pipeline.solve

        def kept(*args, **kwargs):
            reports.append(solve(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(pipeline, "solve", kept)
        ch = tmp_path / "channel.usjd"
        assert main(["simulate", "--config", "builtin:desk_point", "--out", str(ch)]) == 0
        assert main([
            "solve", "--config", "builtin:desk_point", "--channel", str(ch),
            "--mode", "sequential", "--out", str(tmp_path / "seq.usjd"),
        ]) == 0
        (report,) = reports
        stage1, stage2 = (stage.config for stage in report.stages)
        assert stage1 == SolverConfig(
            mode="beamform_only", gamma_d=0.0, gamma_b=0.25, beta=12.0, mu=0.72
        )
        assert stage2 == SolverConfig(
            mode="deconv_only", gamma_d=1.0, gamma_b=0.0, beta=12.0, mu=0.72
        )

    def test_joint_flag_on_a_sequential_config_runs(self, small_config, tmp_path):
        doc = json.loads(small_config.read_text())
        doc["solver"] = {"mode": "sequential", "gamma_b": 0.25, "beta": 12.0,
                         "max_iter": 10, "stage2": {"preset": "sr"}}
        small_config.write_text(json.dumps(doc))
        ch = tmp_path / "channel.usjd"
        assert main(["simulate", "--config", str(small_config), "--out", str(ch)]) == 0
        assert main([
            "solve", "--config", str(small_config), "--channel", str(ch),
            "--mode", "joint", "--out", str(tmp_path / "joint.usjd"),
        ]) == 0


class TestModeFlag:
    """``solve --mode`` reads the solver block as if the block named that mode."""

    BLOCKS = {
        "bare": {"mu": 0.2, "max_iter": 10},
        "preset": {"preset": "sr", "max_iter": 10},
        "deconv_only": {"mode": "deconv_only", "gamma_d": 2.0, "mu": 0.1},
        "sequential": {"mode": "sequential", "gamma_b": 0.25, "max_iter": 10,
                       "stage2": {"mu": 0.5}},
    }

    @staticmethod
    def _solver_config(config, flags, tmp_path, monkeypatch):
        """The SolverConfig that ``solve`` hands to the solver."""
        from pwrecon import pipeline
        from pwrecon.config import ConfigError

        seen = []

        def captured(scfg, **kwargs):
            seen.append(scfg)
            raise ConfigError("captured")

        monkeypatch.setattr(pipeline, "solve", captured)
        ch = tmp_path / "channel.usjd"
        if not ch.exists():
            assert main(["simulate", "--config", str(config), "--out", str(ch)]) == 0
        assert main([
            "solve", "--config", str(config), "--channel", str(ch), *flags,
            "--out", str(tmp_path / "x.usjd"),
        ]) == 4
        (scfg,) = seen
        return scfg

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("block", sorted(BLOCKS))
    def test_flag_equals_the_mode_written_in_the_block(
        self, small_config, tmp_path, monkeypatch, block, mode
    ):
        doc = json.loads(small_config.read_text())
        doc["solver"] = self.BLOCKS[block]
        small_config.write_text(json.dumps(doc))
        flagged = self._solver_config(small_config, ["--mode", mode], tmp_path, monkeypatch)
        doc["solver"] = {**self.BLOCKS[block], "mode": mode}
        if mode != "sequential":  # only a sequential block holds a stage 2
            doc["solver"].pop("stage2", None)
        small_config.write_text(json.dumps(doc))
        written = self._solver_config(small_config, [], tmp_path, monkeypatch)
        assert flagged == written

    @pytest.mark.parametrize("mode", ["beamform_only", "sequential"])
    def test_unset_gamma_b_is_the_single_term_weight(
        self, small_config, tmp_path, monkeypatch, mode
    ):
        doc = json.loads(small_config.read_text())
        doc["solver"] = self.BLOCKS["bare"]
        small_config.write_text(json.dumps(doc))
        scfg = self._solver_config(small_config, ["--mode", mode], tmp_path, monkeypatch)
        assert scfg.gamma_b == 1.0


class TestChannelGeometryMismatch:
    def test_channel_steered_the_other_way_exits_4(self, small_config, tmp_path, capsys):
        doc = json.loads(small_config.read_text())
        paths = {}
        for angle in (0.3, -0.3):
            doc["tx_angles"] = [angle]
            paths[angle] = tmp_path / ("config%+.1f.json" % angle)
            paths[angle].write_text(json.dumps(doc))
        ch = tmp_path / "channel.usjd"
        assert main(["simulate", "--config", str(paths[0.3]), "--out", str(ch)]) == 0
        capsys.readouterr()
        assert main([
            "solve", "--config", str(paths[-0.3]), "--channel", str(ch),
            "--out", str(tmp_path / "o.usjd"),
        ]) == 4
        err = capsys.readouterr().err
        assert "in tx PlaneWaveTx(angle=0.3) vs PlaneWaveTx(angle=-0.3)" in err

    @pytest.mark.parametrize(
        "command", [["das"], ["solve", "--mode", "deconv_only"]], ids=["das", "deconv_only"]
    )
    def test_delay_and_sum_of_another_probe_exits_4(
        self, small_config, tmp_path, capsys, command
    ):
        doc = json.loads(small_config.read_text())
        doc["probe"]["pitch"] = 0.2e-3
        other = tmp_path / "other_probe.json"
        other.write_text(json.dumps(doc))
        ch = tmp_path / "channel.usjd"
        assert main(["simulate", "--config", str(other), "--out", str(ch)]) == 0
        capsys.readouterr()
        out = tmp_path / "o.usjd"
        assert main(command + [
            "--config", str(small_config), "--channel", str(ch), "--out", str(out),
        ]) == 4
        err = capsys.readouterr().err
        assert "channel data differ from the run config in pitch 0.0002 vs 0.0003" in err
        assert not out.exists()

    def test_reference_das_refuses_another_probe(self, tiny_instance, rng):
        from pwrecon import pipeline

        model = tiny_instance["model"]
        ch = channel_data(model, rng.standard_normal(model.num_rows))
        # the label and the sample window are the data's own
        relabelled = replace(ch.probe, center_freq=4e6, t0_offset=1e-6)
        pipeline.reference_das(model, replace(ch, probe=relabelled))
        other = replace(ch, probe=replace(ch.probe, pitch=0.2e-3))
        expected = "channel data differ from the system matrix in pitch 0.0002 vs 0.0003"
        with pytest.raises(ValueError, match=expected):
            pipeline.reference_das(model, other)


# finite config values whose arithmetic overflows a float or an int, and
# what the error line says
_OVERFLOWING = [
    pytest.param(
        lambda doc: doc["phantom"].update(snr_db=-4000),
        "snr_db -4000: its noise power ratio overflows",
        id="snr_db",
    ),
    pytest.param(
        lambda doc: doc["phantom"]["blur"].update(lateral_sigma=1e308),
        "lateral_sigma 1e+308: its square overflows",
        id="blur_lateral_sigma",
    ),
    pytest.param(
        lambda doc: doc["probe"].update(sound_speed=1e308),
        "sound_speed 1e+308: the grid's round-trip delays overflow",
        id="sound_speed",
    ),
]


class TestOverflowingValues:
    @pytest.mark.parametrize("edit, match", _OVERFLOWING)
    def test_simulate_exits_4_with_an_error_line(
        self, small_config, tmp_path, capsys, edit, match
    ):
        config = _write_config(small_config, tmp_path, edit)
        out = tmp_path / "ch.usjd"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert match in err
        assert not out.exists()


class TestNonFiniteChannelData:
    @pytest.mark.parametrize("command", [["solve", "--mode", "beamform_only"], ["das"]])
    def test_one_nan_sample_exits_4_at_read(self, tmp_path, capsys, command):
        ch_path = tmp_path / "channel.usjd"
        assert main(["simulate", "--config", "builtin:desk_point", "--out", str(ch_path)]) == 0
        ch = read_container(str(ch_path), "channel")
        ch.samples[10, 5] = np.nan
        write_container(ch, str(ch_path))
        capsys.readouterr()
        assert main(command + [
            "--config", "builtin:desk_point", "--channel", str(ch_path),
            "--out", str(tmp_path / "o.usjd"),
        ]) == 4
        assert "non-finite samples" in capsys.readouterr().err


class TestRunReconstructionBuildsMatrixOnDemand:
    @staticmethod
    def _counted_builds(monkeypatch):
        from pwrecon import pipeline

        calls = []
        build = pipeline.build_model

        def counted(cfg, *args, **kwargs):
            calls.append(cfg)
            return build(cfg, *args, **kwargs)

        monkeypatch.setattr(pipeline, "build_model", counted)
        return calls

    def test_joint_builds_the_matrix(self, small_config, monkeypatch):
        from pwrecon import pipeline
        from pwrecon.config import load_run_config

        cfg = load_run_config(str(small_config))
        model = pipeline.build_model(cfg)
        ch = pipeline.simulate(cfg, pipeline.make_phantom(cfg), model)
        calls = self._counted_builds(monkeypatch)
        report = pipeline.run_reconstruction(cfg, None, ch)
        assert len(calls) == 1
        given = pipeline.run_reconstruction(cfg, model, ch)
        assert np.array_equal(report.result.data, given.result.data)

    def test_deconv_only_never_builds_it(self, small_config, monkeypatch):
        from pwrecon import pipeline
        from pwrecon.config import load_run_config, mode_fields

        cfg = load_run_config(str(small_config))
        model = pipeline.build_model(cfg)
        y_das = pipeline.reference_das(
            model, pipeline.simulate(cfg, pipeline.make_phantom(cfg), model)
        )
        cfg.solver = replace(
            cfg.solver, **mode_fields("deconv_only", vars(cfg.solver))
        )
        assert cfg.psf["type"] == "parametric"
        calls = self._counted_builds(monkeypatch)
        report = pipeline.run_reconstruction(cfg, None, None, y_das=y_das)
        assert calls == []
        assert np.all(np.isfinite(report.result.data))

    def test_deconv_only_derives_das_without_it(self, small_config, monkeypatch):
        from pwrecon import pipeline
        from pwrecon.config import load_run_config, mode_fields

        cfg = load_run_config(str(small_config))
        model = pipeline.build_model(cfg)
        ch = pipeline.simulate(cfg, pipeline.make_phantom(cfg), model)
        cfg.solver = replace(
            cfg.solver, **mode_fields("deconv_only", vars(cfg.solver))
        )
        y_das = pipeline.reference_das(model, ch)
        given = pipeline.run_reconstruction(cfg, None, None, y_das=y_das)

        def fail(*args, **kwargs):
            raise AssertionError("delay-and-sum of channel data needs no system matrix")

        monkeypatch.setattr(pipeline, "build_model", fail)
        report = pipeline.run_reconstruction(cfg, None, ch)
        assert np.array_equal(report.result.data, given.result.data)

    def test_deconv_only_builds_it_for_a_model_psf(self, monkeypatch):
        from pwrecon import pipeline
        from pwrecon.config import get_builtin_config, mode_fields, run_config_from_dict

        doc = get_builtin_config("desk_point")
        doc["psf"] = {"type": "model"}
        cfg = run_config_from_dict(doc)
        cfg.solver = replace(
            cfg.solver, **mode_fields("deconv_only", vars(cfg.solver))
        )
        model = pipeline.build_model(cfg)
        y_das = pipeline.reference_das(
            model, pipeline.simulate(cfg, pipeline.make_phantom(cfg), model)
        )
        calls = self._counted_builds(monkeypatch)
        report = pipeline.run_reconstruction(cfg, None, None, y_das=y_das)
        assert len(calls) == 1
        given = pipeline.run_reconstruction(cfg, model, None, y_das=y_das)
        assert len(calls) == 1
        assert np.array_equal(report.result.data, given.result.data)


class TestWindowFromChannelData:
    """A solve builds its system matrix over the sample window of the
    channel data it reads, not over one the config derives."""

    def test_solve_reads_a_window_longer_than_the_derived_one(
        self, small_config, tmp_path, monkeypatch
    ):
        cache = tmp_path / "cache"
        monkeypatch.setenv("PWRECON_CACHE_DIR", str(cache))
        ch = tmp_path / "channel.usjd"
        assert main(["simulate", "--config", str(small_config), "--out", str(ch)]) == 0
        data = read_container(str(ch), "channel")
        longer = tmp_path / "longer.usjd"
        padding = np.zeros((20, data.probe.num_elements))
        write_container(replace(data, samples=np.vstack([data.samples, padding])), str(longer))
        images = []
        for name in (ch, longer):
            out = tmp_path / ("rec_" + name.name)
            assert main([
                "solve", "--config", str(small_config), "--channel", str(name),
                "--out", str(out),
            ]) == 0
            images.append(read_container(str(out), "rfimage").data)
        rows = sorted(load_matrix(p).num_time_samples for p in cache.glob("sysmat_*.usjd"))
        assert rows == [data.num_samples, data.num_samples + 20]
        # the trailing samples lie past every delay: no pixel reads them (the
        # images are stored as float32)
        np.testing.assert_allclose(images[1], images[0], rtol=0, atol=1e-6 * abs(images[0]).max())


class TestSequentialReport:
    def test_top_level_holds_only_whole_solve_fields(self, small_config, tmp_path, capsys):
        ch = tmp_path / "channel.usjd"
        assert main(["simulate", "--config", str(small_config), "--out", str(ch)]) == 0
        report = tmp_path / "report.json"
        assert main([
            "solve", "--config", str(small_config), "--channel", str(ch),
            "--mode", "sequential", "--out", str(tmp_path / "seq.usjd"),
            "--report", str(report),
        ]) == 0
        rep = json.loads(report.read_text())
        assert sorted(rep) == ["converged", "iterations", "mode", "stages", "timing"]
        assert list(rep["timing"]) == ["wall_time_s"]
        stage1, stage2 = rep["stages"]
        assert (stage1["mode"], stage2["mode"]) == ("beamform_only", "deconv_only")
        assert rep["iterations"] == stage1["iterations"] + stage2["iterations"]
        assert rep["converged"] == (stage1["converged"] and stage2["converged"])
        assert stage1["forward_products"] > 0 and stage2["forward_products"] == 0
        assert "iterations=%d " % rep["iterations"] in capsys.readouterr().out


def _readme_cli_commands():
    """The commands of the sh block under README's CLI heading, with
    backslash continuations joined and comments dropped."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = (shlex.split(line, comments=True) for line in lines)
    return [argv for argv in commands if argv]


def test_readme_cli_examples_parse():
    commands = _readme_cli_commands()
    assert len(commands) == 8
    parser = _build_parser()
    for argv in commands:
        assert argv[0] == "pwrecon"
        parser.parse_args(argv[1:])  # a flag README names but the CLI lacks exits 2


class TestGridMismatch:
    """An image, reference or phantom on another grid than the run config's
    is refused with both grids named, never scored or solved on."""

    @staticmethod
    def _files(tmp_path, **on_grid):
        """Containers of a random image and of the desk_point phantom, each
        on the builtin desk_point grid or ``nx`` columns wide."""
        from pwrecon import load_run_config, make_point_phantom

        cfg = load_run_config("builtin:desk_point")
        rng = np.random.default_rng(0)
        paths = {}
        for name, nx in on_grid.items():
            grid = ImagingGrid.for_probe(cfg.probe, cfg.grid.nz, nx, cfg.grid.z_origin)
            if name == "phantom":
                points = [tuple(p) for p in cfg.phantom["points"]]
                obj = make_point_phantom(grid, points)
            else:
                obj = RfImage(rng.standard_normal(grid.shape), grid)
            paths[name] = str(tmp_path / ("%s.usjd" % name))
            write_container(obj, paths[name])
        return paths

    @pytest.mark.parametrize("reference", [None, 48, 64], ids=["alone", "both", "image"])
    def test_metrics_discs_of_an_image_on_another_grid_exit_4(
        self, tmp_path, capsys, reference
    ):
        sizes = {"image": 48} if reference is None else {"image": 48, "reference": reference}
        paths = self._files(tmp_path, **sizes)
        flags = ["--reference", paths["reference"]] if reference else []
        assert main([
            "metrics", "--config", "builtin:desk_point", "--image", paths["image"],
            "--roi", "0.0085,0.0,0.0008", "--background", "0.0085,0.004,0.0008", *flags,
        ]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: image grid ImagingGrid(nz=96, nx=48,")
        assert "differs from the run config's grid ImagingGrid(nz=96, nx=64," in err

    @pytest.mark.parametrize(
        "image, phantom, wrong",
        [(48, 48, "phantom"), (64, 48, "phantom"), (48, 64, "image")],
        ids=["both", "phantom", "image"],
    )
    def test_metrics_phantom_on_another_grid_exits_4(
        self, tmp_path, capsys, image, phantom, wrong
    ):
        paths = self._files(tmp_path, image=image, phantom=phantom)
        assert main([
            "metrics", "--config", "builtin:desk_point", "--image", paths["image"],
            "--phantom", paths["phantom"],
        ]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: %s grid ImagingGrid(nz=96, nx=48," % wrong)
        assert "differs from the run config's grid ImagingGrid(nz=96, nx=64," in err

    def test_deconv_only_das_on_another_grid_exits_4(self, tmp_path, capsys):
        paths = self._files(tmp_path, image=48)
        out = tmp_path / "o.usjd"
        assert main([
            "solve", "--config", "builtin:desk_point", "--mode", "deconv_only",
            "--das", paths["image"], "--out", str(out),
        ]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: reference grid ImagingGrid(nz=96, nx=48,")
        assert "differs from the run config's grid ImagingGrid(nz=96, nx=64," in err
        assert not out.exists()

    @pytest.mark.parametrize("mode", MODES)
    def test_run_reconstruction_refuses_it_in_every_mode(self, tmp_path, mode):
        from pwrecon import pipeline
        from pwrecon.config import load_run_config

        cfg = load_run_config("builtin:desk_point", mode=mode)
        y_das = read_container(self._files(tmp_path, image=48)["image"], "rfimage")
        with pytest.raises(ValueError, match="reference grid .* differs from the run config's"):
            pipeline.run_reconstruction(cfg, None, None, y_das=y_das)
