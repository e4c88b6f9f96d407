"""Command-line pipeline: subcommands composing through container files."""

import json
import struct
import sys
from dataclasses import replace

import numpy as np
import pytest

from pwrecon import (
    ImagingGrid,
    RfImage,
    load_matrix,
    read_container,
    write_container,
)
from pwrecon.cli import main


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
            "amplitude": 1.0,
            "snr_db": None,
            "seed": 0,
            "blur": {"axial_fbw": 0.67, "lateral_sigma": 0.5},
        },
        "psf": {"type": "parametric", "axial_fbw": 0.67, "lateral_sigma": 1.0},
        "solver": {
            "mode": "joint",
            "gamma_d": 1.0,
            "gamma_b": 0.25,
            "beta": 12.0,
            "mu": 0.3,
            "max_iter": 40,
        },
        "metrics": {"kind": "point"},
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

        (mat,) = cache.glob("sysmat_*.usjm")
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
        assert rep["mode"] == "joint"
        assert rep["iterations"] >= 1

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
        for mode in ("beamform", "deconv", "sequential"):
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

    def test_bad_config_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"probe": {"num_elements": 1}}))
        code = main([
            "simulate", "--config", str(cfg), "--out", str(tmp_path / "ch.usjd"),
        ])
        assert code == 4

    def test_solve_without_channel_names_the_flag(self, small_config, tmp_path, capsys):
        code = main([
            "solve", "--config", str(small_config), "--mode", "beamform",
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
             "beta": 12.0, "max_iter": 10, "stage2": {"mode": "deconv_only"}}
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
