"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a PASS line once its assertions hold (visible with -s or in
the captured output), so a full run doubles as a checklist.
"""

import json
import os
import time

import numpy as np
import pytest

import pwrecon as pw
from pwrecon import pipeline
from pwrecon.beamform import envelope, log_compress
from pwrecon.config import (
    DESK_SEQUENTIAL,
    get_builtin_config,
    run_config_from_dict,
    solver_config,
)
from pwrecon.metrics import annulus_mask, cnr, disc_mask, fwhm, gcnr, histogram_match
from pwrecon.psf import Psf, conv_apply, deconv_update, make_parametric_psf

from conftest import channel_data
from test_forward_model import dense_oracle
from test_psf import circular_conv_oracle, dense_circulant


def note(line):
    print("PASS %s" % line)


# --- shared desk-scale bundles (module scope keeps the suite under a minute)


class Bundle:
    def __init__(self, name, overrides=None):
        doc = get_builtin_config(name)
        if overrides:
            doc["phantom"].update(overrides)
        self.cfg = run_config_from_dict(doc)
        self.model = pipeline.build_model(self.cfg)
        self.phantom = pipeline.make_phantom(self.cfg)
        self.channel = pipeline.simulate(self.cfg, self.phantom, self.model)
        self.das = pipeline.reference_das(self.model, self.channel)
        self.psf = pipeline.resolve_psf(self.cfg, model=self.model)

    def solve_joint(self, x0=None):
        return pw.solve(
            self.cfg.solver,
            model=self.model,
            y_ch=self.channel,
            psf=self.psf,
            y_das=self.das,
            x0=x0,
        )

    def solve_sequential(self, name):
        return pw.solve(
            solver_config(DESK_SEQUENTIAL[name]),
            model=self.model,
            y_ch=self.channel,
            psf=self.psf,
            y_das=self.das,
        )

    def perturbation(self, scale=0.05, seed=11):
        peak = float(np.abs(self.das.data).max())
        rng = np.random.default_rng(seed)
        return rng.standard_normal(self.cfg.grid.shape) * peak * scale


@pytest.fixture(scope="module")
def desk_point():
    return Bundle("desk_point")


@pytest.fixture(scope="module")
def desk_point_noiseless():
    return Bundle("desk_point", overrides={"snr_db": None})


@pytest.fixture(scope="module")
def desk_cyst():
    return Bundle("desk_cyst")


def mean_fwhm(phantom, image, axis):
    env = envelope(image)
    vals = [fwhm(env, (a.iz, a.ix), axis) for a in phantom.annotations]
    return float(np.mean(vals))


def cyst_quality(cfg, phantom, image, reference):
    cyst = phantom.annotations[0]
    center = (cyst.z, cyst.x)
    roi_r = 0.7 * cyst.radius
    bg_in = 1.2 * cyst.radius
    roi = disc_mask(cfg.grid, center, roi_r)
    bg = annulus_mask(
        cfg.grid, center, bg_in, float(np.sqrt(bg_in**2 + roi_r**2))
    )
    ref_bm = log_compress(envelope(reference), cfg.dynamic_range)
    bm = log_compress(envelope(image), cfg.dynamic_range)
    if image is not reference:
        bm = histogram_match(bm, ref_bm, bg)
    return gcnr(bm, (roi, bg))


class TestCriterion1OperatorOracles:
    def test_system_matrix_and_products_and_fft_convolution(self, tiny_instance, rng):
        inst = tiny_instance
        dense = dense_oracle(
            inst["probe"], inst["grid"], inst["tx"], inst["num_samples"], inst["apod"]
        )
        sparse = inst["model"].matrix.toarray()
        assert np.array_equal(sparse, dense)

        model = inst["model"]
        for _ in range(10):
            x = rng.standard_normal(model.num_cols)
            y = rng.standard_normal(model.num_rows)
            np.testing.assert_allclose(
                model.apply(x), dense @ x, rtol=1e-12, atol=1e-13
            )
            np.testing.assert_allclose(
                model.apply_adjoint(y), dense.T @ y, rtol=1e-12, atol=1e-13
            )

        kernel = rng.standard_normal((3, 3))
        psf = Psf(kernel=kernel)
        for nz in range(3, 17):
            for nx in range(3, 17):
                img = rng.standard_normal((nz, nx))
                expected = circular_conv_oracle(kernel, img)
                scale = max(np.abs(expected).max(), 1.0)
                np.testing.assert_allclose(
                    conv_apply(psf, img), expected, rtol=1e-12, atol=1e-12 * scale
                )
        note(
            "criterion 1: matrix assembly exact vs dense triple loop; products "
            "and FFT convolution match dense oracles at 1e-12"
        )


class TestCriterion2DeconvOracle:
    def test_twenty_random_draws_match_dense_bccb_solve(self, rng):
        shape = (12, 12)
        kernel = rng.standard_normal((5, 3))
        psf = Psf(kernel=kernel)
        h = dense_circulant(kernel, shape)
        y = rng.standard_normal(shape)
        for _ in range(20):
            gamma_d = float(10.0 ** rng.uniform(-2, 2))
            beta = float(10.0 ** rng.uniform(-2, 3))
            w = rng.standard_normal(shape)
            z = rng.standard_normal(shape)
            l1 = rng.standard_normal(shape)
            l2 = rng.standard_normal(shape)
            lhs = gamma_d * (h.T @ h) + 2 * beta * np.eye(h.shape[0])
            rhs = (
                gamma_d * h.T @ y.reshape(-1, order="F")
                + (beta * w + beta * z - l1 - l2).reshape(-1, order="F")
            )
            expected = np.linalg.solve(lhs, rhs).reshape(shape, order="F")
            got = deconv_update(y, psf, w, z, l1, l2, gamma_d, beta)
            np.testing.assert_allclose(got, expected, rtol=1e-8, atol=1e-10)
        note("criterion 2: image update matches dense circulant solve (20 draws, 1e-8)")


class TestCriterion3InnerSolverOracle:
    def test_matches_dense_normal_equations(self, tiny_instance, rng):
        model = tiny_instance["model"]
        grid = tiny_instance["grid"]
        dense = model.matrix.toarray()
        gamma_b, beta = 0.7, 2.0
        y_ch = rng.standard_normal(model.num_rows)
        u = rng.standard_normal(grid.shape)
        lam2 = rng.standard_normal(grid.shape)
        lhs = gamma_b * dense.T @ dense + beta * np.eye(model.num_cols)
        rhs = gamma_b * dense.T @ y_ch + (beta * u + lam2).reshape(-1, order="F")
        expected = np.linalg.solve(lhs, rhs).reshape(grid.shape, order="F")
        z, _ = pw.beamform_update(
            model, y_ch, u, lam2, gamma_b, beta,
            pw.InnerSettings(max_iter=500, tol=1e-12),
        )
        np.testing.assert_allclose(z, expected, rtol=1e-6, atol=1e-9)
        note("criterion 3: channel-data update matches dense normal equations (1e-6)")


class TestCriterion4Convergence:
    def _check(self, bundle, label):
        t0 = time.perf_counter()
        report = bundle.solve_joint()
        elapsed = time.perf_counter() - t0
        assert report.converged, "%s did not reach the relative-change stop" % label
        assert report.iterations <= 30, "%s took %d iterations" % (
            label,
            report.iterations,
        )
        rz, rw = report.state.primal_residuals[-1]
        u_norm = np.linalg.norm(report.state.u)
        assert rz <= 1e-2 * u_norm and rw <= 1e-2 * u_norm
        perturbed = bundle.solve_joint(x0=bundle.perturbation())
        o1 = report.state.objective_history[-1]
        o2 = perturbed.state.objective_history[-1]
        agree = abs(o1 - o2) / max(o1, 1e-30)
        assert agree <= 1e-3, "%s init disagreement %.2e" % (label, agree)
        assert elapsed < 60.0
        return report.iterations, agree, elapsed

    def test_desk_point(self, desk_point):
        iters, agree, elapsed = self._check(desk_point, "desk point")
        note(
            "criterion 4 (point): converged in %d <= 30 iterations, residuals "
            "within 1e-2, init agreement %.1e, %.1f s" % (iters, agree, elapsed)
        )

    def test_desk_cyst(self, desk_cyst):
        iters, agree, elapsed = self._check(desk_cyst, "desk cyst")
        note(
            "criterion 4 (cyst): converged in %d <= 30 iterations, residuals "
            "within 1e-2, init agreement %.1e, %.1f s" % (iters, agree, elapsed)
        )


class TestCriterion5ResolutionOrdering:
    def test_noiseless_point_fwhm_ordering(self, desk_point_noiseless):
        b = desk_point_noiseless
        joint = b.solve_joint()
        seq = b.solve_sequential("desk_point")
        das_ax = mean_fwhm(b.phantom, b.das, "axial")
        das_lat = mean_fwhm(b.phantom, b.das, "lateral")
        j_ax = mean_fwhm(b.phantom, joint.result, "axial")
        j_lat = mean_fwhm(b.phantom, joint.result, "lateral")
        s_ax = mean_fwhm(b.phantom, seq.result, "axial")
        s_lat = mean_fwhm(b.phantom, seq.result, "lateral")
        assert j_ax <= s_ax <= das_ax, (j_ax, s_ax, das_ax)
        assert j_lat <= s_lat <= das_lat, (j_lat, s_lat, das_lat)
        improvement = 1.0 - j_ax / das_ax
        assert improvement >= 0.25, "axial improvement %.1f%%" % (100 * improvement)
        note(
            "criterion 5: FWHM joint <= sequential <= DAS "
            "(axial %.3f <= %.3f <= %.3f mm, lateral %.3f <= %.3f <= %.3f mm), "
            "joint improves DAS axial by %.0f%% >= 25%%"
            % (j_ax, s_ax, das_ax, j_lat, s_lat, das_lat, 100 * improvement)
        )


class TestCriterion6ContrastOrdering:
    def test_cyst_gcnr_ordering_after_histogram_matching(self, desk_cyst):
        b = desk_cyst
        joint = b.solve_joint()
        seq = b.solve_sequential("desk_cyst")
        g_das = cyst_quality(b.cfg, b.phantom, b.das, b.das)
        g_joint = cyst_quality(b.cfg, b.phantom, joint.result, b.das)
        g_seq = cyst_quality(b.cfg, b.phantom, seq.result, b.das)
        for g in (g_das, g_joint, g_seq):
            assert 0.0 <= g <= 1.0
        assert g_joint >= g_das, (g_joint, g_das)
        assert g_joint >= g_seq, (g_joint, g_seq)
        note(
            "criterion 6: gCNR joint %.3f >= DAS %.3f and >= sequential %.3f "
            "after histogram matching" % (g_joint, g_das, g_seq)
        )


class TestCriterion7MetricUnitValues:
    def test_cnr_gcnr_fwhm_reference_values(self):
        from pwrecon import BModeImage, ImagingGrid, RfImage

        grid = ImagingGrid(nz=32, nx=32, dz=1e-4, dx=1e-4, z_origin=0.0)
        data = np.zeros((32, 32))
        spread = np.tile([-0.5, 0.5], 256).reshape(16, 32)
        data[:16] = -2.0 + spread
        data[16:] = -1.0 + spread
        img = BModeImage(data, grid, 60.0)
        roi = np.zeros((32, 32), dtype=bool)
        roi[:16] = True
        val = cnr(img, (roi, ~roi))
        assert val == pytest.approx(6.020599913279624, abs=1e-6)

        rng = np.random.default_rng(4)
        speckle = -np.abs(rng.standard_normal((32, 32))) * 6
        img2 = BModeImage(np.clip(speckle, -60, 0), grid, 60.0)
        mask = np.zeros((32, 32), dtype=bool)
        mask[:, :16] = True
        assert gcnr(img2, (mask, mask)) == 0.0

        separated = np.full((32, 32), -50.0)
        separated[:16] = -1.0
        img3 = BModeImage(separated, grid, 60.0)
        top = np.zeros((32, 32), dtype=bool)
        top[:16] = True
        assert gcnr(img3, (top, ~top)) == 1.0

        sigma = 4.0
        z = np.arange(128)
        profile = np.exp(-((z - 64.0) ** 2) / (2 * sigma**2))
        grid2 = ImagingGrid(nz=128, nx=9, dz=1e-4, dx=1e-4, z_origin=0.0)
        env = RfImage(np.tile(profile[:, None], (1, 9)), grid2)
        width = fwhm(env, (64, 4), "axial")
        expected = 2 * np.sqrt(2 * np.log(2)) * sigma * grid2.dz * 1000.0
        assert width == pytest.approx(expected, rel=0.02)
        note(
            "criterion 7: CNR 6.0206 dB exact, gCNR 0/1 on identical/disjoint "
            "regions, Gaussian FWHM within 2%% of closed form"
        )


class TestCriterion8AblationIdentities:
    def test_gamma_d_zero_matches_beamform_only(self, covered_instance, rng):
        model = covered_instance["model"]
        y_ch = channel_data(model, rng.standard_normal(model.num_rows))
        base = dict(gamma_b=1.0, mu=0.05, beta=2.0, max_iter=30)
        joint = pw.solve(
            pw.SolverConfig(gamma_d=0.0, mode="joint", **base),
            model=model, y_ch=y_ch,
        )
        bf = pw.solve(
            pw.SolverConfig(gamma_d=0.0, mode="beamform_only", **base),
            model=model, y_ch=y_ch,
        )
        assert joint.iterations == bf.iterations
        np.testing.assert_array_equal(joint.state.z * joint.scale, bf.result.data)

    def test_gamma_b_zero_matches_deconv_only(self, covered_instance, rng):
        grid = covered_instance["grid"]
        psf = Psf(kernel=rng.standard_normal((5, 3)))
        y_das = pw.RfImage(rng.standard_normal(grid.shape), grid)
        base = dict(gamma_d=1.0, mu=0.05, beta=2.0, max_iter=30)
        joint = pw.solve(
            pw.SolverConfig(gamma_b=0.0, mode="joint", **base), psf=psf, y_das=y_das
        )
        dc = pw.solve(
            pw.SolverConfig(gamma_b=0.0, mode="deconv_only", **base),
            psf=psf, y_das=y_das,
        )
        np.testing.assert_allclose(
            joint.result.data, dc.result.data, rtol=0, atol=1e-8
        )
        note(
            "criterion 8: joint with a zeroed data term reproduces the "
            "single-term modes (bitwise / 1e-8)"
        )


PICMUS_ENV = "PWRECON_PICMUS_RF"


@pytest.mark.skipif(
    not os.environ.get(PICMUS_ENV),
    reason="set %s to a PICMUS RF HDF5 file to run the dataset-gated check"
    % PICMUS_ENV,
)
class TestCriterion9PicmusGated:
    def test_single_angle_joint_reconstruction_reports_metrics(self, tmp_path):
        from pwrecon import ImagingGrid, ingest_picmus
        from dataclasses import replace

        path = os.environ[PICMUS_ENV]
        ch = ingest_picmus(path)
        probe = ch.probe
        grid = ImagingGrid.for_probe(probe, nz=256, nx=probe.num_elements,
                                     z_origin=10e-3)
        apod = pw.ApodizationSpec(window="hanning", f_number=0.5)
        model = pw.build_system_matrix(
            probe, grid, ch.tx, ch.num_samples, apod
        )
        y_das = pw.das_beamform(ch, grid, apod)
        psf = make_parametric_psf(probe.sampling_freq / 4, probe.sampling_freq,
                                  0.67, 1.5)
        cfg = pw.SolverConfig(gamma_d=1.0, gamma_b=0.1, beta=1e3, mu=0.1)
        report = pw.solve(cfg, model=model, y_ch=ch, psf=psf, y_das=y_das)
        assert report.iterations >= 1
        center = (grid.z_positions[grid.nz // 2], 0.0)
        roi = disc_mask(grid, center, 2e-3)
        ring = annulus_mask(grid, center, 3e-3, 4e-3)
        ref_bm = log_compress(envelope(y_das), 60.0)
        bm = histogram_match(
            log_compress(envelope(report.result), 60.0), ref_bm, ring
        )
        g_joint = gcnr(bm, (roi, ring))
        g_das = gcnr(ref_bm, (roi, ring))
        print("PICMUS report: gCNR joint %.3f vs DAS %.3f" % (g_joint, g_das))
        assert g_joint >= g_das
        note("criterion 9: dataset-gated reconstruction completed")


class TestCriterion10Determinism:
    def test_end_to_end_bit_identical_and_round_trips(self, tmp_path):
        from pwrecon.cli import main

        doc = {
            "probe": {
                "num_elements": 16,
                "pitch": 0.3e-3,
                "sound_speed": 1540.0,
                "sampling_freq": 20.832e6,
                "center_freq": 5.208e6,
            },
            "grid": {"nz": 32, "nx": 16, "z_origin": 3.0e-3},
            "apodization": {"window": "hanning", "f_number": 0.5},
            "phantom": {
                "type": "point",
                "points": [[3.5e-3, 0.0]],
                "snr_db": 10.0,
                "seed": 5,
                "blur": {"lateral_sigma": 0.5},
            },
            "psf": {"type": "parametric", "lateral_sigma": 1.0},
            "solver": {
                "mode": "joint",
                "gamma_d": 1.0,
                "gamma_b": 0.25,
                "beta": 12.0,
                "mu": 0.3,
                "max_iter": 25,
            },
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))

        outputs = []
        for run in ("a", "b"):
            d = tmp_path / run
            d.mkdir()
            ch, das, res = d / "ch.usjd", d / "das.usjd", d / "res.usjd"
            rep, met = d / "rep.json", d / "met.json"
            ph = d / "ph.usjd"
            assert main(["simulate", "--config", str(cfg_path), "--out", str(ch),
                         "--phantom-out", str(ph)]) == 0
            assert main(["das", "--config", str(cfg_path), "--channel", str(ch),
                         "--out", str(das)]) == 0
            assert main(["solve", "--config", str(cfg_path), "--channel", str(ch),
                         "--das", str(das), "--out", str(res),
                         "--report", str(rep)]) == 0
            assert main(["metrics", "--config", str(cfg_path), "--image", str(res),
                         "--phantom", str(ph), "--kind", "point",
                         "--out", str(met)]) == 0
            outputs.append((ch, das, res, rep, met))

        for a, b in zip(outputs[0][:3], outputs[1][:3]):
            assert a.read_bytes() == b.read_bytes(), "%s differs between runs" % a.name
        rep_a = json.loads(outputs[0][3].read_text())
        rep_b = json.loads(outputs[1][3].read_text())
        rep_a.pop("timing"), rep_b.pop("timing")
        assert rep_a == rep_b
        assert outputs[0][4].read_bytes() == outputs[1][4].read_bytes()

        # cross-module container round trip stays bit-exact
        from pwrecon import read_container, write_container

        for name in ("ch.usjd", "das.usjd", "res.usjd"):
            src = tmp_path / "a" / name
            obj = read_container(src)
            dst = tmp_path / ("rt_%s" % name)
            write_container(obj, dst)
            assert dst.read_bytes() == src.read_bytes()
        note(
            "criterion 10: repeated end-to-end runs bit-identical; containers "
            "round-trip bit-exactly"
        )
