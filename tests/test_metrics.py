"""FWHM, CNR, gCNR, and histogram matching against closed forms."""

import numpy as np
import pytest

from pwrecon import (
    BModeImage,
    ImagingGrid,
    RfImage,
    cnr,
    disc_mask,
    fwhm,
    gcnr,
    histogram_match,
)
from pwrecon.metrics import UnresolvedPeakError, annulus_mask


def unit_grid(nz=64, nx=64, dz=1e-4, dx=1e-4):
    return ImagingGrid(nz=nz, nx=nx, dz=dz, dx=dx, z_origin=0.0)


class TestFwhm:
    def test_gaussian_profile_closed_form(self):
        # FWHM of a Gaussian is 2 sqrt(2 ln 2) sigma
        grid = unit_grid(nz=128, nx=9, dz=1e-4)
        sigma = 4.0
        z = np.arange(grid.nz)
        profile = np.exp(-((z - 64.0) ** 2) / (2 * sigma**2))
        data = np.tile(profile[:, None], (1, grid.nx))
        width = fwhm(RfImage(data, grid), (64, 4), "axial")
        expected = 2 * np.sqrt(2 * np.log(2)) * sigma * grid.dz * 1000.0
        assert width == pytest.approx(expected, rel=0.02)

    def test_single_pixel_impulse_interpolates_below_two_pixels(self):
        grid = unit_grid(nz=32, nx=32)
        data = np.zeros(grid.shape)
        data[16, 16] = 1.0
        width = fwhm(RfImage(data, grid), (16, 16), "lateral")
        assert width <= 2.0 * grid.dx * 1000.0

    def test_symmetric_profile_flip_invariance(self):
        grid = unit_grid(nz=9, nx=65)
        x = np.arange(grid.nx)
        profile = 1.0 / (1.0 + 0.02 * (x - 32.0) ** 2)
        data = np.tile(profile[None, :], (grid.nz, 1))
        w1 = fwhm(RfImage(data, grid), (4, 32), "lateral")
        w2 = fwhm(RfImage(data[:, ::-1].copy(), grid), (4, 32), "lateral")
        assert w1 == pytest.approx(w2, rel=1e-12)

    def test_unresolved_profile_raises(self):
        grid = unit_grid(nz=16, nx=16)
        data = np.full(grid.shape, 0.9)
        data[8, 8] = 1.0
        with pytest.raises(UnresolvedPeakError):
            fwhm(RfImage(data, grid), (8, 8), "axial")

    def test_axial_scale_covariance(self):
        sigma = 3.0
        z = np.arange(96)
        profile = np.exp(-((z - 48.0) ** 2) / (2 * sigma**2))
        widths = []
        for k in (1.0, 2.5):
            grid = ImagingGrid(nz=96, nx=5, dz=k * 1e-4, dx=1e-4, z_origin=0.0)
            data = np.tile(profile[:, None], (1, grid.nx))
            widths.append(fwhm(RfImage(data, grid), (48, 2), "axial"))
        assert widths[1] == pytest.approx(2.5 * widths[0], rel=1e-12)

    def test_snaps_to_local_peak(self):
        grid = unit_grid(nz=64, nx=9)
        z = np.arange(grid.nz)
        profile = np.exp(-((z - 30.0) ** 2) / (2 * 2.0**2))
        data = np.tile(profile[:, None], (1, grid.nx))
        # nominal target 3 px off the true peak
        w_off = fwhm(RfImage(data, grid), (33, 4), "axial")
        w_on = fwhm(RfImage(data, grid), (30, 4), "axial")
        assert w_off == pytest.approx(w_on, rel=1e-12)


class TestCnr:
    def _bmode(self, data):
        grid = unit_grid(*data.shape)
        return BModeImage(
            data=np.clip(data, -60.0, 0.0), grid=grid, dynamic_range=60.0
        )

    def test_direct_formula_value(self):
        # means -2 and -1 with equal spreads 0.5 -> 20 log10(1/0.5)
        data = np.zeros((32, 32))
        roi = np.zeros((32, 32), dtype=bool)
        roi[:16] = True
        bg = ~roi
        spread = np.tile([-0.5, 0.5], 256).reshape(16, 32)
        data[:16] = -2.0 + spread
        data[16:] = -1.0 + spread
        img = self._bmode(data)
        val = cnr(img, (roi, bg))
        assert val == pytest.approx(20 * np.log10(1.0 / 0.5), abs=1e-6)

    def test_zero_mean_difference_is_minus_inf(self):
        data = np.zeros((16, 16))
        data[::2] = -1.0  # same distribution in both halves
        roi = np.zeros((16, 16), dtype=bool)
        roi[:, :8] = True
        img = self._bmode(data)
        assert cnr(img, (roi, ~roi)) == -np.inf

    def test_fully_degenerate_rejected(self):
        data = np.full((8, 8), -3.0)
        roi = np.zeros((8, 8), dtype=bool)
        roi[:4] = True
        img = self._bmode(data)
        with pytest.raises(ValueError):
            cnr(img, (roi, ~roi))

    def test_swap_invariance(self):
        rng = np.random.default_rng(5)
        data = -np.abs(rng.standard_normal((24, 24))) * 10
        roi = np.zeros((24, 24), dtype=bool)
        roi[4:12, 4:12] = True
        bg = np.zeros_like(roi)
        bg[14:22, 14:22] = True
        img = self._bmode(data)
        a = cnr(img, (roi, bg))
        b = cnr(img, (bg, roi))
        assert a == pytest.approx(b, rel=1e-12)


class TestGcnr:
    def _bmode(self, data):
        grid = unit_grid(*data.shape)
        return BModeImage(data=data, grid=grid, dynamic_range=60.0)

    def test_identical_regions_zero(self):
        rng = np.random.default_rng(2)
        data = -np.abs(rng.standard_normal((16, 16))) * 5
        mask = np.zeros((16, 16), dtype=bool)
        mask[:, :8] = True
        img = self._bmode(data)
        assert gcnr(img, (mask, mask)) == 0.0

    def test_identical_regions_zero_whatever_the_rounding(self):
        # 36 pixels: the unit-mass histogram sums to 1 only up to rounding
        mask = np.ones((6, 6), dtype=bool)
        for seed in range(50):
            data = -60.0 * np.random.default_rng(seed).random((6, 6))
            assert gcnr(self._bmode(data), (mask, mask)) == 0.0

    def test_disjoint_ranges_one(self):
        data = np.zeros((16, 16))
        data[:8] = -50.0
        data[8:] = -1.0
        roi = np.zeros((16, 16), dtype=bool)
        roi[:8] = True
        img = self._bmode(data)
        assert gcnr(img, (roi, ~roi)) == 1.0

    def test_range_and_empty_region(self):
        rng = np.random.default_rng(3)
        data = -np.abs(rng.standard_normal((16, 16)))
        roi = np.zeros((16, 16), dtype=bool)
        roi[2:9, 2:9] = True
        img = self._bmode(data)
        val = gcnr(img, (roi, ~roi))
        assert 0.0 <= val <= 1.0
        with pytest.raises(ValueError):
            gcnr(img, (np.zeros_like(roi), ~roi))

    def test_monotone_transform_invariance_within_bin_error(self):
        # a gamma curve applied to the dB data moves gCNR by at most the
        # histogram quantization
        rng = np.random.default_rng(7)
        data = -np.abs(rng.standard_normal((64, 64))) * 8
        roi = np.zeros((64, 64), dtype=bool)
        roi[8:32, 8:32] = True
        bg = np.zeros_like(roi)
        bg[36:60, 36:60] = True
        bg_vals = rng.standard_normal(bg.sum()) * 2 - 20
        data[bg] = bg_vals
        img = self._bmode(np.clip(data, -60, 0))
        base = gcnr(img, (roi, bg))
        curved = -60.0 * ((-np.clip(data, -60, 0) / 60.0) ** 0.5)
        img2 = self._bmode(curved)
        after = gcnr(img2, (roi, bg))
        assert abs(after - base) <= 0.03


class TestHistogramMatch:
    def _make(self, rng, shape=(48, 48)):
        grid = unit_grid(*shape)
        data = -np.abs(rng.standard_normal(shape)) * 12
        return BModeImage(np.clip(data, -60, 0), grid, 60.0)

    def test_self_matching_is_identity_on_support(self, rng):
        img = self._make(rng)
        mask = np.zeros(img.data.shape, dtype=bool)
        mask[8:40, 8:40] = True
        out = histogram_match(img, img, mask)
        lo, hi = img.data[mask].min(), img.data[mask].max()
        inside = (img.data >= lo) & (img.data <= hi)
        np.testing.assert_allclose(out.data[inside], img.data[inside], atol=1e-9)

    def test_constant_shift_is_undone(self, rng):
        ref = self._make(rng)
        shifted = BModeImage(
            np.clip(ref.data + 5.0, -60, 0), ref.grid, 60.0
        )
        # avoid pixels saturated by the clip when comparing
        mask = np.zeros(ref.data.shape, dtype=bool)
        mask[4:44, 4:44] = True
        ok = ref.data + 5.0 <= 0.0
        out = histogram_match(shifted, ref, mask & ok)
        sel = mask & ok
        src_sorted = np.sort(shifted.data[sel])
        bin_width = (src_sorted[-1] - src_sorted[0]) / max(sel.sum() - 1, 1)
        assert np.median(np.abs(out.data[sel] - ref.data[sel])) <= max(
            bin_width, 1e-6
        )

    def test_monotonicity_preserved(self, rng):
        img = self._make(rng)
        ref = self._make(rng)
        mask = np.zeros(img.data.shape, dtype=bool)
        mask[10:40, 10:40] = True
        out = histogram_match(img, ref, mask)
        vals_in = img.data[mask]
        vals_out = out.data[mask]
        order = np.argsort(vals_in)
        assert np.all(np.diff(vals_out[order]) >= -1e-12)

    def test_idempotence_within_one_bin(self, rng):
        img = self._make(rng)
        ref = self._make(rng)
        mask = np.zeros(img.data.shape, dtype=bool)
        mask[10:40, 10:40] = True
        once = histogram_match(img, ref, mask)
        twice = histogram_match(once, ref, mask)
        dst = np.sort(ref.data[mask])
        bin_width = (dst[-1] - dst[0]) / max(mask.sum() - 1, 1)
        assert np.max(np.abs(twice.data[mask] - once.data[mask])) <= max(
            5 * bin_width, 1e-6
        )

    def test_constant_roi_rejected(self, rng):
        ref = self._make(rng)
        img = BModeImage(np.full(ref.data.shape, -20.0), ref.grid, 60.0)
        mask = np.zeros(ref.data.shape, dtype=bool)
        mask[:8] = True
        with pytest.raises(ValueError):
            histogram_match(img, ref, mask)


class TestMasksAndRegions:
    def test_disc_and_annulus_geometry(self):
        grid = unit_grid(nz=64, nx=64, dz=1.0, dx=1.0)
        center = (grid.z_positions[32], grid.x_positions[32])
        disc = disc_mask(grid, center, 10.0)
        assert disc[32, 32]
        ring = annulus_mask(grid, center, 12.0, 20.0)
        assert not ring[32, 32]
        assert not (disc & ring).any()
        frac = disc.sum() / (np.pi * 10.0**2)
        assert frac == pytest.approx(1.0, rel=0.05)

    @pytest.mark.parametrize("radius", [-10.0, np.inf, np.nan])
    def test_negative_or_non_finite_radius_raises(self, radius):
        grid = unit_grid(nz=16, nx=16, dz=1.0, dx=1.0)
        with pytest.raises(ValueError, match="disc radius"):
            disc_mask(grid, (8.0, 0.0), radius)

    def test_annulus_out_to_infinity_raises(self):
        grid = unit_grid(nz=16, nx=16, dz=1.0, dx=1.0)
        with pytest.raises(ValueError, match="disc radius"):
            annulus_mask(grid, (8.0, 0.0), 2.0, np.inf)

    def test_zero_radius_is_the_center_pixel(self):
        grid = unit_grid(nz=16, nx=16, dz=1.0, dx=1.0)
        center = (grid.z_positions[8], grid.x_positions[8])
        assert disc_mask(grid, center, 0.0).sum() == 1
        ring = annulus_mask(grid, center, 0.0, 3.0)
        assert not ring[8, 8] and ring.sum() == disc_mask(grid, center, 3.0).sum() - 1

    def test_metrics_report_serialization(self):
        from pwrecon import MetricsReport

        rep = MetricsReport(
            fwhm_axial_mm=[0.1, 0.2], fwhm_lateral_mm=[0.3, 0.5],
            cnr_db=[7.0], gcnr=[0.9],
        )
        doc = rep.to_json_dict()
        assert doc["averages"]["fwhm_axial_mm"] == pytest.approx(0.15)
        text = rep.to_text()
        assert "FWHM_A" in text and "gCNR" in text


class TestMeasureKind:
    """Without a kind, ``measure`` scores the targets the phantom holds."""

    @pytest.mark.parametrize("name, kind", [("desk_point", "point"), ("desk_cyst", "cyst")])
    def test_unset_kind_is_the_phantoms_kind(self, name, kind):
        from pwrecon import pipeline
        from pwrecon.config import get_builtin_config, run_config_from_dict

        cfg = run_config_from_dict(get_builtin_config(name))
        phantom = pipeline.make_phantom(cfg)
        image = RfImage(phantom.trf, cfg.grid)
        inferred = pipeline.measure(cfg, phantom, image, reference=image)
        chosen = pipeline.measure(cfg, phantom, image, reference=image, kind=kind)
        assert inferred.to_json_dict() == chosen.to_json_dict()
        assert (inferred.gcnr == []) == (kind == "point")
