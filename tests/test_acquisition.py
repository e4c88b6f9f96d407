"""Phantom construction and channel-data simulation."""

import numpy as np
import pytest

from pwrecon import (
    ChannelData,
    ImagingGrid,
    PlaneWaveTx,
    ProbeGeometry,
    make_cyst_phantom,
    make_point_phantom,
    simulate_channel_data,
)


class TestGeometryTypes:
    def test_probe_invariants(self):
        with pytest.raises(ValueError):
            ProbeGeometry(1, 3e-4, 1540.0, 2e7, 5e6)
        with pytest.raises(ValueError):
            ProbeGeometry(8, -3e-4, 1540.0, 2e7, 5e6)
        with pytest.raises(ValueError):
            ProbeGeometry(8, 3e-4, 1540.0, 9e6, 5e6)  # fs <= 2 f0

    def test_element_positions_centered(self):
        probe = ProbeGeometry(8, 0.3e-3, 1540.0, 2e7, 5e6)
        pos = probe.element_positions
        assert pos.sum() == pytest.approx(0.0, abs=1e-18)
        assert np.allclose(np.diff(pos), 0.3e-3)

    def test_steering_angle_bound(self):
        with pytest.raises(ValueError):
            PlaneWaveTx(angle=np.pi / 2)

    def test_grid_closed_forms(self, tiny_probe):
        grid = ImagingGrid.for_probe(tiny_probe, nz=20, z_origin=1e-3)
        assert grid.dz == tiny_probe.sound_speed / (2 * tiny_probe.sampling_freq)
        assert grid.dx == tiny_probe.pitch
        assert grid.nx == tiny_probe.num_elements
        assert grid.num_pixels == 20 * 8

    def test_channel_data_element_count_checked(self, tiny_probe):
        with pytest.raises(ValueError):
            ChannelData(
                samples=np.zeros((4, 5)), tx=PlaneWaveTx(), probe=tiny_probe
            )


class TestPointPhantom:
    def test_empty_point_list(self, tiny_grid):
        ph = make_point_phantom(tiny_grid, [])
        assert np.all(ph.trf == 0.0)
        assert ph.annotations == []

    def test_single_point_on_node(self, tiny_grid):
        z = tiny_grid.z_positions[5]
        x = tiny_grid.x_positions[3]
        ph = make_point_phantom(tiny_grid, [(z, x)], amplitude=1.0)
        nz_idx = np.nonzero(ph.trf)
        assert len(nz_idx[0]) == 1
        assert ph.trf[5, 3] == 1.0
        assert ph.annotations[0].iz == 5 and ph.annotations[0].ix == 3

    def test_coincident_points_accumulate(self, tiny_grid):
        # two sub-pixel-distinct points snapping to one node sum their
        # amplitudes: contributions are impulses, so superposition applies
        z = tiny_grid.z_positions[4]
        x = tiny_grid.x_positions[4]
        ph = make_point_phantom(
            tiny_grid, [(z, x), (z + 0.2 * tiny_grid.dz, x)], amplitude=1.0
        )
        assert np.count_nonzero(ph.trf) == 1
        assert ph.trf[4, 4] == pytest.approx(2.0)

    def test_point_outside_grid_rejected(self, tiny_grid):
        bad_z = tiny_grid.z_positions[-1] + 10 * tiny_grid.dz
        with pytest.raises(ValueError, match="outside"):
            make_point_phantom(tiny_grid, [(bad_z, 0.0)])


class TestCystPhantom:
    def test_radius_covering_grid_gives_zero_map(self, tiny_grid):
        center = (tiny_grid.z_positions[8], 0.0)
        ph = make_cyst_phantom(tiny_grid, center, radius=1.0, seed=0)
        assert np.all(ph.trf == 0.0)

    def test_same_seed_bit_identical(self, tiny_grid):
        center = (tiny_grid.z_positions[8], 0.0)
        a = make_cyst_phantom(tiny_grid, center, radius=0.5e-3, seed=42)
        b = make_cyst_phantom(tiny_grid, center, radius=0.5e-3, seed=42)
        assert np.array_equal(a.trf, b.trf)

    def test_nonpositive_radius_rejected(self, tiny_grid):
        with pytest.raises(ValueError):
            make_cyst_phantom(tiny_grid, (2.2e-3, 0.0), radius=0.0, seed=0)

    def test_zero_fraction_matches_disc_area(self):
        # 256x256 unit-spaced grid: the zeroed fraction approximates the
        # analytic disc area
        grid = ImagingGrid(nz=256, nx=256, dz=1.0, dx=1.0, z_origin=0.0)
        radius = 40.0
        center = (grid.z_positions[128], grid.x_positions[128])
        ph = make_cyst_phantom(grid, center, radius=radius, seed=1)
        frac = np.mean(ph.trf == 0.0)
        expected = np.pi * radius**2 / (256 * 256)
        assert frac == pytest.approx(expected, rel=0.02)

    def test_speckle_is_standard_normal(self, tiny_grid):
        grid = ImagingGrid(nz=128, nx=128, dz=1.0, dx=1.0, z_origin=0.0)
        ph = make_cyst_phantom(grid, (64.0, 0.0), radius=10.0, seed=3)
        outside = ph.trf[ph.trf != 0.0]
        assert abs(outside.mean()) < 0.05
        assert outside.std() == pytest.approx(1.0, rel=0.05)


class TestSimulateChannelData:
    def test_zero_trf_noiseless_gives_zero(self, tiny_instance, tiny_grid):
        ph = make_point_phantom(tiny_grid, [])
        ch = simulate_channel_data(ph, tiny_instance["model"], None, 0)
        assert np.all(ch.samples == 0.0)

    def test_unit_impulse_extracts_matrix_column(self, tiny_instance, tiny_grid):
        model = tiny_instance["model"]
        iz, ix = 8, 7
        z = tiny_grid.z_positions[iz]
        x = tiny_grid.x_positions[ix]
        ph = make_point_phantom(tiny_grid, [(z, x)], amplitude=1.0)
        ch = simulate_channel_data(ph, model, None, 0)
        col = model.matrix.toarray()[:, ix * tiny_grid.nz + iz]
        m = tiny_instance["num_samples"]
        assert np.array_equal(ch.samples, col.reshape((m, -1), order="F"))

    def test_snr_zero_powers_match(self, tiny_probe, tiny_tx):
        # 0 dB: noise power should empirically match signal power; use an
        # instance with enough samples that the empirical variance is tight
        from dataclasses import replace

        from pwrecon import (
            ApodizationSpec,
            Phantom,
            build_system_matrix,
            suggest_time_window,
        )

        probe = replace(tiny_probe, num_elements=32)
        grid = ImagingGrid.for_probe(probe, nz=64, nx=32, z_origin=2e-3)
        t0, num = suggest_time_window(probe, grid, tiny_tx)
        probe = replace(probe, t0_offset=t0)
        model = build_system_matrix(
            probe, grid, tiny_tx, num, ApodizationSpec(window="hanning", f_number=0.5)
        )
        rng = np.random.default_rng(7)
        ph = Phantom(trf=rng.standard_normal(grid.shape), grid=grid)
        clean = simulate_channel_data(ph, model, None, 0)
        noisy = simulate_channel_data(ph, model, 0.0, 99)
        p_sig = np.mean(clean.samples**2)
        p_noise = np.mean((noisy.samples - clean.samples) ** 2)
        assert p_noise == pytest.approx(p_sig, rel=0.05)

    def test_dimension_mismatch_rejected(self, tiny_instance):
        from pwrecon import Phantom

        other = ImagingGrid(nz=4, nx=4, dz=1.0, dx=1.0, z_origin=0.0)
        ph = Phantom(trf=np.zeros((4, 4)), grid=other)
        with pytest.raises(ValueError):
            simulate_channel_data(ph, tiny_instance["model"], None, 0)

    @pytest.mark.parametrize("nz, nx, z_origin", [(32, 8, 2.0e-3), (16, 16, 3.0e-3)])
    def test_grid_of_as_many_pixels_rejected(self, tiny_instance, tiny_probe, nz, nx, z_origin):
        # a reshaped or shifted grid of the model's pixel count is still
        # another grid: the matrix would read the phantom's pixels as its own
        from pwrecon import Phantom

        grid = ImagingGrid.for_probe(tiny_probe, nz=nz, nx=nx, z_origin=z_origin)
        assert grid.num_pixels == tiny_instance["model"].num_cols
        ph = Phantom(trf=np.ones(grid.shape), grid=grid)
        with pytest.raises(ValueError, match="phantom grid .* differs from the system matrix"):
            simulate_channel_data(ph, tiny_instance["model"], None, 0)

    def test_noiseless_linearity(self, tiny_instance, tiny_grid, rng):
        from pwrecon import Phantom

        model = tiny_instance["model"]
        x1 = rng.standard_normal(tiny_grid.shape)
        x2 = rng.standard_normal(tiny_grid.shape)
        a, b = 2.5, -1.25
        s1 = simulate_channel_data(Phantom(x1, tiny_grid), model, None, 0).samples
        s2 = simulate_channel_data(Phantom(x2, tiny_grid), model, None, 0).samples
        s12 = simulate_channel_data(
            Phantom(a * x1 + b * x2, tiny_grid), model, None, 0
        ).samples
        np.testing.assert_allclose(s12, a * s1 + b * s2, rtol=1e-10, atol=1e-12)

    def test_reproducibility_bit_identical(self, tiny_instance, tiny_grid):
        from pwrecon import Phantom

        model = tiny_instance["model"]
        trf = np.random.default_rng(5).standard_normal(tiny_grid.shape)
        ph = Phantom(trf, tiny_grid)
        a = simulate_channel_data(ph, model, 10.0, 123)
        b = simulate_channel_data(ph, model, 10.0, 123)
        assert np.array_equal(a.samples, b.samples)
