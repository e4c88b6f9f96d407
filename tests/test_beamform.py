"""Delay-and-sum, compounding, envelope detection, and log compression."""

import numpy as np
import pytest

from pwrecon import (
    ApodizationSpec,
    ChannelData,
    Phantom,
    RfImage,
    compound,
    das_beamform,
    envelope,
    log_compress,
    make_point_phantom,
    propagation_delay,
    simulate_channel_data,
)


class TestDasBeamform:
    def test_zero_channel_data_gives_zero_image(self, tiny_instance):
        inst = tiny_instance
        ch = ChannelData(
            samples=np.zeros((inst["num_samples"], 8)),
            tx=inst["tx"],
            probe=inst["probe"],
        )
        img = das_beamform(ch, inst["grid"], inst["apod"])
        assert np.all(img.data == 0.0)

    def test_impulse_round_trip_peaks_at_impulse(self, tiny_instance, tiny_grid):
        inst = tiny_instance
        ph = make_point_phantom(
            tiny_grid, [(tiny_grid.z_positions[9], tiny_grid.x_positions[8])]
        )
        ch = simulate_channel_data(ph, inst["model"], None, 0)
        img = das_beamform(ch, tiny_grid, inst["apod"])
        peak = np.unravel_index(np.argmax(np.abs(img.data)), img.data.shape)
        assert abs(peak[0] - 9) <= 1 and abs(peak[1] - 8) <= 1

    def test_single_element_reduction(self, tiny_instance, tiny_grid, rng):
        # with one active element and a rectangular window the image is that
        # element's linearly interpolated trace along its delay curve
        inst = tiny_instance
        probe = inst["probe"]
        n = 3
        samples = np.zeros((inst["num_samples"], 8))
        trace = rng.standard_normal(inst["num_samples"])
        samples[:, n] = trace
        ch = ChannelData(samples=samples, tx=inst["tx"], probe=probe)
        wide_open = ApodizationSpec(window="rectangular", f_number=1e-3)
        img = das_beamform(ch, tiny_grid, wide_open)
        fs = probe.sampling_freq
        elem_x = probe.element_positions[n]
        expected = np.zeros(tiny_grid.shape)
        for iz, z in enumerate(tiny_grid.z_positions):
            for ix, x in enumerate(tiny_grid.x_positions):
                tau = propagation_delay((z, x), elem_x, inst["tx"], probe.sound_speed)
                s = (tau - probe.t0_offset) * fs
                if 0 <= s <= inst["num_samples"] - 1:
                    i0 = int(np.floor(s))
                    frac = s - i0
                    v0 = trace[i0]
                    v1 = trace[min(i0 + 1, inst["num_samples"] - 1)]
                    expected[iz, ix] = (1 - frac) * v0 + frac * v1
        np.testing.assert_allclose(img.data, expected, rtol=1e-12, atol=1e-12)

    def test_linearity_in_channel_data(self, tiny_instance, tiny_grid, rng):
        inst = tiny_instance
        shape = (inst["num_samples"], 8)
        y1 = rng.standard_normal(shape)
        y2 = rng.standard_normal(shape)
        a, b = 1.7, -0.4

        def das(y):
            ch = ChannelData(samples=y, tx=inst["tx"], probe=inst["probe"])
            return das_beamform(ch, tiny_grid, inst["apod"]).data

        np.testing.assert_allclose(
            das(a * y1 + b * y2), a * das(y1) + b * das(y2), rtol=1e-10, atol=1e-12
        )


class TestCompound:
    def test_single_image_identity(self, tiny_grid, rng):
        img = RfImage(rng.standard_normal(tiny_grid.shape), tiny_grid)
        out = compound([img])
        assert np.array_equal(out.data, img.data)

    def test_cancellation(self, tiny_grid, rng):
        data = rng.standard_normal(tiny_grid.shape)
        out = compound(
            [RfImage(data, tiny_grid), RfImage(-data, tiny_grid)]
        )
        assert np.all(out.data == 0.0)

    def test_mean_idempotence(self, tiny_grid, rng):
        data = rng.standard_normal(tiny_grid.shape)
        out = compound([RfImage(data.copy(), tiny_grid) for _ in range(3)])
        np.testing.assert_allclose(out.data, data, rtol=1e-15)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            compound([])

    def test_grid_mismatch_rejected(self, tiny_grid, tiny_probe):
        from pwrecon import ImagingGrid

        other = ImagingGrid.for_probe(tiny_probe, nz=16, nx=16, z_origin=3e-3)
        with pytest.raises(ValueError):
            compound(
                [
                    RfImage(np.zeros(tiny_grid.shape), tiny_grid),
                    RfImage(np.zeros(other.shape), other),
                ]
            )


class TestEnvelope:
    def test_zero_in_zero_out(self, tiny_grid):
        out = envelope(RfImage(np.zeros(tiny_grid.shape), tiny_grid))
        assert np.all(out.data == 0.0)

    def test_pure_tone_column_amplitude(self, tiny_probe):
        from pwrecon import ImagingGrid

        grid = ImagingGrid.for_probe(tiny_probe, nz=256, nx=8, z_origin=0.0)
        fs = tiny_probe.sampling_freq
        f0 = tiny_probe.center_freq
        t = np.arange(grid.nz) / fs
        amp = 1.7
        data = np.tile(amp * np.cos(2 * np.pi * f0 * t)[:, None], (1, grid.nx))
        env = envelope(RfImage(data, grid))
        interior = env.data[16:-16, :]
        assert np.all(np.abs(interior - amp) < 0.02 * amp)

    def test_sign_invariance(self, tiny_grid, rng):
        data = rng.standard_normal(tiny_grid.shape)
        e1 = envelope(RfImage(data, tiny_grid))
        e2 = envelope(RfImage(-data, tiny_grid))
        np.testing.assert_allclose(e1.data, e2.data, rtol=1e-12, atol=1e-12)

    def test_bounds_rectified_tone_peaks(self, tiny_probe):
        # the envelope of a narrowband tone stays above its rectified peaks
        from pwrecon import ImagingGrid

        grid = ImagingGrid.for_probe(tiny_probe, nz=256, nx=8, z_origin=0.0)
        fs, f0 = tiny_probe.sampling_freq, tiny_probe.center_freq
        t = np.arange(grid.nz) / fs
        data = np.tile(np.cos(2 * np.pi * f0 * t)[:, None], (1, grid.nx))
        env = envelope(RfImage(data, grid))
        interior = slice(16, -16)
        assert np.all(env.data[interior] >= np.abs(data[interior]) * (1 - 0.02))

    @pytest.mark.parametrize("nz", [4, 5, 6, 7, 64, 97])
    def test_equals_the_scipy_signal_hilbert_oracle(self, tiny_probe, rng, nz):
        import scipy.signal

        from pwrecon import ImagingGrid

        grid = ImagingGrid.for_probe(tiny_probe, nz=nz, nx=5, z_origin=0.0)
        data = rng.standard_normal(grid.shape) * 10.0 ** rng.uniform(-3, 3, grid.nx)
        oracle = np.abs(scipy.signal.hilbert(data, axis=0))
        assert np.array_equal(envelope(RfImage(data, grid)).data, oracle)

    def test_needs_four_axial_samples(self, tiny_probe):
        from pwrecon import ImagingGrid

        grid = ImagingGrid.for_probe(tiny_probe, nz=3, nx=8, z_origin=0.0)
        with pytest.raises(ValueError):
            envelope(RfImage(np.zeros(grid.shape), grid))


class TestLogCompress:
    def test_constant_envelope_maps_to_zero_db(self, tiny_grid):
        env = RfImage(np.full(tiny_grid.shape, 3.3), tiny_grid)
        bm = log_compress(env, 60.0)
        assert np.all(bm.data == 0.0)

    def test_half_maximum_level(self, tiny_grid):
        data = np.full(tiny_grid.shape, 1.0)
        data[0, 0] = 2.0
        bm = log_compress(RfImage(data, tiny_grid), 60.0)
        assert bm.data[0, 0] == 0.0
        assert bm.data[1, 1] == pytest.approx(-6.020599913279624, abs=1e-9)

    def test_clamping_to_dynamic_range(self, tiny_grid):
        data = np.full(tiny_grid.shape, 1e-9)
        data[0, 0] = 1.0
        bm = log_compress(RfImage(data, tiny_grid), 60.0)
        assert bm.data[1, 1] == -60.0

    def test_all_zero_maps_to_floor(self, tiny_grid):
        bm = log_compress(RfImage(np.zeros(tiny_grid.shape), tiny_grid), 60.0)
        assert np.all(bm.data == -60.0)

    def test_output_range_exact(self, tiny_grid, rng):
        data = np.abs(rng.standard_normal(tiny_grid.shape)) ** 3
        bm = log_compress(RfImage(data, tiny_grid), 40.0)
        assert bm.data.max() == 0.0
        assert bm.data.min() >= -40.0

    def test_negative_envelope_rejected(self, tiny_grid):
        data = np.zeros(tiny_grid.shape)
        data[2, 2] = -1.0
        with pytest.raises(ValueError):
            log_compress(RfImage(data, tiny_grid), 60.0)


class TestExports:
    def test_png_bytes_deterministic(self, tiny_grid, rng, tmp_path):
        from pwrecon import export_png

        data = -60.0 * rng.random(tiny_grid.shape)
        data.flat[0] = 0.0
        from pwrecon import BModeImage

        bm = BModeImage(data=data, grid=tiny_grid, dynamic_range=60.0)
        p1, p2 = tmp_path / "a.png", tmp_path / "b.png"
        export_png(bm, p1)
        export_png(bm, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"
