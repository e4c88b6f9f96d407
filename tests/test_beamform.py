"""Delay-and-sum, compounding, envelope detection, and log compression."""

import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwrecon import (
    ApodizationSpec,
    ChannelData,
    ImagingGrid,
    Phantom,
    PlaneWaveTx,
    ProbeGeometry,
    RfImage,
    apodization_weight,
    compound,
    das_beamform,
    envelope,
    log_compress,
    make_point_phantom,
    propagation_delay,
    simulate_channel_data,
    suggest_time_window,
)
from pwrecon import pipeline
from pwrecon.config import get_builtin_config, run_config_from_dict
from pwrecon.forward_model import WINDOWS, element_geometry


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


def _all_pixel_das(ch, grid, apod):
    """Delay-and-sum over every (pixel, element) pair, element by element:
    the oracle the aperture-only sum must equal byte for byte."""
    probe = ch.probe
    fs, t0, m_count = probe.sampling_freq, probe.t0_offset, ch.num_samples
    pixel = (np.tile(grid.z_positions, grid.nx), np.repeat(grid.x_positions, grid.nz))
    acc = np.zeros(grid.num_pixels)
    for n, elem_x in enumerate(probe.element_positions):
        tau = propagation_delay(pixel, elem_x, ch.tx, probe.sound_speed)
        w = apodization_weight(pixel, elem_x, apod)
        s = (tau - t0) * fs
        valid = (s >= 0.0) & (s <= m_count - 1)
        i0 = np.clip(np.floor(s).astype(np.int64), 0, m_count - 1)
        i1 = np.clip(i0 + 1, 0, m_count - 1)
        frac = s - i0
        trace = ch.samples[:, n]
        vals = (1.0 - frac) * trace[i0] + frac * trace[i1]
        acc += np.where(valid, w * vals, 0.0)
    return acc.reshape(grid.shape, order="F")


def _das_case(num_elements, nz, nx, z_origin, angle, late=0, length=None, seed=0):
    """Random channel data over a window opened ``late`` samples after the
    one that holds every delay, ``length`` samples long (all of it if None),
    and the grid to beamform them on."""
    probe = ProbeGeometry(
        num_elements=num_elements,
        pitch=0.3e-3,
        sound_speed=1540.0,
        sampling_freq=20.832e6,
        center_freq=5.208e6,
    )
    grid = ImagingGrid.for_probe(probe, nz=nz, nx=nx, z_origin=z_origin)
    tx = PlaneWaveTx(angle=angle)
    t0, num = suggest_time_window(probe, grid, tx)
    probe = replace(probe, t0_offset=t0 + late / probe.sampling_freq)
    samples = np.random.default_rng(seed).standard_normal((length or num, num_elements))
    return ChannelData(samples=samples, tx=tx, probe=probe), grid


def _assert_equals_the_oracle(ch, grid, apod):
    image = das_beamform(ch, grid, apod).data
    assert image.tobytes() == _all_pixel_das(ch, grid, apod).tobytes()


class TestDasAgainstTheAllPixelOracle:
    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("angle", [-0.3, 0.0, 0.25])
    def test_steered_transmits_and_every_window(self, angle, window):
        ch, grid = _das_case(16, 24, 16, 2.0e-3, angle)
        _assert_equals_the_oracle(ch, grid, ApodizationSpec(window=window, f_number=0.7))

    def test_end_elements_whose_aperture_holds_no_column(self):
        ch, grid = _das_case(32, 8, 4, 1.0e-3, 0.1)
        apod = ApodizationSpec(window="tukey", f_number=3.0)
        geometry = element_geometry(ch.probe, grid, ch.tx, apod, aperture_only=True)
        assert sum(span.start == span.stop for span, _, _ in geometry) >= 2
        _assert_equals_the_oracle(ch, grid, apod)

    def test_rows_at_and_above_the_surface(self):
        ch, grid = _das_case(12, 10, 12, -4 * 1540.0 / (2 * 20.832e6), -0.2)
        assert np.count_nonzero(grid.z_positions <= 0.0) == 5
        _assert_equals_the_oracle(ch, grid, ApodizationSpec(window="hanning"))

    def test_window_that_clips_delays(self):
        ch, grid = _das_case(16, 24, 16, 2.0e-3, 0.15, late=20, length=30)
        full, _ = _das_case(16, 24, 16, 2.0e-3, 0.15)
        assert full.num_samples > 20 + 30  # delays lie on both sides of the window
        _assert_equals_the_oracle(ch, grid, ApodizationSpec(window="hanning"))

    def test_odd_axes(self):
        ch, grid = _das_case(9, 17, 9, 1.5e-3, 0.05)
        _assert_equals_the_oracle(ch, grid, ApodizationSpec(window="rectangular", f_number=1.3))

    @settings(max_examples=40, deadline=None)
    @given(
        num_elements=st.integers(2, 12),
        nz=st.integers(1, 12),
        nx=st.integers(1, 14),
        z_origin=st.floats(-1.0e-3, 6.0e-3),
        angle=st.floats(-0.4, 0.4),
        late=st.integers(-5, 30),
        length=st.one_of(st.none(), st.integers(1, 40)),
        apod=st.builds(
            ApodizationSpec,
            window=st.sampled_from(WINDOWS),
            f_number=st.floats(0.25, 4.0),
            taper=st.floats(0.0, 1.0),
        ),
        seed=st.integers(0, 2**16),
    )
    def test_random_geometries(
        self, num_elements, nz, nx, z_origin, angle, late, length, apod, seed
    ):
        ch, grid = _das_case(num_elements, nz, nx, z_origin, angle, late, length, seed)
        _assert_equals_the_oracle(ch, grid, apod)


class TestSpeckleDasDigests:
    """The delay-and-sum image of desk_cyst's speckle, pinned byte for byte.
    Its channel data are signed, so a sum that a +-0 term outside an
    element's aperture moved, or a term dropped from it, would show here."""

    @pytest.mark.parametrize(
        "nz, nx, sha1", [(96, 64, "977954b678aa"), (192, 128, "8e6a9e4db18e")]
    )
    def test_desk_cyst(self, nz, nx, sha1):
        doc = get_builtin_config("desk_cyst")
        assert doc["phantom"]["seed"] == 7
        doc["grid"]["nz"], doc["grid"]["nx"] = nz, nx
        cfg = run_config_from_dict(doc)
        model = pipeline.build_model(cfg)
        ch = pipeline.simulate(cfg, pipeline.make_phantom(cfg), model)
        image = pipeline.reference_das(model, ch).data
        assert hashlib.sha1(image.tobytes()).hexdigest()[:12] == sha1


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
        message = "image 1 grid %s differs from image 0 grid %s" % (other, tiny_grid)
        with pytest.raises(ValueError, match=re.escape(message)):
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
