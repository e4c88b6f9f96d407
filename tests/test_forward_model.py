"""System-matrix construction against a dense triple-loop oracle, delay and
apodization closed forms, adjoint consistency, caching, time windows."""

import json
import multiprocessing
import struct
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from pwrecon import (
    ApodizationSpec,
    ImagingGrid,
    PlaneWaveTx,
    ProbeGeometry,
    apodization_weight,
    build_system_matrix,
    load_matrix,
    propagation_delay,
    save_matrix,
    suggest_time_window,
)
from pwrecon.config import get_builtin_config, run_config_from_dict
from pwrecon.forward_model import WINDOWS, cached_system_matrix, element_geometry
from pwrecon.pipeline import build_model


def dense_oracle(probe, grid, tx, num_samples, apod):
    """Independent dense construction looping all (sample, element, pixel)."""
    fs = probe.sampling_freq
    t0 = probe.t0_offset
    c = probe.sound_speed
    gate = 1.0 / fs
    cos_a = np.cos(tx.angle)
    sin_a = np.sin(tx.angle)
    zs = grid.z_positions
    xs = grid.x_positions
    elems = probe.element_positions
    dense = np.zeros((num_samples * probe.num_elements, grid.num_pixels))
    for n, xe in enumerate(elems):
        for i in range(num_samples):
            t_i = i / fs + t0
            contributors = []
            for ix in range(grid.nx):
                for iz in range(grid.nz):
                    col = ix * grid.nz + iz
                    z, x = zs[iz], xs[ix]
                    tau = (z * cos_a + x * sin_a) / c + np.sqrt(
                        z**2 + (x - xe) ** 2
                    ) / c
                    dt = abs(t_i - tau)
                    if dt <= gate:
                        contributors.append((col, dt, z, x))
            if not contributors:
                continue
            t_max = max(dt for _, dt, _, _ in contributors)
            for col, dt, z, x in contributors:
                if len(contributors) == 1 or t_max == 0.0:
                    raw = 1.0
                else:
                    raw = 1.0 - dt / t_max
                half = z / (2.0 * apod.f_number)
                # an aperture that underflows to zero width is degenerate too
                if z <= 0 or half <= 0 or abs(x - xe) > half:
                    w = 0.0
                else:
                    d = (x - xe) / half
                    if apod.window == "hanning":
                        w = np.cos(np.pi * d / 2.0) ** 2
                    elif apod.window == "rectangular":
                        w = 1.0
                    elif apod.taper == 0.0 or abs(d) <= 1.0 - apod.taper:
                        w = 1.0  # tukey flat top
                    else:
                        a = apod.taper
                        w = 0.5 * (1.0 + np.cos(np.pi * (abs(d) - (1.0 - a)) / a))
                dense[n * num_samples + i, col] = raw * w
    return dense


class TestPropagationDelay:
    def test_on_axis_round_trip(self, tiny_tx):
        z = 10e-3
        tau = propagation_delay((z, 0.0), 0.0, tiny_tx, 1540.0)
        assert tau == pytest.approx(2 * z / 1540.0, rel=1e-14)

    def test_surface_pixel(self, tiny_tx):
        tau = propagation_delay((0.0, 4e-3), 1e-3, tiny_tx, 1540.0)
        assert tau == pytest.approx(abs(4e-3 - 1e-3) / 1540.0, rel=1e-14)

    def test_steered_closed_form(self):
        # independent evaluation of the two legs
        tx = PlaneWaveTx(angle=0.1)
        c = 1540.0
        z, x, xe = 20e-3, 5e-3, -5e-3
        expected_t = (z * np.cos(0.1) + x * np.sin(0.1)) / c
        expected_r = np.sqrt(z**2 + (x - xe) ** 2) / c
        tau = propagation_delay((z, x), xe, tx, c)
        assert tau == pytest.approx(expected_t + expected_r, rel=1e-14)
        # frozen from an independent evaluation of the two closed forms
        assert tau == pytest.approx(2.7766188418047113e-05, rel=1e-12)


class TestApodizationWeight:
    def test_element_above_pixel_peaks_at_one(self):
        for window in ("rectangular", "hanning", "tukey"):
            spec = ApodizationSpec(window=window, f_number=1.0)
            assert apodization_weight((10e-3, 2e-3), 2e-3, spec) == 1.0

    def test_outside_aperture_is_zero(self):
        spec = ApodizationSpec(window="hanning", f_number=1.0)
        z = 10e-3
        half = z / 2.0
        assert apodization_weight((z, 0.0), 1.5 * half, spec) == 0.0

    def test_hanning_half_offset(self):
        spec = ApodizationSpec(window="hanning", f_number=0.5)
        z = 10e-3
        half = z / (2 * spec.f_number)
        w = apodization_weight((z, 0.0), 0.5 * half, spec)
        assert w == pytest.approx(0.5, rel=1e-12)

    def test_degenerate_depth_is_zero(self):
        spec = ApodizationSpec(window="hanning", f_number=0.5)
        assert apodization_weight((0.0, 0.0), 0.0, spec) == 0.0

    def test_tukey_flat_region_and_rolloff(self):
        spec = ApodizationSpec(window="tukey", f_number=1.0, taper=0.25)
        z = 10e-3
        half = z / 2.0
        assert apodization_weight((z, 0.0), 0.5 * half, spec) == 1.0
        # midpoint of the taper ramp
        d = 1.0 - spec.taper / 2.0
        w = apodization_weight((z, 0.0), d * half, spec)
        assert w == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize(
        "z, spec",
        [(5e-324, ApodizationSpec(window=w)) for w in WINDOWS]
        + [(1e-4, ApodizationSpec(window="tukey", taper=1e-310))],
        ids=["denormal-depth-%s" % w for w in WINDOWS] + ["denormal-taper"],
    )
    def test_denormal_inputs_warn_nothing(self, z, spec):
        # the element at x = 0 sees the pixel above it at full weight and the
        # one at 3e-4 m, outside the aperture, not at all
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = apodization_weight((np.full(2, z), np.array([0.0, 3e-4])), 0.0, spec)
        assert w.tolist() == [1.0, 0.0]


class TestBuildAgainstDenseOracle:
    def test_matches_dense_triple_loop_exactly(self, tiny_instance):
        inst = tiny_instance
        dense = dense_oracle(
            inst["probe"], inst["grid"], inst["tx"], inst["num_samples"], inst["apod"]
        )
        sparse = inst["model"].matrix.toarray()
        assert sparse.shape == dense.shape
        assert np.array_equal(sparse, dense)

    def test_exact_delay_pixel_gets_weight_one(self, tiny_instance):
        # every stored raw weight is in (0, 1]; the best-aligned pixel of a
        # multi-contributor row reaches the top of the range
        mat = tiny_instance["model"].matrix
        assert mat.data.max() <= 1.0 + 1e-15
        assert mat.data.min() > 0.0

    def test_gate_condition_holds_for_every_entry(self, tiny_instance):
        inst = tiny_instance
        probe, grid, tx = inst["probe"], inst["grid"], inst["tx"]
        mat = inst["model"].matrix.tocoo()
        fs = probe.sampling_freq
        m_count = inst["num_samples"]
        zs, xs = grid.z_positions, grid.x_positions
        for r, c in zip(mat.row, mat.col):
            n, i = divmod(r, m_count)
            iz = c % grid.nz
            ix = c // grid.nz
            tau = propagation_delay(
                (zs[iz], xs[ix]), probe.element_positions[n], tx, probe.sound_speed
            )
            t_i = i / fs + probe.t0_offset
            assert abs(t_i - tau) <= 1.0 / fs

    def test_determinism(self, tiny_instance):
        inst = tiny_instance
        again = build_system_matrix(
            inst["probe"], inst["grid"], inst["tx"], inst["num_samples"], inst["apod"]
        )
        a, b = inst["model"].matrix, again.matrix
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)
        assert inst["model"].fingerprint == again.fingerprint

    def test_sparsity_fraction(self, tiny_instance):
        mat = tiny_instance["model"].matrix
        occupied = mat.getnnz(axis=1)
        frac = occupied[occupied > 0] / mat.shape[1]
        assert frac.max() < 0.3  # tiny grid; desk-scale density is checked below

    def test_rejects_mismatched_grid_spacing(self, tiny_probe, tiny_tx, tiny_apod):
        from pwrecon import ImagingGrid

        bad = ImagingGrid(nz=8, nx=8, dz=1e-4, dx=tiny_probe.pitch, z_origin=1e-3)
        with pytest.raises(ValueError):
            build_system_matrix(tiny_probe, bad, tiny_tx, 16, tiny_apod)


class TestProducts:
    def test_forward_zero(self, tiny_instance):
        model = tiny_instance["model"]
        out = model.apply(np.zeros(model.num_cols))
        assert np.all(out == 0.0)

    def test_forward_basis_vector_extracts_column(self, tiny_instance):
        model = tiny_instance["model"]
        j = 133
        e = np.zeros(model.num_cols)
        e[j] = 1.0
        col = model.apply(e)
        assert np.array_equal(col, model.matrix.toarray()[:, j])

    def test_adjoint_basis_vector_extracts_row(self, tiny_instance):
        model = tiny_instance["model"]
        r = model.num_rows // 2
        e = np.zeros(model.num_rows)
        e[r] = 1.0
        row = model.apply_adjoint(e)
        assert np.array_equal(row, model.matrix.toarray()[r, :])

    def test_forward_matches_dense_product(self, tiny_instance, rng):
        model = tiny_instance["model"]
        dense = model.matrix.toarray()
        for _ in range(5):
            x = rng.standard_normal(model.num_cols)
            np.testing.assert_allclose(
                model.apply(x), dense @ x, rtol=1e-12, atol=1e-14
            )

    def test_adjoint_matches_dense_product(self, tiny_instance, rng):
        model = tiny_instance["model"]
        dense = model.matrix.toarray()
        for _ in range(5):
            y = rng.standard_normal(model.num_rows)
            np.testing.assert_allclose(
                model.apply_adjoint(y), dense.T @ y, rtol=1e-12, atol=1e-14
            )

    def test_adjoint_inner_product_identity(self, tiny_instance, rng):
        model = tiny_instance["model"]
        for _ in range(100):
            x = rng.standard_normal(model.num_cols)
            y = rng.standard_normal(model.num_rows)
            lhs = model.apply(x) @ y
            rhs = x @ model.apply_adjoint(y)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_dimension_mismatch_rejected(self, tiny_instance):
        model = tiny_instance["model"]
        with pytest.raises(ValueError):
            model.apply(np.zeros(model.num_cols + 1))
        with pytest.raises(ValueError):
            model.apply_adjoint(np.zeros(model.num_rows - 1))


def _two_block_adjoint(model, y):
    """The adjoint as the blocks define it, on the calling thread: the top
    block's part plus the bottom block's."""
    (top, top_t), (_, bottom_t) = model._blocks
    cut = top.shape[0]
    return top_t @ y[:cut] + bottom_t @ y[cut:]


class TestRowBlocks:
    """Each product splits into two fixed row blocks, the second computed on
    the product worker thread."""

    def test_blocks_are_views_built_once(self, tiny_instance):
        model = replace(tiny_instance["model"])  # a copy with no blocks built yet
        blocks = model._blocks
        assert model._blocks is blocks
        mat = model.matrix
        (top, top_t), (bottom, bottom_t) = blocks
        assert top.shape[0] + bottom.shape[0] == model.num_rows
        assert top.nnz >= model.nnz // 2 >= top.nnz - np.diff(mat.indptr).max()
        for block in (top, top_t, bottom, bottom_t):
            assert np.shares_memory(block.data, mat.data)
            assert np.shares_memory(block.indices, mat.indices)
        for block, transpose in blocks:
            for part in ("data", "indices", "indptr"):
                assert getattr(block, part) is getattr(transpose, part)

    def test_forward_equals_the_csr_product(self, tiny_instance, rng):
        model = tiny_instance["model"]
        for _ in range(5):
            x = rng.standard_normal(model.num_cols)
            assert np.array_equal(model.apply(x), model.matrix @ x)

    def test_adjoint_equals_the_two_block_sum(self, tiny_instance, rng):
        model = tiny_instance["model"]
        for _ in range(5):
            y = rng.standard_normal(model.num_rows)
            out = model.apply_adjoint(y)
            assert np.array_equal(out, _two_block_adjoint(model, y))
            serial = model.matrix.T @ y
            assert np.max(np.abs(out - serial)) <= 1e-14 * np.max(np.abs(serial))

    @pytest.mark.parametrize("row", [0, 5, 63])
    def test_all_entries_in_one_row(self, tiny_instance, rng, row):
        # every entry lands in the top block: the bottom holds none, or no
        # row at all when the entries sit in the last row
        model = tiny_instance["model"]
        dense = np.zeros((64, model.num_cols))
        dense[row] = rng.standard_normal(model.num_cols)
        model = replace(model, matrix=sp.csr_matrix(dense))
        (top, _), (bottom, _) = model._blocks
        assert (top.shape[0], bottom.nnz) == (row + 1, 0)
        x, y = rng.standard_normal(model.num_cols), rng.standard_normal(64)
        assert np.array_equal(model.apply(x), model.matrix @ x)
        assert np.array_equal(model.apply_adjoint(y), y[row] * dense[row])

    def test_matrix_without_entries_has_an_empty_top_block(self, tiny_probe, tiny_tx):
        # a one-pixel grid at depth 0 lies outside every aperture
        grid = ImagingGrid.for_probe(tiny_probe, nz=1, nx=1, z_origin=0.0)
        t0, num = suggest_time_window(tiny_probe, grid, tiny_tx)
        probe = replace(tiny_probe, t0_offset=t0)
        model = build_system_matrix(probe, grid, tiny_tx, num, ApodizationSpec())
        (top, _), (bottom, _) = model._blocks
        assert (model.nnz, top.shape[0], bottom.shape[0]) == (0, 0, model.num_rows)
        assert np.array_equal(model.apply(np.ones(1)), np.zeros(model.num_rows))
        assert np.array_equal(model.apply_adjoint(np.ones(model.num_rows)), np.zeros(1))

    def test_steered_transmit(self, rng):
        cfg = next(_steered_configs())
        probe, num = _derived_window(cfg)
        model = build_system_matrix(probe, cfg.grid, cfg.tx(), num, cfg.apodization)
        x, y = rng.standard_normal(model.num_cols), rng.standard_normal(model.num_rows)
        assert np.array_equal(model.apply(x), model.matrix @ x)
        out = model.apply_adjoint(y)
        assert np.array_equal(out, _two_block_adjoint(model, y))
        np.testing.assert_allclose(out, model.matrix.T @ y, rtol=0, atol=1e-14 * np.abs(out).max())

    def test_threads_sharing_one_matrix_get_the_same_bytes(self, rng):
        model = build_model(run_config_from_dict(get_builtin_config("desk_point")))
        xs = rng.standard_normal((8, model.num_cols))
        ys = rng.standard_normal((8, model.num_rows))

        def products(_):
            return [model.apply(x).tobytes() + model.apply_adjoint(y).tobytes()
                    for x, y in zip(xs, ys)]

        alone = products(None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(products, range(4), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert results == [alone] * 4

    def test_forked_child_gets_its_own_worker(self, tiny_instance, rng):
        # the child inherits the pool's record of a worker, not its thread
        model = tiny_instance["model"]
        x = rng.standard_normal(model.num_cols)
        parent = model.apply(x)
        receive, send = multiprocessing.Pipe(duplex=False)

        def child():
            send.send_bytes(model.apply(x).tobytes())

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        try:
            assert receive.poll(30), "the forked child's product did not finish"
            assert receive.recv_bytes() == parent.tobytes()
        finally:
            proc.join(5)
            if proc.is_alive():
                proc.kill()
        assert proc.exitcode == 0


class TestCacheFile:
    def test_round_trip(self, tiny_instance, tmp_path):
        model = tiny_instance["model"]
        path = tmp_path / "mat.usjm"
        save_matrix(model, path)
        loaded = load_matrix(path)
        assert loaded.fingerprint == model.fingerprint
        assert np.array_equal(loaded.matrix.indptr, model.matrix.indptr)
        assert np.array_equal(loaded.matrix.indices, model.matrix.indices)
        assert np.array_equal(loaded.matrix.data, model.matrix.data)
        assert loaded.probe == model.probe
        assert loaded.grid == model.grid

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.usjm"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_matrix(path)

    def test_truncated(self, tiny_instance, tmp_path):
        path = tmp_path / "mat.usjm"
        save_matrix(tiny_instance["model"], path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_matrix(path)

    def test_cached_build_uses_disk(self, tiny_instance, tmp_path, monkeypatch):
        inst = tiny_instance
        monkeypatch.setenv("PWRECON_CACHE_DIR", str(tmp_path))
        first = cached_system_matrix(
            inst["probe"],
            inst["grid"],
            inst["tx"],
            inst["num_samples"],
            inst["apod"],
        )
        files = list(tmp_path.glob("sysmat_*.usjd"))
        assert len(files) == 1
        second = cached_system_matrix(
            inst["probe"],
            inst["grid"],
            inst["tx"],
            inst["num_samples"],
            inst["apod"],
        )
        assert np.array_equal(first.matrix.data, second.matrix.data)

    def test_corrupt_payload_count_rebuilds(self, tiny_instance, tmp_path, monkeypatch):
        inst = tiny_instance
        monkeypatch.setenv("PWRECON_CACHE_DIR", str(tmp_path))
        args = (
            inst["probe"], inst["grid"], inst["tx"], inst["num_samples"], inst["apod"]
        )
        cached_system_matrix(*args)
        (path,) = tmp_path.glob("sysmat_*.usjd")
        blob = path.read_bytes()
        # the first array's length field follows the metadata JSON
        text = blob.decode("latin-1")
        _, count_at = json.JSONDecoder().raw_decode(text, text.index('{"'))
        path.write_bytes(
            blob[:count_at] + struct.pack("<Q", 2**62) + blob[count_at + 8 :]
        )
        rebuilt = cached_system_matrix(*args)
        assert rebuilt.nnz == inst["model"].nnz
        assert load_matrix(path).nnz == inst["model"].nnz


def _steered_configs():
    """desk_point at single steered angles, on its own grid and on one that
    starts at 0.5 mm, where the wave reaches shallow pixels before t = 0."""
    for z_origin in (7.0e-3, 0.5e-3):
        for angle in (-0.3, 0.3):
            doc = get_builtin_config("desk_point")
            doc["tx_angles"] = [angle]
            doc["grid"]["z_origin"] = z_origin
            yield run_config_from_dict(doc)


def _derived_window(cfg):
    """The probe with the window start a simulation derives, and its length."""
    t0, num = suggest_time_window(cfg.probe, cfg.grid, cfg.tx())
    return replace(cfg.probe, t0_offset=t0), num


class TestSteeredTimeWindow:
    def test_window_covers_every_angle(self):
        for cfg in _steered_configs():
            probe, num = _derived_window(cfg)
            model = build_model(cfg)
            assert model.probe == probe and model.num_time_samples == num
            # every pixel reaches some element within the window
            assert np.all(np.diff(model.matrix.tocsc().indptr) > 0), cfg.tx_angles

    def test_window_holds_every_pixel_element_delay(self):
        for cfg in _steered_configs():
            probe, num = _derived_window(cfg)
            z = np.repeat(cfg.grid.z_positions, cfg.grid.nx)
            x = np.tile(cfg.grid.x_positions, cfg.grid.nz)
            tau = propagation_delay(
                (z[:, None], x[:, None]),
                probe.element_positions[None, :],
                cfg.tx(),
                probe.sound_speed,
            )
            where = (cfg.tx_angles, cfg.grid.z_origin)
            assert tau.min() >= probe.t0_offset, where
            assert tau.max() <= probe.t0_offset + (num - 1) / probe.sampling_freq, where
            if cfg.grid.z_origin < 1e-3:
                assert probe.t0_offset < 0.0, where


class TestElementGeometry:
    def test_kernel_matches_closed_forms_in_column_order(self, tiny_instance):
        inst = tiny_instance
        probe, grid, tx = inst["probe"], inst["grid"], PlaneWaveTx(angle=0.2)
        zz, xx = np.meshgrid(grid.z_positions, grid.x_positions, indexing="ij")
        pixel = (zz.reshape(-1, order="F"), xx.reshape(-1, order="F"))
        every = list(element_geometry(probe, grid, tx, inst["apod"]))
        aperture = list(element_geometry(probe, grid, tx, inst["apod"], aperture_only=True))
        assert len(every) == len(aperture) == probe.num_elements
        for elem_x, (columns, tau, weight), (pixels, tau_in, weight_in) in zip(
            probe.element_positions, every, aperture
        ):
            np.testing.assert_array_equal(columns, np.arange(grid.num_pixels))
            np.testing.assert_array_equal(
                tau, propagation_delay(pixel, elem_x, tx, probe.sound_speed)
            )
            np.testing.assert_array_equal(
                weight, apodization_weight(pixel, elem_x, inst["apod"])
            )
            # a hanning window is positive throughout the aperture
            np.testing.assert_array_equal(pixels, np.flatnonzero(weight > 0.0))
            np.testing.assert_array_equal(tau_in, tau[pixels])
            np.testing.assert_array_equal(weight_in, weight[pixels])


def _assert_canonical(mat):
    """Sorted, duplicate-free columns per row, int32 indices, no stored zeros."""
    assert mat.indptr.dtype == np.int32
    assert mat.indices.dtype == np.int32
    rows = np.repeat(np.arange(mat.shape[0], dtype=np.int64), np.diff(mat.indptr))
    assert np.all(np.diff(rows * mat.shape[1] + mat.indices) > 0)
    assert np.all(mat.data != 0.0)


class TestCsrAssembly:
    def test_peak_memory_within_one_and_a_half_csr(self):
        # the entries are written into the CSR arrays as they grow; the
        # traced peak measures 1.28-1.30x the CSR on desk_point
        cfg = run_config_from_dict(get_builtin_config("desk_point"))
        probe, num = _derived_window(cfg)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            mat = build_system_matrix(
                probe, cfg.grid, cfg.tx(), num, cfg.apodization
            ).matrix
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        csr_bytes = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
        assert peak <= 1.5 * csr_bytes

    def test_element_that_sees_no_pixel(self, tiny_probe, tiny_tx):
        # two columns under the probe centre with a narrow aperture: the end
        # elements fall outside every pixel's aperture
        grid = ImagingGrid.for_probe(tiny_probe, nz=6, nx=2, z_origin=1.0e-3)
        apod = ApodizationSpec(window="rectangular", f_number=2.0)
        t0, num = suggest_time_window(tiny_probe, grid, tiny_tx)
        probe = replace(tiny_probe, t0_offset=t0)
        mat = build_system_matrix(probe, grid, tiny_tx, num, apod).matrix
        per_element = mat.getnnz(axis=1).reshape(probe.num_elements, num).sum(axis=1)
        assert per_element[0] == 0 and per_element[-1] == 0
        assert per_element.sum() > 0
        assert np.array_equal(mat.toarray(), dense_oracle(probe, grid, tiny_tx, num, apod))
        _assert_canonical(mat)

    @pytest.mark.parametrize("fs", [20e6, 25e6])
    def test_delays_on_sample_times_match_the_dense_oracle(self, fs):
        # t0 = 0, pixel depths on multiples of dz and pixels under elements:
        # delays fall on sample times up to rounding, where a pixel can
        # also be within the gate of the sample before or after the two
        # around its delay
        probe = ProbeGeometry(
            num_elements=8, pitch=4 * 1540.0 / (2 * fs), sound_speed=1540.0,
            sampling_freq=fs, center_freq=fs / 4,
        )
        grid = ImagingGrid.for_probe(probe, nz=12, nx=8, z_origin=0.0)
        tx, apod = PlaneWaveTx(angle=0.0), ApodizationSpec(window="rectangular")
        s = np.concatenate([tau * fs for _, tau, _ in element_geometry(probe, grid, tx, apod)])
        assert np.count_nonzero(np.abs(s - np.round(s)) <= 1e-9) > 0
        mat = build_system_matrix(probe, grid, tx, 200, apod).matrix
        assert np.array_equal(mat.toarray(), dense_oracle(probe, grid, tx, 200, apod))
        _assert_canonical(mat)

    def test_matrix_without_entries_keeps_shape(self, tiny_probe, tiny_grid, tiny_tx):
        # a window that closes before the first echo arrives
        model = build_system_matrix(tiny_probe, tiny_grid, tiny_tx, 3, ApodizationSpec())
        mat = model.matrix
        assert mat.shape == (3 * tiny_probe.num_elements, tiny_grid.num_pixels)
        assert mat.nnz == 0
        assert np.array_equal(mat.indptr, np.zeros(mat.shape[0] + 1))
        _assert_canonical(mat)
        assert np.array_equal(model.apply(np.ones(mat.shape[1])), np.zeros(mat.shape[0]))


def _small_geometry(num_elements, nx, nz, z_origin, angle, apod):
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
    probe = replace(probe, t0_offset=t0)
    return probe, grid, tx, num, build_system_matrix(probe, grid, tx, num, apod)


_geometries = st.builds(
    _small_geometry,
    num_elements=st.integers(2, 12),
    nx=st.integers(1, 14),
    nz=st.integers(1, 12),
    z_origin=st.floats(0.0, 6.0e-3),
    angle=st.floats(-0.4, 0.4),
    apod=st.builds(
        ApodizationSpec,
        window=st.sampled_from(WINDOWS),
        f_number=st.floats(0.25, 2.0),
        taper=st.floats(0.0, 1.0),
    ),
)


class TestGeometryProperties:
    @settings(max_examples=25, deadline=None)
    @given(geometry=_geometries)
    def test_window_covers_every_delay(self, geometry):
        probe, grid, tx, num, _ = geometry
        z = np.tile(grid.z_positions, grid.nx)
        x = np.repeat(grid.x_positions, grid.nz)
        tau = propagation_delay(
            (z[:, None], x[:, None]), probe.element_positions, tx, probe.sound_speed
        )
        assert tau.min() >= probe.t0_offset
        assert tau.max() <= probe.t0_offset + (num - 1) / probe.sampling_freq

    @settings(max_examples=25, deadline=None)
    @given(geometry=_geometries, seed=st.integers(0, 2**16))
    def test_adjoint_identity(self, geometry, seed):
        model = geometry[-1]
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(model.num_cols)
        y = rng.standard_normal(model.num_rows)
        lhs = model.apply(x) @ y
        rhs = x @ model.apply_adjoint(y)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(geometry=_geometries)
    def test_build_matches_dense_oracle_and_is_canonical(self, geometry):
        probe, grid, tx, num, model = geometry
        mat = model.matrix.toarray()
        dense = dense_oracle(probe, grid, tx, num, model.apodization)
        # the oracle's scalar arithmetic can round a delay or a window cosine
        # an ulp away from numpy's vectorised loops, and the mismatch t - tau
        # (about 1e3 times smaller than t) scales that up; weights are <= 1
        assert np.array_equal(mat != 0.0, dense != 0.0)
        np.testing.assert_allclose(mat, dense, rtol=0.0, atol=1e-12)
        _assert_canonical(model.matrix)

    @settings(max_examples=25, deadline=None)
    @given(geometry=_geometries)
    def test_stored_entries_lie_within_one_sample(self, geometry):
        probe, grid, tx, num, model = geometry
        coo = model.matrix.tocoo()
        element, sample = np.divmod(coo.row, num)
        z = np.tile(grid.z_positions, grid.nx)[coo.col]
        x = np.repeat(grid.x_positions, grid.nz)[coo.col]
        tau = propagation_delay(
            (z, x), probe.element_positions[element], tx, probe.sound_speed
        )
        t = sample / probe.sampling_freq + probe.t0_offset
        assert np.all(np.abs(t - tau) <= 1.0 / probe.sampling_freq)
