"""Kernel construction, FFT circular convolution vs spatial oracle, and the
closed-form quadratic image update vs a dense circulant solve."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwrecon import Psf, conv_apply, deconv_update, make_parametric_psf, pipeline
from pwrecon.config import get_builtin_config, run_config_from_dict
from pwrecon.psf import half_width_within


def circular_conv_oracle(kernel, image):
    """Direct spatial-domain circular convolution with a centered kernel."""
    nz, nx = image.shape
    ka, kb = kernel.shape
    ca, cb = ka // 2, kb // 2
    out = np.zeros_like(image)
    for i in range(nz):
        for j in range(nx):
            acc = 0.0
            for a in range(ka):
                for b in range(kb):
                    ii = (i - (a - ca)) % nz
                    jj = (j - (b - cb)) % nx
                    acc += kernel[a, b] * image[ii, jj]
            out[i, j] = acc
    return out


def dense_circulant(kernel, shape):
    """Explicit dense matrix of the circular convolution operator."""
    nz, nx = shape
    ka, kb = kernel.shape
    ca, cb = ka // 2, kb // 2
    emb = np.zeros(shape)
    emb[:ka, :kb] = kernel
    emb = np.roll(emb, (-ca, -cb), axis=(0, 1))
    n = nz * nx
    mat = np.zeros((n, n))
    for col in range(n):
        iz, ix = col % nz, col // nz
        rolled = np.roll(emb, (iz, ix), axis=(0, 1))
        mat[:, col] = rolled.reshape(-1, order="F")
    return mat


class TestParametricPsf:
    def test_center_is_one(self):
        psf = make_parametric_psf(5.208e6, 20.832e6, 0.67, 1.0)
        ka, kb = psf.kernel.shape
        assert ka % 2 == 1 and kb % 2 == 1
        assert psf.kernel[ka // 2, kb // 2] == 1.0
        assert np.max(np.abs(psf.kernel)) == 1.0

    def test_axial_zero_crossings_spacing(self):
        f0, fs = 5.208e6, 20.832e6
        psf = make_parametric_psf(f0, fs, 0.67, 1.0)
        ka = psf.kernel.shape[0]
        center = psf.kernel[:, psf.kernel.shape[1] // 2]
        # near the center, sign changes occur every fs / (2 f0) samples
        expected = fs / (2 * f0)
        signs = np.sign(center)
        crossings = np.where(np.diff(signs[ka // 2 - 4 : ka // 2 + 5]) != 0)[0]
        gaps = np.diff(crossings)
        assert np.all(np.abs(gaps - expected) <= 1)

    def test_tiny_lateral_sigma_gives_single_column(self):
        psf = make_parametric_psf(5.208e6, 20.832e6, 0.67, 1e-3)
        assert psf.kernel.shape[1] == 1

    def test_parameter_bounds(self):
        with pytest.raises(ValueError):
            make_parametric_psf(12e6, 20e6, 0.67, 1.0)  # f0 >= fs/2
        with pytest.raises(ValueError):
            make_parametric_psf(5e6, 20e6, 0.0, 1.0)
        with pytest.raises(ValueError):
            make_parametric_psf(5e6, 20e6, 2.5, 1.0)
        with pytest.raises(ValueError):
            make_parametric_psf(5e6, 20e6, 0.67, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        nz=st.integers(1, 40),
        nx=st.integers(1, 40),
        sigma=st.floats(1e-3, 50.0),
    )
    def test_kernel_fitted_to_a_shape_is_the_center_crop_of_the_whole(self, nz, nx, sigma):
        f0, fs = 5.208e6, 20.832e6
        whole = make_parametric_psf(f0, fs, 0.67, sigma).kernel
        fitted = make_parametric_psf(f0, fs, 0.67, sigma, shape=(nz, nx)).kernel
        az, ax = (d // 2 for d in whole.shape)
        hz, hx = half_width_within(az, nz), half_width_within(ax, nx)
        crop = whole[az - hz : az + hz + 1, ax - hx : ax + hx + 1]
        assert fitted.shape == crop.shape
        assert fitted.tobytes() == crop.tobytes()

    def test_wide_kernel_is_built_at_the_grid_size(self):
        # unfitted, a lateral sigma of 1e5 pixels makes a 13 x 600,001
        # kernel (62 MB); fitted to the 32 x 16 grid it is 13 x 13
        doc = get_builtin_config("desk_point")
        doc["grid"].update(nz=32, nx=16)
        doc["psf"] = {"type": "parametric", "lateral_sigma": 1e5}
        cfg = run_config_from_dict(doc)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            kernel = pipeline.resolve_psf(cfg).kernel
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert kernel.shape == (13, 13)
        assert peak < 1e6

    def test_kernel_dims_must_be_odd(self):
        with pytest.raises(ValueError):
            Psf(kernel=np.ones((2, 3)))
        with pytest.raises(ValueError):
            Psf(kernel=np.zeros((3, 3)))


class TestConvApply:
    def test_identity_kernel(self, rng):
        psf = Psf(kernel=np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]))
        x = rng.standard_normal((8, 8))
        np.testing.assert_allclose(conv_apply(psf, x), x, rtol=0, atol=1e-14)

    def test_zero_image(self):
        psf = Psf(kernel=np.ones((3, 3)))
        out = conv_apply(psf, np.zeros((8, 8)))
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_matches_spatial_oracle_8x8(self, rng):
        kernel = rng.standard_normal((3, 3))
        psf = Psf(kernel=kernel)
        x = rng.standard_normal((8, 8))
        expected = circular_conv_oracle(kernel, x)
        got = conv_apply(psf, x)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_matches_spatial_oracle_all_sizes_up_to_16(self, rng):
        kernel = rng.standard_normal((3, 3))
        psf = Psf(kernel=kernel)
        for nz in range(3, 17):
            for nx in range(3, 17):
                x = rng.standard_normal((nz, nx))
                expected = circular_conv_oracle(kernel, x)
                scale = np.abs(expected).max()
                np.testing.assert_allclose(
                    conv_apply(psf, x), expected, rtol=1e-12, atol=1e-12 * scale
                )

    def test_larger_kernels_match_oracle(self, rng):
        for kshape in ((5, 3), (5, 5), (7, 5)):
            kernel = rng.standard_normal(kshape)
            psf = Psf(kernel=kernel)
            x = rng.standard_normal((12, 16))
            expected = circular_conv_oracle(kernel, x)
            np.testing.assert_allclose(
                conv_apply(psf, x), expected, rtol=1e-12, atol=1e-12
            )

    def test_adjoint_inner_product(self, rng):
        kernel = rng.standard_normal((5, 3))
        psf = Psf(kernel=kernel)
        for _ in range(20):
            x = rng.standard_normal((10, 12))
            y = rng.standard_normal((10, 12))
            lhs = np.sum(conv_apply(psf, x) * y)
            rhs = np.sum(x * conv_apply(psf, y, adjoint=True))
            assert lhs == pytest.approx(rhs, rel=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(
        half=st.tuples(st.integers(0, 4), st.integers(0, 4)),
        extra=st.tuples(st.integers(0, 12), st.integers(0, 12)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_adjoint_identity_for_any_odd_kernel(self, half, extra, seed):
        # <Hx, y> = <x, H^T y>, relative to the Cauchy-Schwarz bound on both
        # sides so that a near-zero inner product cannot mask an error
        kshape = (2 * half[0] + 1, 2 * half[1] + 1)
        shape = (kshape[0] + extra[0], kshape[1] + extra[1])
        rng = np.random.default_rng(seed)
        psf = Psf(kernel=rng.standard_normal(kshape))
        x = rng.standard_normal(shape)
        y = rng.standard_normal(shape)
        hx = conv_apply(psf, x)
        hty = conv_apply(psf, y, adjoint=True)
        norm = np.linalg.norm
        scale = norm(hx) * norm(y) + norm(x) * norm(hty)
        assert abs(np.sum(hx * y) - np.sum(x * hty)) <= 1e-12 * scale

    def test_adjoint_is_point_reflected_convolution(self, rng):
        kernel = rng.standard_normal((3, 5))
        x = rng.standard_normal((9, 11))
        got = conv_apply(Psf(kernel=kernel), x, adjoint=True)
        reflected = kernel[::-1, ::-1].copy()
        expected = circular_conv_oracle(reflected, x)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_kernel_larger_than_image_rejected(self):
        psf = Psf(kernel=np.ones((9, 9)))
        with pytest.raises(ValueError):
            conv_apply(psf, np.zeros((5, 5)))


class TestDeconvUpdate:
    def test_gamma_zero_algebraic_form(self, rng):
        shape = (6, 7)
        w = rng.standard_normal(shape)
        z = rng.standard_normal(shape)
        l1 = rng.standard_normal(shape)
        l2 = rng.standard_normal(shape)
        beta = 3.5
        got = deconv_update(np.zeros(shape), None, w, z, l1, l2, 0.0, beta)
        expected = (beta * w + beta * z - l1 - l2) / (2 * beta)
        assert np.array_equal(got, expected)

    def test_identity_kernel_fixed_point(self, rng):
        y = rng.standard_normal((8, 8))
        ident = Psf(kernel=np.array([[1.0]]))
        zero = np.zeros_like(y)
        got = deconv_update(y, ident, y.copy(), y.copy(), zero, zero, 1.0, 2.0)
        np.testing.assert_allclose(got, y, rtol=1e-12, atol=1e-12)

    def test_matches_dense_solve_20_random_draws(self, rng):
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

    def test_gradient_optimality(self, rng):
        shape = (10, 14)
        psf = Psf(kernel=rng.standard_normal((5, 5)))
        y = rng.standard_normal(shape)
        w = rng.standard_normal(shape)
        z = rng.standard_normal(shape)
        l1 = rng.standard_normal(shape)
        l2 = rng.standard_normal(shape)
        gamma_d, beta = 2.3, 7.1
        u = deconv_update(y, psf, w, z, l1, l2, gamma_d, beta)
        grad = (
            gamma_d * conv_apply(psf, conv_apply(psf, u) - y, adjoint=True)
            + beta * (u - w + l1 / beta)
            + beta * (u - z + l2 / beta)
        )
        rhs = gamma_d * conv_apply(psf, y, adjoint=True) + beta * w + beta * z - l1 - l2
        assert np.linalg.norm(grad) <= 1e-8 * (1 + np.linalg.norm(rhs))

    def test_nonpositive_beta_rejected(self, rng):
        shape = (6, 6)
        arrs = [np.zeros(shape)] * 4
        with pytest.raises(ValueError):
            deconv_update(np.zeros(shape), Psf(kernel=np.ones((1, 1))), *arrs, 1.0, 0.0)

    def test_denominator_positive_even_for_null_kernel_frequencies(self):
        # a kernel with spectral nulls still yields a well-posed update
        kernel = np.array([[0.5, 0.5]]).T @ np.array([[1.0]])
        psf = Psf(kernel=np.array([[0.5], [1.0], [0.5]]))
        tf = psf.transfer_function((8, 8))
        gamma_d, beta = 1.0, 0.25
        denom = gamma_d * np.abs(tf) ** 2 + 2 * beta
        assert denom.min() >= 2 * beta
