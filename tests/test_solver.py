"""Splitting-solver updates against dense oracles, invariants, and modes."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pwrecon import (
    ChannelData,
    InnerSettings,
    Psf,
    RfImage,
    SolverConfig,
    beamform_update,
    multiplier_update,
    objective,
    solve,
    sparsity_update,
)
from pwrecon.config import solver_config
from pwrecon.solver import SolverState, _ChannelTerm, _conjugate_residual

from conftest import channel_data


def make_psf(rng, shape=(5, 3)):
    return Psf(kernel=rng.standard_normal(shape))


def threshold(tol, b):
    """Residual norm at which an inner solve of A x = b counts as converged."""
    return tol * (1 + np.linalg.norm(b))


def normal_rhs(equations, u, lam2):
    """Right-hand side gamma_b Phi^T y_ch + beta u + lam2 of a z update."""
    return equations.back_projection + (equations.beta * u + lam2).reshape(-1, order="F")


class TestObjective:
    def test_zero_image_is_data_energy(self, tiny_instance, rng):
        model = tiny_instance["model"]
        grid = tiny_instance["grid"]
        psf = make_psf(rng)
        y_das = rng.standard_normal(grid.shape)
        y_ch = rng.standard_normal(model.num_rows)
        cfg = SolverConfig(gamma_d=2.0, gamma_b=0.5, mu=1.0, beta=1.0)
        val = objective(np.zeros(grid.shape), y_das, psf, model, y_ch, cfg)
        expected = 0.5 * 2.0 * np.sum(y_das**2) + 0.5 * 0.5 * np.sum(y_ch**2)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_consistent_data_zero_objective(self, tiny_instance, rng):
        from pwrecon import conv_apply

        model = tiny_instance["model"]
        grid = tiny_instance["grid"]
        psf = make_psf(rng)
        x = rng.standard_normal(grid.shape)
        y_das = conv_apply(psf, x)
        y_ch = model.apply(x.reshape(-1, order="F"))
        cfg = SolverConfig(gamma_d=1.0, gamma_b=1.0, mu=0.0, beta=1.0)
        val = objective(x, y_das, psf, model, y_ch, cfg)
        assert val == pytest.approx(0.0, abs=1e-18)

    def test_matches_term_by_term_evaluation(self, tiny_instance, rng):
        from pwrecon import conv_apply

        model = tiny_instance["model"]
        grid = tiny_instance["grid"]
        psf = make_psf(rng)
        x = rng.standard_normal(grid.shape)
        y_das = rng.standard_normal(grid.shape)
        y_ch = rng.standard_normal(model.num_rows)
        cfg = SolverConfig(gamma_d=0.7, gamma_b=1.3, mu=0.21, beta=1.0)
        val = objective(x, y_das, psf, model, y_ch, cfg)
        term_d = 0.5 * 0.7 * np.sum((y_das - conv_apply(psf, x)) ** 2)
        term_b = 0.5 * 1.3 * np.sum(
            (y_ch - model.apply(x.reshape(-1, order="F"))) ** 2
        )
        term_l1 = 0.21 * np.sum(np.abs(x))
        assert val == pytest.approx(term_d + term_b + term_l1, rel=1e-12)


class TestBeamformUpdate:
    def test_gamma_zero_exact_proximal_point(self, rng):
        u = rng.standard_normal((6, 5))
        lam2 = rng.standard_normal((6, 5))
        z, norms = beamform_update(None, None, u, lam2, 0.0, 2.5, InnerSettings())
        assert np.array_equal(z, u + lam2 / 2.5)

    def test_matches_dense_normal_equations(self, tiny_instance, rng):
        model = tiny_instance["model"]
        grid = tiny_instance["grid"]
        dense = model.matrix.toarray()
        gamma_b, beta = 0.8, 3.0
        y_ch = rng.standard_normal(model.num_rows)
        u = rng.standard_normal(grid.shape)
        lam2 = rng.standard_normal(grid.shape)
        lhs = gamma_b * dense.T @ dense + beta * np.eye(model.num_cols)
        rhs = (
            gamma_b * dense.T @ y_ch
            + (beta * u + lam2).reshape(-1, order="F")
        )
        expected = np.linalg.solve(lhs, rhs).reshape(grid.shape, order="F")
        z, _ = beamform_update(
            model, y_ch, u, lam2, gamma_b, beta,
            InnerSettings(max_iter=400, tol=1e-12),
        )
        np.testing.assert_allclose(z, expected, rtol=1e-6, atol=1e-9)

    def test_gradient_norms_monotone_nonincreasing(self, tiny_instance, rng):
        model = tiny_instance["model"]
        grid = tiny_instance["grid"]
        y_ch = rng.standard_normal(model.num_rows)
        u = rng.standard_normal(grid.shape)
        lam2 = rng.standard_normal(grid.shape)
        z0, _ = beamform_update(
            model, y_ch, u, lam2, 0.5, 2.0, InnerSettings(max_iter=3, tol=1e-14)
        )
        # warm-started continuation keeps shrinking the gradient
        _, norms = beamform_update(
            model, y_ch, u, lam2, 0.5, 2.0,
            InnerSettings(max_iter=40, tol=1e-14),
            equations=_ChannelTerm(model, y_ch, 0.5, 2.0, 0, z0=z0),
        )
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_meets_gradient_tolerance_contract(self, tiny_instance, rng):
        model = tiny_instance["model"]
        grid = tiny_instance["grid"]
        gamma_b, beta = 1.0, 2.0
        y_ch = rng.standard_normal(model.num_rows)
        u = rng.standard_normal(grid.shape)
        lam2 = rng.standard_normal(grid.shape)
        inner = InnerSettings(max_iter=200, tol=1e-8)
        z, _ = beamform_update(model, y_ch, u, lam2, gamma_b, beta, inner)
        zv = z.reshape(-1, order="F")
        b = gamma_b * model.apply_adjoint(y_ch) + (beta * u + lam2).reshape(
            -1, order="F"
        )
        grad = gamma_b * model.apply_adjoint(model.apply(zv)) + beta * zv - b
        assert np.linalg.norm(grad) <= inner.tol * (1 + np.linalg.norm(b))

    def test_given_back_projection_changes_nothing(self, tiny_instance, rng):
        model = tiny_instance["model"]
        grid = tiny_instance["grid"]
        gamma_b, beta = 0.6, 2.0
        y_ch = rng.standard_normal(model.num_rows)
        u = rng.standard_normal(grid.shape)
        lam2 = rng.standard_normal(grid.shape)
        inner = InnerSettings(max_iter=30, tol=1e-10)
        z, norms = beamform_update(model, y_ch, u, lam2, gamma_b, beta, inner)
        z_bp, norms_bp = beamform_update(
            model, y_ch, u, lam2, gamma_b, beta, inner,
            equations=_ChannelTerm(model, y_ch, gamma_b, beta, 0),
        )
        assert np.array_equal(z, z_bp)
        assert norms == norms_bp


class TestSparsityUpdate:
    def test_zero_input(self):
        w = sparsity_update(np.zeros((3, 3)), np.zeros((3, 3)), 1.0, 2.0)
        assert np.all(w == 0.0)

    def test_threshold_boundary(self):
        mu, beta = 1.5, 3.0
        u = np.full((2, 2), mu / beta)
        w = sparsity_update(u, np.zeros((2, 2)), mu, beta)
        assert np.all(w == 0.0)

    def test_shrinks_by_exactly_mu_over_beta(self):
        mu, beta = 1.0, 4.0
        u = np.full((2, 2), -2 * mu / beta)
        w = sparsity_update(u, np.zeros((2, 2)), mu, beta)
        np.testing.assert_allclose(w, -mu / beta)

    def test_odd_and_lipschitz(self, rng):
        mu, beta = 0.7, 2.0
        for _ in range(50):
            v1 = rng.standard_normal((4, 4)) * 3
            v2 = rng.standard_normal((4, 4)) * 3
            w1 = sparsity_update(v1, np.zeros_like(v1), mu, beta)
            w1_neg = sparsity_update(-v1, np.zeros_like(v1), mu, beta)
            np.testing.assert_allclose(w1_neg, -w1, atol=1e-15)
            w2 = sparsity_update(v2, np.zeros_like(v2), mu, beta)
            assert np.all(np.abs(w1 - w2) <= np.abs(v1 - v2) + 1e-12)


class TestMultiplierUpdate:
    def _state(self, rng):
        shape = (4, 3)
        return SolverState(
            u=rng.standard_normal(shape),
            w=rng.standard_normal(shape),
            z=rng.standard_normal(shape),
            lam1=rng.standard_normal(shape),
            lam2=rng.standard_normal(shape),
        )

    def test_feasible_point_leaves_multipliers(self, rng):
        st = self._state(rng)
        st.w = st.u.copy()
        st.z = st.u.copy()
        lam1, lam2 = st.lam1.copy(), st.lam2.copy()
        multiplier_update(st, 3.0)
        assert np.array_equal(st.lam1, lam1)
        assert np.array_equal(st.lam2, lam2)

    def test_unit_beta_step(self, rng):
        st = self._state(rng)
        lam1 = st.lam1.copy()
        d = st.u - st.w
        multiplier_update(st, 1.0)
        np.testing.assert_allclose(st.lam1, lam1 + d, atol=1e-15)

    def test_two_steps_with_constant_gap(self, rng):
        st = self._state(rng)
        lam2 = st.lam2.copy()
        gap = st.u - st.z
        beta = 2.5
        multiplier_update(st, beta)
        multiplier_update(st, beta)
        np.testing.assert_allclose(st.lam2, lam2 + 2 * beta * gap, atol=1e-14)


class TestSolve:
    def test_zero_data_single_iteration_zero_result(self, covered_instance, rng):
        model = covered_instance["model"]
        psf = make_psf(rng)
        cfg = SolverConfig(gamma_d=1.0, gamma_b=0.5, mu=0.1, beta=2.0)
        report = solve(
            cfg,
            model=model,
            y_ch=channel_data(model, np.zeros(model.num_rows)),
            psf=psf,
            y_das=RfImage(np.zeros(model.grid.shape), model.grid),
        )
        assert report.iterations == 1
        assert report.converged
        assert np.all(report.result.data == 0.0)

    def test_beamform_only_matches_damped_least_squares(self, covered_instance):
        # with mu = 0 the channel-data mode is damped least squares: at the
        # objective plateau the iterate matches the dense solve of
        # (gamma_b Phi^T Phi + delta I) x = gamma_b Phi^T y with delta = beta
        # (the beta-weighted consensus limit)
        model = covered_instance["model"]
        grid = covered_instance["grid"]
        x_true = np.zeros(grid.shape)
        x_true[5, 7] = 1.0
        x_true[10, 3] = -0.6
        y_ch = model.apply(x_true.reshape(-1, order="F"))
        beta = 0.01
        cfg = SolverConfig(
            gamma_d=0.0,
            gamma_b=1.0,
            mu=0.0,
            beta=beta,
            mode="beamform_only",
            epsilon=1e-10,
            max_iter=3000,
            inner=InnerSettings(max_iter=600, tol=1e-13),
            normalize=False,
        )
        report = solve(cfg, model=model, y_ch=channel_data(model, y_ch))
        dense = model.matrix.toarray()
        lhs = dense.T @ dense + beta * np.eye(model.num_cols)
        expected = np.linalg.solve(lhs, dense.T @ y_ch).reshape(grid.shape, order="F")
        scale = np.abs(expected).max()
        np.testing.assert_allclose(report.result.data, expected, atol=1e-4 * scale)

    def test_iterates_stay_finite_and_histories_align(self, covered_instance, rng):
        model = covered_instance["model"]
        grid = covered_instance["grid"]
        psf = make_psf(rng)
        x = rng.standard_normal(grid.shape)
        y_ch = model.apply(x.reshape(-1, order="F"))
        from pwrecon import conv_apply

        y_das = conv_apply(psf, x)
        cfg = SolverConfig(gamma_d=1.0, gamma_b=0.2, mu=0.05, beta=3.0, max_iter=15)
        report = solve(
            cfg, model=model, y_ch=channel_data(model, y_ch), psf=psf,
            y_das=RfImage(y_das, grid),
        )
        hist = report.state.objective_history
        assert len(hist) == report.iterations + 1
        assert np.all(np.isfinite(hist))
        assert len(report.state.primal_residuals) == report.iterations
        assert np.all(np.isfinite(report.result.data))

    def test_ablation_joint_gamma_d_zero_equals_beamform_only(
        self, covered_instance, rng
    ):
        model = covered_instance["model"]
        y_ch = channel_data(model, rng.standard_normal(model.num_rows))
        # a warm start: from zero both solves stall at iteration 2 with u == z
        x0 = rng.standard_normal(covered_instance["grid"].shape)
        base = dict(gamma_b=1.0, mu=0.02, beta=1.0, max_iter=40)
        joint = solve(
            SolverConfig(gamma_d=0.0, mode="joint", **base),
            model=model,
            y_ch=y_ch,
            x0=x0,
        )
        bf = solve(
            SolverConfig(gamma_d=0.0, mode="beamform_only", **base),
            model=model,
            y_ch=y_ch,
            x0=x0,
        )
        assert joint.iterations == bf.iterations
        assert np.array_equal(joint.state.z, bf.state.z)
        assert np.array_equal(joint.state.u, bf.state.u)
        assert np.array_equal(joint.state.w, bf.state.w)
        # beamform_only reports the channel-side iterate, and so does joint
        # once its blur weight is zero
        assert np.array_equal(bf.result.data, joint.state.z * joint.scale)
        assert np.array_equal(joint.result.data, bf.result.data)

    def test_ablation_joint_gamma_b_zero_equals_deconv_only(
        self, covered_instance, rng
    ):
        model = covered_instance["model"]
        grid = covered_instance["grid"]
        psf = make_psf(rng)
        y_das = RfImage(rng.standard_normal(grid.shape), grid)
        base = dict(gamma_d=1.0, mu=0.02, beta=1.0, max_iter=40)
        joint = solve(
            SolverConfig(gamma_b=0.0, mode="joint", **base), psf=psf, y_das=y_das
        )
        dc = solve(
            SolverConfig(gamma_b=0.0, mode="deconv_only", **base),
            psf=psf,
            y_das=y_das,
        )
        assert joint.iterations == dc.iterations
        np.testing.assert_allclose(
            joint.result.data, dc.result.data, rtol=0, atol=1e-8
        )

    def test_sequential_runs_both_stages(self, covered_instance, rng):
        model = covered_instance["model"]
        grid = covered_instance["grid"]
        psf = make_psf(rng)
        x = np.zeros(grid.shape)
        x[6, 6] = 1.0
        y_ch = channel_data(model, model.apply(x.reshape(-1, order="F")))
        cfg = SolverConfig(
            gamma_d=0.0, gamma_b=1.0, mu=0.01, beta=2.0, mode="sequential",
            stage2=SolverConfig(gamma_d=1.0, gamma_b=0.0, mu=0.01, beta=2.0,
                                mode="deconv_only"),
        )
        report = solve(cfg, model=model, y_ch=y_ch, psf=psf)
        assert len(report.stages) == 2
        assert report.stages[0].config.mode == "beamform_only"
        assert report.stages[1].config.mode == "deconv_only"
        assert np.all(np.isfinite(report.result.data))

    def test_sequential_without_stage2_completes_both_stages(
        self, covered_instance, rng
    ):
        # each stage keeps one data term by the single-term rule, so the
        # stage-2 blur weight is 1.0 although the sequential config has 0
        model = covered_instance["model"]
        x = np.zeros(covered_instance["grid"].shape)
        x[6, 6] = 1.0
        y_ch = channel_data(model, model.apply(x.reshape(-1, order="F")))
        cfg = SolverConfig(gamma_d=0.0, gamma_b=1.0, mu=0.01, beta=2.0, mode="sequential")
        report = solve(cfg, model=model, y_ch=y_ch, psf=make_psf(rng))
        stage1, stage2 = (stage.config for stage in report.stages)
        assert (stage1.mode, stage1.gamma_d, stage1.gamma_b) == ("beamform_only", 0.0, 1.0)
        assert (stage2.mode, stage2.gamma_d, stage2.gamma_b) == ("deconv_only", 1.0, 0.0)
        assert np.all(np.isfinite(report.result.data))

    def test_sequential_report_leaves_state_to_its_stages(self, covered_instance, rng):
        # the stages' states differ (only stage 1 makes products), so the
        # whole solve has none of its own
        model = covered_instance["model"]
        x = np.zeros(covered_instance["grid"].shape)
        x[6, 6] = 1.0
        y_ch = channel_data(model, model.apply(x.reshape(-1, order="F")))
        cfg = SolverConfig(gamma_d=0.0, gamma_b=1.0, mu=0.01, beta=2.0, mode="sequential")
        report = solve(cfg, model=model, y_ch=y_ch, psf=make_psf(rng))
        assert (report.state, report.scale) == (None, None)
        stage1, stage2 = report.stages
        assert stage1.state.forward_products > 0 == stage2.state.forward_products
        assert stage1.scale > 0 and stage2.scale > 0
        assert report.iterations == len(stage1.state.primal_residuals) + len(
            stage2.state.primal_residuals
        )

    @pytest.mark.parametrize("stage2", [None, {"preset": "sr"}])
    @pytest.mark.parametrize(
        "keys", [{"mu": 0.2, "beta": 2.0}, {"preset": "sr"}, {"preset": "cc"}]
    )
    def test_sequential_first_stage_is_the_beamform_only_block(
        self, covered_instance, rng, keys, stage2
    ):
        # a sequential block without gamma_b gets its stage-1 weight by the
        # rule beamform_only follows, not SolverConfig's joint default
        model = covered_instance["model"]
        x = np.zeros(covered_instance["grid"].shape)
        x[6, 6] = 1.0
        y_ch = channel_data(model, model.apply(x.reshape(-1, order="F")))
        keys = dict(keys, max_iter=3)
        block = dict(keys, mode="sequential", **({"stage2": stage2} if stage2 else {}))
        report = solve(solver_config(block), model=model, y_ch=y_ch, psf=make_psf(rng))
        beamform = solver_config(dict(keys, mode="beamform_only"))
        assert report.stages[0].config == beamform

    def test_mode_requirements_validated(self, covered_instance, rng):
        model = covered_instance["model"]
        with pytest.raises(ValueError):
            solve(SolverConfig(mode="joint"), model=model, y_ch=None)
        with pytest.raises(ValueError):
            solve(
                SolverConfig(mode="joint"),
                model=model,
                y_ch=channel_data(model, np.zeros(model.num_rows)),
                psf=None,
            )

    # the observations each mode reads: channel (matrix and channel data),
    # psf and das (the reference image)
    MODE_READS = {
        "joint": {"channel", "psf", "das"},
        "beamform_only": {"channel"},
        "deconv_only": {"psf", "das"},
        "sequential": {"channel", "psf"},
    }

    @pytest.mark.parametrize(
        "omitted, read",
        [("model", "channel"), ("y_ch", "channel"), ("psf", "psf"), ("y_das", "das")],
        ids=["matrix", "channel", "psf", "das"],
    )
    @pytest.mark.parametrize("mode", list(MODE_READS))
    def test_mode_rule_names_each_missing_input(
        self, covered_instance, rng, mode, omitted, read
    ):
        from pwrecon.solver import mode_fields, observations_needed

        model = covered_instance["model"]
        grid = covered_instance["grid"]
        cfg = SolverConfig(max_iter=2, **mode_fields(mode, {}))
        needs = observations_needed(cfg)
        assert {name for name, on in needs.items() if on} == self.MODE_READS[mode]
        inputs = dict(
            model=model, y_ch=channel_data(model, rng.standard_normal(model.num_rows)),
            psf=make_psf(rng), y_das=RfImage(rng.standard_normal(grid.shape), grid),
        )
        inputs[omitted] = None
        # solve refuses exactly the inputs the rule names
        if needs[read]:
            with pytest.raises(ValueError, match="^mode %r needs " % mode):
                solve(cfg, **inputs)
        else:
            assert np.all(np.isfinite(solve(cfg, **inputs).result.data))

    def test_sequential_without_psf_is_refused_before_any_product(
        self, covered_instance, rng, monkeypatch
    ):
        from pwrecon.forward_model import SparseSystemMatrix

        calls = {"apply": 0, "apply_adjoint": 0}
        for name in calls:
            product = getattr(SparseSystemMatrix, name)

            def counted(self, v, _name=name, _product=product):
                calls[_name] += 1
                return _product(self, v)

            monkeypatch.setattr(SparseSystemMatrix, name, counted)
        model = covered_instance["model"]
        y_ch = channel_data(model, rng.standard_normal(model.num_rows))
        with pytest.raises(ValueError, match="needs a PSF"):
            solve(SolverConfig(mode="sequential"), model=model, y_ch=y_ch)
        assert calls == {"apply": 0, "apply_adjoint": 0}

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_x0_is_refused_by_name(self, covered_instance, rng, bad):
        model = covered_instance["model"]
        grid = covered_instance["grid"]
        x0 = rng.standard_normal(grid.shape)
        x0[3, 4] = bad
        with pytest.raises(ValueError, match="^x0 "):
            solve(
                SolverConfig(), model=model,
                y_ch=channel_data(model, rng.standard_normal(model.num_rows)),
                psf=make_psf(rng), y_das=RfImage(rng.standard_normal(grid.shape), grid),
                x0=x0,
            )

    def test_divergence_guard_raises_with_history(
        self, covered_instance, rng, monkeypatch
    ):
        # a convergent convex solve cannot blow up on its own, so exercise
        # the guard by sabotaging the image update
        from pwrecon import DivergenceError
        from pwrecon import solver as solver_mod

        model = covered_instance["model"]
        grid = covered_instance["grid"]
        psf = make_psf(rng)
        y_das = rng.standard_normal(grid.shape)
        y_ch = rng.standard_normal(model.num_rows)

        def exploding_update(y, psf_, w, z, l1, l2, gd, beta):
            return np.full(y.shape, 1e12)

        monkeypatch.setattr(solver_mod, "deconv_update", exploding_update)
        cfg = SolverConfig(gamma_d=1.0, gamma_b=0.2, mu=0.01, beta=2.0, max_iter=5)
        with pytest.raises(DivergenceError) as err:
            solve(
                cfg, model=model, y_ch=channel_data(model, y_ch), psf=psf,
                y_das=RfImage(y_das, grid),
            )
        assert len(err.value.trace) >= 2

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            SolverConfig(mode="beamform_only", gamma_d=1.0)
        with pytest.raises(ValueError):
            SolverConfig(mode="deconv_only", gamma_b=1.0)
        with pytest.raises(ValueError):
            SolverConfig(gamma_d=0.0, gamma_b=0.0)
        with pytest.raises(ValueError):
            SolverConfig(beta=0.0)

    def test_report_json_round_trip(self, covered_instance, rng):
        import json

        model = covered_instance["model"]
        grid = covered_instance["grid"]
        psf = make_psf(rng)
        x = rng.standard_normal(grid.shape)
        y_das = np.zeros(grid.shape)
        y_ch = model.apply(x.reshape(-1, order="F"))
        cfg = SolverConfig(gamma_d=1.0, gamma_b=0.2, mu=0.01, beta=2.0, max_iter=5)
        report = solve(
            cfg, model=model, y_ch=channel_data(model, y_ch), psf=psf,
            y_das=RfImage(y_das, grid),
        )
        doc = json.loads(json.dumps(report.to_json_dict()))
        assert doc["iterations"] == report.iterations
        assert len(doc["objective_history"]) == report.iterations + 1
        assert 0 < doc["basis_columns"] == report.state.basis_columns
        timing = doc["timing"]
        steps = [timing["%s_step_s" % k] for k in ("u", "z", "w", "objective")]
        assert min(steps) > 0 and sum(steps) <= timing["wall_time_s"]

    def test_dual_residuals_and_products_are_recorded(
        self, covered_instance, rng, monkeypatch
    ):
        from pwrecon.forward_model import SparseSystemMatrix

        calls = {"apply": 0, "apply_adjoint": 0}
        for name in calls:
            product = getattr(SparseSystemMatrix, name)

            def counted(self, v, _name=name, _product=product):
                calls[_name] += 1
                return _product(self, v)

            monkeypatch.setattr(SparseSystemMatrix, name, counted)
        model = covered_instance["model"]
        grid = covered_instance["grid"]
        psf = make_psf(rng)
        x0 = rng.standard_normal(grid.shape)
        args = dict(
            model=model, y_ch=channel_data(model, rng.standard_normal(model.num_rows)),
            psf=psf, y_das=RfImage(rng.standard_normal(grid.shape), grid), x0=x0,
        )
        cfg = SolverConfig(gamma_d=1.0, gamma_b=0.2, mu=0.01, beta=2.0, max_iter=1)
        first = solve(cfg, **args)
        init = x0 / first.scale
        (dual,) = first.state.dual_residuals
        # beta ||z_1 - z_0|| and beta ||w_1 - w_0||, beta = 2
        expected = [2.0 * np.linalg.norm(v - init) for v in (first.state.z, first.state.w)]
        np.testing.assert_allclose(dual, expected, rtol=1e-12)
        assert (first.state.forward_products, first.state.adjoint_products) == (
            calls["apply"], calls["apply_adjoint"],
        )
        calls.update(apply=0, apply_adjoint=0)
        report = solve(replace(cfg, max_iter=8), **args)
        doc = report.to_json_dict()
        assert len(doc["dual_residuals"]) == report.iterations
        assert (doc["forward_products"], doc["adjoint_products"]) == (
            calls["apply"], calls["apply_adjoint"],
        )


class TestChannelGeometry:
    """Channel data must be recorded with the geometry the system matrix models."""

    @staticmethod
    def _solve(inst, rng, tx=None, num_samples=None, **probe_changes):
        model = inst["model"]
        num = num_samples or inst["num_samples"]
        samples = rng.standard_normal((num, inst["probe"].num_elements))
        ch = ChannelData(
            samples, tx=tx or inst["tx"], probe=replace(inst["probe"], **probe_changes)
        )
        cfg = SolverConfig(gamma_d=0.0, mode="beamform_only", max_iter=3)
        return solve(cfg, model=model, y_ch=ch)

    @pytest.mark.parametrize(
        "changes",
        [
            {"pitch": 0.31e-3},
            {"sound_speed": 1500.0},
            {"sampling_freq": 25e6},
            {"t0_offset": 1e-7},
        ],
        ids=lambda changes: next(iter(changes)),
    )
    def test_probe_mismatch_names_the_field(self, covered_instance, rng, changes):
        (name,) = changes
        with pytest.raises(ValueError, match="system matrix in %s " % name):
            self._solve(covered_instance, rng, **changes)

    def test_transmit_mismatch_is_named(self, covered_instance, rng):
        from pwrecon import PlaneWaveTx

        with pytest.raises(ValueError, match="in tx PlaneWaveTx"):
            self._solve(covered_instance, rng, tx=PlaneWaveTx(angle=0.1))

    def test_center_freq_is_not_compared(self, covered_instance, rng):
        # ingested RF files carry no center frequency; Phi does not use it
        fs = covered_instance["probe"].sampling_freq
        report = self._solve(covered_instance, rng, center_freq=fs / 4.0)
        assert np.all(np.isfinite(report.result.data))

    def test_image_passed_as_channel_data_fails_on_length(self, covered_instance, rng):
        # an RfImage is no ChannelData, whatever its length
        grid = covered_instance["grid"]
        image = RfImage(rng.standard_normal(grid.shape), grid)
        cfg = SolverConfig(gamma_d=0.0, mode="beamform_only", max_iter=3)
        with pytest.raises(ValueError, match="y_ch must be of type ChannelData"):
            solve(cfg, model=covered_instance["model"], y_ch=image)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_other_sample_count_names_num_samples(self, covered_instance, rng, extra):
        num = covered_instance["num_samples"]
        with pytest.raises(ValueError, match="in num_samples %d vs %d" % (num + extra, num)):
            self._solve(covered_instance, rng, num_samples=num + extra)


class TestTypedObservations:
    """solve() reads channel data only as ChannelData and the reference
    image only as RfImage; any other form is refused by argument name."""

    @pytest.mark.parametrize("form", ["flat", "samples"])
    def test_bare_channel_array_is_refused(self, covered_instance, rng, form):
        model = covered_instance["model"]
        ch = channel_data(model, rng.standard_normal(model.num_rows))
        y_ch = ch.to_vector() if form == "flat" else ch.samples
        cfg = SolverConfig(gamma_d=0.0, mode="beamform_only", max_iter=3)
        with pytest.raises(ValueError, match="^y_ch must be of type ChannelData$"):
            solve(cfg, model=model, y_ch=y_ch)

    def test_bare_image_array_is_refused(self, covered_instance, rng):
        grid = covered_instance["grid"]
        cfg = SolverConfig(gamma_b=0.0, mode="deconv_only", max_iter=3)
        with pytest.raises(ValueError, match="^y_das must be of type RfImage$"):
            solve(cfg, psf=make_psf(rng), y_das=rng.standard_normal(grid.shape))


class TestInnerOutcomes:
    def _channel_solve(self, covered_instance, rng, inner):
        model = covered_instance["model"]
        y_ch = channel_data(model, rng.standard_normal(model.num_rows))
        cfg = SolverConfig(
            gamma_d=0.0, gamma_b=1.0, mu=0.01, beta=2.0, max_iter=6,
            epsilon=1e-12, mode="beamform_only", inner=inner,
        )
        return solve(cfg, model=model, y_ch=y_ch)

    def test_every_capped_inner_solve_is_counted(self, covered_instance, rng):
        report = self._channel_solve(
            covered_instance, rng, InnerSettings(max_iter=1, tol=1e-12)
        )
        assert report.iterations == 6
        assert report.state.inner_iterations == [1] * 6
        assert report.state.inner_capped == 6
        doc = report.to_json_dict()
        assert doc["inner_iterations"] == [1] * 6
        assert doc["inner_capped"] == 6

    def test_back_projection_computed_once_per_solve(
        self, covered_instance, rng, monkeypatch
    ):
        from pwrecon.forward_model import SparseSystemMatrix

        calls = []
        adjoint = SparseSystemMatrix.apply_adjoint

        def counted(self, y):
            calls.append(1)
            return adjoint(self, y)

        monkeypatch.setattr(SparseSystemMatrix, "apply_adjoint", counted)
        report = self._channel_solve(covered_instance, rng, InnerSettings())
        assert report.state.inner_capped == 0
        # an uncapped CR solve takes one adjoint per step: its start residual
        # comes from the earlier solutions (from zero, it is the right-hand
        # side); Phi^T y is taken once for the whole solve
        steps = report.state.inner_iterations
        assert len(calls) == 1 + sum(steps)
        assert report.state.adjoint_products == len(calls)

    @pytest.mark.parametrize("warm", [False, True], ids=["zero", "warm"])
    @pytest.mark.parametrize(
        "inner", [InnerSettings(), InnerSettings(max_iter=2, tol=1e-14)],
        ids=["uncapped", "capped"],
    )
    def test_one_product_per_inner_step(self, covered_instance, rng, inner, warm):
        model = covered_instance["model"]
        grid = covered_instance["grid"]
        cfg = SolverConfig(
            gamma_d=1.0, gamma_b=0.5, mu=0.01, beta=2.0, max_iter=6,
            epsilon=1e-12, inner=inner,
        )
        report = solve(
            cfg, model=model, y_ch=channel_data(model, rng.standard_normal(model.num_rows)),
            psf=make_psf(rng), y_das=RfImage(rng.standard_normal(grid.shape), grid),
            x0=rng.standard_normal(grid.shape) if warm else None,
        )
        state = report.state
        assert state.inner_capped == (report.iterations if inner.max_iter == 2 else 0)
        # one forward and one adjoint per inner step; Phi x for each objective
        # (the start's included) and Phi^T y once; a nonzero x0 is seeded at
        # one more of each
        steps, seed = sum(state.inner_iterations), int(warm)
        assert state.forward_products == steps + report.iterations + 1 + seed
        assert state.adjoint_products == steps + 1 + seed

    def test_desk_point_has_no_capped_inner_solve(self):
        from pwrecon import pipeline
        from pwrecon.config import get_builtin_config, run_config_from_dict

        cfg = run_config_from_dict(get_builtin_config("desk_point"))
        model = pipeline.build_model(cfg)
        ch = pipeline.simulate(cfg, pipeline.make_phantom(cfg), model)
        report = pipeline.run_reconstruction(cfg, model, ch)
        assert report.converged
        assert len(report.state.inner_iterations) == report.iterations
        assert report.state.inner_capped == 0
        assert report.to_json_dict()["inner_capped"] == 0


class TestConjugateResidual:
    def test_solves_spd_system(self, rng):
        n = 40
        a = rng.standard_normal((n, n))
        spd = a @ a.T + n * np.eye(n)
        b = rng.standard_normal(n)

        x, r, norms = _conjugate_residual(
            lambda v: spd @ v, np.zeros(n), b, threshold(1e-12, b), 500
        )
        np.testing.assert_allclose(spd @ x, b, rtol=1e-8, atol=1e-8)
        assert all(later <= earlier + 1e-12 for earlier, later in zip(norms, norms[1:]))
        np.testing.assert_allclose(r, b - spd @ x, atol=1e-8)
        assert norms[-1] == np.linalg.norm(r)

    def test_takes_one_product_per_step(self, rng):
        n = 30
        a = rng.standard_normal((n, n))
        spd = a @ a.T + n * np.eye(n)
        b = rng.standard_normal(n)
        calls = []

        def apply_a(v):
            calls.append(1)
            return spd @ v

        for max_iter in (1, 2, 3):
            calls.clear()
            _, _, norms = _conjugate_residual(
                apply_a, np.zeros(n), b, threshold(1e-14, b), max_iter
            )
            # the cap stops before the product a next step would need
            assert len(norms) - 1 == max_iter
            assert len(calls) == max_iter
        calls.clear()
        _, _, norms = _conjugate_residual(apply_a, np.zeros(n), b, threshold(1e-10, b), 200)
        assert len(calls) == len(norms) - 1 < 200


class TestRecycledStart:
    """Each inner solve starts from the best combination of the last few z."""

    @staticmethod
    def _exit_residuals(monkeypatch, record, exact=None):
        """Patch the solver's z update to record, per call, how many earlier
        solutions it received, the true residual at exit over its threshold,
        the threshold, and (given ``exact``, the exact z as a function of
        the right-hand side) the distance to the exact z."""
        from pwrecon import solver as solver_mod

        update = solver_mod.beamform_update

        def checked(model, y_ch, u, lam2, gamma_b, beta, inner, equations=None):
            started_from = len(equations.history)
            z, norms = update(
                model, y_ch, u, lam2, gamma_b, beta, inner, equations=equations
            )
            b = normal_rhs(equations, u, lam2)
            zv = z.reshape(-1, order="F")
            phi = model.matrix  # products outside the ones the solve counts
            true = b - (gamma_b * (phi.T @ (phi @ zv)) + beta * zv)
            limit = threshold(inner.tol, b)
            gap = None if exact is None else np.linalg.norm(zv - exact(b))
            record.append((started_from, np.linalg.norm(true) / limit, limit, gap))
            return z, norms

        monkeypatch.setattr(solver_mod, "beamform_update", checked)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        gamma_d=st.sampled_from([0.0, 0.5, 1.0]),
        gamma_b=st.floats(0.05, 2.0),
        mu=st.floats(0.0, 0.1),
        beta=st.floats(0.2, 5.0),
        warm=st.booleans(),
        cap=st.sampled_from([3, 8, None]),
    )
    # the shipped cap, filled by the first two inner solves
    @example(seed=1, gamma_d=1.0, gamma_b=2.0, mu=0.01, beta=0.2, warm=False, cap=None)
    # nearly collinear earlier solutions: without a cutoff their least-squares
    # coefficients reach 1e8 and the stored A z_j drift to 0.28 of the threshold
    @example(seed=131, gamma_d=0.0, gamma_b=2.0, mu=0.0, beta=4.0, warm=False, cap=3)
    # a fit of condition 6.8e7, kept by an eps / tol cutoff: its rounding put
    # an exit residual 1.0000028 times over the threshold
    @example(seed=3689965720, gamma_d=0.0, gamma_b=0.05, mu=0.0, beta=0.2, warm=True, cap=None)
    def test_exit_residual_and_result_match_exact_updates(
        self, covered_instance, seed, gamma_d, gamma_b, mu, beta, warm, cap
    ):
        from pwrecon import solver as solver_mod

        model = covered_instance["model"]
        grid = covered_instance["grid"]
        rng = np.random.default_rng(seed)
        psf = make_psf(rng)
        y_ch = rng.standard_normal(model.num_rows)
        y_das = rng.standard_normal(grid.shape)
        x0 = rng.standard_normal(grid.shape) if warm else None
        inner = InnerSettings(max_iter=400)  # no inner solve is capped
        cfg = SolverConfig(
            gamma_d=gamma_d, gamma_b=gamma_b, mu=mu, beta=beta, epsilon=1e-12,
            max_iter=12, inner=inner,
        )
        args = dict(
            model=model, y_ch=channel_data(model, y_ch), psf=psf,
            y_das=RfImage(y_das, grid), x0=x0,
        )
        # the z update solved densely: 256 columns
        phi = model.matrix.toarray()
        normal = gamma_b * phi.T @ phi + beta * np.eye(phi.shape[1])

        def exact(b):
            return np.linalg.solve(normal, b)

        cap = cap or solver_mod._BASIS_COLUMNS
        record = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_mod, "_BASIS_COLUMNS", cap)
            self._exit_residuals(mp, record, exact)
            recycled = solve(cfg, **args)
        # each update starts from every earlier solution the depth keeps, and
        # the first from the seeded x0 alone
        assert [r[0] for r in record] == [
            min(k + int(warm), solver_mod._START_DEPTH) for k in range(len(record))
        ]
        # the updates after the first start from the kept directions; the
        # first update's directions fill the basis up to the cap
        steps = recycled.state.inner_iterations
        assert len(steps) >= 2
        assert min(steps[0], cap) <= recycled.state.basis_columns <= cap
        assert max(r[1] for r in record) <= 1.0
        # every exit lies within threshold / beta of the exact z, since the
        # normal matrix is at least beta I
        assert all(gap <= threshold / beta for _, _, threshold, gap in record)
        if gamma_d == 0.0:
            # a single-term solve can stop at iteration 2 on an unchanged
            # objective (ROADMAP item 1), so whole solves need not stop alike
            return

        def exact_update(model, y_ch, u, lam2, gamma_b, beta, inner, equations=None):
            b = normal_rhs(equations, u, lam2)
            return exact(b).reshape(u.shape, order="F"), [0.0]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_mod, "beamform_update", exact_update)
            reference = solve(cfg, **args)
        assert reference.iterations == recycled.iterations == cfg.max_iter
        # and the solve carries those errors through every later iteration
        bound = 2 * cfg.max_iter * max(r[2] for r in record) / beta * recycled.scale
        assert np.abs(recycled.result.data - reference.result.data).max() <= bound

    def test_kept_directions_stay_exact_images_and_orthonormal(
        self, covered_instance, rng
    ):
        from pwrecon import solver as solver_mod

        model = covered_instance["model"]
        grid = covered_instance["grid"]
        gamma_b, beta = 0.2, 2.0  # about 10 CR steps per solve
        phi = model.matrix.toarray()
        normal = gamma_b * phi.T @ phi + beta * np.eye(phi.shape[1])
        y_ch = rng.standard_normal(model.num_rows)
        equations = _ChannelTerm(
            model, y_ch, gamma_b, beta, solver_mod._BASIS_COLUMNS
        )
        filled = []
        for _ in range(4):
            u, lam2 = rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
            beamform_update(
                model, y_ch, u, lam2, gamma_b, beta, InnerSettings(max_iter=400),
                equations=equations,
            )
            filled.append(equations.kept)
            k = equations.kept
            kept_u, kept_c = equations.kept_u[:k], equations.kept_c[:k]
            # A U = C to rounding, C orthonormal: projecting a start keeps its
            # recurrence residual the true one
            au = kept_u @ normal
            assert np.abs(au - kept_c).max() <= 1e-10 * np.abs(au).max()
            np.testing.assert_allclose(kept_c @ kept_c.T, np.eye(k), atol=1e-10)
        # later solves add to the basis until its cap, then keep it fixed
        assert filled[0] < filled[1] < filled[-1] == solver_mod._BASIS_COLUMNS

    def test_repeated_input_is_bit_identical(self, covered_instance, rng):
        model = covered_instance["model"]
        grid = covered_instance["grid"]

        def inputs():
            return dict(
                model=model, y_ch=channel_data(model, rng.standard_normal(model.num_rows)),
                psf=make_psf(rng), y_das=RfImage(rng.standard_normal(grid.shape), grid),
            )

        cfg = SolverConfig(gamma_d=1.0, gamma_b=0.5, mu=0.01, beta=2.0, max_iter=8)
        args = inputs()
        first = solve(cfg, **args)
        cached = set(vars(model))
        # other solves on the same matrix in between leave nothing behind
        solve(cfg, **inputs())
        solve(replace(cfg, gamma_d=0.0, mode="beamform_only"), **inputs())
        again = solve(cfg, **args)
        assert first.state.basis_columns > 0
        assert np.array_equal(first.result.data, again.result.data)
        assert first.state.inner_iterations == again.state.inner_iterations
        assert (first.state.forward_products, first.state.adjoint_products) == (
            again.state.forward_products, again.state.adjoint_products,
        )
        assert set(vars(model)) == cached

    def test_desk_point_joint_takes_fewer_products(self, monkeypatch):
        from pwrecon import pipeline
        from pwrecon.config import get_builtin_config, run_config_from_dict
        from pwrecon.forward_model import SparseSystemMatrix

        cfg = run_config_from_dict(get_builtin_config("desk_point"))
        model = pipeline.build_model(cfg)
        ch = pipeline.simulate(cfg, pipeline.make_phantom(cfg), model)
        calls = []
        for name in ("apply", "apply_adjoint"):
            product = getattr(SparseSystemMatrix, name)

            def counted(self, v, _product=product):
                calls.append(1)
                return _product(self, v)

            monkeypatch.setattr(SparseSystemMatrix, name, counted)
        record = []
        self._exit_residuals(monkeypatch, record)
        report = pipeline.run_reconstruction(cfg, model, ch)
        # 1,012 products when every inner solve started cold from z_{k-1},
        # 740 from the recycled start alone
        assert len(calls) <= 618
        assert report.state.forward_products + report.state.adjoint_products == len(calls)
        assert report.iterations == 28
        assert report.converged
        assert max(r[1] for r in record) <= 1.0
