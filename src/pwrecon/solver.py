"""ADMM reconstruction joining channel-data fidelity, blur fidelity, and sparsity.

The estimate minimizes

    gamma_d/2 ||y_das - H x||^2 + gamma_b/2 ||y_ch - Phi x||^2 + mu ||x||_1

by splitting x into three coupled copies: u carries the blur term and is
updated in closed form in the Fourier domain, z carries the channel-data
term and is updated by an iterative solver on its normal equations, and w
absorbs the l1 term through soft thresholding. Scaled multipliers tie the
copies together. Four modes reuse the same cycle: ``joint`` keeps both data
terms, ``beamform_only``/``deconv_only`` zero one of them (``mode_fields``
is the one rule for that), and ``sequential`` chains beamform_only into
deconv_only using the first stage's output as the blur-term observation.

One solve owns its state; concurrent solves on shared immutable inputs are
safe.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field, replace
from operator import attrgetter

import numpy as np

from .acquisition import ChannelData, check_channel_probe, check_grid
from .beamform import RfImage
from .psf import conv_apply, deconv_update

__all__ = [
    "InnerSettings",
    "SolverConfig",
    "SolverState",
    "SolveReport",
    "SolverError",
    "DivergenceError",
    "objective",
    "beamform_update",
    "sparsity_update",
    "multiplier_update",
    "solve",
    "mode_fields",
    "observations_needed",
]

MODES = ("joint", "beamform_only", "deconv_only", "sequential")

_TINY = 1e-30

# Inner solutions a solve keeps to start the next inner solve from. Forward
# plus adjoint products of four desk_point joint solves (phantom seeds 0-3):
# 4,180 when each inner solve starts from z_{k-1} alone, 3,948 / 3,474 /
# 3,238 / 3,072 / 3,014 at depths 1 / 2 / 3 / 5 / 8.
_START_DEPTH = 5

# Search directions (basis columns, stored as rows) a solve keeps from its
# first inner solves, 2 * 8 * n bytes each for n pixels. Forward plus adjoint
# products of desk_point joint (phantom seeds 1 / 2) and desk_cyst at 192x128
# (seed 1): 781 / 767 / 392 without a basis, 701 / 691 / 354 at 16 columns,
# 653 / 619 / 336 at 24, 611 / 609 / 330 at 32, 539 / 539 / 304 at 64. The
# peak RSS of a 192x128 run that also builds the matrix rises 0.3 MB at 24
# columns, 6.7 MB at 32.
_BASIS_COLUMNS = 24

# A harvested direction whose norm outside the kept span is at most this
# (it starts at 1) adds nothing the basis does not already hold.
_NEGLIGIBLE = 1e-4


def mode_fields(mode, values):
    """SolverConfig fields that put keyword ``values`` into ``mode``.

    A single-term mode keeps one data term: beamform_only sets gamma_d = 0
    and keeps gamma_b, or 1.0 where gamma_b is unset or zero; deconv_only is
    the mirror image. Sequential keeps gamma_b by the same rule, as its
    first stage is beamform_only. Joint changes only ``mode``.
    """
    if mode == "beamform_only":
        return {"mode": mode, "gamma_d": 0.0, "gamma_b": values.get("gamma_b") or 1.0}
    if mode == "deconv_only":
        return {"mode": mode, "gamma_b": 0.0, "gamma_d": values.get("gamma_d") or 1.0}
    if mode == "sequential":
        return {"mode": mode, "gamma_b": values.get("gamma_b") or 1.0}
    return {"mode": mode}


def observations_needed(cfg):
    """Which observations a solve in ``cfg``'s mode reads: ``channel`` (a
    system matrix and channel data), ``psf`` and ``das`` (a reference image).
    A term of zero weight reads nothing; sequential mode reads channel data
    and a PSF, never a DAS image, as stage 2 deblurs stage 1's output."""
    sequential = cfg.mode == "sequential"
    return {
        "channel": cfg.gamma_b > 0 or sequential,
        "psf": cfg.gamma_d > 0 or sequential,
        "das": cfg.gamma_d > 0 and not sequential,
    }


class SolverError(RuntimeError):
    """Inner or outer iteration failure; carries the iteration trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


class DivergenceError(SolverError):
    """Objective blew up past the divergence guard."""


@dataclass(frozen=True)
class InnerSettings:
    """Stopping contract for the channel-data subproblem solver."""

    max_iter: int = 50
    tol: float = 1e-6

    def __post_init__(self):
        if not self.max_iter >= 1:
            raise ValueError("inner max_iter must be at least 1")
        if not self.tol > 0:
            raise ValueError("inner tol must be positive")


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters and mode for one reconstruction.

    ``normalize`` rescales the observations to unit peak before iterating
    (and undoes the scale on the result) so that the l1 weight mu keeps a
    consistent meaning across datasets. In sequential mode ``stage2``
    optionally overrides the deconvolution-stage hyperparameters; each stage
    is completed by ``mode_fields``.
    """

    gamma_d: float = 1.0
    gamma_b: float = 0.1
    mu: float = 0.1
    beta: float = 1e3
    epsilon: float = 1e-3
    max_iter: int = 100
    mode: str = "joint"
    inner: InnerSettings = field(default_factory=InnerSettings)
    normalize: bool = True
    stage2: "SolverConfig | None" = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError("mode must be one of %s" % (MODES,))
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if not (self.gamma_d >= 0 and self.gamma_b >= 0 and self.mu >= 0):
            raise ValueError("gamma_d, gamma_b, mu must be nonnegative")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not self.max_iter >= 1:
            raise ValueError("max_iter must be at least 1")
        if self.mode == "beamform_only" and self.gamma_d != 0.0:
            raise ValueError("beamform_only requires gamma_d = 0")
        if self.mode == "deconv_only" and self.gamma_b != 0.0:
            raise ValueError("deconv_only requires gamma_b = 0")
        if not self.gamma_d + self.gamma_b > 0:
            raise ValueError("at least one data term must have positive weight")


@dataclass
class SolverState:
    """Split iterates, multipliers, and per-iteration diagnostics."""

    u: np.ndarray
    w: np.ndarray
    z: np.ndarray
    lam1: np.ndarray
    lam2: np.ndarray
    objective_history: list = field(default_factory=list)
    primal_residuals: list = field(default_factory=list)  # (|u-z|, |u-w|)
    inner_iterations: list = field(default_factory=list)  # CR steps per iteration
    inner_capped: int = 0  # CR solves stopped by inner.max_iter above tolerance
    dual_residuals: list = field(default_factory=list)  # (beta|dz|, beta|dw|)
    forward_products: int = 0  # Phi x made by this solve
    adjoint_products: int = 0  # Phi^T y made by this solve
    basis_columns: int = 0  # search directions the inner starts were projected on
    step_seconds: dict = field(
        default_factory=lambda: dict.fromkeys(("u", "z", "w", "objective"), 0.0)
    )  # wall time of each update over the whole solve


@dataclass
class SolveReport:
    """Outcome of one solve: final image plus convergence diagnostics. A
    sequential solve's ``iterations`` is the sum over its ``stages``, and
    its ``state`` and ``scale`` are None: each stage's report holds its own."""

    result: RfImage
    converged: bool
    iterations: int
    wall_time: float
    config: SolverConfig
    state: SolverState | None
    scale: float | None = 1.0
    stages: list = field(default_factory=list)

    def to_json_dict(self):
        """The report as JSON values. A sequential report's top level has only
        the fields true of the whole solve, beside its stages' reports."""
        d = {
            "converged": self.converged,
            "iterations": self.iterations,
            "mode": self.config.mode,
            "timing": {"wall_time_s": self.wall_time},
        }
        if self.stages:
            return {**d, "stages": [s.to_json_dict() for s in self.stages]}
        d["timing"].update(("%s_step_s" % k, v) for k, v in self.state.step_seconds.items())
        return {
            **d,
            "hyperparameters": {
                k: getattr(self.config, k)
                for k in ("gamma_d", "gamma_b", "mu", "beta", "epsilon", "max_iter")
            },
            "objective_history": list(self.state.objective_history),
            "primal_residuals": [list(r) for r in self.state.primal_residuals],
            "inner_iterations": list(self.state.inner_iterations),
            "inner_capped": self.state.inner_capped,
            "dual_residuals": [list(r) for r in self.state.dual_residuals],
            "forward_products": self.state.forward_products,
            "adjoint_products": self.state.adjoint_products,
            "basis_columns": self.state.basis_columns,
            "scale": self.scale,
        }


def objective(x, y_das, psf, model, y_ch, cfg):
    """Value of the composite objective at image x.

    Terms whose weight is zero are skipped, so their operators / data may
    be absent.
    """
    x = np.asarray(x, dtype=np.float64)
    total = cfg.mu * float(np.sum(np.abs(x)))
    if cfg.gamma_d > 0:
        resid = np.asarray(y_das) - conv_apply(psf, x)
        total += 0.5 * cfg.gamma_d * float(np.sum(resid**2))
    if cfg.gamma_b > 0:
        resid = np.asarray(y_ch) - model.apply(x.reshape(-1, order="F"))
        total += 0.5 * cfg.gamma_b * float(np.sum(resid**2))
    return total


def _conjugate_residual(apply_a, x0, r0, threshold, max_iter, keep=((), ())):
    """Minimize ||b - A x|| over growing Krylov spaces (A symmetric PD).

    ``r0`` is the start residual b - A x0; the solve stops once a residual
    norm is at most ``threshold``. Each recorded step takes one product of
    A, and residual norms are nonincreasing by construction. ``keep`` is a
    pair of row blocks (U, C), empty by default: step j writes its direction
    p_j / ||A p_j|| to row j of U and A p_j / ||A p_j|| to row j of C while
    rows last. Returns the iterate, its recurrence residual and the recorded
    residual-norm trace.
    """
    keep_u, keep_c = keep
    x, r = x0, r0
    norms = [float(np.linalg.norm(r))]
    if norms[-1] <= threshold:
        return x, r, norms
    p = r.copy()
    ar = apply_a(r)
    ap = ar.copy()
    r_ar = float(r @ ar)
    for step in range(1, max_iter + 1):
        ap_ap = float(ap @ ap)
        if ap_ap <= 0.0 or r_ar == 0.0:
            break
        if step <= len(keep_c):
            scale = 1.0 / np.sqrt(ap_ap)
            np.multiply(p, scale, out=keep_u[step - 1])
            np.multiply(ap, scale, out=keep_c[step - 1])
        alpha = r_ar / ap_ap
        x = x + alpha * p
        r = r - alpha * ap
        nr = float(np.linalg.norm(r))
        if not np.isfinite(nr):
            raise SolverError("non-finite residual in inner solver", norms)
        norms.append(nr)
        if nr <= threshold or step == max_iter:
            break
        ar = apply_a(r)
        r_ar_new = float(r @ ar)
        gamma = r_ar_new / r_ar
        p = r + gamma * p
        ap = ar + gamma * ap
        r_ar = r_ar_new
    return x, r, norms


class _ChannelTerm:
    """One solve's channel-data term gamma_b/2 ||y - Phi x||^2 and the
    normal equations A z = b of its z updates, with
    A = gamma_b Phi^T Phi + beta I and b = gamma_b Phi^T y + beta u + lam2,
    and what each of their inner solves leaves for the next.

    It holds the shared system matrix, the channel data ``y`` as the solve
    normalized them, and the products made through the matrix, counted here
    so that the shared matrix keeps no per-solve state. Only u and lam2
    change from solve to solve, so gamma_b Phi^T y is taken once, at one
    adjoint product. Each solve starts from the combination of the last
    ``_START_DEPTH`` solutions z_j with the smallest residual, from the
    pairs (z_j, A z_j) in ``history``; a nonzero ``z0`` seeds them at one
    product of A. The start then loses its residual's component along the
    kept search directions: row j of ``kept_u`` is a direction and row j of
    ``kept_c`` its product with A, so A U = C, and the ``kept`` rows of C
    are orthonormal. The first solves fill the ``columns`` rows, and neither
    start takes a product of A. ``capped`` counts the solves that
    ``inner.max_iter`` stopped above tolerance.
    """

    def __init__(self, model, y, gamma_b, beta, columns, z0=None):
        self.model, self.matrix = model, model.matrix
        self.y = np.asarray(y, dtype=np.float64).reshape(-1)
        self.gamma_b, self.beta = gamma_b, beta
        self.forward = self.adjoint = 0
        self.back_projection = gamma_b * self.apply_adjoint(self.y)
        n = self.back_projection.size
        self.history = deque(maxlen=_START_DEPTH)
        self.kept_u, self.kept_c = np.empty((columns, n)), np.empty((columns, n))
        self.kept = 0
        self.capped = 0
        if z0 is not None and np.any(z0):
            v = z0.reshape(-1, order="F")
            self.history.append((v, self._apply(v)))

    def apply(self, x):
        self.forward += 1
        return self.model.apply(x)

    def apply_adjoint(self, y):
        self.adjoint += 1
        return self.model.apply_adjoint(y)

    def _apply(self, v):
        return self.gamma_b * self.apply_adjoint(self.apply(v)) + self.beta * v

    def solve(self, u, lam2, inner):
        """z solving the equations for (u, lam2) to the inner tolerance, and
        the solve's residual-norm trace."""
        b = self.back_projection + (self.beta * u + lam2).reshape(-1, order="F")
        if self.history:
            z, az = (np.column_stack(cols) for cols in zip(*self.history))
            # least squares by SVD: the A z_j grow nearly collinear as ADMM
            # converges. Singular values below 100 eps / tol of the largest
            # are dropped, or their large coefficients would carry rounding
            # into the start residual above the inner tolerance, and every
            # later start would inherit it from the stored pairs. At eps / tol
            # that rounding (eps times the condition) can reach the tolerance
            # itself; the factor 100 holds it to a hundredth of it.
            c = np.linalg.lstsq(az, b, rcond=100 * np.finfo(float).eps / inner.tol)[0]
            x, r = z @ c, b - az @ c
        else:
            x, r = np.zeros_like(b), b
        k = self.kept
        h = self.kept_c[:k] @ r
        x, r = x + h @ self.kept_u[:k], r - h @ self.kept_c[:k]
        threshold = inner.tol * (1.0 + float(np.linalg.norm(b)))
        x, r, norms = _conjugate_residual(
            self._apply, x, r, threshold, inner.max_iter,
            keep=(self.kept_u[k:], self.kept_c[k:]),
        )
        steps = len(norms) - 1
        self.capped += int(steps >= inner.max_iter and norms[-1] > threshold)
        self._keep(steps)
        self.history.append((x, b - r))  # A x from the residual, no product
        return x.reshape(u.shape, order="F"), norms

    def _keep(self, m):
        """Keep the directions of an m-step CR solve that fitted in the free
        rows, made orthogonal to the kept rows of C and among themselves."""
        k = self.kept
        m = min(m, len(self.kept_c) - k)
        ub, cb = self.kept_u[k : k + m], self.kept_c[k : k + m]
        if k:
            for _ in range(2):  # twice over: orthogonal to C to rounding
                h = cb @ self.kept_c[:k].T
                cb -= h @ self.kept_c[:k]
                ub -= h @ self.kept_u[:k]
        # a CR solve's own A-images lose orthogonality to about 1e-6 in 20
        # steps, near the inner tolerance: orthonormalizing the first batch
        # too saves about 17 of 656 products on desk_point. A direction left
        # (nearly) in span(C) is dropped.
        s, v = np.linalg.eigh(cb @ cb.T)
        live = s > _NEGLIGIBLE**2
        t = (v[:, live] / np.sqrt(s[live])).T
        self.kept = k + len(t)
        self.kept_c[k : self.kept] = t @ cb
        self.kept_u[k : self.kept] = t @ ub


def beamform_update(model, y_ch, u, lam2, gamma_b, beta, inner, *, equations=None):
    """Channel-data subproblem: approximately minimize over z

        gamma_b/2 ||y_ch - Phi z||^2 + beta/2 ||u - z + lam2/beta||^2.

    Solved on the normal equations A z = rhs, A = gamma_b Phi^T Phi + beta I,
    to the inner gradient tolerance. With gamma_b = 0 the exact proximal
    point u + lam2/beta is returned. ``equations`` (a ``_ChannelTerm``
    of the same model, y_ch, gamma_b and beta) carries a solve's
    back-projection and inner starts from one update to the next; without
    it a fresh term is built, which starts from zero and keeps no direction.

    Returns (z, gradient_norms).
    """
    if not beta > 0:
        raise ValueError("beta must be positive")
    if gamma_b == 0.0:
        return u + lam2 / beta, [0.0]
    if equations is None:
        equations = _ChannelTerm(model, y_ch, gamma_b, beta, 0)
    return equations.solve(u, lam2, inner)


def sparsity_update(u, lam1, mu, beta):
    """Soft-thresholding step: shrink u + lam1/beta toward zero by mu/beta."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    v = u + lam1 / beta
    return np.maximum(np.abs(v) - mu / beta, 0.0) * np.sign(v)


def multiplier_update(state, beta):
    """Ascend the scaled multipliers along the consensus gaps."""
    state.lam1 = state.lam1 + beta * (state.u - state.w)
    state.lam2 = state.lam2 + beta * (state.u - state.z)
    return state


def _lap(times, step, start):
    """Add the time since ``start`` to ``times[step]``; return the time now."""
    now = time.perf_counter()
    times[step] += now - start
    return now


def solve(cfg, model=None, y_ch=None, psf=None, y_das=None, x0=None):
    """Run the full splitting cycle until the relative objective change
    falls below epsilon or max_iter is reached.

    Parameters
    ----------
    cfg : SolverConfig
    model : SparseSystemMatrix, with ``y_ch`` when the mode reads channel data.
    y_ch : ChannelData; it must share the matrix's transmit, sample count and
        probe geometry.
    psf : Psf, when the mode reads a PSF.
    y_das : RfImage, when the mode reads a reference image; on the matrix's
        grid if a matrix is given.
    x0 : optional finite (nz, nx) array initializing u = w = z (multipliers
        start at zero). Defaults to all zeros.

    ``observations_needed`` decides what the mode reads; channel data or a
    reference image it does not read are only type-checked. Returns a
    SolveReport whose result is the iterate the stopping test tracks: u, or
    z whenever gamma_d = 0. Raises DivergenceError if the objective exceeds
    1e6 times its initial value.
    """
    t_start = time.perf_counter()
    for name, value, cls in (("y_ch", y_ch, ChannelData), ("y_das", y_das, RfImage)):
        if value is not None and not isinstance(value, cls):
            raise ValueError("%s must be of type %s" % (name, cls.__name__))
    needs = observations_needed(cfg)
    if needs["channel"] and (model is None or y_ch is None):
        raise ValueError("mode %r needs a system matrix and channel data" % cfg.mode)
    if needs["psf"] and psf is None:
        raise ValueError("mode %r needs a PSF" % cfg.mode)
    if needs["das"] and y_das is None:
        raise ValueError("mode %r needs a reference image" % cfg.mode)
    if cfg.mode == "sequential":
        return _solve_sequential(cfg, model, y_ch, psf, x0, t_start)

    # one data term is active, so the matrix or the image fixes the grid
    grid = model.grid if model is not None else y_das.grid
    shape = grid.shape
    check_grid(grid, "the system matrix", reference=y_das if needs["das"] else None)
    if needs["channel"]:
        check_channel_probe(
            y_ch,
            model.probe,
            "the system matrix",
            ("tx", y_ch.tx, model.tx),
            ("num_samples", y_ch.num_samples, model.num_time_samples),
            ("t0_offset", y_ch.probe.t0_offset, model.probe.t0_offset),
        )
    x0 = np.zeros(shape) if x0 is None else np.asarray(x0, dtype=np.float64)
    if x0.shape != shape:
        raise ValueError("x0 shape does not match grid")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 contains non-finite values")
    # normalize observations to unit peak so mu has a consistent scale
    peak = float(np.max(np.abs(y_das.data if needs["das"] else y_ch.samples)))
    scale = peak if cfg.normalize and peak > 0 else 1.0
    yd = y_das.data / scale if needs["das"] else np.zeros(shape)
    init = x0 / scale
    channel = None
    if needs["channel"]:
        channel = _ChannelTerm(
            model, y_ch.to_vector() / scale, cfg.gamma_b, cfg.beta, _BASIS_COLUMNS, z0=init
        )
    state = SolverState(
        u=init.copy(), w=init.copy(), z=init.copy(), lam1=np.zeros(shape), lam2=np.zeros(shape)
    )
    # the stopping objective tracks the fidelity-side iterate: u whenever the
    # blur term is active, otherwise z (u lags z by a cycle when gamma_d = 0)
    tracked = attrgetter("u" if cfg.gamma_d > 0.0 else "z")

    converged, iterations = _admm(cfg, state, tracked, channel, psf, yd)

    return SolveReport(
        result=RfImage(data=tracked(state) * scale, grid=grid),
        converged=converged,
        iterations=iterations,
        wall_time=time.perf_counter() - t_start,
        config=cfg,
        state=state,
        scale=scale,
    )


def _admm(cfg, state, tracked, channel, psf, yd):
    """The ADMM cycle on ``state`` from its initial iterates, with the
    objective taken at the ``tracked`` one; returns (converged, iterations).
    ``channel`` is None when gamma_b = 0."""
    yc = None if channel is None else channel.y
    times = state.step_seconds
    clock = time.perf_counter()
    obj0 = objective(tracked(state), yd, psf, channel, yc, cfg)
    _lap(times, "objective", clock)
    state.objective_history.append(obj0)
    guard = 1e6 * max(obj0, _TINY)

    for it in range(1, cfg.max_iter + 1):
        z_prev, w_prev = state.z, state.w
        clock = time.perf_counter()
        state.u = deconv_update(
            yd, psf, state.w, state.z, state.lam1, state.lam2, cfg.gamma_d, cfg.beta
        )
        clock = _lap(times, "u", clock)
        state.z, norms = beamform_update(
            channel, yc, state.u, state.lam2, cfg.gamma_b, cfg.beta, cfg.inner,
            equations=channel,
        )
        state.inner_iterations.append(len(norms) - 1)
        clock = _lap(times, "z", clock)
        state.w = sparsity_update(state.u, state.lam1, cfg.mu, cfg.beta)
        _lap(times, "w", clock)
        multiplier_update(state, cfg.beta)

        clock = time.perf_counter()
        obj = objective(tracked(state), yd, psf, channel, yc, cfg)
        _lap(times, "objective", clock)
        state.objective_history.append(obj)
        state.primal_residuals.append(
            (float(np.linalg.norm(state.u - state.z)), float(np.linalg.norm(state.u - state.w)))
        )
        state.dual_residuals.append((
            cfg.beta * float(np.linalg.norm(state.z - z_prev)),
            cfg.beta * float(np.linalg.norm(state.w - w_prev)),
        ))
        if not np.isfinite(obj):
            raise SolverError(
                "non-finite objective at iteration %d" % it, state.objective_history
            )
        if obj > guard:
            raise DivergenceError(
                "objective diverged at iteration %d" % it, state.objective_history
            )
        prev = state.objective_history[-2]
        converged = abs(obj - prev) / max(prev, _TINY) <= cfg.epsilon
        if converged:
            break

    if channel is not None:
        state.forward_products, state.adjoint_products = channel.forward, channel.adjoint
        state.inner_capped, state.basis_columns = channel.capped, channel.kept
    return converged, it


def _solve_sequential(cfg, model, y_ch, psf, x0, t_start):
    """Channel-data stage to convergence, then blur stage on its output."""
    stage1 = replace(cfg, stage2=None, **mode_fields("beamform_only", vars(cfg)))
    report1 = solve(stage1, model=model, y_ch=y_ch, x0=x0)
    stage2 = cfg.stage2 or cfg
    stage2 = replace(stage2, stage2=None, **mode_fields("deconv_only", vars(stage2)))
    report2 = solve(stage2, psf=psf, y_das=report1.result)
    return SolveReport(
        result=report2.result,
        converged=report1.converged and report2.converged,
        iterations=report1.iterations + report2.iterations,
        wall_time=time.perf_counter() - t_start,
        config=cfg,
        state=None,
        scale=None,
        stages=[report1, report2],
    )
