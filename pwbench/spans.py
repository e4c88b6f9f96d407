"""Span recording around pwrecon's public functions, and per-layer figures.

A span is recorded at each call into a wrapped function: its name, start,
end, parent span and frame id. Functions are wrapped where they are bound
(every ``pwrecon`` module attribute that holds the function, so that
``from .x import f`` re-exports are caught too) and, for the system-matrix
products, on the class. Nothing under ``src/`` is edited; calls are
recorded only while a root span (a set-up or a frame) is open, so the
benchmark's own checks outside frames stay untraced.

Spans stay in memory and are written out when the run ends. A span's self
time is its duration minus the time its direct children cover; the root's
self time is work no wrapped function covers ("other").
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# (span name, module, attribute). The first part of a name is its layer.
TARGETS = [
    ("config.load", "pwrecon.config", "load_run_config"),
    ("config.load", "pwrecon.config", "run_config_from_dict"),
    ("forward_model.build", "pwrecon.forward_model", "build_system_matrix"),
    ("forward_model.save", "pwrecon.forward_model", "save_matrix"),
    ("forward_model.load", "pwrecon.forward_model", "load_matrix"),
    ("forward_model.time_window", "pwrecon.forward_model", "suggest_time_window"),
    ("forward_model.apply", "pwrecon.forward_model", "SparseSystemMatrix.apply"),
    ("forward_model.adjoint", "pwrecon.forward_model", "SparseSystemMatrix.apply_adjoint"),
    ("acquisition.point_phantom", "pwrecon.acquisition", "make_point_phantom"),
    ("acquisition.cyst_phantom", "pwrecon.acquisition", "make_cyst_phantom"),
    ("acquisition.simulate", "pwrecon.acquisition", "simulate_channel_data"),
    ("beamform.das", "pwrecon.beamform", "das_beamform"),
    ("beamform.envelope", "pwrecon.beamform", "envelope"),
    ("beamform.log_compress", "pwrecon.beamform", "log_compress"),
    ("psf.parametric", "pwrecon.psf", "make_parametric_psf"),
    ("psf.conv_apply", "pwrecon.psf", "conv_apply"),
    ("psf.deconv_update", "pwrecon.psf", "deconv_update"),
    ("solver.solve", "pwrecon.solver", "solve"),
    ("solver.beamform_update", "pwrecon.solver", "beamform_update"),
    ("solver.sparsity_update", "pwrecon.solver", "sparsity_update"),
    ("solver.multiplier_update", "pwrecon.solver", "multiplier_update"),
    ("solver.objective", "pwrecon.solver", "objective"),
    ("metrics.fwhm", "pwrecon.metrics", "fwhm"),
    ("metrics.cnr", "pwrecon.metrics", "cnr"),
    ("metrics.gcnr", "pwrecon.metrics", "gcnr"),
    ("metrics.histogram_match", "pwrecon.metrics", "histogram_match"),
    ("pipeline.build_model", "pwrecon.pipeline", "build_model"),
    ("pipeline.make_phantom", "pwrecon.pipeline", "make_phantom"),
    ("pipeline.simulate", "pwrecon.pipeline", "simulate"),
    ("pipeline.reference_das", "pwrecon.pipeline", "reference_das"),
    ("pipeline.psf_from_model", "pwrecon.pipeline", "psf_from_model"),
    ("pipeline.resolve_psf", "pwrecon.pipeline", "resolve_psf"),
    ("pipeline.run_reconstruction", "pwrecon.pipeline", "run_reconstruction"),
    ("pipeline.measure", "pwrecon.pipeline", "measure"),
    ("io.read", "pwrecon.io", "read_container"),
    ("io.write", "pwrecon.io", "write_container"),
    ("cli", "pwrecon.cli", "main"),
]

LAYERS = (
    "config", "forward_model", "acquisition", "beamform", "psf",
    "solver", "metrics", "pipeline", "io", "cli",
)

# Counts that do not depend on the machine; two traced runs with one seed
# must repeat them exactly.
COUNTS = (
    "forward_model.apply_calls",
    "forward_model.adjoint_calls",
    "solver.outer_iters",
    "solver.inner_iters",
    "solver.inner_capped",
    "psf.deconv_calls",
    "io.bytes_read",
    "io.bytes_written",
)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "frame", "attrs")

    def __init__(self, id, name, parent, frame):
        self.id = id
        self.name = name
        self.parent = parent
        self.frame = frame
        self.start = self.end = 0.0
        self.attrs = None

    @property
    def duration(self):
        return self.end - self.start


def _csr_bytes(matrix):
    return matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes


def _spmv_bytes(span, fn, args, kwargs, result):
    # bytes one CSR product touches once: values, indices, row pointers,
    # the input vector and the output vector (computed, not measured)
    matrix = args[0].matrix
    span.attrs = {"bytes": _csr_bytes(matrix) + 8 * (matrix.shape[0] + matrix.shape[1])}


def _matrix_size(span, fn, args, kwargs, result):
    span.attrs = {"nnz": int(result.nnz), "csr_bytes": _csr_bytes(result.matrix)}


def _file_size(position):
    def hook(span, fn, args, kwargs, result):
        path = kwargs["path"] if "path" in kwargs else args[position]
        span.attrs = {"bytes": os.path.getsize(path)}

    return hook


def _solve_iterations(span, fn, args, kwargs, result):
    # sequential solves count both stages; ``iterations`` alone is stage 2
    stages = result.stages or [result]
    span.attrs = {"outer": sum(s.iterations for s in stages)}


def _inner_iterations(span, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    if bound["gamma_b"] == 0.0:
        span.attrs = {"inner": 0, "capped": 0}
        return
    norms = result[1]
    inner = bound["inner"]
    iters = len(norms) - 1
    capped = 0
    if iters >= inner.max_iter:
        # stopped by the cap: was the last residual still above tolerance?
        model = bound["model"]
        y = np.asarray(bound["y_ch"], dtype=np.float64).reshape(-1)
        b = bound["gamma_b"] * (model.matrix.T @ y) + (
            bound["beta"] * bound["u"] + bound["lam2"]
        ).reshape(-1, order="F")
        capped = int(norms[-1] > inner.tol * (1.0 + float(np.linalg.norm(b))))
    span.attrs = {"inner": iters, "capped": capped}


def _cli_name(args, kwargs):
    argv = kwargs.get("argv", args[0] if args else None)
    return "cli.%s" % (argv[0] if argv else "main")


_HOOKS = {
    "forward_model.apply": _spmv_bytes,
    "forward_model.adjoint": _spmv_bytes,
    "forward_model.build": _matrix_size,
    "forward_model.load": _matrix_size,
    "io.read": _file_size(0),
    "io.write": _file_size(1),
    "solver.solve": _solve_iterations,
    "solver.beamform_update": _inner_iterations,
}


class Tracer:
    """Wraps pwrecon's public functions and records spans in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        hook = _HOOKS.get(name)
        namer = _cli_name if name == "cli" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            span = Span(
                len(tracer.spans),
                namer(args, kwargs) if namer else name,
                parent.id,
                parent.frame,
            )
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(span, fn, args, kwargs, result)
            return result

        return traced

    def install(self):
        wrappers = {}
        for name, module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrappers[id(original)] = (original, self._wrap(name, original))
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "pwrecon" or n.startswith("pwrecon."))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    @contextlib.contextmanager
    def root(self, name, frame):
        """Open a root span; wrapped calls inside it are recorded."""
        span = Span(len(self.spans), name, None, frame)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def write(self, path):
        """Write every span as one JSON document (times in seconds)."""
        t0 = self.spans[0].start if self.spans else 0.0
        doc = {
            "fields": ["id", "name", "start_s", "end_s", "parent", "frame", "attrs"],
            "spans": [
                [s.id, s.name, s.start - t0, s.end - t0, s.parent, s.frame, s.attrs]
                for s in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)

    # -- analysis ---------------------------------------------------------

    def by_frame(self):
        groups = defaultdict(list)
        for s in self.spans:
            groups[s.frame].append(s)
        return groups


def _attr(span, key):
    # a call that raised has no attributes; it counts as zero
    return (span.attrs or {}).get(key, 0)


def _self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return {s.id: s.duration - child[s.id] for s in spans}


def _outermost(spans, name):
    """Spans called ``name`` that are not nested in a span of the same name."""
    names = {s.id: s.name for s in spans}
    return [s for s in spans if s.name == name and names.get(s.parent) != name]


def frame_figures(spans):
    """Per-layer figures of one traced frame (or set-up) from its spans."""
    root = next(s for s in spans if s.parent is None)
    own = _self_times(spans)
    fig = defaultdict(float)
    fig["trace.frame_s"] = root.duration
    for s in spans:
        if s is root:
            fig["trace.other_s"] += own[s.id]
        else:
            fig["self.%s_s" % s.name.split(".")[0]] += own[s.id]

    def total(name):
        return sum(s.duration for s in _outermost(spans, name))

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    for name, key in (
        ("forward_model.build", "forward_model.build_s"),
        ("forward_model.save", "forward_model.save_s"),
        ("forward_model.load", "forward_model.load_s"),
        ("forward_model.apply", "forward_model.apply_s"),
        ("forward_model.adjoint", "forward_model.adjoint_s"),
        ("solver.solve", "solver.solve_s"),
        ("solver.beamform_update", "solver.beamform_update_s"),
        ("solver.sparsity_update", "solver.sparsity_update_s"),
        ("solver.objective", "solver.objective_s"),
        ("psf.deconv_update", "psf.deconv_update_s"),
        ("psf.conv_apply", "psf.conv_apply_s"),
        ("beamform.das", "beamform.das_s"),
        ("beamform.envelope", "beamform.envelope_s"),
        ("pipeline.measure", "metrics.measure_s"),
        ("io.read", "io.read_s"),
        ("io.write", "io.write_s"),
        ("config.load", "config.load_s"),
    ):
        fig[key] = total(name)
    for cmd in ("das", "solve", "metrics"):
        fig["cli.%s_s" % cmd] = sum(
            own[s.id] for s in spans if s.name == "cli.%s" % cmd
        )
    fig["forward_model.apply_calls"] = calls("forward_model.apply")
    fig["forward_model.adjoint_calls"] = calls("forward_model.adjoint")
    fig["psf.deconv_calls"] = calls("psf.deconv_update")
    fig["spmv_bytes"] = sum(
        _attr(s, "bytes") for s in spans
        if s.name in ("forward_model.apply", "forward_model.adjoint")
    )
    fig["solver.outer_iters"] = sum(
        _attr(s, "outer") for s in _outermost(spans, "solver.solve")
    )
    for key, attr in (("solver.inner_iters", "inner"), ("solver.inner_capped", "capped")):
        fig[key] = sum(
            _attr(s, attr) for s in spans if s.name == "solver.beamform_update"
        )
    fig["io.bytes_read"] = sum(_attr(s, "bytes") for s in spans if s.name == "io.read")
    fig["io.bytes_written"] = sum(_attr(s, "bytes") for s in spans if s.name == "io.write")
    sized = [s for s in spans if s.name in ("forward_model.build", "forward_model.load")]
    if sized:
        fig["forward_model.nnz"] = _attr(sized[-1], "nnz")
        fig["forward_model.csr_mb"] = _attr(sized[-1], "csr_bytes") / 1e6
    return fig


def counts_of(fig):
    return tuple(fig[k] for k in COUNTS)


def layer_metrics(setup_fig, frame_figs, count_figs, untraced_s, traced_s):
    """Per-layer metrics of a traced run.

    Times are means per traced frame, so the ``self.*_s`` figures and
    ``trace.other_s`` add up to ``trace.frame_s``. Counts are means over
    ``count_figs``, one frame per distinct input, so that they do not
    depend on how many frames fitted in the run.
    """
    keys = {k for f in frame_figs for k in f} - {"spmv_bytes"}
    out = {key: statistics.fmean(f.get(key, 0.0) for f in frame_figs) for key in keys}
    for key in COUNTS:
        out[key] = statistics.fmean(f[key] for f in count_figs)
    for layer in LAYERS:
        out.setdefault("self.%s_s" % layer, 0.0)
    out["trace.self_sum_s"] = out["trace.frame_s"] - out["trace.other_s"]
    busy = sum(f["forward_model.apply_s"] + f["forward_model.adjoint_s"] for f in frame_figs)
    moved = sum(f["spmv_bytes"] for f in frame_figs)
    out["forward_model.spmv_gbps_computed"] = moved / busy / 1e9 if busy > 0 else 0.0
    for key in ("forward_model.build_s", "forward_model.save_s"):
        out[key] = setup_fig.get(key, 0.0)
    out["forward_model.nnz"] = setup_fig.get("forward_model.nnz", 0)
    out["forward_model.csr_mb"] = setup_fig.get("forward_model.csr_mb", 0.0)
    out["trace.overhead_ratio"] = (
        statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    )
    return out
