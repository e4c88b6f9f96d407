"""The traced benchmark wraps pwrecon names listed in ``pwbench/spans.py``
and its hooks read the arguments and results of some of them; each name,
parameter and result field they use must still exist, or a traced run
crashes instead of a test failing."""

import functools
import importlib
import importlib.util
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pwrecon import (
    InnerSettings,
    Psf,
    RfImage,
    SolverConfig,
    beamform_update,
    read_container,
    solve,
    write_container,
)

from conftest import channel_data

SPANS = Path(__file__).resolve().parents[1] / "pwbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("pwbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = _load_spans().TARGETS
    assert targets
    missing = []
    for _span, module, attr in targets:
        try:
            functools.reduce(getattr, attr.split("."), importlib.import_module(module))
        except (ImportError, AttributeError):
            missing.append("%s.%s" % (module, attr))
    assert missing == []


def _hook(name, fn, args, kwargs):
    """Call ``fn``, run the traced benchmark's hook for span ``name`` on the
    call and return the span's attributes with the call's result."""
    span = SimpleNamespace(attrs=None)
    result = fn(*args, **kwargs)
    _load_spans()._HOOKS[name](span, fn, args, kwargs, result)
    return span.attrs, result


def test_inner_iteration_hook_on_a_capped_update(covered_instance):
    model = covered_instance["model"]
    rng = np.random.default_rng(0)
    u = rng.standard_normal(covered_instance["grid"].shape)
    args = (model, rng.standard_normal(model.num_rows), u, np.zeros_like(u), 1.0, 2.0)
    inner = InnerSettings(max_iter=1, tol=1e-14)
    attrs, _ = _hook("solver.beamform_update", beamform_update, args, {"inner": inner})
    assert attrs == {"inner": 1, "capped": 1}


@pytest.mark.parametrize(
    "inner",
    [InnerSettings(), InnerSettings(max_iter=1, tol=1e-14)],
    ids=["uncapped", "capped"],
)
def test_inner_iteration_hook_on_updates_given_earlier_solutions(
    covered_instance, monkeypatch, inner
):
    # run the hook on every z update of a solve, the way a traced run wraps
    # the module attribute; each update receives the solve's earlier
    # solutions to start from, the first the seeded x0
    from pwrecon import solver as solver_mod

    update = solver_mod.beamform_update
    received, spans = [], []

    def traced(*args, **kwargs):
        received.append(len(kwargs["equations"].history))
        span = SimpleNamespace(attrs=None)
        result = update(*args, **kwargs)
        _load_spans()._HOOKS["solver.beamform_update"](span, update, args, kwargs, result)
        spans.append(span.attrs)
        return result

    monkeypatch.setattr(solver_mod, "beamform_update", traced)
    model = covered_instance["model"]
    rng = np.random.default_rng(1)
    cfg = SolverConfig(
        gamma_d=0.0, gamma_b=1.0, mu=0.01, beta=2.0, max_iter=6, epsilon=1e-12,
        mode="beamform_only", inner=inner,
    )
    report = solve(
        cfg,
        model=model,
        y_ch=channel_data(model, rng.standard_normal(model.num_rows)),
        x0=rng.standard_normal(covered_instance["grid"].shape),
    )
    assert report.iterations == 6
    assert min(received) > 0
    assert [s["inner"] for s in spans] == report.state.inner_iterations
    assert sum(s["capped"] for s in spans) == report.state.inner_capped
    assert report.state.inner_capped == (6 if inner.max_iter == 1 else 0)


def test_solve_iteration_hook_counts_both_sequential_stages(covered_instance):
    model = covered_instance["model"]
    x = np.zeros(covered_instance["grid"].shape)
    x[6, 6] = 1.0
    cfg = SolverConfig(gamma_d=0.0, gamma_b=1.0, mu=0.01, beta=2.0, mode="sequential")
    kwargs = dict(
        model=model,
        y_ch=channel_data(model, model.apply(x.reshape(-1, order="F"))),
        psf=Psf(kernel=np.outer([0.5, 1.0, 0.5], [0.5, 1.0, 0.5])),
    )
    attrs, report = _hook("solver.solve", solve, (cfg,), kwargs)
    assert len(report.stages) == 2
    assert attrs == {"outer": sum(stage.iterations for stage in report.stages)}


def test_file_size_hooks_on_a_container_write_and_read(tiny_grid, tmp_path):
    path = str(tmp_path / "img.usjd")
    image = RfImage(np.ones(tiny_grid.shape), tiny_grid)
    attrs, _ = _hook("io.write", write_container, (image, path), {})
    assert attrs == {"bytes": os.path.getsize(path)}
    attrs, back = _hook("io.read", read_container, (path, "rfimage"), {})
    assert attrs == {"bytes": os.path.getsize(path)}
    assert isinstance(back, RfImage)
