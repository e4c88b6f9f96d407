"""The benchmark builds every workload from the builtin config documents; a
key those documents keep that the reader no longer knows would show only as
a failed benchmark run. Each workload's set-up, one frame and its check run
here on one input."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "pwbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("pwbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where its dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["point_joint", "cyst_large", "cli_sequential"])
def test_workload_runs_one_checked_frame(name, tmp_path, monkeypatch):
    # the workloads set and pop the cache variable; monkeypatch restores it
    monkeypatch.setenv("PWRECON_CACHE_DIR", str(tmp_path / "cache"))
    workload = _load_workloads().make_workload(name, str(tmp_path / "work"))
    try:
        state = workload.setup(0)
        (inp,) = workload.make_inputs(state, 1, 1)
        digest, quality = workload.check(state, inp, workload.run_frame(state, inp))
    finally:
        workload.close()
    assert len(digest) == 40
    assert all(math.isfinite(v) for v in quality.values())
