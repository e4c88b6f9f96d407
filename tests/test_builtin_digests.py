"""tools/builtin_digests.py prints one entry per builtin solve, and the
desk_point and desk_cyst entries are pinned: a change that moves a builtin
image updates the pin and says why."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DESK_POINT = {
    "desk_point das": {"sha1": "6b1f77657eca"},
    "desk_point joint": {
        "iterations": [28], "products": 618, "inner_capped": 0, "basis_columns": 24,
        "sha1": "8c6b2d4b0cde",
    },
    "desk_point sequential": {
        "iterations": [2, 49], "products": 78, "inner_capped": 0, "basis_columns": 24,
        "sha1": "86994deadf30",
    },
}

DESK_CYST = {
    "desk_cyst das": {"sha1": "977954b678aa"},
    "desk_cyst joint": {
        "iterations": [20], "products": 272, "inner_capped": 0, "basis_columns": 24,
        "sha1": "0999bf71bba4",
    },
    "desk_cyst sequential": {
        "iterations": [2, 29], "products": 58, "inner_capped": 0, "basis_columns": 24,
        "sha1": "1f819799ea97",
    },
}


def _digests(*setup, name="desk_point"):
    """The tool's JSON for builtin config ``name``, printed by a Python that
    first runs the ``setup`` statements."""
    tool = str(ROOT / "tools" / "builtin_digests.py")
    code = "; ".join(setup + (
        "import runpy, sys",
        "sys.argv[1:] = [%r]" % name,
        "runpy.run_path(%r, run_name='__main__')" % tool,
    ))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    return json.loads(done.stdout)


def test_prints_counts_and_digest_of_each_solve_of_one_config():
    doc = _digests()
    assert list(doc) == list(DESK_POINT)
    assert doc == DESK_POINT


def test_desk_cyst_digests():
    assert _digests(name="desk_cyst") == DESK_CYST


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_one_cpu_gives_the_same_digests():
    # the system-matrix products split into the same two row blocks on any
    # number of cores
    cpu = min(os.sched_getaffinity(0))
    assert _digests("import os", "os.sched_setaffinity(0, {%d})" % cpu) == DESK_POINT
