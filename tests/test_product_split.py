"""tools/product_split.py replays ``apply`` and ``apply_adjoint`` through the
system matrix's private row blocks and worker; one run of it keeps the tool
in step with them."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TIMINGS = [
    "apply", "apply_adjoint", "top_forward_kernel", "bottom_forward_kernel",
    "top_adjoint_kernel", "bottom_adjoint_kernel", "unsplit_forward", "unsplit_adjoint",
    "pool_round_trip",
]
STEPS = ["submit", "worker_start_after_submit", "caller_kernel", "worker_kernel", "caller_wait"]


def test_one_repeat_prints_every_timing_of_both_matrices():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "product_split.py"), "--repeats", "1"],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    doc = json.loads(done.stdout)
    assert list(doc) == ["desk_point 96x64", "desk_cyst 192x128"]
    nnz = {"desk_point 96x64": 703100, "desk_cyst 192x128": 2927246}
    for label, entry in doc.items():
        assert list(entry) == ["nnz", "rows", "repeats", *TIMINGS, "split"]
        assert entry["nnz"] == nnz[label] and entry["repeats"] == 1
        assert all(r > 0 for r in entry["rows"])
        assert all(entry[k] >= 0.0 for k in TIMINGS)
        assert list(entry["split"]) == ["forward", "adjoint"]
        for steps in entry["split"].values():
            assert list(steps) == STEPS
