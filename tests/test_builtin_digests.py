"""tools/builtin_digests.py prints one entry per builtin solve, and the
desk_point entries are pinned: a change that moves a builtin image updates
the pin and says why."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

DESK_POINT = {
    "desk_point das": {"sha1": "6b1f77657eca"},
    "desk_point joint": {
        "iterations": [28], "products": 618, "inner_capped": 0, "basis_columns": 24,
        "sha1": "2ce155f5753d",
    },
    "desk_point sequential": {
        "iterations": [2, 49], "products": 78, "inner_capped": 0, "basis_columns": 24,
        "sha1": "51830730add2",
    },
}


def test_prints_counts_and_digest_of_each_solve_of_one_config():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "builtin_digests.py"), "desk_point"],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    doc = json.loads(done.stdout)
    assert list(doc) == list(DESK_POINT)
    assert doc == DESK_POINT
