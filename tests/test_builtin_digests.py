"""tools/builtin_digests.py prints one entry per builtin solve."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_prints_counts_and_digest_of_each_solve_of_one_config():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "builtin_digests.py"), "desk_point"],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    doc = json.loads(done.stdout)
    assert list(doc) == ["desk_point joint", "desk_point sequential"]
    for key, stages in (("desk_point joint", 1), ("desk_point sequential", 2)):
        entry = doc[key]
        assert set(entry) == {
            "iterations", "products", "inner_capped", "basis_columns", "sha1",
        }
        assert len(entry["iterations"]) == stages
        assert all(isinstance(n, int) and n >= 1 for n in entry["iterations"])
        for count in ("products", "inner_capped", "basis_columns"):
            assert isinstance(entry[count], int) and entry[count] >= 0
        assert entry["products"] > 0
        assert len(entry["sha1"]) == 12 and int(entry["sha1"], 16) >= 0
