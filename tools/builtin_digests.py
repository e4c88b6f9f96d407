"""Digests and counts of every builtin solve, to check that a change keeps
each image bit for bit.

    PYTHONPATH=src python3 tools/builtin_digests.py [desk_point] [desk_cyst]

For each builtin config named (both by default) it simulates the channel
data, takes the delay-and-sum reference and solves through
``pipeline.run_reconstruction`` twice: in the config's joint mode and with
the solver block replaced by ``DESK_SEQUENTIAL[name]``. The reference
prints as one JSON entry, ``das``, with the first 12 hex digits of the sha1
of its image's bytes. Each solve prints as one entry: outer iterations per
stage, then, summed over the stages, forward + adjoint products,
``inner_capped`` and ``basis_columns``, and the sha1 digits of the result
image. BLAS and OpenMP threads are pinned to 1 before numpy loads.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
from dataclasses import replace  # noqa: E402

from pwrecon import pipeline  # noqa: E402
from pwrecon.config import (  # noqa: E402
    DESK_SEQUENTIAL,
    get_builtin_config,
    run_config_from_dict,
    solver_config,
)


def image_sha1(image):
    """The first 12 hex digits of the sha1 of an image's bytes."""
    return hashlib.sha1(image.data.tobytes()).hexdigest()[:12]


def digest(report):
    """Iterations per stage, the summed counts and the image digest of one solve."""
    stages = report.stages or [report]
    return {
        "iterations": [s.iterations for s in stages],
        "products": sum(s.state.forward_products + s.state.adjoint_products for s in stages),
        "inner_capped": sum(s.state.inner_capped for s in stages),
        "basis_columns": sum(s.state.basis_columns for s in stages),
        "sha1": image_sha1(report.result),
    }


def builtin_digests(names):
    """{"<name> das": {"sha1": ...}, "<name> <joint|sequential>": digest}
    for each builtin config name."""
    out = {}
    for name in names:
        cfg = run_config_from_dict(get_builtin_config(name))
        model = pipeline.build_model(cfg)
        ch = pipeline.simulate(cfg, pipeline.make_phantom(cfg), model)
        das = pipeline.reference_das(model, ch)
        out["%s das" % name] = {"sha1": image_sha1(das)}
        for mode, solver in (
            ("joint", cfg.solver),
            ("sequential", solver_config(DESK_SEQUENTIAL[name])),
        ):
            report = pipeline.run_reconstruction(
                replace(cfg, solver=solver), model, ch, y_das=das
            )
            out["%s %s" % (name, mode)] = digest(report)
    return out


if __name__ == "__main__":
    print(json.dumps(builtin_digests(sys.argv[1:] or sorted(DESK_SEQUENTIAL)), indent=1))
