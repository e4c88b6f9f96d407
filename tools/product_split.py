"""Where the time of one system-matrix product goes: kernels or handoff.

    PYTHONPATH=src python3 tools/product_split.py [--repeats N]

On builtin desk_point (96x64) and on desk_cyst over a 192x128 grid (the
pwbench cyst_large matrix) it prints, as JSON, medians in ms over N calls
(200 by default) of:

- ``apply`` and ``apply_adjoint`` as the package runs them;
- each row block's kernel alone on the calling thread, forward and adjoint,
  each into a fresh zeroed output;
- the unsplit scipy products ``matrix @ x`` and ``matrix.T @ y``;
- the worker's round trip: submitting a no-op and reading its result;
- ``split``: a forward and an adjoint product replayed step by step on the
  package's blocks and worker, with the worker's kernel timed where it
  runs: the submit call, the worker's start after the submit began, each
  half-kernel, and the caller's wait for the worker after its own half.

BLAS/OpenMP threads are pinned to 1 before numpy loads, as pwbench does.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
from scipy.sparse._sparsetools import csc_matvec, csr_matvec  # noqa: E402

from pwrecon import forward_model, pipeline  # noqa: E402
from pwrecon.config import get_builtin_config, run_config_from_dict  # noqa: E402


def grids():
    """(label, run-config document) of the two measured matrices."""
    cyst = get_builtin_config("desk_cyst")
    cyst["grid"]["nz"], cyst["grid"]["nx"] = 192, 128
    return [("desk_point 96x64", get_builtin_config("desk_point")), ("desk_cyst 192x128", cyst)]


def median_ms(call, repeats):
    """Median wall time of ``call()`` in ms over ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        call()
        times.append(perf_counter() - start)
    return 1e3 * statistics.median(times)


def timed(kernel, *args):
    """Run ``kernel(*args)`` and return when it started and ended."""
    start = perf_counter()
    kernel(*args)
    return start, perf_counter()


def forward_split(model, x):
    """One forward product in the steps of ``apply``, each timed."""
    top, bottom = model._blocks
    cut = top[0]
    out = np.zeros(model.num_rows)
    t0 = perf_counter()
    pending = forward_model._POOL.submit(timed, csr_matvec, *bottom, x, out[cut:])
    t1 = perf_counter()
    csr_matvec(*top, x, out[:cut])
    t2 = perf_counter()
    start, end = pending.result()
    t3 = perf_counter()
    return t0, t1, t2, t3, start, end


def adjoint_split(model, y):
    """One adjoint product in the steps of ``apply_adjoint``, each timed."""
    (cut, cols, *top), (rows, _, *bottom) = model._blocks
    out, part = np.zeros(cols), np.zeros(cols)
    t0 = perf_counter()
    pending = forward_model._POOL.submit(
        timed, csc_matvec, cols, rows, *bottom, y[cut:], part
    )
    t1 = perf_counter()
    csc_matvec(cols, cut, *top, y[:cut], out)
    t2 = perf_counter()
    start, end = pending.result()
    t3 = perf_counter()
    out += part
    return t0, t1, t2, t3, start, end


def split_medians(replay, repeats):
    """Median ms of each step of ``repeats`` replayed products."""
    steps = {"submit": [], "worker_start_after_submit": [], "caller_kernel": [],
             "worker_kernel": [], "caller_wait": []}
    for _ in range(repeats):
        t0, t1, t2, t3, start, end = replay()
        steps["submit"].append(t1 - t0)
        steps["worker_start_after_submit"].append(start - t0)
        steps["caller_kernel"].append(t2 - t1)
        steps["worker_kernel"].append(end - start)
        steps["caller_wait"].append(t3 - t2)
    return {k: round(1e3 * statistics.median(v), 4) for k, v in steps.items()}


def measure(model, repeats, rng):
    """Every timing of the docstring for one matrix."""
    x, y = rng.standard_normal(model.num_cols), rng.standard_normal(model.num_rows)
    matrix, transpose = model.matrix, model.matrix.T
    top, bottom = model._blocks
    (cut, cols, *top_arrays), (rows, _, *bottom_arrays) = top, bottom
    calls = {
        "apply": lambda: model.apply(x),
        "apply_adjoint": lambda: model.apply_adjoint(y),
        "top_forward_kernel": lambda: csr_matvec(*top, x, np.zeros(cut)),
        "bottom_forward_kernel": lambda: csr_matvec(*bottom, x, np.zeros(rows)),
        "top_adjoint_kernel": lambda: csc_matvec(cols, cut, *top_arrays, y[:cut], np.zeros(cols)),
        "bottom_adjoint_kernel": lambda: csc_matvec(
            cols, rows, *bottom_arrays, y[cut:], np.zeros(cols)
        ),
        "unsplit_forward": lambda: matrix @ x,
        "unsplit_adjoint": lambda: transpose @ y,
        "pool_round_trip": lambda: forward_model._POOL.submit(int).result(),
    }
    for call in calls.values():  # start the worker and warm the caches
        for _ in range(5):
            call()
    out = {"nnz": model.nnz, "rows": [cut, rows], "repeats": repeats}
    out.update({k: round(median_ms(c, repeats), 4) for k, c in calls.items()})
    out["split"] = {
        "forward": split_medians(lambda: forward_split(model, x), repeats),
        "adjoint": split_medians(lambda: adjoint_split(model, y), repeats),
    }
    return out


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=200)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    rng = np.random.default_rng(0)
    out = {}
    for label, doc in grids():
        out[label] = measure(pipeline.build_model(run_config_from_dict(doc)), args.repeats, rng)
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
