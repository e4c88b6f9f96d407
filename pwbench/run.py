"""pwrecon benchmark: reconstruction time, set-up, memory and image quality.

    python3 pwbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; it imports pwrecon from ``src/``
there and fails (exit code 2, no result) when there is none. Workloads
(names, metrics and units are in ``BENCHMARK.json``):

  point_joint     builtin desk_point, 96x64 grid, joint mode, library path
  cyst_large      builtin desk_cyst on a 192x128 grid, joint mode, library path
  cli_sequential  desk_point through ``pwrecon.cli.main`` and USJD files,
                  sequential mode, on a matrix cache the run owns

One process, one client, closed loop: each frame waits for the previous
one. BLAS/OpenMP threads are pinned to 1. Set-up runs ``SETUP_REPEATS``
times and ``setup_s`` is their median. ``FRAMES`` distinct frame inputs
are generated from the seed before timing; one untimed warm-up frame
fills the PSF caches; then frames cycle over the inputs until ``--seconds``
have passed and every input has run once. Each timed frame is followed by a
fixed reference kernel (``reference.py``: SpMVs on a matrix that does not
come from pwrecon), timed on its own. ``frame_ref`` is the median over
frames of frame time / reference time: other tenants' load on the host
slows both by up to 40% for seconds to minutes, and the ratio cancels it.
``frame_s`` is the median frame wall time. Every frame is checked
(converged, finite image, CLI exit code 0, quality numbers computable, and
a repeated input gives a bit-identical image); a frame that fails is
counted, never dropped.

The quality metrics are means over the distinct inputs and depend only on
the seed. On point phantoms the FWHMs come from ``pipeline.measure`` and
gCNR/CNR compare the true target footprint with the true empty background;
on the cyst they come the other way round: gCNR/CNR from
``pipeline.measure``, FWHMs of the speckle's autocorrelation. Three
numbers are printed and recorded but not gated in ``BENCHMARK.json``:
``frame_s`` (over ten seeds its spread passes the largest allowed bound
whenever the host is busy; ``frame_ref`` is gated in its place),
``frame_fail_ratio`` (0 on a correct run, so a relative bound cannot apply;
``frame_ok_ratio`` is its gated complement) and ``cnr_db`` (its spread over
seeds on one cyst, about 19% a frame, is too wide for any allowed bound).

``--trace 1`` reports the per-layer metrics instead: untraced and traced
frames alternate (their median ratio is the tracing overhead), then the
set-up and every input run traced a second time and the machine-independent
counts of the two passes must agree exactly. Results, per-frame figures,
the environment and (traced) the raw spans are written to ``pwbench-out/``.
The last line of standard output is the JSON result.
"""

import os
import sys

# pin native thread pools before numpy loads
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "pwrecon", "__init__.py")):
    sys.stderr.write("pwbench: no pwrecon sources under %s\n" % SRC)
    sys.exit(2)
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import pwrecon  # noqa: E402
import scipy  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
FRAMES = 8
OUT_DIR = os.path.join(ROOT, "pwbench-out")
QUALITY = ("fwhm_axial_mm", "fwhm_lateral_mm", "gcnr", "cnr_db")
# printed and recorded with the end-to-end metrics but not in BENCHMARK.json
UNGATED_UNITS = {"frame_s": "s", "frame_fail_ratio": "failed/attempted", "cnr_db": "dB"}


@dataclasses.dataclass
class Frame:
    index: int
    inp: int  # index of the frame input
    seconds: float
    error: str | None
    traced: bool
    ref_seconds: float | None = None  # the reference kernel run after it


class Runner:
    """Runs and checks frames of one workload; remembers each input's
    first image digest and quality numbers."""

    def __init__(self, workload, state, inputs):
        self.workload = workload
        self.state = state
        self.inputs = inputs
        self.digests = {}
        self.quality = {}
        self.frames = []

    def frame(self, k, tracer=None, frame_id=None):
        inp = self.inputs[k]
        start = time.perf_counter()
        try:
            if tracer is None:
                out = self.workload.run_frame(self.state, inp)
            else:
                with tracer.root("frame", frame_id):
                    out = self.workload.run_frame(self.state, inp)
        except Exception as err:  # a failing frame is counted, never fatal
            return self._record(k, time.perf_counter() - start, err, tracer)
        seconds = time.perf_counter() - start
        try:
            digest, quality = self.workload.check(self.state, inp, out)
            if self.digests.setdefault(k, digest) != digest:
                raise workloads.FrameFailure("image differs from this input's first run")
            self.quality.setdefault(k, quality)
        except Exception as err:
            return self._record(k, seconds, err, tracer)
        return self._record(k, seconds, None, tracer)

    def _record(self, k, seconds, err, tracer):
        error = None
        if err is not None:
            error = "%s: %s" % (type(err).__name__, err)
            if not isinstance(err, workloads.FrameFailure):
                traceback.print_exception(err, file=sys.stderr)
            print("frame %d (input %d) failed: %s" % (len(self.frames), k, error),
                  file=sys.stderr)
        frame = Frame(len(self.frames), k, seconds, error, tracer is not None)
        self.frames.append(frame)
        return frame

    def loop(self, seconds, body):
        """Call ``body(k)`` over the inputs in turn until ``seconds`` have
        passed and every input has run once."""
        deadline = time.perf_counter() + seconds
        i = 0
        while i < len(self.inputs) or time.perf_counter() < deadline:
            body(i % len(self.inputs))
            i += 1

    def quality_means(self):
        values = list(self.quality.values())
        return {key: statistics.fmean(q[key] for q in values) if values else 0.0
                for key in QUALITY}


def _getconf(name):
    try:
        done = subprocess.run(["getconf", name], capture_output=True, text=True,
                              timeout=10, check=True)
        return int(done.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def environment(state):
    matrix = state.model.matrix
    csr = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    l2, l3 = _getconf("LEVEL2_CACHE_SIZE"), _getconf("LEVEL3_CACHE_SIZE")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_pins": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pwrecon": pwrecon.__version__,
        "l2_bytes": l2,
        "l3_bytes": l3,
        "nnz": int(matrix.nnz),
        "csr_bytes": int(csr),
        "csr_over_l2": csr / l2 if l2 else None,
        "csr_over_l3": csr / l3 if l3 else None,
        "bandwidth_note": (
            "bandwidth figures are computed from array sizes, not measured; "
            "the CSR is below 4x the last-level cache, so none is a "
            "memory-bandwidth measurement"
        ),
    }


def run_untraced(workload, seed, seconds):
    setup_times = []
    state = None
    for repeat in range(SETUP_REPEATS):
        state = None  # free the previous matrix before building the next
        start = time.perf_counter()
        state = workload.setup(repeat)
        setup_times.append(time.perf_counter() - start)
    runner = Runner(workload, state, workload.make_inputs(state, seed, FRAMES))
    ref = reference.Reference(workload.name)
    workload.run_frame(state, runner.inputs[0])  # warm-up, untimed

    def timed(k):
        runner.frame(k).ref_seconds = ref.run()

    runner.loop(seconds, timed)
    failed = sum(1 for f in runner.frames if f.error)
    values = {
        "frame_ref": statistics.median(f.seconds / f.ref_seconds for f in runner.frames),
        "frame_s": statistics.median(f.seconds for f in runner.frames),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "frame_ok_ratio": 1.0 - failed / len(runner.frames),
        "frame_fail_ratio": failed / len(runner.frames),
        **runner.quality_means(),
    }
    extra = {
        "setup_times_s": setup_times,
        "reference_pairs": ref.pairs,
        "reference_s": statistics.median(f.ref_seconds for f in runner.frames),
        "quality_per_input": runner.quality,
    }
    return runner, state, values, extra


def run_traced(workload, seed, seconds):
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.root("setup", "setup"):
            state = workload.setup(0)
        runner = Runner(workload, state, workload.make_inputs(state, seed, FRAMES))
        workload.run_frame(state, runner.inputs[0])  # warm-up, untraced

        def pair(k):
            runner.frame(k)
            runner.frame(k, tracer, "frame%d" % len(runner.frames))

        runner.loop(seconds, pair)
        first = runner.frames
        runner.frames = []
        with tracer.root("setup", "setup2"):
            runner.state = workload.setup(1)
        for k in range(len(runner.inputs)):
            runner.frame(k, tracer, "repeat%d" % k)
        repeat = runner.frames
        runner.frames = first + repeat
    finally:
        tracer.uninstall()

    groups = tracer.by_frame()
    figs = {f.index: spans.frame_figures(groups["frame%d" % f.index])
            for f in first if f.traced}
    repeat_figs = [spans.frame_figures(groups["repeat%d" % f.inp]) for f in repeat]
    setup_fig = spans.frame_figures(groups["setup"])
    setup2_fig = spans.frame_figures(groups["setup2"])

    mismatches = []
    reference = {}
    for f in first:
        if f.traced:
            counts = spans.counts_of(figs[f.index])
            if reference.setdefault(f.inp, counts) != counts:
                mismatches.append("input %d: %s != %s" % (f.inp, counts, reference[f.inp]))
    for f, fig in zip(repeat, repeat_figs):
        counts = spans.counts_of(fig)
        if reference.get(f.inp) != counts:
            mismatches.append("input %d, second pass: %s != %s"
                              % (f.inp, counts, reference.get(f.inp)))
    if setup_fig.get("forward_model.nnz") != setup2_fig.get("forward_model.nnz"):
        mismatches.append("nnz %s != %s" % (setup_fig.get("forward_model.nnz"),
                                             setup2_fig.get("forward_model.nnz")))
    for m in mismatches:
        print("count mismatch between traced runs: %s" % m, file=sys.stderr)

    traced = [f.seconds for f in first if f.traced]
    untraced = [f.seconds for f in first if not f.traced]
    values = spans.layer_metrics(setup_fig, list(figs.values()), repeat_figs, untraced, traced)
    extra = {
        "count_mismatches": mismatches,
        "counts_per_input": {f.inp: dict(zip(spans.COUNTS, spans.counts_of(fig)))
                             for f, fig in zip(repeat, repeat_figs)},
        "layer_figures_per_frame": {i: dict(fig) for i, fig in figs.items()},
        "setup_figures": dict(setup_fig),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, "%s-seed%d-spans.json" % (workload.name, seed)))
    return runner, state, values, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.realpath(pwrecon.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.stderr.write("pwbench: pwrecon imported from %s, not %s\n" % (pwrecon.__file__, SRC))
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error("unknown workload %r" % args.workload)

    workdir = os.path.join(OUT_DIR, "work-%s-%d" % (args.workload, os.getpid()))
    workload = workloads.make_workload(args.workload, workdir)
    try:
        run = run_traced if args.trace else run_untraced
        runner, state, values, extra = run(workload, args.seed, args.seconds)
    finally:
        workload.close()

    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    attempted = len(runner.frames)
    failed = sum(1 for f in runner.frames if f.error)
    correct = failed == 0 and not extra.get("count_mismatches")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "frames": attempted,
        "distinct_inputs": len(runner.inputs),
        "correct": correct,
        "failed": failed,
        "metrics": metrics,
        "all_values": values,
        "environment": environment(state),
        "frame_log": [dataclasses.asdict(f) for f in runner.frames],
        **extra,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, default=str)

    print("# %s seed=%d frames=%d distinct_inputs=%d failed=%d result=%s"
          % (args.workload, args.seed, attempted, len(runner.inputs), failed,
             os.path.relpath(path, ROOT)))
    if not args.trace:
        units = {**{m["name"]: m["unit"] for m in listed}, **UNGATED_UNITS}
        for name, unit in units.items():
            print("%-18s %.6g %s" % (name, values[name], unit))
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
