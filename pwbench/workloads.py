"""The pwrecon benchmark workloads.

Every workload has a set-up (load the config, get the system matrix,
resolve the PSF), frame inputs generated from the workload seed before any
timing starts (phantom seed = workload seed + frame index, through
``pipeline.make_phantom`` and ``pipeline.simulate``), a timed frame (DAS,
solve, measure) and an untimed check of the frame's outputs that raises
``FrameFailure`` or returns the image digest and its quality numbers.

Calls into pwrecon go through module attributes (``pipeline.measure``,
``cli.main``) so that a traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass

import numpy as np
from pwrecon import cli, config, pipeline
from pwrecon import io as pwio
from pwrecon.beamform import RfImage, envelope, log_compress
from pwrecon.metrics import cnr, fwhm, gcnr


class FrameFailure(RuntimeError):
    """A frame ran but its output is not a valid reconstruction."""


@dataclass
class Setup:
    model: object = None  # SparseSystemMatrix
    psf: object = None
    cfg: object = None


@dataclass
class FrameInput:
    cfg: object
    phantom: object
    channel: object
    files: dict = None  # CLI path: container files of this frame


def _digest(data):
    return hashlib.sha1(np.ascontiguousarray(data).tobytes()).hexdigest()


def _check_image(data):
    if not np.all(np.isfinite(data)):
        raise FrameFailure("reconstructed image is not finite")


def _speckle_fwhm(image):
    """Axial and lateral FWHM (mm) of the envelope's autocorrelation peak.

    The width of the speckle's autocorrelation is the resolution measure
    for an image with no point targets.
    """
    env = envelope(image).data
    dev = env - env.mean()
    acf = np.fft.irfft2(np.abs(np.fft.rfft2(dev)) ** 2, s=dev.shape)
    acf = np.fft.fftshift(acf) / acf.max()
    acf_image = RfImage(data=acf, grid=image.grid)
    centre = (dev.shape[0] // 2, dev.shape[1] // 2)
    return fwhm(acf_image, centre, "axial"), fwhm(acf_image, centre, "lateral")


def _footprint_contrast(cfg, phantom, image):
    """CNR (dB) and gCNR between the true target footprint and true empty
    background, on the log-compressed image.

    Point phantoms have no speckle region, so the regions come from the
    ground-truth reflectivity: pixels at or above half its peak against
    pixels below a thousandth of it.
    """
    truth = np.abs(phantom.trf)
    regions = (truth >= 0.5 * truth.max(), truth < 1e-3 * truth.max())
    bmode = log_compress(envelope(image), cfg.dynamic_range)
    return cnr(bmode, regions), gcnr(bmode, regions)


def image_quality(cfg, phantom, image, report):
    """Quality numbers of one frame from the MetricsReport its own
    ``measure`` step produced, completed so every workload reports all four.

    Point phantoms: FWHM from ``measure``; CNR/gCNR of the target footprint.
    Cyst phantoms: CNR/gCNR from ``measure``; FWHM of the speckle.
    """
    avg = report["averages"]
    if avg["fwhm_axial_mm"] is not None:
        q = {"fwhm_axial_mm": avg["fwhm_axial_mm"], "fwhm_lateral_mm": avg["fwhm_lateral_mm"]}
        q["cnr_db"], q["gcnr"] = _footprint_contrast(cfg, phantom, image)
    elif avg["gcnr"] is not None:
        q = {"cnr_db": avg["cnr_db"], "gcnr": avg["gcnr"]}
        q["fwhm_axial_mm"], q["fwhm_lateral_mm"] = _speckle_fwhm(image)
    else:
        raise FrameFailure("measure returned no quality numbers")
    if not all(np.isfinite(v) for v in q.values()):
        raise FrameFailure("quality numbers are not finite: %s" % q)
    return q


def _frame_doc(doc, seed, index):
    frame = copy.deepcopy(doc)
    frame["phantom"]["seed"] = seed + index
    return frame


class LibraryWorkload:
    """In-memory system matrix, ``pipeline`` entry points, joint mode."""

    def __init__(self, name, doc):
        self.name = name
        self.doc = doc

    def setup(self, repeat):
        os.environ.pop("PWRECON_CACHE_DIR", None)  # build the matrix in memory
        cfg = config.run_config_from_dict(self.doc)
        model = pipeline.build_model(cfg)
        psf = pipeline.resolve_psf(cfg, model=model)
        return Setup(model=model, psf=psf, cfg=cfg)

    def make_inputs(self, state, seed, count):
        inputs = []
        for i in range(count):
            cfg = config.run_config_from_dict(_frame_doc(self.doc, seed, i))
            phantom = pipeline.make_phantom(cfg)
            channel = pipeline.simulate(cfg, phantom, state.model)
            inputs.append(FrameInput(cfg=cfg, phantom=phantom, channel=channel))
        return inputs

    def run_frame(self, state, inp):
        y_das = pipeline.reference_das(state.model, inp.channel)
        report = pipeline.run_reconstruction(
            inp.cfg, state.model, inp.channel, psf=state.psf, y_das=y_das
        )
        quality = pipeline.measure(inp.cfg, inp.phantom, report.result, reference=y_das)
        return report, quality

    def check(self, state, inp, out):
        report, quality = out
        if not report.converged:
            raise FrameFailure("solver did not converge in %d iterations" % report.iterations)
        _check_image(report.result.data)
        q = image_quality(inp.cfg, inp.phantom, report.result, quality.to_json_dict())
        return _digest(report.result.data), q

    def close(self):
        pass


class CliWorkload:
    """desk_point through ``pwrecon.cli.main`` and USJD files, sequential mode.

    Set-up is one ``simulate`` on a cold matrix cache; a frame is
    ``das`` -> ``solve --mode sequential`` -> ``metrics --kind point``.
    """

    def __init__(self, name, doc, workdir):
        self.name = name
        self.doc = doc
        self.workdir = workdir
        os.makedirs(workdir)
        self.cfg_path = os.path.join(workdir, "config.json")
        with open(self.cfg_path, "w", encoding="utf-8") as f:
            json.dump(doc, f)

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def setup(self, repeat):
        cache = self._path("cache%d" % repeat)
        shutil.rmtree(self._path("cache%d" % (repeat - 1)), ignore_errors=True)
        os.environ["PWRECON_CACHE_DIR"] = cache
        code, _ = self._cli(
            ["simulate", "--config", self.cfg_path, "--out", self._path("setup_ch.usjd")]
        )
        if code != 0:
            raise FrameFailure("set-up simulate exited with code %d" % code)
        return Setup(cfg=config.load_run_config(self.cfg_path))

    def make_inputs(self, state, seed, count):
        model = pipeline.build_model(state.cfg)  # read back from the cache
        state.model = model
        inputs = []
        for i in range(count):
            cfg = config.run_config_from_dict(_frame_doc(self.doc, seed, i))
            phantom = pipeline.make_phantom(cfg)
            channel = pipeline.simulate(cfg, phantom, model)
            files = {k: self._path("%s%d.%s" % (k, i, ext)) for k, ext in (
                ("ch", "usjd"), ("ph", "usjd"), ("das", "usjd"), ("rec", "usjd"), ("m", "json"),
            )}
            pwio.write_container(channel, files["ch"])
            pwio.write_container(phantom, files["ph"])
            inputs.append(FrameInput(cfg=cfg, phantom=phantom, channel=channel, files=files))
        return inputs

    def run_frame(self, state, inp):
        f = inp.files
        steps = (
            ["das", "--config", self.cfg_path, "--channel", f["ch"], "--out", f["das"]],
            ["solve", "--config", self.cfg_path, "--mode", "sequential",
             "--channel", f["ch"], "--das", f["das"], "--out", f["rec"]],
            ["metrics", "--config", self.cfg_path, "--image", f["rec"], "--phantom", f["ph"],
             "--reference", f["das"], "--kind", "point", "--out", f["m"]],
        )
        results = []
        for argv in steps:
            code, text = self._cli(argv)
            results.append((argv[0], code, text))
            if code != 0:
                break
        return results

    def check(self, state, inp, out):
        for command, code, _ in out:
            if code != 0:
                raise FrameFailure("cli %s exited with code %d" % (command, code))
        solve_text = out[1][2]
        if "converged=True" not in solve_text:
            raise FrameFailure("cli solve did not converge: %s" % solve_text.strip())
        image = pwio.read_container(inp.files["rec"])
        _check_image(image.data)
        with open(inp.files["m"], encoding="utf-8") as fh:
            report = json.load(fh)
        q = image_quality(state.cfg, inp.phantom, image, report)
        return _digest(image.data), q

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _cyst_large_doc():
    doc = config.get_builtin_config("desk_cyst")
    doc["grid"]["nz"], doc["grid"]["nx"] = 192, 128
    return doc


def make_workload(name, workdir):
    if name == "point_joint":
        return LibraryWorkload(name, config.get_builtin_config("desk_point"))
    if name == "cyst_large":
        return LibraryWorkload(name, _cyst_large_doc())
    if name == "cli_sequential":
        return CliWorkload(name, config.get_builtin_config("desk_point"), workdir)
    raise ValueError("unknown workload %r" % name)
