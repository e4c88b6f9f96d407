"""Command-line front end: simulate, das, compound, solve, metrics,
export-png and ingest-picmus, composing through container files.

Each subcommand reads its input files, calls the library and writes its
outputs. Which observations a reconstruction mode reads is decided by
``solver.observations_needed``; ``pipeline.run_reconstruction`` derives
those not given. Contrast and resolution are scored by ``pipeline.measure``,
or by ``pipeline.contrast`` on explicit discs.

Each input flag reads the container kind it names.

Exit codes: 0 success, 2 usage error (argparse), 3 a path that is missing or
cannot be opened, or a missing optional dependency, 4 invalid data (a file of
the wrong container kind included) or configuration, 5 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import pipeline
from .acquisition import TARGET_KINDS
from .beamform import compound, envelope, export_png, log_compress
from .config import ConfigError, load_run_config
from .io import ContainerError, ingest_picmus, read_container, write_container
from .metrics import disc_mask
from .solver import MODES, SolverError

EXIT_OK = 0
EXIT_MISSING_INPUT = 3
EXIT_INVALID = 4
EXIT_SOLVER = 5


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pwrecon",
        description="Plane-wave ultrasound reconstruction toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize phantom channel data")
    p.add_argument("--config", required=True, help="run config path or builtin:<name>")
    p.add_argument("--out", required=True, help="output channel container")
    p.add_argument("--phantom-out", help="also write the ground-truth phantom")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("das", help="delay-and-sum beamforming")
    p.add_argument("--config", required=True)
    p.add_argument("--channel", required=True, help="channel container")
    p.add_argument("--out", required=True, help="output RF image container")
    p.set_defaults(func=_cmd_das)

    p = sub.add_parser("compound", help="coherently average RF images")
    p.add_argument("--out", required=True)
    p.add_argument("inputs", nargs="+", help="RF image containers")
    p.set_defaults(func=_cmd_compound)

    p = sub.add_parser("solve", help="iterative reconstruction")
    p.add_argument("--config", required=True)
    p.add_argument("--channel", help="channel container (data-fidelity term)")
    p.add_argument("--das", help="reference RF image container (blur term)")
    p.add_argument("--psf", help="PSF container; defaults to the config choice")
    p.add_argument(
        "--mode",
        choices=MODES,
        help="override the config's reconstruction mode",
    )
    p.add_argument("--out", required=True, help="output RF image container")
    p.add_argument("--report", help="write convergence report JSON")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("metrics", help="quality indexes of a reconstruction")
    p.add_argument("--config", required=True)
    p.add_argument("--image", required=True, help="RF image container to score")
    p.add_argument("--phantom", help="phantom container with annotations")
    p.add_argument("--reference", help="reference RF image (histogram matching)")
    p.add_argument("--kind", choices=tuple(TARGET_KINDS))
    p.add_argument("--roi", help="explicit ROI disc 'z,x,r' in meters")
    p.add_argument("--background", help="explicit background disc 'z,x,r' in meters")
    p.add_argument("--out", help="write the report JSON here")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("export-png", help="render a container to 8-bit grayscale PNG")
    p.add_argument("--input", required=True, help="RF image container")
    p.add_argument("--out", required=True)
    p.add_argument("--dynamic-range", type=float, default=60.0)
    p.set_defaults(func=_cmd_export_png)

    p = sub.add_parser("ingest-picmus", help="convert a PICMUS HDF5 file")
    p.add_argument("--file", required=True)
    p.add_argument("--angle-index", type=int, default=None)
    p.add_argument("--out", required=True, help="output channel container")
    p.set_defaults(func=_cmd_ingest)

    return parser


def _cmd_simulate(args):
    cfg = load_run_config(args.config)
    model = pipeline.build_model(cfg)
    phantom = pipeline.make_phantom(cfg)
    ch = pipeline.simulate(cfg, phantom, model)
    write_container(ch, args.out)
    if args.phantom_out:
        write_container(phantom, args.phantom_out)
    return EXIT_OK


def _cmd_das(args):
    cfg = load_run_config(args.config)
    ch = read_container(args.channel, "channel")
    write_container(pipeline.config_das(cfg, ch), args.out)
    return EXIT_OK


def _cmd_compound(args):
    images = [read_container(p, "rfimage") for p in args.inputs]
    write_container(compound(images), args.out)
    return EXIT_OK


def _cmd_solve(args):
    cfg = load_run_config(args.config, mode=args.mode)
    ch = read_container(args.channel, "channel") if args.channel else None
    y_das = read_container(args.das, "rfimage") if args.das else None
    psf = read_container(args.psf, "psf") if args.psf else None
    report = pipeline.run_reconstruction(cfg, None, ch, psf=psf, y_das=y_das)
    write_container(report.result, args.out)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            json.dump(report.to_json_dict(), f, indent=2, sort_keys=True)
    print(
        "solved mode=%s iterations=%d converged=%s"
        % (cfg.solver.mode, report.iterations, report.converged)
    )
    return EXIT_OK


def _parse_disc(text):
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 3:
        raise ConfigError("disc spec must be 'z,x,r' in meters")
    return (parts[0], parts[1]), parts[2]


def _cmd_metrics(args):
    cfg = load_run_config(args.config)
    image = read_container(args.image, "rfimage")
    reference = read_container(args.reference, "rfimage") if args.reference else None
    if bool(args.roi) != bool(args.background):
        missing = "--background" if args.roi else "--roi"
        raise ConfigError("metrics needs both discs; %s is missing" % missing)
    if args.roi:
        # explicit discs bypass phantom annotations
        roi = disc_mask(cfg.grid, *_parse_disc(args.roi))
        bg = disc_mask(cfg.grid, *_parse_disc(args.background))
        report = pipeline.contrast(cfg, image, [(roi, bg)], reference)
    else:
        if not args.phantom:
            raise ConfigError("metrics needs --phantom or explicit --roi/--background")
        phantom = read_container(args.phantom, "phantom")
        report = pipeline.measure(cfg, phantom, image, reference=reference, kind=args.kind)
    print(report.to_text())
    text = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _cmd_export_png(args):
    image = read_container(args.input, "rfimage")
    export_png(log_compress(envelope(image), args.dynamic_range), args.out)
    return EXIT_OK


def _cmd_ingest(args):
    try:
        ch, _probe = ingest_picmus(args.file, angle_index=args.angle_index)
    except RuntimeError as err:  # the optional h5py dependency is missing
        print("error: %s" % err, file=sys.stderr)
        return EXIT_MISSING_INPUT
    write_container(ch, args.out)
    return EXIT_OK


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as err:  # a path that is missing or cannot be opened
        print("error: %s" % err, file=sys.stderr)
        return EXIT_MISSING_INPUT
    except (ContainerError, ConfigError, ValueError, OverflowError) as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_INVALID
    except SolverError as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
