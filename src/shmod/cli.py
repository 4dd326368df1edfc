"""Command-line interface.

Subcommands: simulate-sh, simulate-gl, study, replay, spectrum, plotdata.
Exit codes: 0 success, 2 configuration error, 3 study gate failure or a
single run stopped by the blow-up guard.
The default output root is the SHMOD_OUT environment variable (falling
back to the current directory).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from .grid import Grid, write_field, read_field
from .noise import NoiseConfig
from .sh import CUBIC, QUINTIC, ModelParams, simulate, modulated_carrier_ic
from .bands import (DEFAULT_DELTA, band_symbols, demodulate, kernel_dump_csv,
                    make_kernel, project)
from .reduced import gl_coefficients, simulate_gl
from .studies import (
    ConfigError,
    ReplayError,
    StudyConfig,
    SETTINGS,
    STUDY_NAMES,
    emit_plotdata,
    parse_config_file,
    replay,
    run_study,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GATE = 3


def _output_root() -> Path:
    return Path(os.environ.get("SHMOD_OUT", "."))


def _add_single_run(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eps", type=str, default="0.1", help="epsilon")
    parser.add_argument("--nu", type=str, default="0.5",
                        help="quadratic coefficient")
    parser.add_argument("--nu2", type=float, default=1.0,
                        help="quintic-case quadratic coefficient")
    parser.add_argument("--nu3", type=float, default=0.0,
                        help="quintic-case cubic coefficient")
    parser.add_argument("--delta", type=float, default=DEFAULT_DELTA,
                        help="band half-width parameter")
    parser.add_argument("--dt", type=float, default=1e-3, help="time step")
    parser.add_argument("--t-end", type=float, default=1.0,
                        help="horizon on the slow time scale")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--intensity", type=float, default=1.0)
    parser.add_argument("--amplitude", type=float, default=0.5)
    parser.add_argument("--n", type=int, default=2048, help="grid points")
    parser.add_argument("--periods", type=int, default=None,
                        help="carrier periods across the domain")
    parser.add_argument("--quintic", action="store_true",
                        help="use the quintic-nonlinearity variant")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shmod",
        description="Pseudospectral laboratory for the stochastic "
                    "Swift-Hohenberg equation and its amplitude reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-sh", help="run one rescaled trajectory")
    _add_single_run(p)
    p.add_argument("--offband", type=float, default=0.0)

    p = sub.add_parser("simulate-gl", help="run one amplitude-equation trajectory")
    _add_single_run(p)
    p.set_defaults(offband=0.0)

    p = sub.add_parser("study", help="run a seeded ensemble study")
    p.add_argument("--study", type=str, default=None, choices=STUDY_NAMES)
    p.add_argument("--config", type=str, default=None,
                   help="key = value config file; flags override it")
    p.add_argument("--out", type=str, default=None, help="output directory")
    for name, (short, parse) in SETTINGS.items():
        p.add_argument("--" + short.replace("_", "-"), dest=name, type=parse,
                       default=None)

    p = sub.add_parser("replay", help="re-run recorded cells bit-exactly")
    p.add_argument("--out", type=str, required=True, help="study directory")
    p.add_argument("--limit", type=int, default=None,
                   help="replay at most this many records")

    p = sub.add_parser("spectrum", help="dump |Fourier transform| of a field file")
    p.add_argument("--field", type=str, required=True, help="binary field file")
    p.add_argument("--out", type=str, default=None, help="CSV path")

    p = sub.add_parser("plotdata", help="emit tidy CSVs from a study directory")
    p.add_argument("--out", type=str, required=True, help="study directory")

    return parser


def _single_float(text: str) -> float:
    """The one value of a single-run flag; a comma list is an error."""
    if "," in text:
        raise ConfigError(f"a single run takes one value, got {text!r}")
    return float(text)


def _resolve_out(arg: str | None, default_name: str) -> Path:
    if arg is not None:
        return Path(arg)
    return _output_root() / default_name


def _report(run, out: Path) -> int:
    """Print a single run's status line; a run cut short by the blow-up
    guard exits with EXIT_GATE, as a study whose cells all blew up does."""
    print(f"status={run.status} T={run.time:.6g} "
          f"sup={run.final.sup_norm():.6g} out={out}")
    return EXIT_OK if run.status == "completed" else EXIT_GATE


def _single_run(args):
    """The grid, model, noise config and initial field of a single run."""
    grid = Grid.for_carrier(_single_float(args.eps), args.n,
                            periods=args.periods)
    params = ModelParams(QUINTIC if args.quintic else CUBIC,
                         nu=_single_float(args.nu), nu2=args.nu2,
                         nu3=args.nu3, dt=args.dt, t_end=args.t_end)
    ncfg = NoiseConfig(seed=args.seed, intensity=args.intensity)
    v0 = modulated_carrier_ic(grid, ncfg.substream(1).make_rng(),
                              amplitude=args.amplitude, offband=args.offband)
    return grid, params, ncfg, v0


def _write_final(run, out_arg: str | None, name: str) -> Path:
    out = _resolve_out(out_arg, name)
    out.mkdir(parents=True, exist_ok=True)
    write_field(out / "final.field", run.final)
    return out


def _cmd_simulate_sh(args) -> int:
    grid, params, ncfg, v0 = _single_run(args)
    run = simulate(v0, params, ncfg)
    out = _write_final(run, args.out, "simulate-sh")
    for which in ("P0", "P1", "P2"):
        kernel_dump_csv(make_kernel(which, args.delta, grid), grid,
                        out / f"kernel_{which}.csv")
    return _report(run, out)


def _cmd_simulate_gl(args) -> int:
    grid, params, ncfg, v0 = _single_run(args)
    a0 = demodulate(project(v0, band_symbols(grid, args.delta).q1),
                    args.delta)
    run = simulate_gl(a0, gl_coefficients(params), dt=args.dt,
                      t_end=args.t_end, cfg=ncfg)
    return _report(run, _write_final(run, args.out, "simulate-gl"))


def _cmd_study(args) -> int:
    overrides: dict = {}
    if args.config is not None:
        overrides.update(parse_config_file(args.config))
    # flags override the file's values
    file_study, file_out = (overrides.pop(k, None) for k in ("study", "out"))
    study = args.study or file_study
    if study is None:
        raise ConfigError("no study selected (use --study or a config file)")
    out = _resolve_out(args.out or file_out, study)
    overrides.update({name: getattr(args, name) for name in SETTINGS
                      if getattr(args, name) is not None})
    cfg = StudyConfig.for_study(study, out, **overrides)

    total = {"done": 0}

    def progress(record):
        total["done"] += 1
        print(f"[{total['done']}] {record.key}: {record.status}", flush=True)

    summary = run_study(cfg, progress=progress)
    print(json.dumps(summary["fits"], indent=2))
    if summary["gates_not_evaluated"]:
        print("study gates not evaluated (no slope: fewer than 3 eps values "
              f"with ok cells): {summary['gates_not_evaluated']}",
              file=sys.stderr)
    if not summary["ok"]:
        print(f"study failed: gates {summary['acceptance']}, "
              f"{summary['n_failed']} of {summary['n_records']} cells failed",
              file=sys.stderr)
        return EXIT_GATE
    return EXIT_OK


def _cmd_replay(args) -> int:
    report = replay(args.out, limit=args.limit)
    print(f"replayed={report['replayed']} mismatches={len(report['mismatches'])}")
    for key in report["mismatches"]:
        print(f"  mismatch: {key}", file=sys.stderr)
    return EXIT_OK if report["ok"] else EXIT_GATE


def _cmd_spectrum(args) -> int:
    field = read_field(args.field)
    spec = field.full_spectrum() / field.grid.n_points
    k = np.fft.fftfreq(field.grid.n_points, d=field.grid.dx) * 2.0 * np.pi
    order = np.argsort(k)
    out = Path(args.out) if args.out else Path(args.field).with_suffix(".spectrum.csv")
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "abs_fourier"])
        for idx in order:
            writer.writerow([f"{k[idx]:.10g}", f"{abs(spec[idx]):.10g}"])
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_plotdata(args) -> int:
    written = emit_plotdata(args.out)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


_COMMANDS = {
    "simulate-sh": _cmd_simulate_sh,
    "simulate-gl": _cmd_simulate_gl,
    "study": _cmd_study,
    "replay": _cmd_replay,
    "spectrum": _cmd_spectrum,
    "plotdata": _cmd_plotdata,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ReplayError as exc:
        print(f"replay error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
