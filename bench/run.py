"""Benchmark of shmod's study workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload theorem2 --seed 20260826 --seconds 25 --trace 0

A *solve* is one complete workload: a ``theorem2`` or ``attractivity``
study, or the two quintic coefficient fits.  The run repeats the solve at
the given seed until ``--seconds`` have passed, checks every cell of every
solve, and prints its metrics, one per line with units, then one JSON
object as the last line.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:
``wall_s`` (median solve time), ``cell_s.p50``/``cell_s.p90`` (per-cell
wall time), ``peak_rss_mb`` (peak resident memory of this process) and
``setup_s`` (median time from interpreter start to the first time step of
the real solve, over fresh interpreters).  ``--trace 1`` alternates
untraced and traced solves and reports the per-layer split of the traced
ones (see ``tracing.py``) and the tracing overhead.

shmod is imported from ``src/`` of the checkout the script lives in; the
run fails without printing a result if it is not there.
"""
import os

# One BLAS thread, so live threads never exceed the study's own pool.
# Set before numpy is imported, here and in the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib.metadata import PackageNotFoundError, version  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh interpreters started to time set-up before the timed solves and
#: after each one; the median of all of them is reported.  The host's speed
#: drifts over tens of seconds, so probes spread over the run give a steadier
#: median than the same number taken back to back.
SETUP_PROBES_PER_ROUND = 5
PROBE_TIMEOUT_S = 60

#: Spans whose call count is reported beside their self time.
COUNTED_SPANS = ("operators.dealiased_powers", "operators.dealiased_product",
                 "noise.SpectralNoise.raw")


@dataclass
class Solve:
    wall_s: float
    cells: list
    traced: bool
    error: str = ""
    failures: dict = field(default_factory=dict)  # cell key -> reason


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment(argv) -> dict:
    import numpy

    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    return {
        "command": [Path(sys.executable).name, "bench/run.py"] + list(argv),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "machine": platform.machine(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def measure_setup(name: str, seed: int, out_dir: Path) -> list:
    """Seconds from starting a fresh interpreter until its first time step,
    for each of ``SETUP_PROBES_PER_ROUND`` interpreters."""
    times = []
    for i in range(SETUP_PROBES_PER_ROUND):
        probe_dir = out_dir / f"probe{i}"
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed),
             str(probe_dir)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        times.append(float(proc.stdout.split()[-1]) - start)
        shutil.rmtree(probe_dir, ignore_errors=True)
    return times


def run_solve(workload, seed: int, out_dir: Path, traced: bool) -> Solve:
    start = time.perf_counter()
    try:
        cells = workload.run(seed, out_dir)
        error = ""
    except Exception:  # one failed solve is reported, not fatal
        cells, error = [], traceback.format_exc()
    wall = time.perf_counter() - start
    shutil.rmtree(out_dir, ignore_errors=True)
    return Solve(wall, cells, traced, error)


def check_solves(workload, solves: list) -> None:
    """Fill in each solve's failures.

    A cell fails if it is missing, fails the workload's check, or differs
    from the same cell of the first solve (solves at one seed must agree
    bit for bit).
    """
    first = {c.key: c.diagnostics for c in solves[0].cells}
    for solve in solves:
        for cell in solve.cells:
            reason = workload.check(cell)
            if reason is None and cell.diagnostics != first.get(cell.key):
                reason = "differs from the first solve at this seed"
            if reason is not None:
                solve.failures[cell.key] = reason
        for j in range(workload.expected_cells() - len(solve.cells)):
            solve.failures[f"missing#{j}"] = "cell missing"


def check_reference(name: str, workload, cells: list) -> dict:
    """Failures of the reference cells: cell key -> reason.

    ``cells`` are outputs at ``DEFAULT_SEED``.  Each must pass the
    workload's check and match ``reference.json``.
    """
    from workloads import reference_mismatches

    failures = {}
    for cell in cells:
        reason = workload.check(cell)
        if reason is not None:
            failures[f"reference {cell.key}"] = reason
    for key, reason in reference_mismatches(name, cells):
        failures.setdefault(f"reference {key}", reason)
    return failures


def percentile(values, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(solves, setup_times, rss_mb) -> dict:
    cell_times = [c.wall_time for s in solves for c in s.cells]
    walls = [s.wall_s for s in solves]
    return {
        "wall_s": (statistics.median(walls), "s",
                   f"median of {len(walls)} solves, "
                   f"range {min(walls):.4g} to {max(walls):.4g}"),
        "cell_s.p50": (percentile(cell_times, 50), "s", f"n={len(cell_times)} cells"),
        "cell_s.p90": (percentile(cell_times, 90), "s", f"n={len(cell_times)} cells"),
        "peak_rss_mb": (rss_mb, "MB", "peak resident set of this process"),
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} fresh interpreters"),
    }


def per_layer(tracer, traced, untraced) -> dict:
    import tracing

    reps = len(traced)
    spans = tracing.self_times(tracer.spans())
    totals = tracer.totals()
    steps = spans.get("sh.SHStepper.step_spec", (0.0, 0))[1]
    out = {}
    for name in (*tracing.FUNCTIONS, *tracing.METHODS):
        own, calls = spans.get(name, (0.0, 0))
        out[f"{name}.self_s"] = (own / reps, "s", "per solve")
        if name in COUNTED_SPANS:
            out[f"{name}.calls"] = (calls / reps, "count", "per solve")
    out["sh.steps"] = (steps / reps, "count", "SH steps per solve")
    cell_sum = statistics.mean(sum(c.wall_time for c in s.cells) for s in traced)
    wall = statistics.mean(s.wall_s for s in traced)
    out["studies.concurrency"] = (cell_sum / wall, "ratio",
                                  "summed cell wall time / solve wall time")
    out["studies.overhead_s"] = (wall - cell_sum, "s",
                                 "solve wall time - summed cell wall time")
    out["fft.calls_per_step"] = (totals["fft_calls"] / max(steps, 1), "count",
                                 "numpy.fft calls per SH step")
    out["fft.points_per_step"] = (totals["fft_points"] / max(steps, 1), "count",
                                  "summed transform length per SH step")
    out["sh.snapshots_stored"] = (totals["snapshots"] / reps, "count",
                                  "per solve")
    out["sh.snapshot_bytes"] = (totals["snapshot_bytes"] / reps, "B",
                                "per solve")
    ratio = (statistics.median(s.wall_s for s in traced)
             / statistics.median(s.wall_s for s in untraced))
    out["trace.overhead_ratio"] = (ratio, "ratio",
                                   f"{reps} traced / {len(untraced)} untraced solves")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (SRC / "shmod" / "__init__.py").is_file():
        print(f"error: no shmod package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import shmod

    if not Path(shmod.__file__).resolve().is_relative_to(SRC):
        print(f"error: shmod imported from {shmod.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    args = parse_args(argv, workloads)
    workload = workloads.WORKLOADS[args.workload]
    print("# env " + json.dumps(environment(argv)), flush=True)
    tracer = tracing.Tracer() if args.trace else None
    run_dir = OUT / f"{args.workload}-{os.getpid()}"
    solves = []
    missing = []
    try:
        setup_times = ([] if args.trace
                       else measure_setup(args.workload, args.seed, run_dir))
        # The reference values are stored at DEFAULT_SEED.  A workload whose
        # inputs depend on the seed checks one small solve there, outside the
        # timed loop; the others check their first timed solve.
        ref_cells = None
        if workload.seed_sensitive:
            try:
                ref_cells = workload.reference_run(run_dir / "reference")
            except Exception:  # counted as failed reference cells below
                traceback.print_exc()
                ref_cells = []
        start = time.perf_counter()
        # Traced runs alternate untraced and traced solves, so the overhead
        # ratio compares solves made under the same machine load.
        while (time.perf_counter() - start < args.seconds
               or len(solves) < (1 if tracer is None else 2)):
            traced = tracer is not None and len(solves) % 2 == 1
            out_dir = run_dir / f"solve{len(solves)}"
            if traced:
                with tracing.instrument(tracer) as missing:
                    solves.append(run_solve(workload, args.seed, out_dir, True))
            else:
                solves.append(run_solve(workload, args.seed, out_dir, False))
                if tracer is None:
                    setup_times += measure_setup(args.workload, args.seed,
                                                 run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check_solves(workload, solves)
    if ref_cells is None:
        ref_cells = solves[0].cells
    ref_failures = check_reference(args.workload, workload, ref_cells)
    for solve in solves:
        if solve.error:
            print(solve.error, file=sys.stderr)
    for key, reason in [*ref_failures.items(),
                        *(f for s in solves for f in s.failures.items())]:
        print(f"FAILED {args.workload} {key}: {reason}", file=sys.stderr)
    n_ref = len(workloads.load_reference()[args.workload])
    attempted = workload.expected_cells() * len(solves) + n_ref
    failed = sum(len(s.failures) for s in solves) + len(ref_failures)

    untraced = [s for s in solves if not s.traced]
    if tracer is None:
        metrics = end_to_end(untraced, setup_times, rss_mb)
    else:
        traced = [s for s in solves if s.traced]
        metrics = per_layer(tracer, traced, untraced)
        if missing:
            print(f"# not traced (absent in this shmod): {', '.join(missing)}")
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}.csv"
        tracing.write_spans(spans_path, tracer.spans())
        print(f"# spans written to {spans_path.relative_to(ROOT)}")

    seed_note = "" if workload.seed_sensitive else " (inputs do not depend on the seed)"
    print(f"# {args.workload} seed={args.seed}{seed_note}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<45} {value:>14.6g} {unit:<6} {note}")
    print(f"{'fail_ratio':<45} {failed / attempted:>14.6g} {'ratio':<6} "
          f"{failed} of {attempted} cells failed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
