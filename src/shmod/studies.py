"""Seeded ensemble studies, incremental record output, and replay.

A study is a grid of independent cells, one per (parameter set, seed),
and everything that sets one study apart is its entry in :data:`STUDIES`.
Each cell runs a simulation and reports scalar diagnostics; cells whose
steppers have one shape run together as a batch, each with the bits of
its run alone (:func:`study_batches`).  Records are
appended to ``records.csv`` as cells finish (single writer), so an
interrupted study can be re-run and will skip completed cells.  A
``manifest.json`` pins the package version and the full configuration;
``replay`` re-executes recorded cells and verifies bit-identical
diagnostics.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .grid import DEFAULT_POINTS_PER_PERIOD, Grid
from .noise import NoiseConfig
from .sh import (ModelParams, SHStepper, integrate, modulated_carrier_ic,
                 noise_draw, step_count)
from .bands import DEFAULT_DELTA, band_symbols
from .reduced import simulate_paired
from .analysis import (averaging_points, check_fit_amplitude,
                       estimate_landau_coefficient, fit_scaling_exponent)

DEFAULT_EPS_LADDER = (0.2, 0.14, 0.1, 0.07, 0.05)
DEFAULT_NU_SWEEP = (0.0, 0.3, 0.6, 0.84294, 1.0)

#: Transient skipped before attractivity statistics are collected, as a
#: fraction of the horizon.  The off-band component of the initial data
#: decays on the fast time scale eps^2*log(1/eps), well inside this window.
ATTRACTIVITY_SKIP = 0.5


class ConfigError(ValueError):
    """Invalid or inconsistent study configuration."""


class ReplayError(RuntimeError):
    """Replay could not be validated against the recorded manifest."""


@dataclass(frozen=True)
class StudyConfig:
    """Full description of one study run.

    ``amplitude`` is the sup-norm of the random modulation envelope of the
    initial data and ``intensity`` the noise level; both default per study
    (see :meth:`for_study`).  A study reads only some of the settings: see
    :data:`STUDIES`.
    """

    study: str
    out_dir: Path
    eps_list: tuple = DEFAULT_EPS_LADDER
    nu_list: tuple = (0.5,)
    nu2: float = 1.0
    nu3: float = 0.0
    n_seeds: int = 50
    base_seed: int = 20260826
    n_points: int = 2048
    periods: int = 128
    delta: float = DEFAULT_DELTA
    dt: float = 1e-3
    t_end: float = 1.0
    intensity: float = 0.07
    amplitude: float = 0.5
    offband: float = 0.0
    threads: int = 1

    @classmethod
    def for_study(cls, study: str, out_dir, **overrides) -> "StudyConfig":
        """Build a config with per-study defaults, then apply overrides.

        An override of a setting the study does not read is refused.
        """
        if study not in STUDIES:
            raise ConfigError(f"unknown study {study!r}; choose from {STUDY_NAMES}")
        spec = STUDIES[study]
        overrides = {k: v for k, v in overrides.items() if v is not None}
        unread = sorted(set(overrides) - spec.reads - {"threads"})
        if unread:
            raise ConfigError(f"study {study!r} does not read {unread}")
        cfg = cls(study=study, out_dir=Path(out_dir),
                  **{**spec.defaults, **overrides})
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.study not in STUDIES:
            raise ConfigError(f"unknown study {self.study!r}")
        if not self.eps_list or not self.nu_list:
            raise ConfigError("eps_list and nu_list must be non-empty")
        if self.n_seeds <= 0 or self.threads <= 0:
            raise ConfigError("n_seeds and threads must be positive")
        spec = STUDIES[self.study]
        keys = [record_key(self.study, *cell) for cell in study_cells(self)]
        if len(set(keys)) < len(keys):
            raise ConfigError("a repeated eps or model runs its cells twice")
        try:
            ModelParams(dt=self.dt, t_end=self.t_end)
            NoiseConfig(seed=self.base_seed, intensity=self.intensity)
            for eps in self.eps_list:
                spec.check(self, spec.grid(self, eps))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def public_dict(self) -> dict:
        d = asdict(self)
        d["out_dir"] = str(self.out_dir)
        d["eps_list"] = list(self.eps_list)
        d["nu_list"] = list(self.nu_list)
        return d

    @classmethod
    def from_public_dict(cls, d: dict) -> "StudyConfig":
        d = dict(d)
        d["out_dir"] = Path(d["out_dir"])
        d["eps_list"] = tuple(d["eps_list"])
        d["nu_list"] = tuple(d["nu_list"])
        return cls(**d)


def _float_list(text: str) -> tuple:
    return tuple(float(x) for x in text.split(","))


_SHORT_NAMES = {"eps_list": "eps", "nu_list": "nu", "n_seeds": "seeds",
                "n_points": "n"}

#: Every setting of :class:`StudyConfig`: its name on the ``study``
#: command line (``--`` and the name, with ``-`` for ``_``) and in config
#: files, which also take the setting's own name, and its text parser.
SETTINGS = {
    f.name: (_SHORT_NAMES.get(f.name, f.name),
             _float_list if isinstance(f.default, tuple) else type(f.default))
    for f in fields(StudyConfig) if f.name not in ("study", "out_dir")
}


@dataclass(frozen=True)
class StudyRecord:
    """One completed cell: parameters, seed, and scalar diagnostics."""

    study: str
    params: dict
    seed: int
    diagnostics: dict
    status: str
    eps_effective: float
    wall_time: float

    @property
    def key(self) -> str:
        return record_key(self.study, self.params, self.seed)

    def diagnostics_repr(self) -> dict:
        """Diagnostics with floats rendered exactly, for bit-exact replay."""
        return {k: float(v).hex() for k, v in self.diagnostics.items()}


def record_key(study: str, params: dict, seed: int) -> str:
    parts = [study] + [f"{k}={params[k]:.10g}" for k in sorted(params)] + [f"seed={seed}"]
    return "|".join(parts)


# ---------------------------------------------------------------------------
# Cell execution


def _outcome(status: str, diagnostics: dict):
    """A row's diagnostics, or the error of a row whose run did not
    complete and so has none to record."""
    if status != "completed":
        return RuntimeError(f"run ended with status {status!r}")
    return diagnostics


def _batch_inputs(cfg: StudyConfig, grids, cells):
    """The noise configs, initial data and model parameters of a batch's
    rows, each a list by rows."""
    ncfgs = [NoiseConfig(seed=cfg.base_seed + seed, intensity=cfg.intensity)
             for _, seed in cells]
    v0s = [modulated_carrier_ic(grid, ncfg.substream(1).make_rng(),
                                amplitude=cfg.amplitude, offband=cfg.offband)
           for grid, ncfg in zip(grids, ncfgs)]
    return ncfgs, v0s, [ModelParams("cubic", nu=params["nu"], dt=cfg.dt,
                                    t_end=cfg.t_end) for params, _ in cells]


def _paired_batch(cfg: StudyConfig, grids, cells, with_gl=False) -> list:
    """The diagnostics or the error of each row of a batch of paired
    cells, with the gap to the amplitude equation if ``with_gl``."""
    ncfgs, v0s, params = _batch_inputs(cfg, grids, cells)
    result = simulate_paired(v0s, params, ncfgs, delta=cfg.delta,
                             with_gl=with_gl)
    names = ["sup_diff", "res_p0", "res_p2"] + ["sup_diff_gl"] * with_gl
    rows = zip(*(getattr(result, name) for name in names))
    return [_outcome(status, dict(zip(names, row)))
            for status, row in zip(result.status, rows)]


def _attractivity_batch(cfg: StudyConfig, grids, cells) -> list:
    """The diagnostics or the error of each row of a batch of attractivity
    cells."""
    ncfgs, v0s, params = _batch_inputs(cfg, grids, cells)
    stepper = SHStepper(grids, params, cfg.intensity)
    # the multipliers 1 - q1 of I - P1, stored as complex: the cast numpy
    # would make on each product with a spectrum
    off_band = np.array([1.0 - band_symbols(g, cfg.delta).q1 for g in grids]
                        ).astype(np.complex128)
    n_steps = step_count(cfg.t_end, cfg.dt)
    t_skip = ATTRACTIVITY_SKIP * cfg.t_end
    sup = np.zeros(len(grids))

    def observe(i, specs):
        if (i % 10 == 0 or i == n_steps) and i * cfg.dt >= t_skip:
            v = np.fft.irfft(off_band * specs[0], n=stepper.n)
            np.maximum(sup, np.max(np.abs(v), axis=1), out=sup)

    status, _, _ = integrate(
        [stepper], [np.array([v0.spectrum() for v0 in v0s])], n_steps,
        params[0].blowup_threshold, noise_draw(stepper.noise, ncfgs, n_steps),
        [observe])
    return [_outcome(st, {"offband_sup": float(s),
                          "offband_ratio": float(s) / g.eps})
            for st, s, g in zip(status, sup, grids)]


def _landau_fit(cfg: StudyConfig, grids, cells, quintic=False) -> list:
    """The diagnostics of a Landau fit, a batch of one cell."""
    (params, _), = cells
    fit = estimate_landau_coefficient(
        grids[0].eps, (params["nu2"], params["nu3"]) if quintic
        else params["nu"], variant="quintic" if quintic else "cubic",
        amplitude=cfg.amplitude, dt=cfg.dt,
        fit_window=8.0 if quintic else None)
    diags = {"c3": fit.c3, "r_squared": fit.r_squared}
    return [{**diags, "c5": fit.c5} if quintic else diags]


def _run_batch(cfg: StudyConfig, cells: list) -> list:
    """Run a batch of cells, ``(params, seed)`` pairs of one batch key,
    together; a record per cell.  A cell's ``wall_time`` is its share of
    the batch's wall time."""
    spec = STUDIES[cfg.study]
    start = time.perf_counter()
    grids = [spec.grid(cfg, params["eps"]) for params, _ in cells]
    try:
        outcomes = spec.run(cfg, grids, cells)
    except RuntimeError as exc:
        outcomes = [exc] * len(cells)
    wall_time = (time.perf_counter() - start) / len(cells)
    return [StudyRecord(
        study=cfg.study,
        params=params,
        seed=seed,
        diagnostics={} if isinstance(out, Exception) else out,
        status=f"error: {out}" if isinstance(out, Exception) else "ok",
        eps_effective=grid.eps,
        wall_time=wall_time,
    ) for (params, seed), grid, out in zip(cells, grids, outcomes)]


def study_batches(cfg: StudyConfig, cells: list) -> list:
    """``cells`` in batches of cells of one key (:class:`StudySpec`), in
    the order of ``cells``: each group of one key split into the fewest
    batches of at most the study's ``max_batch`` cells, of sizes as equal
    as possible, so 6 cells at most 5 run as 3 and 3, not as 5 and 1."""
    spec = STUDIES[cfg.study]
    groups = {}
    for params, seed in cells:
        groups.setdefault(spec.key(cfg, params, seed), []).append(
            (params, seed))
    batches = []
    for group in groups.values():
        count = -(-len(group) // spec.max_batch)
        bounds = [-(-len(group) * i // count) for i in range(count + 1)]
        batches += [group[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    return batches


def study_cells(cfg: StudyConfig) -> list:
    """The full (params, seed) grid for a study, in deterministic order:
    each model at each eps, every seed or one noise-free cell."""
    spec = STUDIES[cfg.study]
    seeds = range(cfg.n_seeds if spec.seeded else 1)
    return [({"eps": eps, **model}, seed) for model in spec.models(cfg)
            for eps in cfg.eps_list for seed in seeds]


def _run_batches(cfg: StudyConfig, cells: list):
    """Yield the records of ``cells``, run in :func:`study_batches`, as each
    batch finishes: in ``min(cfg.threads, batches, usable CPUs)`` worker
    processes, or in turn in this one when that is one or none.  Stopping
    early cancels those not begun.

    The forkserver that starts the workers imports ``__main__`` and this
    module once, so a worker does not import numpy and shmod afresh; this
    replaces any list that a caller set with ``set_forkserver_preload``,
    which takes effect only if the forkserver is not yet running."""
    batches = study_batches(cfg, cells)
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = min(cfg.threads, len(batches), cpus)
    if workers <= 1:
        for batch in batches:
            yield from _run_batch(cfg, batch)
        return
    # imported here, so that importing shmod loads no multiprocessing; and
    # forkserver, not fork: forking is unsafe once the noise worker runs
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload(["__main__", __name__])
    pool = ProcessPoolExecutor(workers, mp_context=context)
    try:
        for future in as_completed([pool.submit(_run_batch, cfg, batch)
                                    for batch in batches]):
            yield from future.result()
    finally:
        pool.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# Record persistence

_RECORD_FIELDS = (
    "key", "study", "seed", "eps_effective", "status",
    "wall_time", "params", "diagnostics",
)


def append_record(path: Path, record: StudyRecord) -> None:
    new = not path.exists()
    with open(path, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_RECORD_FIELDS)
        if new:
            writer.writeheader()
        writer.writerow(
            {
                "key": record.key,
                "study": record.study,
                "seed": record.seed,
                "eps_effective": f"{record.eps_effective:.17g}",
                "status": record.status,
                "wall_time": f"{record.wall_time:.6f}",
                "params": json.dumps(record.params, sort_keys=True),
                "diagnostics": json.dumps(record.diagnostics_repr(), sort_keys=True),
            }
        )
        fh.flush()


def load_records(path: Path) -> list:
    if not path.exists():
        return []
    records = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            diags = {k: float.fromhex(v) for k, v in json.loads(row["diagnostics"]).items()}
            records.append(
                StudyRecord(
                    study=row["study"],
                    params=json.loads(row["params"]),
                    seed=int(row["seed"]),
                    diagnostics=diags,
                    status=row["status"],
                    eps_effective=float(row["eps_effective"]),
                    wall_time=float(row["wall_time"]),
                )
            )
    return records


# ---------------------------------------------------------------------------
# Summaries


def _median_by_eps(records, diag):
    by_eps = {}
    for r in records:
        if r.status == "ok" and diag in r.diagnostics:
            by_eps.setdefault(r.params["eps"], []).append(r.diagnostics[diag])
    return {eps: float(np.median(v)) for eps, v in sorted(by_eps.items())}


def _slope_entry(medians: dict) -> dict:
    """The medians by eps and the slope of their log against log eps,
    ``None`` with fewer than 3 positive medians."""
    pairs = [(e, m) for e, m in medians.items() if m > 0]
    return {"medians": {f"{e:.10g}": m for e, m in medians.items()},
            "slope": (fit_scaling_exponent(pairs) if len(pairs) >= 3
                      else None)}


def _in_window(slope, lo: float, hi: float):
    # without a slope nothing was measured that could fail: None marks the
    # gate not evaluated
    return None if slope is None else lo <= slope <= hi


def _slope_summary(cfg: StudyConfig, records: list, gates=(),
                   noise_free=None):
    """The slope fit of each paired diagnostic, gated by ``gates``, or at
    intensity 0 by ``noise_free`` if given: ``(name, diag, lo, hi)``
    passes when the slope of ``diag`` lies in ``[lo, hi]``."""
    fits = {}
    for diag in ("sup_diff", "res_p0", "res_p2", "sup_diff_gl"):
        med = _median_by_eps(records, diag)
        if med:
            fits[diag] = _slope_entry(med)
    if noise_free is not None and cfg.intensity == 0:
        gates = noise_free
    return fits, {name: _in_window(fits.get(diag, {}).get("slope"), lo, hi)
                  for name, diag, lo, hi in gates}


def _attractivity_summary(cfg: StudyConfig, records: list):
    """The slope of the off-band sup, in [0.7, 1.3], and the spread of its
    ratio to eps over the ladder, below 2."""
    med = _median_by_eps(records, "offband_sup")
    ratios = [m / e for e, m in med.items()]
    spread = max(ratios) / min(ratios) if ratios else None
    fit = {**_slope_entry(med), "ratio_spread": spread}
    return {"offband_sup": fit}, {
        "slope_in_window": _in_window(fit["slope"], 0.7, 1.3),
        "ratio_spread_below_2": spread is not None and spread < 2.0}


def _sweep_summary(cfg: StudyConfig, records: list):
    """c3 by nu, and the last bracket in which it changes sign from
    negative: one must be found."""
    sweep = {r.params["nu"]: r.diagnostics["c3"]
             for r in records if r.status == "ok"}
    nus = sorted(sweep)
    crossing = None
    for a, b in zip(nus, nus[1:]):
        if sweep[a] < 0 <= sweep[b]:
            crossing = [a, b]
    return ({"c3_by_nu": {f"{nu:.10g}": sweep[nu] for nu in nus},
             "sign_change_bracket": crossing},
            {"sign_change_found": crossing is not None})


def _quintic_summary(cfg: StudyConfig, records: list):
    """c5 of the pure quintic model, then c3 of the other; no gate."""
    fits = {}
    for r in records:
        if r.status == "ok":
            pure = r.params["nu2"] == 0.0 and r.params["nu3"] == 0.0
            fits["c5_pure" if pure else "c3_quadratic"] = r.diagnostics.get(
                "c5" if pure else "c3")
    return {name: fits[name] for name in ("c5_pure", "c3_quadratic")
            if name in fits}, {}


def summarize(cfg: StudyConfig, records: list) -> dict:
    """Study-level scaling fits and pass/fail gates over the last record
    of each cell: a resumed study re-runs its failed cells."""
    records = list({r.key: r for r in records}.values())
    n_failed = sum(1 for r in records if r.status != "ok")
    fits, gates = STUDIES[cfg.study].summary(cfg, records)
    passed = {name: ok for name, ok in gates.items() if ok is not None}
    return {"study": cfg.study, "version": __version__,
            "n_records": len(records), "n_failed": n_failed, "fits": fits,
            "acceptance": passed, "gates_not_evaluated": [
                name for name, ok in gates.items() if ok is None],
            # a study in which no cell succeeded measured nothing that
            # could pass
            "ok": all(passed.values()) and (not records
                                            or n_failed < len(records))}


# ---------------------------------------------------------------------------
# The studies


def _carrier_grid(cfg: StudyConfig, eps: float) -> Grid:
    return Grid.for_carrier(eps, cfg.n_points, periods=cfg.periods)


@dataclass(frozen=True)
class StudySpec:
    """Everything that sets a study apart; the defaults are the paired
    studies'.  ``run(cfg, grids, cells)`` gives each cell's diagnostics or
    error, and cells of one ``key(cfg, params, seed)`` may share a batch
    of at most ``max_batch``.
    ``summary(cfg, records)`` gives the fits and the gates, ``None`` for
    one not evaluated.  ``reads`` are the settings the cells read; every
    study also accepts ``threads``, its number of worker processes at most,
    which shapes no record.  Each of ``models(cfg)`` has a cell at every
    eps, per seed if ``seeded``; ``check(cfg, grid(cfg, eps))`` raises
    ValueError if they cannot run."""

    summary: Callable
    run: Callable = _paired_batch
    # the band stepper's slice and envelope grid depend on the grid's
    # carrier index alone, so paired cells of one nu share their shapes;
    # the averaging grid depends on a cell's band supports, and the rows of
    # one keep their bits
    key: Callable = lambda cfg, params, seed: (params["nu"], averaging_points(
        _carrier_grid(cfg, params["eps"]), cfg.delta))
    # the 5 cells of one seed over the default eps ladder run as one batch,
    # which beat batches of 3 and 2 once the worker's diagnostics ran on
    # the averaging grid (README, "Studies")
    max_batch: int = 5
    reads: frozenset = frozenset({
        "eps_list", "nu_list", "n_seeds", "base_seed", "n_points", "periods",
        "delta", "dt", "t_end", "intensity", "amplitude", "offband"})
    defaults: dict = field(default_factory=dict)
    models: Callable = lambda cfg: [{"nu": nu} for nu in cfg.nu_list]
    seeded: bool = True
    grid: Callable = _carrier_grid
    check: Callable = lambda cfg, grid: band_symbols(grid, cfg.delta)


_LANDAU_READS = frozenset({"eps_list", "amplitude", "dt"})
# n_seeds 1 records in the manifest the one noise-free cell per (nu, eps)
# that study_cells makes for a Landau study
_LANDAU_DEFAULTS = {"eps_list": (0.1,), "n_seeds": 1, "amplitude": 0.2}
_LANDAU = dict(
    seeded=False, check=lambda cfg, grid: check_fit_amplitude(cfg.amplitude),
    # the fit computes one carrier period of the grid it stands for
    grid=lambda cfg, eps: Grid.for_carrier(eps, DEFAULT_POINTS_PER_PERIOD,
                                           periods=1),
    # a Landau fit runs alone
    key=lambda cfg, params, seed: (tuple(sorted(params.items())), seed))

STUDIES = {
    "attractivity": StudySpec(
        _attractivity_summary, _attractivity_batch,
        # the SH stepper's shape is the grid size, which every cell shares
        key=lambda cfg, params, seed: (),
        # default cells (n = 2048) took 58.7 ms each alone, 46.4 ms in
        # batches of 2, 43.4 ms in batches of 4 and 45.4 to 46.5 ms in
        # batches of 5 to 10; the benchmark's 10 ran as 5 and 5 within
        # noise of 4, 3 and 3, with a larger peak resident set
        max_batch=4,
        defaults={"intensity": 0.01, "offband": 1.0}),
    "averaging": StudySpec(partial(
        _slope_summary,
        # Under noise res_p2 is the O(eps^{1/2}) response of the fast modes
        # to P2 dW; res_p0 crosses over from the deterministic eps^2 part
        # to the noise part and has no single exponent.
        gates=[("res_p2_slope_in_window", "res_p2", 0.2, 0.8)],
        # Every O(eps) drift term of P0/P2 lies outside those bands, so
        # the residual is O(eps^2) at most: a one-sided gate.
        noise_free=[("res_p0_slope_above_1.7", "res_p0", 1.7, np.inf),
                    ("res_p2_slope_above_1.7", "res_p2", 1.7, np.inf)])),
    "theorem2": StudySpec(partial(
        _slope_summary,
        gates=[("sup_diff_slope_in_window", "sup_diff", 0.7, 1.3)])),
    "gl-limit": StudySpec(_slope_summary,
                          partial(_paired_batch, with_gl=True)),
    "landau-sweep": StudySpec(
        _sweep_summary, _landau_fit,
        reads=_LANDAU_READS | {"nu_list"},
        defaults={**_LANDAU_DEFAULTS, "nu_list": DEFAULT_NU_SWEEP},
        **_LANDAU),
    "quintic-suite": StudySpec(
        _quintic_summary, partial(_landau_fit, quintic=True),
        reads=_LANDAU_READS | {"nu2", "nu3"}, defaults=_LANDAU_DEFAULTS,
        # the pure quintic model and the one of nu2, nu3
        models=lambda cfg: [{"nu2": 0.0, "nu3": 0.0},
                            {"nu2": cfg.nu2, "nu3": cfg.nu3}], **_LANDAU),
}
STUDY_NAMES = tuple(STUDIES)


# ---------------------------------------------------------------------------
# Orchestration


def run_study(cfg: StudyConfig, progress=None) -> dict:
    """Execute every pending cell, write records incrementally, summarize.

    Completed cells found in an existing ``records.csv`` are skipped, so a
    study interrupted between cells resumes where it stopped; the pending
    cells run in batches (:func:`study_batches`) in ``cfg.threads`` worker
    processes at most, and no more than the batches or the usable CPUs, so
    a script that calls this with ``threads > 1`` needs the
    ``if __name__ == "__main__":`` guard.
    Returns the summary dict (also written to ``summary.json``).
    """
    cfg.validate()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    mine = cfg.public_dict()
    manifest = {"version": __version__, "config": mine}
    if manifest_path.exists():
        existing = json.loads(manifest_path.read_text())
        # records of another version have other numerics, and replay
        # would refuse them all
        if existing["version"] != __version__:
            raise ConfigError(
                f"output directory {out} already holds a study of version "
                f"{existing['version']}, not {__version__}")
        # only the study and the settings its cells read shape a record
        if any(existing["config"].get(k) != mine[k]
               for k in ("study", *STUDIES[cfg.study].reads)):
            raise ConfigError(
                f"output directory {out} already holds a study with a "
                "different configuration"
            )
    else:
        manifest_path.write_text(json.dumps(manifest, indent=2))

    records_path = out / "records.csv"
    records = load_records(records_path)
    done = {r.key for r in records if r.status == "ok"}
    pending = [cell for cell in study_cells(cfg)
               if record_key(cfg.study, *cell) not in done]
    for record in _run_batches(cfg, pending):
        append_record(records_path, record)
        records.append(record)
        if progress is not None:
            progress(record)

    summary = summarize(cfg, records)
    (out / "summary.json").write_text(json.dumps(summary, indent=2))
    return summary


def replay(out_dir, limit: int | None = None) -> dict:
    """Re-run recorded cells and verify bit-identical diagnostics."""
    out = Path(out_dir)
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"no manifest.json under {out}")
    manifest = json.loads(manifest_path.read_text())
    if manifest["version"] != __version__:
        raise ReplayError(f"recorded version {manifest['version']} does not "
                          f"match installed version {__version__}")
    cfg = StudyConfig.from_public_dict(manifest["config"])
    records = [r for r in load_records(out / "records.csv") if r.status == "ok"]
    if limit is not None:
        records = records[:limit]
    fresh = {r.key: r.diagnostics_repr() for r in _run_batches(
        cfg, [(r.params, r.seed) for r in records])}
    mismatches = [r.key for r in records
                  if fresh[r.key] != r.diagnostics_repr()]
    return {"replayed": len(records), "mismatches": mismatches,
            "ok": not mismatches}


# ---------------------------------------------------------------------------
# Plot data and config files


def emit_plotdata(out_dir) -> list:
    """Write tidy CSVs (slope data, coefficient sweeps) next to the records."""
    out = Path(out_dir)
    manifest = json.loads((out / "manifest.json").read_text())
    cfg = StudyConfig.from_public_dict(manifest["config"])
    fits = summarize(cfg, load_records(out / "records.csv"))["fits"]
    # each file's header and rows, with the fits' text keys read as numbers
    tables = {f"plot_slope_{diag}.csv": (
        ["eps", "median", "log10_eps", "log10_median"],
        [(float(e), m, np.log10(float(e)), np.log10(m))
         for e, m in fit["medians"].items()])
        for diag, fit in fits.items()
        if isinstance(fit, dict) and "medians" in fit}
    if "c3_by_nu" in fits:
        tables["plot_coefficients.csv"] = (["nu", "c3"], [
            (float(nu), c3) for nu, c3 in fits["c3_by_nu"].items()])
    for name, (header, rows) in tables.items():
        with open(out / name, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([f"{x:.10g}" for x in row] for row in rows)
    return [out / name for name in tables]


def parse_config_file(path) -> dict:
    """Read a ``key = value`` config file ('#' starts a comment).

    The keys are ``study``, ``out`` and the names of :data:`SETTINGS`;
    ``-`` may stand for ``_``.
    """
    keys = {key: name for name, (short, _) in SETTINGS.items()
            for key in (name, short)}
    values: dict = {}
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        if key in ("study", "out"):
            values[key] = val
        elif key in keys:
            name = keys[key]
            try:
                values[name] = SETTINGS[name][1](val)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    return values
