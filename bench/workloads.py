"""The benchmark's workloads.

Each workload turns a seed into inputs, runs one *solve* through shmod's
public entry points (``run_study`` or ``estimate_landau_coefficient``) and
checks every cell of it.  A cell is one study record or one coefficient
fit.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import shmod
from shmod import StudyConfig, run_study
from shmod.studies import study_cells

#: ``StudyConfig``'s own default ``base_seed``; the reference values are
#: stored at this seed.
DEFAULT_SEED = 20260826

#: The one eps of the small study whose cell every run of a seeded
#: workload compares with the reference values.
REFERENCE_EPS = 0.2

#: Relative tolerance against the reference values: wide enough for the
#: last-bit changes of a reordered or fused kernel, far below the change a
#: wrong kernel makes.
REFERENCE_RTOL = 1e-6

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Cell:
    key: str
    status: str
    diagnostics: dict
    wall_time: float


def check_diagnostics(cell: Cell, limits: dict) -> str | None:
    """Why ``cell`` fails, or None.

    ``limits`` maps each expected diagnostic to the open interval its value
    must lie in.  A blown-up run can still be recorded ``ok``; its
    diagnostics fall outside these intervals.
    """
    if cell.status != "ok":
        return f"status {cell.status!r}"
    if set(cell.diagnostics) != set(limits):
        return f"diagnostics {sorted(cell.diagnostics)}, expected {sorted(limits)}"
    for name, (lo, hi) in limits.items():
        value = cell.diagnostics[name]
        if not math.isfinite(value):
            return f"{name} = {value} is not finite"
        if not lo < value < hi:
            return f"{name} = {value} outside ({lo}, {hi})"
    return None


class StudyWorkload:
    """A default-config study run by ``run_study``, seeded by ``base_seed``."""

    seed_sensitive = True

    def __init__(self, study: str, limits: dict, **overrides):
        self.study = study
        self.limits = limits
        self.overrides = overrides

    def config(self, seed: int, out_dir) -> StudyConfig:
        return StudyConfig.for_study(self.study, out_dir, base_seed=seed,
                                     **self.overrides)

    def expected_cells(self) -> int:
        return len(study_cells(self.config(DEFAULT_SEED, ".")))

    def run(self, seed: int, out_dir) -> list:
        cells = []

        def progress(record):
            cells.append(Cell(record.key, record.status,
                              dict(record.diagnostics), record.wall_time))

        run_study(self.config(seed, out_dir), progress=progress)
        return cells

    def check(self, cell: Cell) -> str | None:
        return check_diagnostics(cell, self.limits)

    def reference_run(self, out_dir) -> list:
        """One cell of the study at ``DEFAULT_SEED``, to compare with the
        reference values whatever the run's seed."""
        overrides = {**self.overrides, "eps_list": (REFERENCE_EPS,),
                     "n_seeds": 1, "threads": 1}
        return StudyWorkload(self.study, self.limits, **overrides).run(
            DEFAULT_SEED, out_dir)


class QuinticFitWorkload:
    """Acceptance 3's two quintic-variant fits over a shorter fit window.

    The fits are deterministic and noise-free, so the seed does not reach
    them.
    """

    seed_sensitive = False
    eps = 0.1
    amplitude = 0.2
    n_points = 8192
    #: Acceptance 3 fits over a window of 8 (about 40 s a fit).  Over 0.5
    #: the snapshot stride is 1 rather than 20, so ``project`` and
    #: ``demodulate`` run about 20 times as often per step.
    fit_window = 0.5
    r2_min = 0.99
    #: cell key -> (nu2, nu3), the diagnostic checked and its target.
    FITS = {
        "nu=(0,0)": ((0.0, 0.0), "c5", -10.0),
        "nu=(1,0)": ((1.0, 0.0), "c3", 38.0 / 9.0),
    }

    def expected_cells(self) -> int:
        return len(self.FITS)

    def run(self, seed: int, out_dir) -> list:
        cells = []
        for key, (nu, _, _) in self.FITS.items():
            start = perf_counter()
            try:
                fit = shmod.estimate_landau_coefficient(
                    self.eps, nu=nu, variant="quintic",
                    amplitude=self.amplitude, n_points=self.n_points,
                    fit_window=self.fit_window, r2_min=self.r2_min)
                status = "ok"
                diags = {"c3": fit.c3, "c5": fit.c5, "r_squared": fit.r_squared}
            except RuntimeError as exc:  # the fit rejected its own window
                status, diags = f"error: {exc}", {}
            cells.append(Cell(key, status, diags, perf_counter() - start))
        return cells

    def check(self, cell: Cell) -> str | None:
        """Acceptance 3's tolerances: R^2 and the coefficient within 10%."""
        _, target_name, target = self.FITS[cell.key]
        limits = {"c3": (-math.inf, math.inf), "c5": (-math.inf, math.inf),
                  "r_squared": (self.r2_min, 1.0 + 1e-12)}
        lo, hi = sorted((0.9 * target, 1.1 * target))
        limits[target_name] = (lo, hi)
        return check_diagnostics(cell, limits)


WORKLOADS = {
    "theorem2": StudyWorkload(
        "theorem2",
        # At the default seed sup_diff is at most 0.011 and res_p0/res_p2
        # at most 0.019 over the eps ladder; twenty times that is a blow-up
        # (a blown-up run has been recorded ok with sup_diff = 470).
        {"sup_diff": (0.0, 0.2), "res_p0": (0.0, 0.5), "res_p2": (0.0, 0.5)},
        n_seeds=1, threads=1,
    ),
    "attractivity": StudyWorkload(
        "attractivity",
        # The off-band part starts at sup norm 1 and decays to about
        # 0.2 eps (at most 0.04 at the default seed).
        {"offband_sup": (0.0, 0.5), "offband_ratio": (0.0, 2.5)},
        # One thread: on a 2-vCPU VM with an oversubscribed host, two busy
        # threads lost about 30% of their CPU time to steal, and solve wall
        # time swung between 9.4 and 14.4 s at a constant 14.3 CPU-seconds.
        n_seeds=2, threads=1,
    ),
    "landau-quintic": QuinticFitWorkload(),
}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def reference_mismatches(name: str, cells: list) -> list:
    """Reference cells of workload ``name`` that ``cells`` lacks or that
    differ from the stored values, as (cell key, reason) pairs.

    The reference values are outputs at ``DEFAULT_SEED``.
    """
    expected = load_reference()[name]
    found = {c.key: c.diagnostics for c in cells}
    bad = []
    for key, diags in expected.items():
        if key not in found:
            bad.append((key, "missing"))
            continue
        for diag, ref in diags.items():
            got = found[key].get(diag, math.nan)
            if not math.isclose(got, ref, rel_tol=REFERENCE_RTOL, abs_tol=1e-12):
                bad.append((key, f"{diag} = {got!r}, reference {ref!r}"))
    return bad
