"""Time integration of the rescaled stochastic Swift-Hohenberg equation.

Cubic variant:   dv/dT = L_eps v + nu/eps v^2 - v^3 + dW/dT
Quintic variant: dv/dT = L_eps v + nu2/eps v^2 + nu3 v^3 - v^5 + dW/dT

The stepper is ETD1 exponential Euler: the linear flow and the additive
noise are exact per Fourier mode, the nonlinearity enters through
dt*phi1(lam*dt), which reproduces the exact quasi-steady response of the
stiff slaved modes (essential for the quadratic-interaction coefficients).
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .grid import ComplexField, Grid, RealField
from .noise import NoiseConfig, SpectralNoise
from .operators import PaddedGrid, dealiased_powers, symbol_L_eps
from .bands import modulate

CUBIC = "cubic"
QUINTIC = "quintic"


@dataclass(frozen=True)
class ModelParams:
    variant: str = CUBIC
    nu: float = 0.0
    nu2: float = 0.0
    nu3: float = 0.0
    dt: float = 1e-3
    t_end: float = 1.0
    blowup_threshold: float = 1e4

    def __post_init__(self):
        if self.variant not in (CUBIC, QUINTIC):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.dt <= 0 or self.t_end <= 0 or self.blowup_threshold <= 0:
            raise ValueError("dt, t_end and blowup_threshold must be positive")
        step_count(self.t_end, self.dt)


def step_count(t_end: float, dt: float) -> int:
    """The number of steps of size ``dt`` to ``t_end``, which must be one
    at least."""
    n_steps = round(t_end / dt)
    if n_steps < 1:
        raise ValueError("t_end / dt rounds to no time step")
    return n_steps


@dataclass(frozen=True)
class RunResult:
    """What a single run reached: the field after its last completed step,
    its status and the time of that step."""
    final: RealField | ComplexField
    status: str
    time: float


def _phi1(z: np.ndarray) -> np.ndarray:
    """(e^z - 1)/z, stable near 0."""
    small = np.abs(z) < 1e-8
    return np.where(small, 1.0 + 0.5 * z,
                    np.expm1(np.where(small, 1.0, z)) / np.where(small, 1.0, z))


class SHStepper:
    """Precomputed ETD1 step for one (grid, params, intensity) combination.

    The stepper owns the padded work arrays of its nonlinearity, so one
    stepper serves one thread at a time.
    """

    def __init__(self, grid: Grid, p: ModelParams, intensity: float = 1.0):
        self.grid, eps = grid, grid.eps
        lam = symbol_L_eps(grid.rfft_wavenumbers, eps)
        # the real multipliers are stored as complex numbers with imaginary
        # part +0, the cast numpy would make on every product with a
        # spectrum: the same bits, without a cast buffer per product
        self.decay = np.exp(lam * p.dt).astype(np.complex128)
        self.noise = SpectralNoise(grid, intensity)
        self.noise_scale = (
            self.noise.ou_scale(lam, p.dt).astype(np.complex128)
            if intensity > 0 else None)
        if p.variant == CUBIC:
            self.coeffs, pad = {2: p.nu / eps, 3: -1.0}, 2
        else:
            self.coeffs, pad = {2: p.nu2 / eps, 3: p.nu3, 5: -1.0}, 3
        # the nonlinearity enters times dt*phi1(lam*dt), folded into the
        # output weights of its padded grid
        self.padded = PaddedGrid(grid.n_points, pad,
                                 gain=p.dt * _phi1(lam * p.dt))

    def step_spec(self, vspec: np.ndarray, raw: np.ndarray | None) -> np.ndarray:
        out = dealiased_powers(vspec, self.coeffs, self.padded)
        out += self.decay * vspec
        if raw is not None and self.noise_scale is not None:
            out += raw * self.noise_scale
        return out

    def values(self, vspec: np.ndarray) -> np.ndarray:
        return np.fft.irfft(vspec, n=self.grid.n_points)

    def sup_bound(self, vspec: np.ndarray) -> float:
        """An upper bound on the sup norm of ``values(vspec)``: each of the
        h modes of the half-spectrum stands for a conjugate pair at most,
        so ``2·Σ|ĉ|/n`` bounds it, and by Cauchy-Schwarz so does
        ``2·sqrt(h·Σ|ĉ|²)/n``, one BLAS call."""
        return 2.0 * spectral_l2_bound(vspec) / self.grid.n_points


def spectral_l2_bound(spec: np.ndarray) -> float:
    """``sqrt(h·Σ|ĉ|²)`` over the h entries of ``spec``, at least their l1
    norm ``Σ|ĉ|`` by Cauchy-Schwarz; nan or inf if an entry is, or if the
    sum of squares overflows."""
    return math.sqrt(spec.size * np.vdot(spec, spec).real)


#: relative margin below ``threshold`` under which a spectral sup bound
#: passes a step.  Transform and sum err by a few units of roundoff per
#: FFT stage relative to the l1 norm of the spectrum, under 1e-13 on any
#: grid that fits in memory, so 1e-9 leaves four orders of magnitude.
GUARD_MARGIN = 1e-9


def _blown_up(stepper, spec: np.ndarray, threshold: float) -> bool:
    """True if ``stepper.values(spec)`` has a non-finite entry or reaches
    sup norm ``threshold``.

    The stepper's ``sup_bound(spec)``, taken from the spectrum, bounds that
    sup norm from above, so a finite bound below the threshold (less
    ``GUARD_MARGIN``) passes the step without a transform.  A nan or inf
    entry, or an overflow of the bound, makes it nan or inf, which fails
    the comparison and falls through to the exact test.  There every comparison with nan is false,
    so the negated bounds catch nan and +-inf with no isfinite pass, and a
    real field needs no abs temporary."""
    if stepper.sup_bound(spec) < threshold * (1.0 - GUARD_MARGIN):
        return False
    v = stepper.values(spec)
    if np.iscomplexobj(v):
        return not np.max(np.abs(v)) < threshold
    return not (v.max() < threshold and -v.min() < threshold)


def integrate(steppers, specs, n_steps: int, threshold: float,
              draw=None, observers=()) -> tuple[str, int, list]:
    """Advance the spectra ``specs`` by up to ``n_steps`` steps.

    Each step draws one raw increment shared by all steppers (``draw()``,
    or None for a noise-free run); every stepper scales it itself in
    ``step_spec(spec, raw)``.  A step on which any field is non-finite or
    reaches sup norm ``threshold`` (``_blown_up``) ends the run unobserved
    and is discarded; otherwise every observer is called as
    ``observer(i, specs)``, and takes grid values itself if it needs them.
    Returns the run
    status, "completed" or "blowup_stopped", the number of steps completed
    and the spectra after the last of them (``specs`` if none completed).
    """
    for i in range(1, n_steps + 1):
        raw = draw() if draw is not None else None
        new = [s.step_spec(spec, raw) for s, spec in zip(steppers, specs)]
        if any(_blown_up(s, spec, threshold)
               for s, spec in zip(steppers, new)):
            return "blowup_stopped", i - 1, specs
        specs = new
        for observe in observers:
            observe(i, specs)
    return "completed", n_steps, specs


#: rows per block of the worker's jobs: noise draws, and the paired run's
#: diagnostics.  Fewer, larger jobs stall the stepping thread less, and
#: one size for both keeps their hand-overs aligned.  Three noise blocks
#: of about 49 kB a row (n = 2048) are live, so the 1 MB tracemalloc bound
#: of an attractivity cell caps it: 0.90 MB at 12 rows (0.89 MB at 0.8.0,
#: 0.99 MB at 14)
BLOCK = 12


def _start_worker():
    global _worker
    _worker = ThreadPoolExecutor(1, thread_name_prefix="shmod-worker")


# one worker thread per process; a forked child has no copy of the
# parent's thread and would wait on it forever, so it starts its own
_start_worker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_start_worker)


def run_on_worker(fn, *args):
    """Submit ``fn(*args)`` to this process's worker thread; its future."""
    return _worker.submit(fn, *args)


def noise_draw(noise: SpectralNoise, cfg: NoiseConfig | None, n_steps: int,
               complex_rows: bool = False):
    """Exactly ``n_steps`` per-step ``noise.raw`` draws (``raw_complex``
    with ``complex_rows``) from ``cfg``'s stream, bit for bit; None without
    noise.  They are drawn in blocks, one block ahead, on the worker,
    which overlaps the stepping thread: Philox and pocketfft free the GIL."""
    if cfg is None or cfg.intensity == 0:
        return None
    raw = noise.raw_complex if complex_rows else noise.raw
    rng = cfg.make_rng()

    def rows():
        ahead = None  # the block being drawn
        for start in range(0, n_steps + BLOCK, BLOCK):
            block = ahead.result() if ahead else ()
            k = min(BLOCK, n_steps - start)
            ahead = run_on_worker(raw, rng, (k,)) if k > 0 else None
            yield from block

    return rows().__next__


def simulate(v0: RealField, p: ModelParams,
             cfg: NoiseConfig | None = None) -> RunResult:
    """Integrate to t_end, or to the last step before blow-up."""
    intensity = cfg.intensity if cfg is not None else 0.0
    stepper = SHStepper(v0.grid, p, intensity)
    n_steps = step_count(p.t_end, p.dt)
    status, steps, (vspec,) = integrate(
        [stepper], [v0.spectrum()], n_steps, p.blowup_threshold,
        noise_draw(stepper.noise, cfg, n_steps))
    return RunResult(RealField.from_spectrum(v0.grid, vspec), status,
                     steps * p.dt)


#: the random profile of modulated_carrier_ic has the amplitude
#: wavenumbers -PROFILE_MODES .. PROFILE_MODES
PROFILE_MODES = 8


def modulated_carrier_ic(grid: Grid, rng: np.random.Generator,
                         amplitude: float = 1.0,
                         offband: float = 0.0) -> RealField:
    """Initial data A0(X) e^{iX/eps} + c.c. with a random band-limited profile.

    The profile uses the lowest ``PROFILE_MODES`` amplitude wavenumbers with
    Gaussian coefficients and a 1/(1+j) rolloff, normalized to sup |A0| =
    ``amplitude``.  ``offband`` adds a smooth perturbation supported outside
    the P1 band (scaled to that sup norm).
    """
    n = grid.n_points
    spec = np.zeros(n, dtype=np.complex128)
    for j in range(-PROFILE_MODES, PROFILE_MODES + 1):
        c = (rng.standard_normal() + 1j * rng.standard_normal()) / (1.0 + abs(j))
        spec[j % n] = c * n / (2 * PROFILE_MODES + 1)
    A0 = ComplexField.from_spectrum(grid, spec)
    peak = A0.sup_norm()
    if peak > 0:
        A0 = A0 * (amplitude / peak)
    v0 = modulate(A0)
    if offband > 0:
        # smooth off-band bump: a few low-|K| modes (P0 region complement of P1)
        pert = np.zeros(n, dtype=np.complex128)
        for j in range(1, 5):
            c = rng.standard_normal() + 1j * rng.standard_normal()
            pert[j] = c * n / 8.0
            pert[-j] = np.conj(c) * n / 8.0
        w = np.real(np.fft.ifft(pert))
        m = np.max(np.abs(w))
        if m > 0:
            v0 = RealField(grid, v0.values + offband * w / m)
    return v0
