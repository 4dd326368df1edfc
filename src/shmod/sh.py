"""Time integration of the rescaled stochastic Swift-Hohenberg equation.

    dv/dT = L_eps v + nu/eps v^2 + c3 v^3 + c5 v^5 + dW/dT,
with (nu, c3, c5) = (nu, -1, 0) (cubic variant) or (nu2, nu3, -1) (quintic).

The stepper is ETD1 exponential Euler: the linear flow and the additive
noise are exact per Fourier mode, the nonlinearity enters through
dt*phi1(lam*dt), which reproduces the exact quasi-steady response of the
stiff slaved modes (essential for the quadratic-interaction coefficients).
"""
from __future__ import annotations

import os
import threading
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

    @property
    def polynomial(self) -> dict:
        """The coefficients ``{2: ν, 3: c₃, 5: c₅}`` of the nonlinearity
        ν/eps v² + c₃ v³ + c₅ v⁵: ``{nu, -1, 0}`` for the cubic variant and
        ``{nu2, nu3, -1}`` for the quintic one.  Every stepper, the
        amplitude coefficients and the Landau fit read the model here."""
        if self.variant == CUBIC:
            return {2: self.nu, 3: -1.0, 5: 0.0}
        return {2: self.nu2, 3: self.nu3, 5: -1.0}


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


def etd_multipliers(grids, lam, dts, intensity: float):
    """The ETD multipliers of a batch of rows, row r on ``grids[r]`` with
    rates ``lam[r]`` and step ``dts[r]``: the decay e^{λdt}, the gain
    dt·φ₁(λdt) and the scale of the exact OU noise increment at
    ``intensity``, None at 0.  The real multipliers are stored as complex
    numbers with imaginary part +0, the cast numpy would make on every
    product with a spectrum: the same bits, without a cast buffer per
    product."""
    rows = [(np.exp(row * dt), dt * _phi1(row * dt),
             SpectralNoise(g, intensity).ou_scale(row, dt) if intensity > 0
             else 0.0) for g, row, dt in zip(grids, lam, dts)]
    decay, gain, scale = (np.array(x).astype(np.complex128)
                          for x in zip(*rows))
    return decay, gain, scale if intensity > 0 else None


def shared(values, what: str):
    """The one value in ``values`` that every row of a batch shares."""
    first, *rest = values
    if any(value != first for value in rest):
        raise ValueError(f"the rows of a batch differ in {what}")
    return first


def per_row(values):
    """A coefficient with one value per row of a batch, as a column that
    broadcasts against arrays whose last two axes are rows and samples;
    one number if every row has the same, which broadcasts at less cost."""
    column = np.array(values, dtype=np.float64)[:, None]
    return float(column[0, 0]) if np.all(column == column[0]) else column


class SHStepper:
    """Precomputed ETD1 step of a batch of rows, one ``(grid, params)`` pair
    each, at one noise intensity.

    A spectrum is an array with one half-spectrum per row.  The grids share
    their number of points and the params whether they have a quintic
    term; each row has its own eps, polynomial and dt, so its own
    multipliers, and a single run is a batch of one.  The stepper owns the
    padded work arrays of its nonlinearity, so one stepper serves one
    thread at a time.
    """

    def __init__(self, grids, params, intensity: float = 1.0):
        self.n = shared([g.n_points for g in grids], "grid size")
        polys = [p.polynomial for p in params]
        quintic = shared([c[5] != 0 for c in polys], "quintic term")
        self.decay, gain, self.noise_scale = etd_multipliers(
            grids, [symbol_L_eps(g.rfft_wavenumbers, g.eps) for g in grids],
            [p.dt for p in params], intensity)
        self.noise = SpectralNoise(grids[0], intensity)
        coeffs = {e: per_row([c[e] for c in polys]) for e in (3, 5)}
        coeffs[2] = per_row([c[2] / g.eps for g, c in zip(grids, polys)])
        # the padded grid takes the whole step: the nonlinearity (a term
        # that no row has is left out) times dt*phi1(lam*dt), folded into
        # its output weights, then the linear flow and the noise
        self.padded = PaddedGrid(
            self.n, 3 if quintic else 2,
            {e: c for e, c in coeffs.items() if np.any(c)},
            gain.real, self.decay, self.noise_scale)
        # each mode of the half-spectrum stands for a conjugate pair at
        # most, so 2·Σ|ĉ|/n bounds the sup norm of the values (_blown_up)
        self.bound_scale = 2.0 / self.n

    def step_spec(self, vspec: np.ndarray, raw: np.ndarray | None) -> np.ndarray:
        """``N(v) + decay·v̂ + noise`` of every row: the update of its
        padded grid."""
        return dealiased_powers(vspec, self.padded, raw)

    def values(self, vspec: np.ndarray) -> np.ndarray:
        return np.fft.irfft(vspec, n=self.n)


#: relative margin below ``threshold`` under which a spectral sup bound
#: passes a step.  Transform and sum err by a few units of roundoff per
#: FFT stage relative to the l1 norm of the spectrum, under 1e-13 on any
#: grid that fits in memory, so 1e-9 leaves four orders of magnitude.
GUARD_MARGIN = 1e-9


def _blown_up(stepper, spec: np.ndarray, threshold: float):
    """Which rows of ``stepper.values(spec)`` have a non-finite entry or
    reach sup norm ``threshold``, as a boolean array; None if no row does
    by the spectral bound alone.

    The stepper's ``bound_scale`` times the l1 norm ``Σ|ĉ|`` of a row's
    h entries bounds its sup norm from above, and so does
    ``bound_scale·sqrt(h·Σ|ĉ|²)`` by Cauchy-Schwarz.  A finite bound below
    the threshold (less ``GUARD_MARGIN``) passes a row without a
    transform, and a batch whose squared bounds sum below the squared
    limit takes none: the sum is at least the largest, and one BLAS call,
    ``np.vdot`` over the batch, takes it.  A nan or inf entry, or an
    overflow of the sum of squares, makes it nan or inf, which fails the
    comparison and falls through to the bound of each row, and then to the
    exact test of the rows whose bound fails.  There every comparison with
    nan is false, so the negated bounds catch nan and +-inf with no
    isfinite pass, and a real field needs no abs temporary."""
    limit = ((threshold * (1.0 - GUARD_MARGIN) / stepper.bound_scale) ** 2
             / spec.shape[-1])
    if np.vdot(spec, spec).real < limit:
        return None
    x = np.ascontiguousarray(spec).view(np.float64)
    suspect = ~(np.vecdot(x, x) < limit)  # Σ|ĉ|² of each row
    v = stepper.values(spec[suspect])
    if np.iscomplexobj(v):
        suspect[suspect] = ~(np.max(np.abs(v), axis=1) < threshold)
    else:
        suspect[suspect] = ~((v.max(axis=1) < threshold)
                             & (-v.min(axis=1) < threshold))
    return suspect


#: steps per block of the worker's jobs at most: noise draws, and a
#: run's job.  Fewer, larger jobs stall the stepping thread less, and one
#: size for both keeps their hand-overs aligned.  Two noise blocks are
#: live in ``integrate``, of about 16 kB a row at n = 2048, besides the
#: 16 kB a row of normals drawn into the newest, so the 1 MB tracemalloc
#: bound of an attractivity cell caps a batch of one: 0.93 MB at 12 steps
BLOCK = 12

#: bytes of a run's worker blocks at most: its two live noise blocks and
#: every array of its job.  A default theorem2 batch of 5 holds 2.76 MB in
#: blocks of 4 steps and would hold 3.36 MB in blocks of 5; in that batch,
#: blocks of 7 steps peaked 1.8 MB above blocks of 4
BLOCK_BYTES = 3 << 20


def integrate(steppers, specs, n_steps: int, threshold: float,
              draw=None, observers=(), job=None) -> tuple[list, list, list]:
    """Advance the batched spectra ``specs``, one array of rows per
    stepper, by up to ``n_steps`` steps.

    Each step takes one raw increment per row shared by all steppers, none
    without ``draw``; every stepper scales it itself in
    ``step_spec(spec, raw)``.  A row whose field is non-finite or reaches
    sup norm ``threshold`` in any stepper (``_blown_up``) is frozen at its
    last completed step: its blown step is discarded, and from then on it
    is stepped from rest, so it never overflows, and its values are left
    for the observers to ignore.  The other rows go on.  On step 0, with
    the inputs, and after each step every observer is called as
    ``observer(i, specs)``, and takes grid values itself if it needs them.
    Returns each row's status, "completed" or "blowup_stopped", the number
    of steps each row completed and the spectra after the last of them
    (the inputs for a row that completed none); the run ends early once
    every row is frozen.

    The worker thread (``run_on_worker``) takes the run's work in blocks of
    the most steps, ``BLOCK`` at most, for which two noise blocks and the
    job's ``block_bytes`` fit ``BLOCK_BYTES``.  ``draw`` is the pair of
    ``noise_draw``: a job that draws the noise of k steps, and the bytes
    of one step.  The noise is drawn one block ahead: block j + 1 is
    submitted on the first step of block j.  The job is sized once by
    ``job.allocate(k)``.  ``job.take(side, row, i, specs)`` copies each
    observed step into one side of its buffers, and a full side goes to
    the worker as ``job.run(side, k)`` while the other side fills, as does
    the last partial one after the loop.  The job before it is waited for
    first, so one block is in flight.  However the run ends, the job
    and the noise block in flight are waited for, which re-raises the
    error of a failed one, so no work of the run is left on the worker.
    """
    draw, step_bytes = draw or (None, 0)
    held = job.block_bytes if job is not None else lambda k: 0
    size = max((k for k in range(1, BLOCK + 1)
                if 2 * k * step_bytes + held(k) <= BLOCK_BYTES), default=1)
    pending = ahead = None  # the job's block and the noise block in flight

    def hand_over(i):
        # the block of step i, the last it holds
        nonlocal pending
        if pending is not None:
            pending.result()
        pending = run_on_worker(job.run, i // size % 2, i % size + 1)

    def observe(i, specs):
        for observer in observers:
            observer(i, specs)
        if job is not None:
            job.take(i // size % 2, i % size, i, specs)
            if i % size == size - 1:
                hand_over(i)

    rows = len(specs[0])
    steps = np.full(rows, n_steps)
    live, kept = np.ones(rows, dtype=bool), None
    if job is not None:
        job.allocate(size)
    try:
        observe(0, specs)
        ahead = run_on_worker(draw, min(size, n_steps)) if draw else None
        for i in range(1, n_steps + 1):
            row = (i - 1) % size
            if row == 0 and ahead is not None:
                # block j + 1 is drawn while the steps of block j are taken
                block, left = ahead.result(), n_steps - (i - 1) - size
                ahead = (run_on_worker(draw, min(size, left)) if left > 0
                         else None)
            raw = block[row] if draw else None
            new = [s.step_spec(spec, raw) for s, spec in zip(steppers, specs)]
            raw = None  # the noise block goes as soon as its last row is used
            blown = None
            for s, spec in zip(steppers, new):
                bad = _blown_up(s, spec, threshold)
                if bad is not None:
                    blown = bad if blown is None else blown | bad
            if blown is not None and (blown := blown & live).any():
                if kept is None:
                    kept = [spec.copy() for spec in specs]
                else:
                    for k, spec in zip(kept, specs):
                        k[blown] = spec[blown]
                steps[blown] = i - 1
                live &= ~blown
                if not live.any():
                    break
            if kept is not None:
                for spec in new:
                    spec[~live] = 0.0
            specs = new
            observe(i, specs)
        # the last step observed is the last that any row completed
        last = int(steps.max())
        if job is not None and last % size != size - 1:
            hand_over(last)
    finally:
        for future in (pending, ahead):
            if future is not None:
                future.result()
    if kept is not None:
        specs = [np.where(live[:, None], spec, k)
                 for k, spec in zip(kept, specs)]
    status = ["completed" if ok else "blowup_stopped" for ok in live]
    return status, steps.tolist(), specs


_worker = None
_worker_lock = threading.Lock()


def _forget_worker():
    # a forked child has no copy of the parent's thread and would wait on
    # it forever, so it starts its own
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def run_on_worker(fn, *args):
    """Submit ``fn(*args)`` to this process's one worker thread, started on
    the first call; its future."""
    global _worker
    if _worker is None:
        with _worker_lock:
            if _worker is None:
                _worker = ThreadPoolExecutor(
                    1, thread_name_prefix="shmod-worker")
    return _worker.submit(fn, *args)


def noise_draw(noise: SpectralNoise, cfgs, complex_rows: bool = False):
    """The noise of a batch, one row per config in ``cfgs``, for
    ``integrate``: a block job ``draw(k)`` that draws the next k steps, as
    an array of steps of rows, and the bytes of one step; None without
    noise (no ``cfgs``, or every intensity 0).  Row r of a step is the
    ``noise.raw`` draw (``raw_complex`` with ``complex_rows``) of
    ``cfgs[r]``'s own stream, bit for bit, whatever the blocks.  Rows that
    share a stream, one ``(seed, stream_id)``, share its one generator:
    the first of them draws and the others copy its rows.  The job runs on
    the worker, which overlaps the stepping thread: Philox and pocketfft
    free the GIL."""
    if cfgs is None or all(cfg.intensity == 0 for cfg in cfgs):
        return None
    raw = noise.raw_complex if complex_rows else noise.raw
    n = noise.grid.n_points
    width = n if complex_rows else n // 2 + 1
    first = {}  # the first row of each stream
    source = [first.setdefault((cfg.seed, cfg.stream_id), r)
              for r, cfg in enumerate(cfgs)]
    rngs = {r: cfgs[r].make_rng() for r in first.values()}

    def draw(k):
        block = np.empty((len(cfgs), k, width), dtype=np.complex128)
        for r, rng in rngs.items():
            raw(rng, (k,), out=block[r])
        for r, s in enumerate(source):
            if s != r:
                block[r] = block[s]
        return block.swapaxes(0, 1)

    return draw, len(cfgs) * width * 16


def simulate(v0: RealField, p: ModelParams,
             cfg: NoiseConfig | None = None) -> RunResult:
    """Integrate to t_end, or to the last step before blow-up: a batch of
    one."""
    intensity = cfg.intensity if cfg is not None else 0.0
    stepper = SHStepper([v0.grid], [p], intensity)
    n_steps = step_count(p.t_end, p.dt)
    (status,), (steps,), (vspec,) = integrate(
        [stepper], [v0.spectrum()[None]], n_steps, p.blowup_threshold,
        noise_draw(stepper.noise, None if cfg is None else [cfg]))
    return RunResult(RealField.from_spectrum(v0.grid, vspec[0]), status,
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
