import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shmod import (
    Grid,
    ModelParams,
    NoiseConfig,
    RealField,
    band_symbols,
    demodulate,
    modulate,
    modulated_carrier_ic,
    integrate,
    project,
    simulate,
    symbol_L_eps,
)
from shmod import NoiseConfig as Noise
from shmod.grid import ComplexField
from shmod import operators
from shmod.operators import PaddedGrid, dealiased_powers
from shmod.reduced import GLStepper, ReducedStepper, gl_coefficients
from shmod.sh import (BLOCK, BLOCK_BYTES, GUARD_MARGIN, SHStepper,
                      etd_multipliers, noise_draw)

DELTA = 0.125


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(variant="septic")
    with pytest.raises(ValueError):
        Grid.for_carrier(1.5, 512)
    with pytest.raises(ValueError):
        ModelParams(dt=0.0)


def test_linear_step_matches_exact_semigroup(grid):
    # with nu = 0 and amplitude ~ 1e-8 the cubic term is O(1e-24), so one
    # step must coincide with the exact linear flow to machine precision
    rng = np.random.default_rng(0)
    v = RealField(grid, 1e-8 * rng.standard_normal(grid.n_points))
    p = ModelParams(nu=0.0, dt=1e-3)
    stepper = SHStepper([grid], [p], intensity=0.0)
    out = stepper.values(stepper.step_spec(v.spectrum()[None], None))[0]
    semigroup = np.exp(symbol_L_eps(grid.rfft_wavenumbers, grid.eps) * p.dt)
    exact = np.fft.irfft(semigroup * v.spectrum(), n=grid.n_points)
    np.testing.assert_allclose(out, exact, rtol=1e-10, atol=1e-22)


def test_slaved_modes_reach_quasi_steady_values():
    # for v ~ a e^{ix/eps} + c.c. the quadratic interaction forces a constant
    # mean-band response 2 nu eps a^2 and a second-band response of sup norm
    # 2 nu eps a^2 / 9 locked to cos(2x/eps)
    eps, nu = 0.1, 0.5
    grid = Grid.for_carrier(eps, 1024, periods=64)
    A0 = ComplexField(grid, np.full(grid.n_points, 0.3, dtype=complex))
    v0 = modulate(A0)
    p = ModelParams(nu=nu, dt=1e-3, t_end=0.2)
    v = simulate(v0, p).final
    sym = band_symbols(grid, DELTA)
    p0, p1, p2 = sym.q0, sym.q1, sym.q2
    a = np.mean(np.abs(demodulate(project(v, p1), energy_tol=1.0).values))
    mean_band = np.mean(project(v, p0).values)
    second = project(v, p2)
    assert mean_band == pytest.approx(2 * nu * grid.eps * a**2, rel=0.05)
    assert second.sup_norm() == pytest.approx(2 * nu * grid.eps * a**2 / 9,
                                              rel=0.05)
    corr = np.corrcoef(second.values, np.cos(2 * grid.x / grid.eps))[0, 1]
    assert corr > 0.99


def test_blowup_is_reported_not_raised_by_simulate():
    grid = Grid.for_carrier(0.2, 256, periods=16)
    v0 = RealField(grid, np.full(grid.n_points, 5.0))
    p = ModelParams(nu=8.0, dt=1e-2, t_end=1.0, blowup_threshold=10.0)
    run = simulate(v0, p)
    assert run.status == "blowup_stopped"
    assert np.isfinite(run.final.values).all()


@pytest.mark.parametrize("amplitude, dt, threshold, seed, steps", [
    (5.0, 0.05, 1e4, 1, 2),     # an unstable step size
    (0.3, 1e-3, 0.62, 0, 21),   # a low guard, tripped past two noise blocks
])
def test_blown_up_run_returns_its_last_completed_step(amplitude, dt,
                                                      threshold, seed, steps):
    # the run cut at the returned time completes on the same field, bit
    # for bit
    grid = Grid.for_carrier(0.2, 512, periods=32)
    cfg = NoiseConfig(seed=seed, intensity=0.1)
    v0 = modulated_carrier_ic(grid, cfg.substream(1).make_rng(),
                              amplitude=amplitude)
    p = ModelParams(nu=0.5, dt=dt, t_end=2.0, blowup_threshold=threshold)
    run = simulate(v0, p, cfg)
    assert (run.status, run.time) == ("blowup_stopped", steps * dt)
    assert np.isfinite(run.final.values).all()
    cut = simulate(v0, replace(p, t_end=run.time), cfg)
    assert (cut.status, cut.time) == ("completed", run.time)
    assert cut.final.values.tobytes() == run.final.values.tobytes()


def test_integrate_stops_at_blowup_guard():
    grid = Grid.for_carrier(0.2, 256, periods=16)
    v = RealField(grid, np.full(grid.n_points, 20.0))
    p = ModelParams(blowup_threshold=10.0)
    seen = []
    vspec = v.spectrum()[None]
    status, steps, specs = integrate(
        [SHStepper([grid], [p], intensity=0.0)], [vspec], 5,
        p.blowup_threshold, observers=[lambda i, specs: seen.append(i)])
    assert (status, steps) == (["blowup_stopped"], [0])
    assert seen == [0]
    # no step completed: the spectra handed back are the inputs
    assert len(specs) == 1 and specs[0].tobytes() == vspec.tobytes()


class _FakeStepper:
    """Adds 1 to every value per step; turns row ``nan_row`` NaN from step
    ``nan_at`` on.  Its values are its spectrum, whose l2 bound with scale
    1 bounds them."""

    bound_scale = 1.0

    def __init__(self, nan_at=None, nan_row=0):
        self.nan_at, self.nan_row = nan_at, nan_row
        self.steps = 0

    def step_spec(self, spec, raw):
        self.steps += 1
        out = spec + 1.0
        if self.nan_at is not None and self.steps >= self.nan_at:
            out[self.nan_row] = np.nan
        return out

    def values(self, spec):
        return spec


def test_guard_covers_every_field():
    seen = []
    status, steps, specs = integrate(
        [_FakeStepper(), _FakeStepper(nan_at=3)],
        [np.zeros((1, 4)), np.zeros((1, 4))],
        10, 1e4, observers=[lambda i, specs: seen.append(i)])
    assert (status, steps) == (["blowup_stopped"], [2])
    assert seen == [0, 1, 2]
    # the third step, which tripped the guard on the second field only, is
    # discarded for both
    assert [s.tolist() for s in specs] == [[[2, 2, 2, 2]], [[2, 2, 2, 2]]]


def test_guard_freezes_only_the_row_that_blew_up():
    # row 1 of the second field turns NaN on step 3: row 1 keeps its step-2
    # spectra in both fields and completes no more steps, while row 0 runs
    # to the end; the observers see the frozen row at rest
    seen = []
    status, steps, specs = integrate(
        [_FakeStepper(), _FakeStepper(nan_at=3, nan_row=1)],
        [np.zeros((2, 3)), np.zeros((2, 3))], 5, 1e4,
        observers=[lambda i, specs: seen.append(specs[0][:, 0].tolist())])
    assert (status, steps) == (["completed", "blowup_stopped"], [5, 2])
    assert [s.tolist() for s in specs] == [[[5] * 3, [2] * 3]] * 2
    assert seen == [[0, 0], [1, 1], [2, 2], [3, 0], [4, 0], [5, 0]]


class _StepJob:
    """A job of ``per_step`` bytes a step for ``integrate`` that keeps the
    steps of each block it runs; a block's run waits for ``gate`` first,
    if given."""

    def __init__(self, per_step: int, gate=None):
        self.per_step, self.gate = per_step, gate
        self.blocks, self.running = [], 0

    def block_bytes(self, size):
        return size * self.per_step

    def allocate(self, size):
        self.steps = np.full((2, size), -1)

    def take(self, side, row, i, specs):
        self.steps[side, row] = i

    def run(self, side, k):
        self.running += 1
        if self.gate is not None:
            self.gate.wait(timeout=30)
        self.blocks.append(self.steps[side, :k].tolist())
        self.running -= 1


def _runs(*lengths) -> list:
    """Consecutive blocks of steps from step 0, of the given lengths."""
    starts = np.cumsum((0,) + lengths)
    return [list(range(a, b)) for a, b in zip(starts[:-1], starts[1:])]


@pytest.mark.parametrize("n_steps, nan_at, blocks", [
    (13, None, _runs(5, 5, 4)), (14, None, _runs(5, 5, 5)),
    (20, 9, _runs(5, 4)), (20, 1, _runs(1))])
def test_integrate_hands_the_job_every_observed_step_in_blocks(n_steps,
                                                                nan_at,
                                                                blocks):
    # a job of a fifth of the cap a step takes blocks of 5 steps: every
    # step from 0 to the last one completed, a full block as it fills and
    # the last partial one after the loop, sides taken in turn
    job = _StepJob(BLOCK_BYTES // 5)
    status, steps, _ = integrate([_FakeStepper(nan_at)], [np.zeros((1, 4))],
                                 n_steps, 1e4, job=job)
    assert steps == [n_steps if nan_at is None else nan_at - 1]
    assert job.blocks == blocks


@pytest.mark.parametrize("step_bytes, per_step, size", [
    (0, 0, BLOCK), (BLOCK_BYTES // 10, 0, 5),
    (BLOCK_BYTES // 10, BLOCK_BYTES // 10, 3), (0, BLOCK_BYTES // 10, 10),
    (BLOCK_BYTES, 0, 1)])
def test_block_size_is_the_most_steps_whose_blocks_fit_the_cap(
        step_bytes, per_step, size):
    # two noise blocks and the job's arrays fit BLOCK_BYTES, at BLOCK steps
    # a block at most and one at least; the noise and the job share it
    drawn = []

    def draw(k):
        drawn.append(k)
        return np.zeros((k, 1, 4))

    job = _StepJob(per_step)
    integrate([_FakeStepper()], [np.zeros((1, 4))], 2 * size + 1, 1e4,
              (draw, step_bytes), job=job)
    assert drawn == [size, size, 1]
    observed = list(range(2 * size + 2))
    assert job.blocks == [observed[j:j + size]
                          for j in range(0, len(observed), size)]


def test_integrate_raises_a_stepper_error_once_its_worker_jobs_are_done():
    # step 7 fails inside the second block while the first block's job
    # cannot finish before the failure, and the third noise block waits
    # behind it: integrate hands over nothing more, waits for both and
    # raises the stepper's error
    gate = threading.Event()
    job = _StepJob(BLOCK_BYTES // 5, gate)
    drawn = []

    def draw(k):
        drawn.append(k)
        return np.zeros((k, 1, 4))

    class Failing(_FakeStepper):
        def step_spec(self, spec, raw):
            if self.steps == 6:
                gate.set()
                raise FloatingPointError("step 7 failed")
            return super().step_spec(spec, raw)

    with pytest.raises(FloatingPointError, match="step 7 failed"):
        integrate([Failing()], [np.zeros((1, 4))], 20, 1e4, (draw, 0),
                  job=job)
    assert job.running == 0
    assert job.blocks == _runs(5)
    assert drawn == [5, 5, 5]


def test_integrate_raises_the_error_of_a_failed_job():
    # a failed block is raised at the next hand-over or after the loop,
    # and the worker takes the next run
    class Failed(_StepJob):
        def run(self, side, k):
            raise RuntimeError("job failed")

    def run(job):
        return integrate([_FakeStepper()], [np.zeros((1, 4))], 13, 1e4,
                         job=job)

    run(_StepJob(BLOCK_BYTES // 5))
    threads = threading.active_count()
    for n_steps in (3, 13):
        with pytest.raises(RuntimeError, match="job failed"):
            integrate([_FakeStepper()], [np.zeros((1, 4))], n_steps, 1e4,
                      job=Failed(BLOCK_BYTES // 5))
    assert threading.active_count() == threads
    job = _StepJob(BLOCK_BYTES // 5)
    assert run(job)[:2] == (["completed"], [13])
    assert job.blocks == _runs(5, 5, 4)


class _ValuesStepper:
    """Leaves its spectrum alone; its grid values are the given array, and
    it knows no bound on them (a nan scale), so the guard always takes
    them."""

    bound_scale = np.nan

    def __init__(self, values):
        self.grid_values = values

    def step_spec(self, spec, raw):
        return spec

    def values(self, spec):
        return self.grid_values[None]


@given(data=st.data(), complex_field=st.booleans(),
       threshold=st.floats(1e-3, 1e6))
@settings(max_examples=200, deadline=None)
def test_exact_guard_matches_finite_and_sup_norm_predicate(data,
                                                           complex_field,
                                                           threshold):
    # the exact test of the guard against the predicate it replaced, on
    # arrays seeded with nan, +-inf and values at and around +-threshold
    special = st.sampled_from([np.nan, np.inf, -np.inf, threshold, -threshold,
                               np.nextafter(threshold, 0.0),
                               -np.nextafter(threshold, 0.0), 0.0])
    part = st.one_of(special, st.floats(-2.0 * threshold, 2.0 * threshold))
    re = np.array(data.draw(st.lists(part, min_size=1, max_size=8)))
    v = re
    if complex_field:
        v = re.astype(np.complex128)
        v.imag = data.draw(st.lists(part, min_size=re.size, max_size=re.size))
    with np.errstate(invalid="ignore"):
        old = not np.isfinite(v).all() or np.max(np.abs(v)) >= threshold
    status, steps, _ = integrate([_ValuesStepper(v)], [np.zeros((1, 1))], 1,
                                 threshold)
    assert (status, steps) == ((["blowup_stopped"], [0]) if old
                               else (["completed"], [1]))


class _Frozen:
    """A real stepper whose step hands back the given spectrum."""

    def __init__(self, stepper, spec):
        self.stepper, self.spec = stepper, spec

    def step_spec(self, spec, raw):
        return self.spec

    def __getattr__(self, name):
        return getattr(self.stepper, name)


def _guarded_steppers():
    """A real stepper of each kind, a batch of one, with the length of its
    spectrum."""
    grid = Grid.for_carrier(0.2, 256, periods=16)
    p = ModelParams(nu=0.5)
    red = ReducedStepper([grid], [p], intensity=0.0, delta=DELTA)
    return {
        "sh": (SHStepper([grid], [p], intensity=0.0), grid.n_points // 2 + 1),
        "reduced": (red, red.band.stop - red.band.start),
        "gl": (GLStepper([grid], [gl_coefficients(p)], 1e-3, 0.0,
                         np.fft.fftshift(np.arange(grid.n_points))),
               grid.n_points),
        "gl-band": (GLStepper([grid], [gl_coefficients(p)], 1e-3, 0.0,
                              red.band, red.q1),
                    red.band.stop - red.band.start),
    }


GUARDED = _guarded_steppers()


def _bound(stepper, spec):
    """The guard's spectral bound on the sup norm of ``stepper.values``:
    ``bound_scale·sqrt(h·Σ|ĉ|²)`` over the h entries of ``spec``."""
    return stepper.bound_scale * np.sqrt(spec.size * np.vdot(spec, spec).real)


def _sup(stepper, spec):
    return float(np.max(np.abs(stepper.values(spec[None]))))


@given(data=st.data(), kind=st.sampled_from(sorted(GUARDED)),
       threshold=st.floats(1e-3, 1e6))
@settings(max_examples=300, deadline=None)
def test_guard_matches_finite_and_sup_norm_predicate(data, kind, threshold):
    # the guard of integrate, which transforms only when the stepper's
    # spectral bound cannot clear the step, against the predicate on the
    # stepper's grid values: a few modes scaled so that their sup norm or
    # their bound sits at or around the threshold and its margin, seeded
    # with nan, +-inf and huge entries
    stepper, size = GUARDED[kind]
    spec = np.zeros(size, dtype=np.complex128)
    coeff = st.floats(-1.0, 1.0)
    for m in data.draw(st.lists(st.integers(0, size - 1), min_size=1,
                                max_size=4, unique=True)):
        spec[m] = complex(data.draw(coeff), data.draw(coeff))
    near = [1.0 - 2 * GUARD_MARGIN, 1.0 - GUARD_MARGIN, np.nextafter(1.0, 0),
            1.0, np.nextafter(1.0, 2), 1.0 + GUARD_MARGIN]
    factor = data.draw(st.sampled_from(near) | st.floats(0.0, 2.0))
    if data.draw(st.booleans()):
        scale = _bound(stepper, spec)
    else:
        scale = _sup(stepper, spec)
    if scale > 0:
        with np.errstate(all="ignore"):  # a subnormal scale overflows
            spec *= threshold * factor / scale
    special = st.sampled_from([np.nan, np.inf, -np.inf, 1e308])
    for m, part, value in data.draw(st.lists(
            st.tuples(st.integers(0, size - 1), st.booleans(), special),
            max_size=2)):
        spec[m] = complex(0.0, value) if part else complex(value, 0.0)
    with np.errstate(all="ignore"):
        v = stepper.values(spec[None])
        expect = not np.isfinite(v).all() or np.max(np.abs(v)) >= threshold
        status, steps, _ = integrate([_Frozen(stepper, spec[None])],
                                     [np.zeros((1, size), dtype=np.complex128)],
                                     1, threshold)
    assert (status, steps) == ((["blowup_stopped"], [0]) if expect
                               else (["completed"], [1]))


@given(data=st.data(), kind=st.sampled_from(sorted(GUARDED)),
       shape=st.sampled_from(["random", "single-mode", "flat"]),
       scale=st.floats(1e-100, 1e100))
@settings(max_examples=200, deadline=None)
def test_sup_bound_bounds_the_sup_norm(data, kind, shape, scale):
    # sqrt(h sum|c|^2) >= sum|c| by Cauchy-Schwarz, so the one-call bound
    # stays above the sup norm of the stepper's values: on random spectra,
    # on one mode (where the two bounds differ most) and on a flat modulus
    # with random phases (where they agree), to roundoff
    stepper, size = GUARDED[kind]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if shape == "random":
        spec = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    elif shape == "single-mode":
        spec = np.zeros(size, dtype=np.complex128)
        spec[data.draw(st.integers(0, size - 1))] = np.exp(
            2j * np.pi * rng.uniform())
    else:
        spec = np.exp(2j * np.pi * rng.uniform(size=size))
    spec *= scale
    assert _bound(stepper, spec) >= _sup(stepper, spec) * (1.0 - 1e-13)


def test_quintic_step_allocates_no_padded_array():
    # the stepper fills its own arrays on the 3n-point padded grid, so a
    # step after the first allocates only n-point half-spectra
    n = 8192
    grid = Grid.for_carrier(0.1, n)
    p = ModelParams("quintic", nu2=1.0, nu3=0.5)
    stepper = SHStepper([grid], [p], intensity=1.0)
    raw = np.fft.rfft(np.random.default_rng(0).standard_normal((1, n)))
    spec = stepper.step_spec(
        np.fft.rfft(0.4 * np.cos(grid.x / grid.eps))[None], raw)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stepper.step_spec(spec, raw)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * 8


def test_modulated_carrier_ic_norms(grid):
    rng = np.random.default_rng(9)
    v0 = modulated_carrier_ic(grid, rng, amplitude=0.35)
    A = demodulate(v0)
    assert A.sup_norm() == pytest.approx(0.35, rel=1e-10)
    # off-band perturbation adds exactly its requested sup norm outside P1
    v1 = modulated_carrier_ic(grid, np.random.default_rng(9),
                              amplitude=0.35, offband=0.2)
    rem = RealField.from_spectrum(
        grid, (1.0 - band_symbols(grid, DELTA).q1) * v1.spectrum())
    assert rem.sup_norm() == pytest.approx(0.2, rel=0.05)


def test_noise_driven_simulation_is_deterministic(grid):
    v0 = RealField(grid, np.zeros(grid.n_points))
    p = ModelParams(nu=0.5, dt=1e-3, t_end=0.02)
    cfg = NoiseConfig(seed=77, intensity=0.1)
    a = simulate(v0, p, cfg)
    b = simulate(v0, p, cfg)
    np.testing.assert_array_equal(a.final.values, b.final.values)
    c = simulate(v0, p, NoiseConfig(seed=78, intensity=0.1))
    assert not np.array_equal(a.final.values, c.final.values)


def test_quintic_variant_runs_and_stays_finite():
    grid = Grid.for_carrier(0.2, 512, periods=32)
    rng = np.random.default_rng(3)
    v0 = modulated_carrier_ic(grid, rng, amplitude=0.3)
    p = ModelParams(variant="quintic", nu2=1.0, nu3=0.5, dt=1e-3, t_end=0.1)
    run = simulate(v0, p)
    assert (run.status, run.time) == ("completed", p.t_end)
    assert np.isfinite(run.final.values).all()


def _rows(n, variant="cubic"):
    """Three rows on n-point grids of two eps, with their own nu (nu2 and
    nu3 for the quintic variant) and initial data."""
    grids = [Grid.for_carrier(eps, n, periods=n // 16)
             for eps in (0.2, 0.1, 0.2)]
    if variant == "cubic":
        params = [ModelParams(nu=nu) for nu in (0.5, 0.3, 0.0)]
    else:
        params = [ModelParams("quintic", nu2=nu, nu3=0.5 - nu)
                  for nu in (0.5, 0.3, 0.0)]
    v0s = [modulated_carrier_ic(g, np.random.default_rng(k), amplitude=0.4)
           for k, g in enumerate(grids)]
    return grids, params, v0s


#: bound on a dense step's distance from the interleaved step and from
#: the separate sums, relative to the largest coefficient of its row: a
#: BLAS dot product adds in its own order.  The worst measured on noisy
#: 3-row batches at n = 16 and 32 was 1.6e-15
ROUNDING = 1e-14


def _assert_within_rounding(got, ref):
    assert np.all(np.abs(got - ref).max(axis=1)
                  <= ROUNDING * np.abs(ref).max(axis=1))


@pytest.mark.parametrize("n", [32, 2048], ids=["dense", "interleaved"])
@pytest.mark.parametrize("variant", ["cubic", "quintic"])
@pytest.mark.parametrize("noisy", [False, True], ids=["quiet", "noisy"])
def test_step_spec_adds_its_terms_in_the_order_of_separate_sums(n, variant,
                                                                noisy):
    # the linear flow and the noise go into extra parts of the sum of the
    # interleaved rows' parts, which keeps the bits of adding them after
    # the nonlinearity, one after the other; the dense update folds them
    # into one matrix product per row, which keeps those sums up to
    # rounding
    grids, params, v0s = _rows(n, variant)
    stepper = SHStepper(grids, params, intensity=0.1)
    vspec = np.array([v.spectrum() for v in v0s])
    rng = np.random.default_rng(3)
    raw = np.fft.rfft(rng.standard_normal((len(grids), n))) if noisy else None
    _, gain, _ = etd_multipliers(
        grids, [symbol_L_eps(g.rfft_wavenumbers, g.eps) for g in grids],
        [p.dt for p in params], 0.0)
    nonlinearity = PaddedGrid(n, 3 if variant == "quintic" else 2,
                              stepper.padded.coeffs, gain.real)
    ref = dealiased_powers(vspec, nonlinearity)
    ref += stepper.decay * vspec
    if noisy:
        ref += raw * stepper.noise_scale
    got = stepper.step_spec(vspec, raw)
    if stepper.padded.inverse is not None:
        _assert_within_rounding(got, ref)
    else:
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("variant", ["cubic", "quintic"])
def test_dense_and_interleaved_steps_agree_up_to_rounding(n, variant):
    # the whole noisy step of a 3-row batch, nonlinearity, decay and
    # noise, on each layout forced through DENSE_MAX
    _, params, _ = _rows(32, variant)
    grids = [Grid.for_carrier(eps, n, periods=n // 16)
             for eps in (0.2, 0.1, 0.2)]
    rng = np.random.default_rng(n)
    vspec = np.fft.rfft(0.6 * rng.standard_normal((3, n)))
    raw = np.fft.rfft(rng.standard_normal((3, n)))
    steps = {}
    for dense in (True, False):
        with mock.patch.object(operators, "DENSE_MAX", n if dense else n - 1):
            stepper = SHStepper(grids, params, intensity=0.1)
        assert (stepper.padded.inverse is not None) == dense
        steps[dense] = stepper.step_spec(vspec, raw)
    _assert_within_rounding(steps[True], steps[False])
    # the noise is in both
    quiet = stepper.step_spec(vspec, None)
    assert np.abs(steps[False] - quiet).max() > 1e3 * ROUNDING * np.abs(
        quiet).max()


def _solo_and_batch(grids, params, v0s, cfgs, n_steps, threshold):
    """``integrate`` of the rows as one batch and of each row alone: each
    as (status, steps, final spectrum bytes) by rows."""
    def run(rows):
        stepper = SHStepper([grids[r] for r in rows], [params[r] for r in rows],
                            intensity=0.1)
        status, steps, (spec,) = integrate(
            [stepper], [np.array([v0s[r].spectrum() for r in rows])],
            n_steps, threshold,
            noise_draw(stepper.noise, [cfgs[r] for r in rows]))
        return list(zip(status, steps, (row.tobytes() for row in spec)))

    rows = range(len(grids))
    return run(rows), [run([r])[0] for r in rows]


@pytest.mark.parametrize("n", [32, 512], ids=["dense", "interleaved"])
@pytest.mark.parametrize("variant", ["cubic", "quintic"])
def test_batch_rows_step_as_their_solo_runs(variant, n):
    # rows of other eps, nu and noise streams in one batch: each row ends
    # on the bits of its run alone
    grids, params, v0s = _rows(n, variant)
    cfgs = [Noise(seed=k, intensity=0.1) for k in range(len(grids))]
    batch, solo = _solo_and_batch(grids, params, v0s, cfgs, 40, 1e4)
    assert batch == solo
    assert [status for status, _, _ in batch] == ["completed"] * 3


def test_batch_row_that_blows_up_leaves_the_other_rows_alone():
    # at an unstable step the large row trips the guard on its own step:
    # it keeps its last finite spectrum, as alone, and the small rows run
    # on with the bits of their runs alone
    grids = [Grid.for_carrier(0.2, 512, periods=32)] * 3
    params = [ModelParams(nu=0.5, dt=0.05)] * 3
    v0s = [modulated_carrier_ic(grids[0], np.random.default_rng(k),
                                amplitude=a)
           for k, a in enumerate((0.3, 5.0, 0.2))]
    cfgs = [Noise(seed=k, intensity=0.1) for k in range(3)]
    with np.errstate(over="raise", invalid="raise"):
        batch, solo = _solo_and_batch(grids, params, v0s, cfgs, 40, 1e4)
    assert batch == solo
    assert [(status, steps) for status, steps, _ in batch] == [
        ("completed", 40), ("blowup_stopped", 2), ("completed", 40)]


def test_importing_starts_no_thread_and_racing_threads_share_one_worker():
    # the worker starts on the first job, once, however many stepping
    # threads submit their first jobs at the same time
    script = """
import sys
import threading
import shmod
from shmod import sh
print(threading.active_count())
sys.setswitchinterval(1e-6)
barrier = threading.Barrier(8)
idents = []
def first_job():
    barrier.wait()
    idents.append(sh.run_on_worker(threading.get_ident).result())
threads = [threading.Thread(target=first_job) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=30)
print(len(set(idents)), threading.active_count())
"""
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True,
                         timeout=60).stdout.split()
    assert out == ["1", "1", "2"]


def test_importing_loads_no_process_pool():
    # a study imports its worker processes' machinery when it starts them
    script = """
import sys
import threading
import shmod
print(threading.active_count(), *(name in sys.modules for name in
      ("multiprocessing", "concurrent.futures.process")))
"""
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True,
                         timeout=60).stdout.split()
    assert out == ["1", "False", "False"]
