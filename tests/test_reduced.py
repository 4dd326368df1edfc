import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from shmod import (
    GLCoefficients,
    Grid,
    ModelParams,
    NoiseConfig,
    gl_coefficients,
    integrate,
    modulate,
    ou_increment_variance,
    RealField,
    band_symbols,
    demodulate,
    modulated_carrier_ic,
    simulate_gl,
    simulate_paired,
    spectral_variance_rate,
)
from shmod.analysis import PairedDiagnostics
from shmod.grid import ComplexField
from shmod.reduced import GLStepper, ReducedStepper
from shmod.sh import BLOCK, SHStepper, noise_draw
from shmod.studies import STUDIES, StudyConfig

from conftest import (FullGridGLReference, FullGridReference,
                      PairedReference, band_step_reference,
                      paired_diagnostics)

DELTA = 0.125


def riccati(a0, c3, T):
    # closed-form solution of da/dT = c3 a^3 for constant initial data
    return a0 / np.sqrt(1.0 - 2.0 * c3 * a0**2 * T)


def _cubic_gl(nu):
    return gl_coefficients(ModelParams(nu=nu))


def _quintic_gl(nu2, nu3):
    return gl_coefficients(ModelParams("quintic", nu2=nu2, nu3=nu3))


def test_cubic_coefficient_values():
    assert _cubic_gl(0.0).cubic == pytest.approx(-3.0)
    assert _cubic_gl(0.5).cubic == pytest.approx(-(3.0 - 38.0 / 36.0))
    assert _cubic_gl(1.0).cubic == pytest.approx(38.0 / 9.0 - 3.0)
    assert _cubic_gl(0.5).quintic == 0.0


def test_cubic_coefficient_sign_change_bracket():
    nu_star = np.sqrt(27.0 / 38.0)
    assert 0.80 < nu_star < 0.89
    assert _cubic_gl(0.84).cubic < 0 < _cubic_gl(0.85).cubic


def test_quintic_coefficient_values():
    c = _quintic_gl(1.0, 0.0)
    assert c.cubic == pytest.approx(38.0 / 9.0)
    assert c.quintic == pytest.approx(-10.0)
    assert _quintic_gl(0.0, 0.0).cubic == pytest.approx(0.0)
    assert _quintic_gl(0.0, 1.0).cubic == pytest.approx(3.0)


@settings(max_examples=300, deadline=None)
@given(nu=st.floats(-10.0, 10.0), nu3=st.floats(-10.0, 10.0))
def test_coefficient_table_gives_the_bits_of_the_closed_forms(nu, nu3):
    # 3 c3 + 38/9 nu^2 and 10 c5 of the table are, bit for bit, the closed
    # forms -(3 - 38/9 nu^2) (cubic) and 3 nu3 + 38/9 nu2^2, -10 (quintic)
    cubic, quintic = _cubic_gl(nu), _quintic_gl(nu, nu3)
    assert cubic.cubic.hex() == (-(3.0 - 38.0 / 9.0 * nu ** 2)).hex()
    assert quintic.cubic.hex() == (3.0 * nu3 + 38.0 / 9.0 * nu ** 2).hex()
    assert (cubic.quintic, quintic.quintic) == (0.0, -10.0)


def test_quadratic_correction_matches_closed_form():
    # for w = a e^{ix/eps} + c.c. the averaged quadratic interaction is
    # 2 nu^2 (19/9) a^3 (e^{ix/eps} + c.c.): -2a^3 from the mean band plus
    # -a^3/9 from the second band, times -2 nu^2
    eps, nu, a = 0.1, 0.7, 0.4
    grid = Grid.for_carrier(eps, 1024, periods=64)
    A0 = ComplexField(grid, np.full(grid.n_points, a, dtype=complex))
    wspec = modulate(A0).spectrum()
    # the correction is the nu-dependent part of the band drift
    steppers = {nu_: ReducedStepper([grid], [ModelParams(nu=nu_)],
                                    intensity=0.0, delta=DELTA)
                for nu_ in (nu, 0.0)}
    drift = {nu_: s.drift(wspec[None, s.band]) for nu_, s in steppers.items()}
    corr = steppers[nu].values(drift[nu] - drift[0.0])[0]
    expect = 2.0 * nu**2 * (19.0 / 9.0) * a**3 * 2.0 * np.cos(grid.x / grid.eps)
    np.testing.assert_allclose(corr, expect, atol=1e-12)


def _pad(spec, n, f):
    padded = np.zeros(f * n // 2 + 1, dtype=np.complex128)
    padded[: n // 2 + 1] = spec
    padded[n // 2] = 0.0
    return np.fft.irfft(padded, n=f * n) * f


def _trunc(values, n, f):
    spec = np.fft.rfft(values)[: n // 2 + 1] / f
    spec[n // 2] = 0.0
    return spec


def _drift_in_eight_ffts(grid, p, wspec):
    """The band drift on the full grid as composed before the fused kernel:
    w padded three times, two dealiased products at pad 2 for the quadratic
    correction and separate truncations of each power (8 FFTs)."""
    n = grid.n_points
    sym = band_symbols(grid, DELTA)

    def product(a, b):
        return _trunc(_pad(a, n, 2) * _pad(b, n, 2), n, 2)

    nu_q = p.nu if p.variant == "cubic" else p.nu2
    w2 = product(wspec, wspec)
    out = -2.0 * nu_q**2 * sym.q1 * product(wspec, (sym.inv0 + sym.inv2) * w2)
    if p.variant == "cubic":
        return out - sym.q1 * _trunc(_pad(wspec, n, 2) ** 3, n, 2)
    wp = _pad(wspec, n, 3)
    return (out + p.nu3 * sym.q1 * _trunc(wp**3, n, 3)
            - sym.q1 * _trunc(wp**5, n, 3))


@pytest.mark.parametrize("params", [
    dict(variant="cubic", nu=0.7),
    dict(variant="quintic", nu2=0.8, nu3=0.6),
])
def test_drift_matches_eight_fft_composition(params):
    grid = Grid.for_carrier(0.1, 1024, periods=64)
    p = ModelParams(**params)
    stepper = ReducedStepper([grid], [p], intensity=0.0, delta=DELTA)
    w = modulated_carrier_ic(grid, np.random.default_rng(3),
                             amplitude=0.8)
    wspec = band_symbols(grid, DELTA).q1 * w.spectrum()
    got = stepper.half_spectrum(stepper.drift(wspec[None, stepper.band]))[0]
    ref = _drift_in_eight_ffts(grid, p, wspec)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _full_grid_step(grid, p, delta, intensity, wspec, raw):
    """One noisy ETD1 step of the band equation on the full grid: w padded
    once by 2 (cubic) or 3 (quintic), the polynomial and the quadratic
    correction on the fine grid, one truncation, then q1."""
    n = grid.n_points
    sym = band_symbols(grid, delta)
    if p.variant == "cubic":
        f, nu_q = 2, p.nu
        wp = _pad(wspec, n, f)
        poly = -wp**3
    else:
        f, nu_q = 3, p.nu2
        wp = _pad(wspec, n, f)
        poly = p.nu3 * wp**3 - wp**5
    w2 = _trunc(wp * wp, n, f)
    corr = -2.0 * nu_q**2 * wp * _pad((sym.inv0 + sym.inv2) * w2, n, f)
    drift = sym.q1 * _trunc(poly + corr, n, f)
    z = sym.lam * p.dt
    zs = np.where(z == 0.0, 1.0, z)
    phi1 = np.where(z == 0.0, 1.0, np.expm1(zs) / zs)
    noise = sym.q1 * np.sqrt(spectral_variance_rate(grid, intensity)
                             * ou_increment_variance(sym.lam, p.dt) / n)
    step = np.exp(z) * wspec + p.dt * phi1 * drift + raw * noise
    return drift, step


@pytest.mark.parametrize("params", [
    dict(variant="cubic", nu=0.7),
    dict(variant="cubic", nu=0.0),
    dict(variant="quintic", nu2=0.8, nu3=0.6),
])
@settings(max_examples=50, deadline=None)
@given(n=st.sampled_from([256, 512, 1024]),
       eps=st.floats(0.02, 0.4),
       delta_frac=st.floats(0.01, 0.99),
       periods_frac=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_envelope_step_matches_full_grid_step(params, n, eps, delta_frac,
                                              periods_frac, seed):
    # one noisy step on the envelope grid is the full-grid step, on every
    # band layout make_kernel accepts: 3 delta + 2 eps < 1 keeps P1 and P2
    # apart, periods < n / (2 (2 + 2 delta + eps)) keeps P2 below Nyquist
    delta = delta_frac * (1.0 - 2.0 * eps) / 3.0
    periods = 1 + int(periods_frac * (n / (2.0 * (2.0 + 2.0 * delta + eps))
                                      - 1.0))
    try:
        grid = Grid.for_carrier(eps, n, periods=periods)
        sym = band_symbols(grid, delta)
    except ValueError:
        assume(False)
    p = ModelParams(**params)
    m = grid.carrier_index
    b = np.max(np.abs(np.flatnonzero(sym.q1) - m))
    if p.variant == "quintic" and 3 * b >= m:
        # w^5's third harmonic reaches P1, which the envelope does not hold
        with pytest.raises(ValueError, match="third harmonic"):
            ReducedStepper([grid], [p], intensity=0.07, delta=delta)
        return
    stepper = ReducedStepper([grid], [p], intensity=0.07, delta=delta)
    rng = np.random.default_rng(seed)
    half = n // 2 + 1
    wspec = sym.q1 * (rng.standard_normal(half)
                      + 1j * rng.standard_normal(half))
    wspec *= 1.0 / np.max(np.abs(np.fft.irfft(wspec, n=n)))
    raw = np.fft.rfft(rng.standard_normal(n))
    drift, step = _full_grid_step(grid, p, delta, 0.07, wspec, raw)
    E = wspec[None, stepper.band]
    for got, ref in ((stepper.drift(E), drift),
                     (stepper.step_spec(E, raw[None]), step)):
        got = stepper.half_spectrum(got)[0]
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_paired_demodulation_matches_bands_demodulate():
    # the paired GL run starts from the P1 slice of w, which holds the
    # modes of the amplitude as bands.demodulate shifts its full spectrum:
    # q1 applied once, not twice.  The stepper's values carry the phase of
    # the run's first mode, -b
    grid = Grid.for_carrier(0.1, 2048, periods=128)
    q1 = band_symbols(grid, DELTA).q1
    taper = (q1 > 0) & (q1 < 1)
    assert taper.sum() >= 4
    rng = np.random.default_rng(5)
    raw = rng.standard_normal(q1.size) + 1j * rng.standard_normal(q1.size)
    wspec = q1 * raw
    w = RealField.from_spectrum(grid, wspec)
    ref = demodulate(w, DELTA, energy_tol=1.0).values
    red = ReducedStepper([grid], [ModelParams()], intensity=0.0,
                         delta=DELTA)
    gl = GLStepper([grid], [_cubic_gl(0.5)], 1e-3, 0.0, red.band, red.q1)
    b = red.band.stop - grid.carrier_index - 1
    got = gl.values(wspec[None, red.band])[0] * np.exp(-1j * b * grid.dk
                                                        * grid.x)
    np.testing.assert_allclose(got, ref, rtol=1e-13)


def test_gl_constant_data_follows_riccati_solution():
    grid = Grid.for_carrier(0.1, 128, periods=8)
    a0 = 0.5
    c = GLCoefficients(cubic=-3.0)
    A0 = ComplexField(grid, np.full(grid.n_points, a0, dtype=complex))
    run = simulate_gl(A0, c, dt=1e-3, t_end=1.0)
    assert (run.status, run.time) == ("completed", 1.0)
    final = np.abs(run.final.values)
    target = riccati(a0, -3.0, 1.0)
    assert np.max(np.abs(final / target - 1.0)) < 1e-4


def test_gl_blowup_time_for_positive_cubic():
    grid = Grid.for_carrier(0.1, 128, periods=8)
    a0, c3 = 1.0, 3.0
    t_star = 1.0 / (2.0 * c3 * a0**2)
    c = GLCoefficients(cubic=c3)
    A0 = ComplexField(grid, np.full(grid.n_points, a0, dtype=complex))
    run = simulate_gl(A0, c, dt=1e-4, t_end=1.0)
    assert run.status == "blowup_stopped"
    assert run.time == pytest.approx(t_star, rel=0.1)
    # the run cut at the returned time completes on the same field
    cut = simulate_gl(A0, c, dt=1e-4, t_end=run.time)
    assert (cut.status, cut.time) == ("completed", run.time)
    assert cut.final.values.tobytes() == run.final.values.tobytes()


def test_gl_linear_mode_decay_is_exact():
    grid = Grid.for_carrier(0.1, 128, periods=8)
    k = grid.wavenumbers[3]
    A0 = ComplexField(grid, 0.1 * np.exp(1j * k * grid.x))
    c = GLCoefficients(cubic=0.0)
    T = 0.05
    run = simulate_gl(A0, c, dt=1e-3, t_end=T)
    expect = A0.values * np.exp(-4.0 * k**2 * T)
    np.testing.assert_allclose(run.final.values, expect, rtol=1e-12)


def test_gl_noise_level_is_the_cfg_intensity():
    # NoiseConfig is the one source of the level: without a nonlinearity,
    # from A0 = 0, the field is linear in it, and at level 0 or without a
    # cfg the run is noise-free
    grid = Grid.for_carrier(0.1, 128, periods=8)
    A0 = ComplexField(grid, np.zeros(grid.n_points, dtype=complex))
    c = GLCoefficients(cubic=0.0)

    def final(cfg):
        return simulate_gl(A0, c, dt=1e-3, t_end=0.05, cfg=cfg).final.values

    half, full = (final(NoiseConfig(seed=21, intensity=level))
                  for level in (0.5, 1.0))
    assert np.max(np.abs(full)) > 0
    np.testing.assert_allclose(half, 0.5 * full, rtol=1e-12)
    assert not np.any(final(NoiseConfig(seed=21, intensity=0.0)))
    assert not np.any(final(None))


def test_gl_noise_determinism():
    grid = Grid.for_carrier(0.1, 128, periods=8)
    A0 = ComplexField(grid, np.zeros(grid.n_points, dtype=complex))
    c = GLCoefficients(cubic=-3.0)
    cfg = NoiseConfig(seed=21, intensity=0.2)
    a = simulate_gl(A0, c, dt=1e-3, t_end=0.05, cfg=cfg)
    b = simulate_gl(A0, c, dt=1e-3, t_end=0.05, cfg=cfg)
    np.testing.assert_array_equal(a.final.values, b.final.values)


def test_gl_noise_is_the_sequential_complex_draw():
    # simulate_gl draws its noise in blocks; every step must still get the
    # complex draw that one raw_complex call per step would give, at the
    # level its cfg sets: the run ending at each step count, across and
    # between block edges, ends on the sequential run's field
    grid = Grid.for_carrier(0.1, 128, periods=8)
    A0 = ComplexField(grid, np.zeros(grid.n_points, dtype=complex))
    c = GLCoefficients(cubic=-3.0)
    cfg = NoiseConfig(seed=21, intensity=0.2)
    dt = 1e-3
    shift = np.fft.fftshift(np.arange(grid.n_points))
    for n_steps in range(1, 2 * BLOCK + 4):
        run = simulate_gl(A0, c, dt=dt, t_end=n_steps * dt, cfg=cfg)
        stepper = GLStepper([grid], [c], dt, cfg.intensity, shift)
        rng = cfg.make_rng()
        (status,), (steps,), (aspec,) = integrate(
            [stepper], [A0.spectrum()[None, shift]], n_steps, 1e4,
            (lambda k: np.array([stepper.noise.raw_complex(rng)
                                 for _ in range(k)])[:, None], 0))
        assert (run.status, run.time) == (status, steps * dt)
        assert (status, steps) == ("completed", n_steps)
        assert (run.final.values.tobytes()
                == np.fft.ifft(np.fft.ifftshift(aspec[0])).tobytes())


def test_reduced_band_equation_keeps_band_structure():
    # noise-free band dynamics started on the carrier band stays there
    eps = 0.1
    grid = Grid.for_carrier(eps, 1024, periods=64)
    rng = np.random.default_rng(4)
    w0 = modulated_carrier_ic(grid, rng, amplitude=0.3)
    p = ModelParams(nu=0.5, dt=1e-3, t_end=0.1)
    stepper = ReducedStepper([grid], [p], intensity=0.0, delta=DELTA)
    final = {}
    status, _, _ = integrate([stepper], [w0.spectrum()[None, stepper.band]],
                             int(round(p.t_end / p.dt)), p.blowup_threshold,
                             observers=[lambda i, specs: final.update(
                                 w=stepper.values(specs[0])[0])])
    assert status == ["completed"]
    spec = np.abs(np.fft.rfft(final["w"]))
    outside = band_symbols(grid, DELTA).q1 == 0.0
    assert np.max(spec[outside]) < 1e-10 * np.max(spec)


BAND_CASES = [(ModelParams(nu=0.5), DELTA), (ModelParams(nu=0.0), DELTA),
              (ModelParams(variant="quintic", nu2=0.7, nu3=0.3), 0.05)]


def _band_run(params, delta, seed, n_steps=300):
    """A noisy band stepper at eps 0.1 and the first ``n_steps`` of its
    run from a modulated carrier, one raw draw per step."""
    grid = Grid.for_carrier(0.1, 512, periods=32)
    red = ReducedStepper([grid], [params], intensity=0.1, delta=delta)
    v0 = modulated_carrier_ic(grid, np.random.default_rng(seed),
                              amplitude=0.5)
    rng = np.random.default_rng(seed + 1)
    E, out = red.q1 * v0.spectrum()[red.band], []
    for _ in range(n_steps):
        E = red.step_spec(E, red.noise.raw(rng, (1,)))
        out.append(E)
    return red, v0, out


@pytest.mark.parametrize("params, delta", BAND_CASES,
                         ids=["cubic", "cubic-nu0", "quintic"])
def test_band_step_returns_new_memory_with_the_reference_bits(params, delta):
    # the stepper fills its own work arrays in place; every step still
    # hands back a fresh array with the bits of the allocating arithmetic
    red, v0, run = _band_run(params, delta, seed=1)
    work = [x for x in vars(red).values() if isinstance(x, np.ndarray)]
    rng = np.random.default_rng(2)
    E = prev = red.q1 * v0.spectrum()[red.band]
    for got in run:
        assert not np.shares_memory(got, prev)
        assert not any(np.shares_memory(got, x) for x in work)
        E = band_step_reference(red, E, red.noise.raw(rng, (1,)))
        assert got.tobytes() == E.tobytes()
        prev = got


def test_band_steppers_on_two_threads_keep_their_results_apart():
    # one stepper per thread: steps switching every microsecond between
    # two runs give each run the bits it has alone
    cases = [(*BAND_CASES[0], 3), (*BAND_CASES[2], 4)]
    alone = [_band_run(*case)[2] for case in cases]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2) as pool:
            runs = [pool.submit(_band_run, *case) for case in cases]
            together = [run.result(timeout=60)[2] for run in runs]
    finally:
        sys.setswitchinterval(switch)
    for got, expect in zip(together, alone):
        assert [E.tobytes() for E in got] == [E.tobytes() for E in expect]


def test_paired_run_is_deterministic_and_close():
    eps = 0.1
    grid = Grid.for_carrier(eps, 1024, periods=64)
    rng = np.random.default_rng(8)
    v0 = modulated_carrier_ic(grid, rng, amplitude=0.3)
    p = ModelParams(nu=0.5, dt=1e-3, t_end=0.2)
    cfg = NoiseConfig(seed=31, intensity=0.05)
    r1 = simulate_paired([v0], [p], [cfg], delta=DELTA)
    r2 = simulate_paired([v0], [p], [cfg], delta=DELTA)
    assert (r1.sup_diff, r1.res_p0, r1.res_p2) == (r2.sup_diff, r2.res_p0,
                                                   r2.res_p2)
    assert r1.status == ["completed"]
    # the band approximation tracks the full solution at this bandwidth
    assert r1.sup_diff[0] < 0.1


def _paired_inputs(n_steps: int, threshold: float = 1e4, eps: float = 0.2,
                   periods: int = 32, n: int = 512):
    grid = Grid.for_carrier(eps, n, periods=periods)
    cfg = NoiseConfig(seed=0, intensity=0.1)
    v0 = modulated_carrier_ic(grid, cfg.substream(1).make_rng(), amplitude=0.3)
    p = ModelParams(nu=0.5, dt=1e-3, t_end=n_steps * 1e-3,
                    blowup_threshold=threshold)
    return v0, p, cfg


def _paired_reference(v0, p, cfg, reference=PairedReference, with_gl=False):
    """The status, steps and hex diagnostics of ``simulate_paired`` of a
    batch of one, by ``reference`` one step at a time."""
    grid = v0.grid
    sh = SHStepper([grid], [p], cfg.intensity)
    red = ReducedStepper([grid], [p], cfg.intensity, DELTA)
    vspec = v0.spectrum()[None]
    steppers, specs = [sh, red], [vspec, red.q1 * vspec[:, red.band]]
    if with_gl:
        gl, aspec = reference.gl(red, [grid], [gl_coefficients(p)], p.dt,
                                 cfg.intensity, specs[1])
        steppers.append(gl)
        specs.append(aspec)
    ref = reference(red, grid, p.nu, DELTA, p.dt)
    n_steps = round(p.t_end / p.dt)
    (status,), (steps,), _ = integrate(
        steppers, specs, n_steps, p.blowup_threshold,
        noise_draw(sh.noise, [cfg]), [ref])
    return status, steps, [x.hex() for x in ref.results()]


def _rows_hex(result, with_gl=False):
    """The status and hex diagnostics of each row of a ``PairedResult``."""
    names = ("sup_diff", "res_p0", "res_p2") + ("sup_diff_gl",) * with_gl
    rows = zip(*(getattr(result, name) for name in names))
    return [(status, [x.hex() for x in row])
            for status, row in zip(result.status, rows)]


def _paired_hex(v0, p, cfg, with_gl=False):
    (row,) = _rows_hex(simulate_paired([v0], [p], [cfg], DELTA, with_gl),
                       with_gl)
    return row


WITH_GL = pytest.mark.parametrize("with_gl", [False, True],
                                  ids=["paired", "with-gl"])


@WITH_GL
@pytest.mark.parametrize("n_steps", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                                     2 * BLOCK + 3])
def test_paired_run_matches_the_per_step_reference(allocations, n_steps,
                                                   with_gl):
    # the diagnostics, computed in blocks on the worker thread, are those
    # of one step at a time, bit for bit, across and between block edges
    v0, p, cfg = _paired_inputs(n_steps)
    status, steps, ref = _paired_reference(v0, p, cfg, with_gl=with_gl)
    assert (status, steps) == ("completed", n_steps)
    assert _paired_hex(v0, p, cfg, with_gl) == (status, ref)
    assert [size for _, size in allocations] == [BLOCK]


@pytest.mark.parametrize("eps, periods", [(0.2, 32), (0.05, 32), (0.2, 64)],
                         ids=["eps=0.2", "eps=0.05", "m=n"])
def test_paired_run_matches_the_full_grid_arithmetic(eps, periods):
    # the integrands sampled on the averaging grid and interpolated, and the
    # gap from its spectrum, give the diagnostics of the n-point arithmetic
    # to rounding; on 8 points a carrier period the averaging grid is the
    # full one, and the residuals keep their bits
    v0, p, cfg = _paired_inputs(2 * BLOCK + 3, eps=eps, periods=periods)
    m = paired_diagnostics([v0.grid], [p.nu]).m
    assert (m == v0.grid.n_points) == (periods == 64)
    status, steps, full = _paired_reference(v0, p, cfg, FullGridReference)
    assert (status, steps) == ("completed", 2 * BLOCK + 3)
    got_status, got = _paired_hex(v0, p, cfg)
    assert got_status == status
    got, full = ([float.fromhex(x) for x in row] for row in (got, full))
    assert got == pytest.approx(full, rel=1e-12)
    assert got[0] > 0
    if m == v0.grid.n_points:
        assert got[1:] == full[1:]


@pytest.mark.parametrize("eps, n, periods, rel", [
    (0.2, 512, 32, 3e-3), (0.2, 2048, 128, 2e-4), (0.05, 2048, 128, 1e-9)],
    ids=["n=512", "eps=0.2", "eps=0.05"])
def test_paired_gl_gap_matches_the_full_grid_amplitude(eps, n, periods, rel):
    # the amplitude stepped on the band's modes against the n-point route
    # of shmod 0.12.0, which also keeps the modes that the products put
    # outside the band: over 27 noisy steps sup_diff_gl moved by 8.1e-4
    # (n = 512, a band of 31 modes), 5.1e-5 and 1.4e-10 relative (the
    # default grid); the bound is about 4 times that.  The diagnostics of
    # v and w keep their bits
    v0, p, cfg = _paired_inputs(2 * BLOCK + 3, eps=eps, periods=periods, n=n)
    status, steps, full = _paired_reference(v0, p, cfg, FullGridGLReference,
                                            with_gl=True)
    assert (status, steps) == ("completed", 2 * BLOCK + 3)
    got_status, got = _paired_hex(v0, p, cfg, with_gl=True)
    assert got_status == status
    assert got[:3] == full[:3]
    got, full = float.fromhex(got[3]), float.fromhex(full[3])
    assert got == pytest.approx(full, rel=rel)
    assert got != full


def test_paired_quintic_gl_step_allocates_no_n_point_array():
    # a steady GL step of a paired quintic row on the default grid holds
    # only arrays of the band and of the envelope grid: its peak is below
    # the bytes of one real n-point array (the n-point route peaked at
    # 592 kB)
    grid = Grid.for_carrier(0.2, 2048, periods=128)
    p = ModelParams("quintic", nu2=0.7, nu3=0.3)
    red = ReducedStepper([grid], [p], 0.1, DELTA)
    gl = GLStepper([grid], [gl_coefficients(p)], p.dt, 0.1, red.band, red.q1)
    assert gl.envelope.ne == red.ne == 256
    v0 = modulated_carrier_ic(grid, np.random.default_rng(3), amplitude=0.3)
    A = red.q1 * v0.spectrum()[None, red.band]
    raw = red.noise.raw(np.random.default_rng(4), (1,))
    for _ in range(3):
        A = gl.step_spec(A, raw)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        A = gl.step_spec(A, raw)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert 0 < peak < 8 * grid.n_points
    assert np.all(np.isfinite(A))


@WITH_GL
def test_paired_run_blown_up_mid_block_records_the_steps_before_it(
        allocations, with_gl):
    # the guard trips on step 22 whatever the block size
    v0, p, cfg = _paired_inputs(60, threshold=0.62)
    status, steps, ref = _paired_reference(v0, p, cfg, with_gl=with_gl)
    threads = threading.active_count()
    assert (status, steps) == ("blowup_stopped", 21)
    assert _paired_hex(v0, p, cfg, with_gl) == (status, ref)
    # steps 0 .. 21 are observed: at least one full block goes to the
    # worker, and the tripping step lies strictly inside a later block
    ((_, size),), observed = allocations, steps + 1
    assert observed > size and observed % size
    assert threading.active_count() == threads
    # the worker takes the next run
    v0, p, cfg = _paired_inputs(2 * BLOCK + 3)
    status, _, ref = _paired_reference(v0, p, cfg, with_gl=with_gl)
    assert _paired_hex(v0, p, cfg, with_gl) == (status, ref)


@WITH_GL
def test_paired_run_raises_the_error_of_a_failed_job(monkeypatch, with_gl):
    def fail(self, side, k):
        raise RuntimeError("job failed")

    v0, p, cfg = _paired_inputs(2 * BLOCK + 3)
    status, _, ref = _paired_reference(v0, p, cfg, with_gl=with_gl)
    threads = threading.active_count()
    with monkeypatch.context() as patch:
        patch.setattr(PairedDiagnostics, "run", fail)
        with pytest.raises(RuntimeError, match="job failed"):
            simulate_paired([v0], [p], [cfg], DELTA, with_gl)
    assert threading.active_count() == threads
    assert _paired_hex(v0, p, cfg, with_gl) == (status, ref)


@WITH_GL
def test_concurrent_paired_runs_keep_their_blocks_apart(with_gl):
    # more stepping threads than cores share the one worker, switching
    # every microsecond: each run's blocks must reach its own diagnostics
    inputs = [_paired_inputs(2 * BLOCK + 3 + k) for k in range(4)]
    expect = []
    for args in inputs:
        status, _, ref = _paired_reference(*args, with_gl=with_gl)
        expect.append((status, ref))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            runs = [pool.submit(_paired_hex, *args, with_gl)
                    for args in inputs]
            got = [run.result(timeout=60) for run in runs]
    finally:
        sys.setswitchinterval(switch)
    assert got == expect


def test_completed_paired_cell_takes_no_grid_values_on_the_stepping_thread(
        tmp_path, monkeypatch):
    # the spectral bound clears every step of a default theorem2 cell, and
    # its diagnostics transform on the worker
    callers = []
    for cls in (SHStepper, ReducedStepper, GLStepper):
        def values(self, spec, values=cls.values):
            callers.append(threading.get_ident())
            return values(self, spec)
        monkeypatch.setattr(cls, "values", values)
    cfg = StudyConfig.for_study("theorem2", out_dir=str(tmp_path))
    grid = Grid.for_carrier(0.1, cfg.n_points, periods=cfg.periods)
    STUDIES["theorem2"].run(cfg, [grid],
                            [({"eps": 0.1, "nu": cfg.nu_list[0]}, 0)])
    assert threading.get_ident() not in callers


def test_gl_batch_takes_its_gaps_off_the_stepping_thread(monkeypatch,
                                                          allocations):
    # the stepping thread's complex transforms are the band drift's and the
    # GL step's, both on the ne points of the envelope grid; the one
    # n-point transform of the gap to the amplitude equation runs on the
    # worker, once a block
    v0s, params, cfgs = _paired_rows()
    calls = []
    for name in ("fft", "ifft"):
        def counted(a, n=None, *args, transform=getattr(np.fft, name),
                    name=name, **kwargs):
            calls.append((threading.get_ident(), name, n or a.shape[-1]))
            return transform(a, n, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    result = simulate_paired(v0s, params, cfgs, DELTA, with_gl=True)
    assert result.status == ["completed"] * 3
    grids, main = [v0.grid for v0 in v0s], threading.get_ident()
    n, ne = grids[0].n_points, ReducedStepper(grids, params, 0.1, DELTA).ne
    assert {length for thread, _, length in calls if thread == main} == {ne}
    ((_, size),) = allocations
    blocks = -(-(round(params[0].t_end / params[0].dt) + 1) // size)
    assert [(name, length) for thread, name, length in calls
            if thread != main and length == n] == [("ifft", n)] * blocks


def test_reduced_step_keeps_content_on_the_p1_taper():
    # content on the P1 taper is kept as given, not multiplied by q1 again:
    # one step of a tiny field is the linear flow of w0
    grid = Grid.for_carrier(0.1, 1024, periods=64)
    p = ModelParams(nu=0.5, dt=1e-3, t_end=1e-3)
    sym = band_symbols(grid, DELTA)
    rng = np.random.default_rng(6)
    spec = 1e-9 * sym.q1 * (rng.standard_normal(sym.q1.size)
                            + 1j * rng.standard_normal(sym.q1.size))
    stepper = ReducedStepper([grid], [p], intensity=0.0, delta=DELTA)
    got = stepper.values(stepper.step_spec(spec[None, stepper.band], None))[0]
    expect = np.fft.irfft(np.exp(p.dt * sym.lam) * spec, n=grid.n_points)
    np.testing.assert_allclose(got, expect, rtol=0,
                               atol=1e-12 * np.max(np.abs(expect)))


@pytest.mark.parametrize("params", [
    ModelParams(nu=0.5), ModelParams(variant="quintic", nu2=0.7, nu3=0.3)],
    ids=["cubic", "quintic"])
@pytest.mark.parametrize("n, periods", [(2048, 128), (512, 32)])
def test_band_layout_is_one_for_every_eps_of_a_grid(params, n, periods):
    # the band slice and envelope grid depend on the grid size, carrier
    # index and variant alone: every eps that band_symbols (and, quintic,
    # the stepper) admits gives one layout, which holds the eps's own P1
    # slice
    layouts = set()
    for eps in np.linspace(0.01, 0.99, 99):
        grid = Grid.for_carrier(eps, n, periods=periods)
        try:
            own = band_symbols(grid, DELTA).band
            red = ReducedStepper([grid], [params], 0.1, DELTA)
        except ValueError:
            continue
        layouts.add((red.band.start, red.band.stop, red.ne))
        assert red.band.start <= own.start and own.stop <= red.band.stop
    b = (periods - 1) // (2 if params.variant == "cubic" else 3)
    assert layouts == {(periods - b, periods + b + 1, 256 * n // 2048)}


def test_band_rows_of_other_eps_stay_on_their_own_p1_slice():
    # rows of eps 0.2, 0.1 and 0.05 share one band slice, wider than each
    # row's own: over noisy steps a row's modes outside its own slice stay
    # exactly 0, and every step has the bits of the reference arithmetic
    grids = [Grid.for_carrier(eps, 2048, periods=128)
             for eps in (0.2, 0.1, 0.05)]
    params = [ModelParams(nu=nu) for nu in (0.5, 0.3, 0.0)]
    red = ReducedStepper(grids, params, intensity=0.5, delta=DELTA)
    E = red.q1 * np.array([
        modulated_carrier_ic(g, np.random.default_rng(k),
                             amplitude=0.5).spectrum()[red.band]
        for k, g in enumerate(grids)])
    outside = np.ones(E.shape, dtype=bool)
    for row, g in zip(outside, grids):
        own = band_symbols(g, DELTA).band
        row[own.start - red.band.start: own.stop - red.band.start] = False
    assert outside.any(axis=1).all()
    rng = np.random.default_rng(7)
    for _ in range(50):
        raw = red.noise.raw(rng, (len(grids),))
        ref = band_step_reference(red, E, raw)
        E = red.step_spec(E, raw)
        assert E.tobytes() == ref.tobytes()
        assert np.all(E[outside] == 0)
    assert all(np.abs(row[~out]).max() > 0 for row, out in zip(E, outside))


def _paired_rows(threshold=1e4, amplitudes=(0.3, 0.2, 0.3)):
    """Three paired rows on one grid size at eps 0.2, 0.1 and 0.2, which
    share their band slice, with their own nu, initial data and noise."""
    grids = [Grid.for_carrier(eps, 512, periods=32) for eps in (0.2, 0.1, 0.2)]
    cfgs = [NoiseConfig(seed=k, intensity=0.1) for k in range(3)]
    v0s = [modulated_carrier_ic(g, cfg.substream(1).make_rng(), amplitude=a)
           for g, cfg, a in zip(grids, cfgs, amplitudes)]
    params = [ModelParams(nu=nu, dt=1e-3, t_end=0.06,
                          blowup_threshold=threshold)
              for nu in (0.5, 0.3, 0.7)]
    return v0s, params, cfgs


@WITH_GL
def test_paired_batch_rows_match_their_solo_runs(with_gl):
    # the SH, band and GL steppers and the block job of a batch give every
    # row the bits of its run alone
    v0s, params, cfgs = _paired_rows()
    bands = [ReducedStepper([v0.grid], [p], 0.1, DELTA).band
             for v0, p in zip(v0s, params)]
    assert bands[0] == bands[1] == bands[2]
    batch = _rows_hex(simulate_paired(v0s, params, cfgs, DELTA, with_gl),
                      with_gl)
    solo = [row for v0, p, cfg in zip(v0s, params, cfgs)
            for row in _rows_hex(simulate_paired([v0], [p], [cfg], DELTA,
                                                 with_gl), with_gl)]
    assert batch == solo
    assert [status for status, _ in batch] == ["completed"] * 3


def test_paired_batch_row_that_blows_up_leaves_the_other_rows_alone():
    # rows 0 and 2 trip a low guard as they do alone; the small row 1 runs
    # on with the bits of its run alone
    v0s, params, cfgs = _paired_rows(threshold=0.62,
                                     amplitudes=(0.3, 0.05, 0.4))
    batch = _rows_hex(simulate_paired(v0s, params, cfgs, DELTA))
    solo = [row for v0, p, cfg in zip(v0s, params, cfgs)
            for row in _rows_hex(simulate_paired([v0], [p], [cfg], DELTA))]
    statuses = [status for status, _ in batch]
    assert statuses == [status for status, _ in solo] == [
        "blowup_stopped", "completed", "blowup_stopped"]
    assert batch[1] == solo[1]


def test_gl_batch_rows_match_their_solo_runs():
    # rows of other eps and coefficients on one grid size, each with its
    # own complex noise stream
    grids = [Grid.for_carrier(eps, 128, periods=8) for eps in (0.1, 0.2)]
    coeffs = [GLCoefficients(cubic=-3.0, quintic=-10.0),
              _quintic_gl(0.5, 0.2)]
    cfgs = [NoiseConfig(seed=k, intensity=0.2) for k in range(2)]
    a0 = np.array([0.3 * np.exp(1j * g.wavenumbers[2] * g.x) for g in grids])
    shift = np.fft.fftshift(np.arange(128))

    def run(rows):
        stepper = GLStepper([grids[r] for r in rows], [coeffs[r] for r in rows],
                            1e-3, 0.2, shift)
        status, steps, (aspec,) = integrate(
            [stepper], [np.fft.fft(a0[rows])[:, shift]], 30, 1e4,
            noise_draw(stepper.noise, [cfgs[r] for r in rows],
                       complex_rows=True))
        return list(zip(status, steps, (row.tobytes() for row in aspec)))

    assert run([0, 1]) == run([0]) + run([1])
