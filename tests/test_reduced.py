import numpy as np
import pytest

from shmod import (
    GLCoefficients,
    Grid,
    ModelParams,
    NoiseConfig,
    gl5_coefficients,
    gl_coefficients,
    modulate,
    RealField,
    band_symbols,
    demodulate,
    modulated_carrier_ic,
    simulate_gl,
    simulate_paired,
    simulate_reduced,
)
from shmod.grid import ComplexField
from shmod.reduced import ReducedStepper, _amplitude_spectrum

DELTA = 0.125


def riccati(a0, c3, T):
    # closed-form solution of da/dT = c3 a^3 for constant initial data
    return a0 / np.sqrt(1.0 - 2.0 * c3 * a0**2 * T)


def test_cubic_coefficient_values():
    assert gl_coefficients(0.0).cubic == pytest.approx(-3.0)
    assert gl_coefficients(0.5).cubic == pytest.approx(-(3.0 - 38.0 / 36.0))
    assert gl_coefficients(1.0).cubic == pytest.approx(38.0 / 9.0 - 3.0)


def test_cubic_coefficient_sign_change_bracket():
    nu_star = np.sqrt(27.0 / 38.0)
    assert 0.80 < nu_star < 0.89
    assert gl_coefficients(0.84).cubic < 0 < gl_coefficients(0.85).cubic


def test_quintic_coefficient_values():
    c = gl5_coefficients(1.0, 0.0)
    assert c.cubic == pytest.approx(38.0 / 9.0)
    assert c.quintic == pytest.approx(-10.0)
    assert gl5_coefficients(0.0, 0.0).cubic == pytest.approx(0.0)
    assert gl5_coefficients(0.0, 1.0).cubic == pytest.approx(3.0)


def test_coefficients_reject_wrong_diffusion():
    with pytest.raises(ValueError):
        GLCoefficients(cubic=-3.0, diffusion=1.0)


def test_quadratic_correction_matches_closed_form():
    # for w = a e^{ix/eps} + c.c. the averaged quadratic interaction is
    # 2 nu^2 (19/9) a^3 (e^{ix/eps} + c.c.): -2a^3 from the mean band plus
    # -a^3/9 from the second band, times -2 nu^2
    eps, nu, a = 0.1, 0.7, 0.4
    grid = Grid.for_carrier(eps, 1024, periods=64)
    A0 = ComplexField(grid, np.full(grid.n_points, a, dtype=complex))
    wspec = modulate(A0, eps).spectrum()
    # the correction is the nu-dependent part of the band drift
    drift = {nu_: ReducedStepper(grid, ModelParams(eps=grid.eps, nu=nu_),
                                 intensity=0.0, delta=DELTA).drift(wspec)
             for nu_ in (nu, 0.0)}
    corr = np.fft.irfft(drift[nu] - drift[0.0], n=grid.n_points)
    expect = 2.0 * nu**2 * (19.0 / 9.0) * a**3 * 2.0 * np.cos(grid.x / grid.eps)
    np.testing.assert_allclose(corr, expect, atol=1e-12)


def _drift_in_eight_ffts(stepper, p, wspec):
    """The band drift as composed before the fused kernel: w padded three
    times, two dealiased products at pad 2 for the quadratic correction and
    separate truncations of each power (8 FFTs)."""
    n, q1 = stepper.grid.n_points, stepper.q1

    def pad(spec, f):
        padded = np.zeros(f * n // 2 + 1, dtype=np.complex128)
        padded[: n // 2 + 1] = spec
        padded[n // 2] = 0.0
        return np.fft.irfft(padded, n=f * n) * f

    def trunc(values, f):
        spec = np.fft.rfft(values)[: n // 2 + 1] / f
        spec[n // 2] = 0.0
        return spec

    def product(a, b):
        return trunc(pad(a, 2) * pad(b, 2), 2)

    nu_q = p.nu if p.variant == "cubic" else p.nu2
    w2 = product(wspec, wspec)
    out = -2.0 * nu_q**2 * q1 * product(wspec, stepper.inv02 * w2)
    if p.variant == "cubic":
        return out - q1 * trunc(pad(wspec, 2) ** 3, 2)
    wp = pad(wspec, 3)
    return out + p.nu3 * q1 * trunc(wp**3, 3) - q1 * trunc(wp**5, 3)


@pytest.mark.parametrize("params", [
    dict(variant="cubic", nu=0.7),
    dict(variant="quintic", nu2=0.8, nu3=0.6),
])
def test_drift_matches_eight_fft_composition(params):
    grid = Grid.for_carrier(0.1, 1024, periods=64)
    p = ModelParams(eps=grid.eps, **params)
    stepper = ReducedStepper(grid, p, intensity=0.0, delta=DELTA)
    w = modulated_carrier_ic(grid, grid.eps, np.random.default_rng(3),
                             amplitude=0.8, delta=DELTA)
    wspec = stepper.q1 * w.spectrum()
    got = stepper.drift(wspec)
    ref = _drift_in_eight_ffts(stepper, p, wspec)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_paired_demodulation_matches_bands_demodulate():
    # the paired GL run demodulates the P1-limited half-spectrum of w as
    # bands.demodulate does its full spectrum: q1 applied once, not twice
    grid = Grid.for_carrier(0.1, 2048, periods=128)
    q1 = band_symbols(grid, grid.eps, DELTA).q1
    taper = (q1 > 0) & (q1 < 1)
    assert taper.sum() >= 4
    rng = np.random.default_rng(5)
    raw = rng.standard_normal(q1.size) + 1j * rng.standard_normal(q1.size)
    wspec = q1 * raw
    w = RealField.from_spectrum(grid, wspec)
    ref = demodulate(w, grid.eps, DELTA, energy_tol=1.0).values
    got = np.fft.ifft(_amplitude_spectrum(wspec, grid))
    np.testing.assert_allclose(got, ref, rtol=1e-13)


def test_gl_constant_data_follows_riccati_solution():
    grid = Grid.for_carrier(0.1, 128, periods=8)
    a0 = 0.5
    c = GLCoefficients(cubic=-3.0, noise_intensity=0.0)
    A0 = ComplexField(grid, np.full(grid.n_points, a0, dtype=complex))
    traj = simulate_gl(A0, c, dt=1e-3, t_end=1.0)
    assert traj.status == "completed"
    final = np.abs(traj.final.values)
    target = riccati(a0, -3.0, 1.0)
    assert np.max(np.abs(final / target - 1.0)) < 1e-4


def test_gl_blowup_time_for_positive_cubic():
    grid = Grid.for_carrier(0.1, 128, periods=8)
    a0, c3 = 1.0, 3.0
    t_star = 1.0 / (2.0 * c3 * a0**2)
    c = GLCoefficients(cubic=c3, noise_intensity=0.0)
    A0 = ComplexField(grid, np.full(grid.n_points, a0, dtype=complex))
    traj = simulate_gl(A0, c, dt=1e-4, t_end=1.0)
    assert traj.status == "blowup_stopped"
    assert traj.times[-1] == pytest.approx(t_star, rel=0.1)


def test_gl_linear_mode_decay_is_exact():
    grid = Grid.for_carrier(0.1, 128, periods=8)
    k = grid.wavenumbers[3]
    A0 = ComplexField(grid, 0.1 * np.exp(1j * k * grid.x))
    c = GLCoefficients(cubic=0.0, noise_intensity=0.0)
    T = 0.05
    traj = simulate_gl(A0, c, dt=1e-3, t_end=T)
    expect = A0.values * np.exp(-4.0 * k**2 * T)
    np.testing.assert_allclose(traj.final.values, expect, rtol=1e-12)


def test_gl_noise_determinism():
    grid = Grid.for_carrier(0.1, 128, periods=8)
    A0 = ComplexField(grid, np.zeros(grid.n_points, dtype=complex))
    c = GLCoefficients(cubic=-3.0, noise_intensity=0.2)
    cfg = NoiseConfig(seed=21, intensity=0.2)
    a = simulate_gl(A0, c, dt=1e-3, t_end=0.05, cfg=cfg)
    b = simulate_gl(A0, c, dt=1e-3, t_end=0.05, cfg=cfg)
    np.testing.assert_array_equal(a.final.values, b.final.values)


def test_reduced_band_equation_keeps_band_structure():
    # noise-free band dynamics started on the carrier band stays there
    eps = 0.1
    grid = Grid.for_carrier(eps, 1024, periods=64)
    rng = np.random.default_rng(4)
    w0 = modulated_carrier_ic(grid, grid.eps, rng, amplitude=0.3, delta=DELTA)
    p = ModelParams(eps=grid.eps, nu=0.5, dt=1e-3, t_end=0.1)
    traj = simulate_reduced(w0, p, delta=DELTA)
    assert traj.status == "completed"
    spec = np.abs(np.fft.rfft(traj.final.values))
    outside = band_symbols(grid, grid.eps, DELTA).q1 == 0.0
    assert np.max(spec[outside]) < 1e-10 * np.max(spec)


def test_paired_run_is_deterministic_and_close():
    eps = 0.1
    grid = Grid.for_carrier(eps, 1024, periods=64)
    rng = np.random.default_rng(8)
    v0 = modulated_carrier_ic(grid, grid.eps, rng, amplitude=0.3, delta=DELTA)
    p = ModelParams(eps=grid.eps, nu=0.5, dt=1e-3, t_end=0.2)
    cfg = NoiseConfig(seed=31, intensity=0.05)
    r1 = simulate_paired(v0, p, cfg, delta=DELTA)
    r2 = simulate_paired(v0, p, cfg, delta=DELTA)
    assert r1.sup_diff == r2.sup_diff
    np.testing.assert_array_equal(r1.traj_v.final.values,
                                  r2.traj_v.final.values)
    assert r1.status == "completed"
    # the band approximation tracks the full solution at this bandwidth
    assert r1.sup_diff < 0.1
