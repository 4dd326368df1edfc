"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible even under output capture) and
then asserts, so a red test is always accompanied by its printed verdict.
The heavy seeded ensembles are shared across tests through session fixtures.
"""
import functools
import os

import numpy as np
import pytest

from shmod import (
    GLCoefficients,
    Grid,
    ModelParams,
    NoiseConfig,
    RealField,
    StudyConfig,
    band_symbols,
    demodulate,
    estimate_landau_coefficient,
    fit_scaling_exponent,
    make_kernel,
    project,
    replay,
    run_study,
    simulate_gl,
    stochastic_convolution_sample,
)
from shmod.grid import ComplexField
from shmod.sh import SHStepper
from shmod.noise import ou_increment_variance, spectral_variance_rate
from shmod.operators import symbol_L_eps

DELTA = 0.125
SLOPE_WINDOW = (0.7, 1.3)

#: Worker processes for the ensembles.  A study's records do not depend
#: on their count (see test_study_is_deterministic_across_thread_counts),
#: so this changes only the wall time.
THREADS = min(2, os.cpu_count() or 1)


def verdict(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} ({detail})",
              flush=True)


# -- shared heavy ensembles ---------------------------------------------------

@pytest.fixture(scope="session")
def paired_ensemble(tmp_path_factory):
    """50 seeds x 5 bandwidths of noise-shared full/band paired runs."""
    out = tmp_path_factory.mktemp("paired")
    cfg = StudyConfig.for_study("theorem2", out_dir=str(out), threads=THREADS)
    return run_study(cfg)


@pytest.fixture(scope="session")
def deterministic_averaging(tmp_path_factory):
    """The first 10 seeds' initial data of ``paired_ensemble``, run without
    noise: the deterministic part of the averaging residuals."""
    out = tmp_path_factory.mktemp("averaging0")
    cfg = StudyConfig.for_study("averaging", out_dir=str(out), intensity=0.0,
                                n_seeds=10, threads=THREADS)
    return run_study(cfg)


@pytest.fixture(scope="session")
def attractivity_ensemble(tmp_path_factory):
    out = tmp_path_factory.mktemp("attractivity")
    cfg = StudyConfig.for_study("attractivity", out_dir=str(out),
                                threads=THREADS)
    return run_study(cfg)


@functools.cache
def landau(nu, variant="cubic", window=2.5):
    return estimate_landau_coefficient(0.1, nu=nu, variant=variant,
                                       amplitude=0.2, fit_window=window)


def landau_all(nus, variant="cubic", window=2.5):
    """``landau`` at each nu, one after the other: a one-period fit is
    Python-bound, and two threads were no faster than this loop."""
    return [landau(nu, variant, window) for nu in nus]


# -- 1: cubic effective coefficient -------------------------------------------

def test_1_cubic_coefficient_values(capsys):
    c3_zero, c3_half = (fit.c3 for fit in landau_all((0.0, 0.5)))
    ok = (abs(c3_zero / -3.0 - 1.0) < 0.05
          and abs(c3_half / (-(3.0 - 38.0 / 36.0)) - 1.0) < 0.05)
    verdict(capsys, 1, ok,
            f"c3(0)={c3_zero:.4f} vs -3, c3(0.5)={c3_half:.4f} vs -1.9444")
    assert ok


# -- 2: sign change of the cubic coefficient ----------------------------------

def test_2_cubic_coefficient_sign_change(capsys):
    nus = (0.0, 0.5, 0.80, 0.89, 1.0)
    sweep = {nu: fit.c3 for nu, fit in zip(nus, landau_all(nus))}
    nus = sorted(sweep)
    bracket = None
    for a, b in zip(nus, nus[1:]):
        if sweep[a] < 0 <= sweep[b]:
            bracket = (a, b)
    ok = bracket == (0.80, 0.89)
    verdict(capsys, 2, ok, f"sign change bracket {bracket}, "
            f"c3={ {k: round(v, 3) for k, v in sweep.items()} }")
    assert ok


# -- 3: quintic effective coefficients ----------------------------------------

def test_3_quintic_coefficients(capsys):
    pure, quad = landau_all(((0.0, 0.0), (1.0, 0.0)), variant="quintic",
                            window=8.0)
    ok = (abs(pure.c5 / -10.0 - 1.0) < 0.10
          and abs(quad.c3 / (38.0 / 9.0) - 1.0) < 0.10)
    verdict(capsys, 3, ok,
            f"c5={pure.c5:.3f} vs -10, c3={quad.c3:.3f} vs 38/9={38/9:.3f}")
    assert ok


# -- 4: band approximation error scaling --------------------------------------

def test_4_band_approximation_scaling(paired_ensemble, capsys):
    slope = paired_ensemble["fits"]["sup_diff"]["slope"]
    ok = SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1]
    verdict(capsys, 4, ok, f"sup-difference slope {slope:.3f}, "
            f"window {SLOPE_WINDOW}")
    assert ok


# -- 5: averaging identity residual scaling -----------------------------------

def test_5_averaging_residual_scaling(paired_ensemble, deterministic_averaging,
                                     capsys):
    # The residual is taken on the noisy v, so it has two parts.  Its
    # deterministic part is O(eps^2): every O(eps) term of the P0/P2 drift
    # lies outside those bands.  That is an upper bound, so the check is
    # one-sided.  The linear response of the fast modes to P_k dW is
    # O(eps^{1/2}) and dominates res_p2 under noise.  res_p0 crosses over
    # from one part to the other on the ladder and has no single exponent,
    # so its noisy slope is printed, not gated.
    d0 = deterministic_averaging["fits"]["res_p0"]["slope"]
    d2 = deterministic_averaging["fits"]["res_p2"]["slope"]
    s0 = paired_ensemble["fits"]["res_p0"]["slope"]
    s2 = paired_ensemble["fits"]["res_p2"]["slope"]
    ok_det = min(d0, d2) >= 1.7
    ok_noisy = abs(s2 - 0.5) <= 0.3
    ok = ok_det and ok_noisy
    verdict(capsys, 5, ok,
            f"noise-free slopes P0 {d0:.3f}, P2 {d2:.3f} (>=1.7: {ok_det}), "
            f"noisy P2 slope {s2:.3f} (in 0.5+-0.3: {ok_noisy}), "
            f"noisy P0 slope {s0:.3f} (eps^2 to eps^1/2 crossover, "
            f"not gated)")
    assert ok


# -- 6: attractivity of the carrier band --------------------------------------

def test_6_offband_attractivity(attractivity_ensemble, capsys):
    fit = attractivity_ensemble["fits"]["offband_sup"]
    slope, spread = fit["slope"], fit["ratio_spread"]
    ok = SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1] and spread < 2.0
    verdict(capsys, 6, ok,
            f"off-band slope {slope:.3f}, normalized median spread "
            f"{spread:.2f}x")
    assert ok


# -- 7: noise layer -----------------------------------------------------------

def _ou_per_mode_max_error():
    grid = Grid.for_carrier(0.2, 256, periods=16)
    T = 0.3
    n_samples = 10_000
    acc = np.zeros(grid.n_points // 2 + 1)
    for s in range(n_samples):
        w = stochastic_convolution_sample(grid, T,
                                          NoiseConfig(seed=90_000 + s))
        acc += np.abs(np.fft.rfft(w.values)) ** 2
    acc /= n_samples
    lam = symbol_L_eps(grid.rfft_wavenumbers, grid.eps)
    target = spectral_variance_rate(grid) * ou_increment_variance(lam, T)
    check = [1, 5, 16, 32, 64]  # a spread of interior modes
    return max(abs(acc[i] / target[i] - 1.0) for i in check)


def _split_ratio_prediction(grid, T):
    """Exact L2 off-band/band ratio of the stochastic convolution at T.

    Each rfft mode of W_{L_eps}(T) is an independent OU value with variance
    rate * ou_increment_variance(lam, T); Hermitian modes other than DC and
    Nyquist count twice in the L2 norm.
    """
    K = grid.rfft_wavenumbers
    var = (spectral_variance_rate(grid)
           * ou_increment_variance(symbol_L_eps(K, grid.eps), T))
    q = make_kernel("P1", DELTA, grid).evaluate(K)
    h = np.full(K.shape, 2.0)
    h[0] = h[-1] = 1.0  # DC and Nyquist (n_points is even)
    return float(np.sqrt(np.sum(h * (1.0 - q) ** 2 * var)
                         / np.sum(h * q ** 2 * var)))


def _split_ratios():
    """(eps, sampled median, exact prediction) on the ladder, T = 1."""
    rows = []
    for eps in (0.2, 0.14, 0.1, 0.07, 0.05):
        grid = Grid.for_carrier(eps, 2048, periods=128)
        p1 = band_symbols(grid, DELTA).q1
        ratios = []
        for s in range(100):
            w = stochastic_convolution_sample(grid, 1.0,
                                              NoiseConfig(seed=1000 + s))
            off = RealField.from_spectrum(grid, (1.0 - p1) * w.spectrum())
            ratios.append(off.l2_norm() / project(w, p1).l2_norm())
        rows.append((eps, float(np.median(ratios)),
                     _split_ratio_prediction(grid, 1.0)))
    return rows


def _split_local_exponents():
    """Local log-log exponents of the prediction for eps <= 0.01, with the
    slow domain length held at 2*pi*6.4 (that of the ladder's eps = 0.05)."""
    ladder = (0.01, 0.005, 0.002)
    preds = []
    for eps in ladder:
        periods = round(6.4 / eps)
        grid = Grid.for_carrier(eps, 16 * periods, periods=periods)
        preds.append(_split_ratio_prediction(grid, 1.0))
    return [float(np.log(r1 / r0) / np.log(e1 / e0))
            for e0, e1, r0, r1 in zip(ladder, ladder[1:], preds, preds[1:])]


def _amplitude_noise_median_ratio():
    eps, T, n_seeds = 0.1, 1.0, 200
    grid = Grid.for_carrier(eps, 2048, periods=128)
    p1 = band_symbols(grid, DELTA).q1
    n = grid.n_points
    acc = np.zeros(n)
    for s in range(n_seeds):
        w = stochastic_convolution_sample(grid, T,
                                          NoiseConfig(seed=7000 + s))
        A = demodulate(project(w, p1), energy_tol=1.0)
        acc += np.abs(np.fft.fft(A.values) / n) ** 2
    acc /= n_seeds
    K = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n) / grid.length
    sel = np.abs(K) <= DELTA / (2.0 * eps)
    Ks = K[sel]
    # per-mode variance of the amplitude-equation stochastic convolution:
    # (1 - e^{-8 K^2 T}) / (8 K^2) / length, with the K -> 0 limit T / length
    target = np.full(Ks.shape, T / grid.length)
    nz = Ks != 0
    target[nz] = -np.expm1(-8.0 * Ks[nz] ** 2 * T) / (8.0 * Ks[nz] ** 2
                                                      * grid.length)
    return float(np.median(acc[sel] / target))


def test_7_noise_layer_properties(capsys):
    ou_err = _ou_per_mode_max_error()
    split = _split_ratios()
    sampled_slope = fit_scaling_exponent([(e, m) for e, m, _ in split])
    predicted_slope = fit_scaling_exponent([(e, p) for e, _, p in split])
    local = _split_local_exponents()
    amp_ratio = _amplitude_noise_median_ratio()
    ok_ou = ou_err < 0.05
    # the off-band part has O(eps) pointwise variance, so the L2 ratio is
    # O(eps^{1/2}), reached only slowly; the ladder's slope is about 0.38
    ok_split = (all(abs(m / p - 1.0) <= 0.05 for _, m, p in split)
                and abs(sampled_slope - predicted_slope) <= 0.05
                and all(abs(x - 0.5) <= 0.05 for x in local))
    ok_amp = abs(amp_ratio - 1.0) < 0.10
    ok = ok_ou and ok_split and ok_amp
    medians = ", ".join(f"eps={e}: {m:.4f} vs {p:.4f}" for e, m, p in split)
    verdict(capsys, 7, ok,
            f"OU per-mode max err {ou_err:.3f} (<0.05: {ok_ou}), "
            f"off-band/band median vs exact [{medians}] (within 5%), "
            f"split slope {sampled_slope:.3f} vs exact "
            f"{predicted_slope:.3f} (within 0.05), local exponent at eps<=0.01 "
            f"{', '.join(f'{x:.3f}' for x in local)} (in 0.5+-0.05): "
            f"{ok_split}, "
            f"amplitude-noise median ratio {amp_ratio:.3f} "
            f"(in 1+-0.1: {ok_amp})")
    assert ok


# -- 8: exactness and determinism ---------------------------------------------

def test_8_exactness_and_determinism(tmp_path, capsys):
    grid = Grid.for_carrier(0.1, 1024, periods=64)
    rng = np.random.default_rng(2)
    checks = {}

    # linear step agrees with the exact semigroup at round-off level
    v = RealField(grid, 1e-8 * rng.standard_normal(grid.n_points))
    p = ModelParams(nu=0.0, dt=1e-3)
    stepper = SHStepper([grid], [p], intensity=0.0)
    stepped = stepper.values(stepper.step_spec(v.spectrum()[None], None))[0]
    semigroup = np.exp(symbol_L_eps(grid.rfft_wavenumbers, grid.eps) * p.dt)
    exact = np.fft.irfft(semigroup * v.spectrum(), n=grid.n_points)
    checks["linear_step"] = np.allclose(stepped, exact,
                                        rtol=1e-10, atol=1e-22)

    # projector algebra: plateau idempotence, commutation, annihilation
    f = RealField(grid, rng.standard_normal(grid.n_points))
    sym = band_symbols(grid, DELTA)
    q1, q0 = sym.q1, sym.q0
    plateau = (q1 == 1.0).astype(float)
    g = RealField.from_spectrum(grid, plateau * f.spectrum())
    checks["idempotence"] = np.allclose(project(g, q1).values, g.values,
                                        atol=1e-12)
    checks["commutation"] = np.allclose(
        project(project(f, q0), q1).values,
        project(project(f, q1), q0).values,
        atol=1e-12 * f.sup_norm())
    w = project(f, q1)
    sq = RealField(grid, w.values ** 2)
    checks["annihilation"] = (project(sq, q1).l2_norm()
                              <= 1e-10 * sq.l2_norm())

    # bit-exact replay of a small recorded ensemble
    cfg = StudyConfig.for_study("theorem2", out_dir=str(tmp_path / "rep"),
                                eps_list=(0.2,), n_seeds=2, n_points=512,
                                periods=32, t_end=0.05)
    run_study(cfg)
    checks["replay"] = replay(str(tmp_path / "rep"))["ok"]

    ok = all(checks.values())
    verdict(capsys, 8, ok, ", ".join(f"{k}={v}" for k, v in checks.items()))
    assert ok


# -- 9: amplitude-equation solver oracle --------------------------------------

def test_9_amplitude_solver_oracle(capsys):
    grid = Grid.for_carrier(0.1, 128, periods=8)

    # constant data obeys da/dT = c3 a^3 exactly: a(T) = a0/sqrt(1-2 c3 a0^2 T)
    a0, c3 = 0.5, -3.0
    A0 = ComplexField(grid, np.full(grid.n_points, a0, dtype=complex))
    traj = simulate_gl(A0, GLCoefficients(cubic=c3),
                       dt=1e-3, t_end=1.0)
    target = a0 / np.sqrt(1.0 - 2.0 * c3 * a0**2)
    riccati_err = float(np.max(np.abs(np.abs(traj.final.values)
                                      / target - 1.0)))

    # positive cubic coefficient: finite-time blow-up at 1/(2 c3 a0^2)
    a0, c3 = 1.0, 3.0
    A0 = ComplexField(grid, np.full(grid.n_points, a0, dtype=complex))
    blow = simulate_gl(A0, GLCoefficients(cubic=c3),
                       dt=1e-4, t_end=1.0)
    t_star = 1.0 / (2.0 * c3 * a0**2)
    blow_err = abs(blow.time / t_star - 1.0)

    ok = (riccati_err < 1e-4 and blow.status == "blowup_stopped"
          and blow_err < 0.10)
    verdict(capsys, 9, ok,
            f"constant-mode decay rel err {riccati_err:.2e} (<1e-4), "
            f"blow-up time rel err {blow_err:.1e} (<0.10)")
    assert ok
