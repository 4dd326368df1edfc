import warnings

import numpy as np
import pytest

from shmod import (
    Grid,
    HolderNormConfig,
    ModelParams,
    RealField,
    Trajectory,
    approximation_error,
    averaging_residual,
    estimate_landau_coefficient,
    fit_scaling_exponent,
    mode_concentration,
    simulate,
    weighted_holder_norm,
)


def test_fit_scaling_exponent_recovers_power_law():
    pairs = [(e, 2.5 * e**1.7) for e in (0.2, 0.1, 0.05, 0.025)]
    fit = fit_scaling_exponent(pairs)
    assert fit.slope == pytest.approx(1.7, abs=1e-10)
    assert np.exp(fit.intercept) == pytest.approx(2.5, rel=1e-10)
    assert max(abs(r) for r in fit.residuals) < 1e-12


def test_fit_scaling_exponent_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_scaling_exponent([(0.1, 1.0), (0.05, 0.5)])
    with pytest.raises(ValueError):
        fit_scaling_exponent([(0.1, 1.0), (0.05, 0.5), (0.025, -1.0)])


def test_holder_norm_of_constant_field(grid):
    c = 0.7
    f = RealField(grid, np.full(grid.n_points, c))
    cfg = HolderNormConfig(kappa=0.1)
    # for a constant the pair quotients vanish, so the max over radii is
    # attained at the smallest window: c * L_min^{-kappa}
    radii = cfg.radii_for(grid)
    expect = c * np.min(radii) ** (-cfg.kappa)
    assert weighted_holder_norm(f, cfg) == pytest.approx(expect, rel=1e-12)


def test_holder_norm_config_validation():
    with pytest.raises(ValueError):
        HolderNormConfig(alpha=0.6)
    with pytest.raises(ValueError):
        HolderNormConfig(kappa=0.0)


def test_mode_concentration_extremes(grid):
    carrier = RealField(grid, np.cos(grid.x / grid.eps))
    assert mode_concentration(carrier, grid.eps) < 1e-12
    constant = RealField(grid, np.ones(grid.n_points))
    assert mode_concentration(constant, grid.eps) == pytest.approx(1.0)


def test_mode_concentration_zero_field_warns(grid):
    with pytest.warns(UserWarning):
        assert mode_concentration(RealField(grid, np.zeros(grid.n_points)),
                                  grid.eps) == 0.0


def test_averaging_residual_warns_on_coarse_stride(grid):
    # the integrand alternates with the snapshots, so halving the stride
    # doubles the trapezoid integral
    f = RealField(grid, np.cos(grid.x / grid.eps) + 0.5)
    zero = RealField(grid, np.zeros(grid.n_points))
    traj = Trajectory(times=np.arange(5.0), snapshots=[f, zero, f, zero, f])
    with pytest.warns(UserWarning, match="stride"):
        res = averaging_residual(traj, grid.eps, 0.0, "P0")
    assert res > 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert averaging_residual(traj, grid.eps, 0.0, "P0",
                                  stride_check=False) == res


def test_approximation_error_identical_is_zero(grid):
    v0 = RealField(grid, np.cos(grid.x / grid.eps))
    p = ModelParams(eps=grid.eps, dt=1e-3, t_end=0.02)
    a = simulate(v0, p)
    b = simulate(v0, p)
    for norm in ("sup", "L2", "holder"):
        assert approximation_error(a, b, norm=norm) == 0.0


def test_approximation_error_rejects_grid_mismatch(grid):
    other = Grid.for_carrier(grid.eps, grid.n_points // 2,
                             periods=grid.carrier_index)
    p = ModelParams(eps=grid.eps, dt=1e-3, t_end=0.02)
    a = simulate(RealField(grid, np.zeros(grid.n_points)), p)
    b = simulate(RealField(other, np.zeros(other.n_points)), p)
    with pytest.raises(ValueError):
        approximation_error(a, b)


def test_landau_estimate_recovers_pure_cubic_rate():
    fit = estimate_landau_coefficient(0.1, nu=0.0, n_points=2048)
    assert fit.c3 == pytest.approx(-3.0, rel=0.05)
    assert fit.c5 == 0.0
    assert fit.r_squared > 0.99


def test_landau_estimate_rejects_out_of_range_amplitude():
    with pytest.raises(ValueError):
        estimate_landau_coefficient(0.1, amplitude=0.8)
