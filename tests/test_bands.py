import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shmod import (
    Grid,
    RealField,
    demodulate,
    make_kernel,
    modulate,
    project,
    project_complement,
    symbol_L_eps,
)
from shmod.grid import ComplexField

DELTA = 0.125


def _band_field(grid, rng, amplitude=1.0):
    A = ComplexField.from_spectrum(
        grid,
        np.concatenate(
            [
                (rng.standard_normal(4) + 1j * rng.standard_normal(4))
                * grid.n_points
                / 8.0,
                np.zeros(grid.n_points - 8),
                (rng.standard_normal(4) + 1j * rng.standard_normal(4))
                * grid.n_points
                / 8.0,
            ]
        ),
    )
    peak = A.sup_norm()
    return modulate(A * (amplitude / peak), grid.eps)


def test_projector_idempotent_on_plateau(grid, random_field):
    # the taper is smooth, so idempotence holds exactly on the plateau:
    # restrict the input to plateau modes and project twice
    K = grid.rfft_wavenumbers
    for which in ("P0", "P1", "P2"):
        q = make_kernel(which, DELTA, grid.eps, grid)
        plateau = (q.evaluate(K) == 1.0).astype(float)
        f = RealField.from_spectrum(grid, plateau * random_field.spectrum())
        once = project(f, q)
        twice = project(once, q)
        np.testing.assert_allclose(once.values, f.values, atol=1e-12)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-12)


def test_projector_commutes_with_linear_operator(grid, random_field):
    q = make_kernel("P1", DELTA, grid.eps, grid)
    lam = symbol_L_eps(grid.rfft_wavenumbers, grid.eps)

    def apply_L(f):
        return RealField.from_spectrum(grid, lam * f.spectrum())

    a = project(apply_L(random_field), q)
    b = apply_L(project(random_field, q))
    np.testing.assert_allclose(a.values, b.values, atol=1e-8 * grid.eps**-2)


def test_complement_sums_back(grid, random_field):
    q = make_kernel("P1", DELTA, grid.eps, grid)
    total = project(random_field, q) + project_complement(random_field, q)
    np.testing.assert_allclose(total.values, random_field.values, atol=1e-12)


def test_carrier_band_annihilates_its_own_square(grid):
    # P1 (P1 v)^2 = 0: the square of a band-1 field lives near 0 and +-2/eps
    rng = np.random.default_rng(3)
    v1 = _band_field(grid, rng)
    q1 = make_kernel("P1", DELTA, grid.eps, grid)
    sq = RealField(grid, project(v1, q1).values ** 2)
    rel = project(sq, q1).l2_norm() / sq.l2_norm()
    assert rel <= 1e-10


def test_band_supports_disjoint_between_p1_and_p2(grid):
    q1 = make_kernel("P1", DELTA, grid.eps, grid)
    q2 = make_kernel("P2", DELTA, grid.eps, grid)
    K = grid.rfft_wavenumbers
    assert np.max(q1.evaluate(K) * q2.evaluate(K)) == 0.0


def test_kernel_rejects_overlapping_bands_at_large_delta():
    g = Grid.for_carrier(0.2, 1024, periods=64)
    with pytest.raises(ValueError):
        make_kernel("P1", 0.25, g.eps, g)


def test_kernel_rejects_band_past_nyquist():
    g = Grid.for_carrier(0.1, 64, periods=16)  # Nyquist = 2/eps
    with pytest.raises(ValueError):
        make_kernel("P2", 0.125, g.eps, g)


def test_decompose_reconstructs_exactly(grid, random_field):
    # v = v1 + eps (v0 + v2 + remainder): v1 = P1 v, v0 = P0 v / eps,
    # v2 = P2 v / eps and the remainder the rest of v over eps
    eps, K = grid.eps, grid.rfft_wavenumbers
    q0, q1, q2 = (make_kernel(b, DELTA, eps, grid).evaluate(K)
                  for b in ("P0", "P1", "P2"))
    spec = random_field.spectrum()

    def part(mult):
        return np.fft.irfft(mult * spec, n=grid.n_points)

    v1, v0, v2 = part(q1), part(q0 / eps), part(q2 / eps)
    rem = part((1.0 - q0 - q1 - q2) / eps)
    np.testing.assert_allclose(v1 + eps * (v0 + v2 + rem),
                               random_field.values, atol=1e-10)


def test_demodulate_modulate_roundtrip(grid):
    rng = np.random.default_rng(11)
    v = _band_field(grid, rng, amplitude=0.7)
    A = demodulate(v, grid.eps, DELTA)
    back = modulate(A, grid.eps)
    np.testing.assert_allclose(back.values, v.values, atol=1e-12)
    assert A.sup_norm() == pytest.approx(0.7, rel=1e-9)


def test_demodulate_rejects_offband_energy(grid, random_field):
    with pytest.raises(ValueError):
        demodulate(random_field, grid.eps, DELTA)


def test_pure_carrier_demodulates_to_constant(grid):
    v = RealField(grid, 2.0 * 0.3 * np.cos(grid.x / grid.eps))
    A = demodulate(v, grid.eps, DELTA)
    np.testing.assert_allclose(A.values, np.full(grid.n_points, 0.3), atol=1e-12)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_projection_is_an_l2_contraction(seed):
    g = Grid.for_carrier(0.1, 512, periods=32)
    f = RealField(g, np.random.default_rng(seed).standard_normal(g.n_points))
    for which in ("P0", "P1", "P2"):
        q = make_kernel(which, DELTA, g.eps, g)
        assert project(f, q).l2_norm() <= f.l2_norm() * (1.0 + 1e-12)
