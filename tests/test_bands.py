import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from shmod import (
    Grid,
    RealField,
    band_symbols,
    demodulate,
    make_kernel,
    modulate,
    project,
    symbol_L_eps,
)
from shmod.bands import NEAR_SINGULAR_TOL
from shmod.grid import ComplexField
from shmod.operators import inv_symbol_scaled

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
    return modulate(A * (amplitude / peak))


def test_projector_idempotent_on_plateau(grid, random_field):
    # the taper is smooth, so idempotence holds exactly on the plateau:
    # restrict the input to plateau modes and project twice
    sym = band_symbols(grid, DELTA)
    for q in (sym.q0, sym.q1, sym.q2):
        plateau = (q == 1.0).astype(float)
        f = RealField.from_spectrum(grid, plateau * random_field.spectrum())
        once = project(f, q)
        twice = project(once, q)
        np.testing.assert_allclose(once.values, f.values, atol=1e-12)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-12)


def test_projector_commutes_with_linear_operator(grid, random_field):
    q = band_symbols(grid, DELTA).q1
    lam = symbol_L_eps(grid.rfft_wavenumbers, grid.eps)

    def apply_L(f):
        return RealField.from_spectrum(grid, lam * f.spectrum())

    a = project(apply_L(random_field), q)
    b = apply_L(project(random_field, q))
    np.testing.assert_allclose(a.values, b.values, atol=1e-8 * grid.eps**-2)


def test_complement_sums_back(grid, random_field):
    # I - P as the one transform of the multiplier 1 - q, which the
    # attractivity cell takes, sums back with P to the identity
    q = band_symbols(grid, DELTA).q1
    complement = RealField.from_spectrum(
        grid, (1.0 - q) * random_field.spectrum())
    total = project(random_field, q) + complement
    np.testing.assert_allclose(total.values, random_field.values, atol=1e-12)


def test_carrier_band_annihilates_its_own_square(grid):
    # P1 (P1 v)^2 = 0: the square of a band-1 field lives near 0 and +-2/eps
    rng = np.random.default_rng(3)
    v1 = _band_field(grid, rng)
    q1 = band_symbols(grid, DELTA).q1
    sq = RealField(grid, project(v1, q1).values ** 2)
    rel = project(sq, q1).l2_norm() / sq.l2_norm()
    assert rel <= 1e-10


def test_band_supports_disjoint_between_p1_and_p2(grid):
    sym = band_symbols(grid, DELTA)
    assert np.max(sym.q1 * sym.q2) == 0.0


def test_kernel_rejects_overlapping_bands_at_large_delta():
    g = Grid.for_carrier(0.2, 1024, periods=64)
    with pytest.raises(ValueError):
        make_kernel("P1", 0.25, g)


def test_kernel_rejects_band_past_nyquist():
    g = Grid.for_carrier(0.1, 64, periods=16)  # Nyquist = 2/eps
    with pytest.raises(ValueError):
        make_kernel("P2", 0.125, g)


def test_decompose_reconstructs_exactly(grid, random_field):
    # v = v1 + eps (v0 + v2 + remainder): v1 = P1 v, v0 = P0 v / eps,
    # v2 = P2 v / eps and the remainder the rest of v over eps
    eps = grid.eps
    sym = band_symbols(grid, DELTA)
    q0, q1, q2 = sym.q0, sym.q1, sym.q2
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
    A = demodulate(v, DELTA)
    back = modulate(A)
    np.testing.assert_allclose(back.values, v.values, atol=1e-12)
    assert A.sup_norm() == pytest.approx(0.7, rel=1e-9)


def test_demodulate_rejects_offband_energy(grid, random_field):
    with pytest.raises(ValueError):
        demodulate(random_field, DELTA)


def _demodulate_from_full_spectrum(v, delta):
    """demodulate as a complex fft of the real field: the positive band of
    its full spectrum rolled down by the carrier, and its off-band share
    with the P1 kernel on the full fft layout."""
    grid = v.grid
    n, spec = grid.n_points, np.fft.fft(v.values)
    q1 = make_kernel("P1", delta, grid).evaluate(grid.wavenumbers)
    power = np.abs(spec) ** 2
    pos = np.zeros(n, dtype=np.complex128)
    pos[1: n // 2] = spec[1: n // 2]
    A = np.fft.ifft(np.roll(pos, -grid.carrier_index))
    return A, np.sum((1.0 - q1) ** 2 * power) / np.sum(power)


@given(seed=st.integers(0, 2**32 - 1), offset=st.floats(0.0, 0.3),
       noise=st.floats(0.0, 0.3))
@settings(max_examples=60, deadline=None)
def test_demodulate_from_half_spectrum_matches_full_spectrum(seed, offset,
                                                             noise):
    # a band field plus a constant (weight 1 in the half-spectrum) and white
    # noise (mostly weight 2) off the band, on both sides of 1% off-band
    g = Grid.for_carrier(0.1, 512, periods=32)
    rng = np.random.default_rng(seed)
    v = RealField(g, _band_field(g, rng).values + offset
                  + noise * rng.standard_normal(g.n_points))
    ref, offband = _demodulate_from_full_spectrum(v, DELTA)
    got = demodulate(v, DELTA, energy_tol=1.0).values
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    assume(abs(offband - 0.01) > 1e-9)
    if offband > 0.01:
        with pytest.raises(ValueError, match="outside the P1 band"):
            demodulate(v, DELTA)
    else:
        demodulate(v, DELTA)


def test_pure_carrier_demodulates_to_constant(grid):
    v = RealField(grid, 2.0 * 0.3 * np.cos(grid.x / grid.eps))
    A = demodulate(v, DELTA)
    np.testing.assert_allclose(A.values, np.full(grid.n_points, 0.3), atol=1e-12)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_projection_is_an_l2_contraction(seed):
    g = Grid.for_carrier(0.1, 512, periods=32)
    f = RealField(g, np.random.default_rng(seed).standard_normal(g.n_points))
    sym = band_symbols(g, DELTA)
    for q in (sym.q0, sym.q1, sym.q2):
        assert project(f, q).l2_norm() <= f.l2_norm() * (1.0 + 1e-12)


# -- the band-symbol table -----------------------------------------------------

def test_band_symbols_match_kernels_bit_for_bit(grid):
    sym = band_symbols(grid, DELTA)
    K = grid.rfft_wavenumbers
    for which, q in (("P0", sym.q0), ("P1", sym.q1), ("P2", sym.q2)):
        np.testing.assert_array_equal(
            q, make_kernel(which, DELTA, grid).evaluate(K))
    np.testing.assert_array_equal(sym.lam, symbol_L_eps(K, grid.eps))
    # the P1 slice is centred on the carrier and holds all of q1's support
    m, band = grid.carrier_index, sym.band
    assert band.start + band.stop - 1 == 2 * m
    assert sym.q1[band.start] > 0 or sym.q1[band.stop - 1] > 0
    np.testing.assert_array_equal(
        sym.q1[np.r_[: band.start, band.stop: sym.q1.size]], 0.0)
    assert band_symbols(grid, DELTA) is sym  # built once


def test_band_inverse_matches_guarded_composition_bit_for_bit(grid):
    # the inverse as the band steppers composed it before the table:
    # (q0 + q2) times the unguarded symbol, on the support only
    sym = band_symbols(grid, DELTA)
    K = grid.rfft_wavenumbers
    q02 = sym.q0 + sym.q2
    on = q02 > 0
    old = np.zeros_like(K)
    old[on] = q02[on] * inv_symbol_scaled(K[on], grid.eps)
    np.testing.assert_array_equal(sym.inv0 + sym.inv2, old)
    assert np.all(sym.inv0[sym.q0 == 0] == 0) and np.all(sym.inv2[sym.q2 == 0] == 0)


def test_band_symbols_are_read_only(grid):
    sym = band_symbols(grid, DELTA)
    for name in ("lam", "q0", "q1", "q2", "inv0", "inv2"):
        with pytest.raises(ValueError):
            getattr(sym, name)[0] = 1.0
    with pytest.raises(AttributeError):
        sym.q1 = np.zeros_like(sym.q1)


@given(eps=st.floats(0.02, 0.45), delta=st.floats(0.01, 0.34),
       log2n=st.integers(7, 12), periods=st.integers(2, 32))
@settings(max_examples=200, deadline=None)
def test_accepted_band_layouts_stay_away_from_the_neutral_modes(eps, delta,
                                                                log2n,
                                                                periods):
    # P1 and P2 must be disjoint, so delta < (1 - 2 eps)/3 and, on the P0
    # and P2 supports, |1 - (eps K)^2| > 5/9: the NEAR_SINGULAR_TOL guard of
    # band_symbols is defence in depth, never reached by a layout that
    # make_kernel accepts
    grid = Grid.for_carrier(eps, 2 ** log2n, periods=periods)
    try:
        q0, q2 = (make_kernel(b, delta, grid).evaluate(
            grid.rfft_wavenumbers) for b in ("P0", "P2"))
        make_kernel("P1", delta, grid)
    except ValueError:
        assume(False)
    K = grid.rfft_wavenumbers[(q0 + q2) > 0]
    assert np.min(np.abs(1.0 - (grid.eps * K) ** 2)) > 5.0 / 9.0
    assert 5.0 / 9.0 > 1e5 * NEAR_SINGULAR_TOL
