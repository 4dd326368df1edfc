from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shmod import (
    Grid,
    ModelParams,
    RealField,
    StudyConfig,
    band_symbols,
    project,
    symbol_L_eps,
)
from shmod import bands, operators
from shmod.grid import DEFAULT_POINTS_PER_PERIOD
from shmod.operators import (DENSE_MAX, EnvelopeGrid, PaddedGrid,
                             dealiased_powers, envelope_powers,
                             inv_symbol_scaled)
from shmod.reduced import ReducedStepper
from shmod.sh import SHStepper


def test_symbol_values():
    eps = 0.1
    assert symbol_L_eps(1.0 / eps, eps) == 0.0
    assert symbol_L_eps(-1.0 / eps, eps) == 0.0
    assert symbol_L_eps(0.0, eps) == pytest.approx(-1.0 / eps**2, rel=1e-14)
    assert symbol_L_eps(2.0 / eps, eps) == pytest.approx(-9.0 / eps**2,
                                                         rel=1e-14)


def test_rescaled_symbol_matches_expanded_polynomial():
    # -(1 - eps^2 K^2)^2 / eps^2 = -1/eps^2 + 2 K^2 - eps^2 K^4
    eps = 0.07
    K = np.linspace(-30.0, 30.0, 101)
    np.testing.assert_allclose(
        symbol_L_eps(K, eps), -1.0 / eps**2 + 2.0 * K**2 - eps**2 * K**4,
        rtol=1e-12
    )


def test_semigroup_is_pointwise_exponential(grid):
    # both steppers advance the linear part by the exact semigroup
    # exp(dt L_eps), the pointwise exponential of the symbol
    # (the band stepper holds the P1 slice of it)
    p = ModelParams(dt=3e-4)
    expect = np.exp(p.dt * symbol_L_eps(grid.rfft_wavenumbers, grid.eps))
    sh = SHStepper([grid], [p], intensity=0.0)
    band = ReducedStepper([grid], [p], intensity=0.0, delta=0.125)
    np.testing.assert_allclose(sh.decay[0], expect, rtol=1e-14, atol=0)
    np.testing.assert_allclose(band.decay[0], expect[band.band], rtol=1e-14,
                               atol=0)


def _powers(rspec, padded):
    """``dealiased_powers`` of one half-spectrum, a batch of one."""
    return dealiased_powers(rspec[None], padded)[0]


def test_dealiased_square_of_single_mode_is_exact():
    g = Grid.for_carrier(0.1, 256, periods=16)
    k0 = 5 * g.dk
    f = RealField(g, np.cos(k0 * g.x))
    sq_spec = _powers(f.spectrum(), PaddedGrid(g.n_points, 2, {2: 1.0}))
    sq = np.fft.irfft(sq_spec, n=g.n_points)
    np.testing.assert_allclose(sq, 0.5 * (1.0 + np.cos(2 * k0 * g.x)), atol=1e-13)


def test_dealiased_cube_of_single_mode_is_exact():
    g = Grid.for_carrier(0.1, 256, periods=16)
    k0 = 5 * g.dk
    f = RealField(g, np.cos(k0 * g.x))
    cube_spec = _powers(f.spectrum(), PaddedGrid(g.n_points, 2, {3: 1.0}))
    cube = np.fft.irfft(cube_spec, n=g.n_points)
    np.testing.assert_allclose(
        cube, 0.75 * np.cos(k0 * g.x) + 0.25 * np.cos(3 * k0 * g.x), atol=1e-13
    )


def test_dealiased_product_no_wraparound():
    # modes near Nyquist: naive multiplication aliases, padded one must not
    g = Grid.for_carrier(0.1, 256, periods=16)
    j = g.n_points // 2 - 2
    k0 = j * g.dk
    f = RealField(g, np.cos(k0 * g.x))
    prod_spec = _powers(f.spectrum(), PaddedGrid(g.n_points, 2, {2: 1.0}))
    prod = np.fft.irfft(prod_spec, n=g.n_points)
    # true square has a 2*k0 component beyond Nyquist; dealiasing must drop
    # it, leaving only the constant 1/2
    np.testing.assert_allclose(prod, np.full(g.n_points, 0.5), atol=1e-13)
    # likewise the 3*k0 component of the cube, leaving 3/4 cos(k0 x)
    cube_spec = _powers(f.spectrum(), PaddedGrid(g.n_points, 2, {3: 1.0}))
    cube = np.fft.irfft(cube_spec, n=g.n_points)
    np.testing.assert_allclose(cube, 0.75 * np.cos(k0 * g.x), atol=1e-13)


def _powers_padded_to_8n(rspec, n, coeffs):
    """Reference: sum_e c_e v**e on an 8n grid, where no power up to the
    fifth can alias, truncated back to the n-point half-spectrum."""
    n_pad = 8 * n
    padded = np.zeros(n_pad // 2 + 1, dtype=np.complex128)
    padded[: n // 2] = rspec[: n // 2]
    vp = np.fft.irfft(padded, n=n_pad) * 8
    poly = sum(c * vp**e for e, c in coeffs.items())
    spec = np.fft.rfft(poly)[: n // 2 + 1] / 8
    spec[n // 2] = 0.0
    return spec


def _grid_in_layout(n, pad, dense, *args):
    # the layout is chosen from n against DENSE_MAX when the grid is
    # built; a threshold of n or below it forces one layout at any n
    with mock.patch.object(operators, "DENSE_MAX", n if dense else n - 1):
        return PaddedGrid(n, pad, *args)


#: log2 n at most of a forced dense grid: its matrices hold about
#: 2·pad·n² floats a row, 32 MB at n = 1024 and pad 2
DENSE_LOG2N = 7


@pytest.mark.parametrize("dense", [True, False],
                         ids=["dense", "interleaved-rows"])
@pytest.mark.parametrize("exponents, pad", [((2, 3), 2), ((2, 3, 5), 3)])
@given(seed=st.integers(0, 2**32 - 1), data=st.data(),
       fill=st.floats(0.05, 1.0), scale=st.floats(0.1, 3.0))
@settings(max_examples=30, deadline=None)
def test_dealiased_powers_matches_unaliased_reference(dense, exponents, pad,
                                                      seed, data, fill,
                                                      scale):
    # a random band-limited field (modes below fill * Nyquist) of sup norm
    # `scale` and a random polynomial with the given exponents, on the
    # padded grid held either way at every n
    n = 2**data.draw(st.integers(3, DENSE_LOG2N if dense else 11),
                     label="log2n")
    rng = np.random.default_rng(seed)
    n_modes = max(1, int(fill * (n // 2)))
    rspec = np.zeros(n // 2 + 1, dtype=np.complex128)
    rspec[:n_modes] = (rng.standard_normal(n_modes)
                       + 1j * rng.standard_normal(n_modes))
    rspec[0] = rspec[0].real
    rspec *= scale / np.max(np.abs(np.fft.irfft(rspec, n=n)))
    coeffs = {e: rng.uniform(-2.0, 2.0) for e in exponents}
    padded = _grid_in_layout(n, pad, dense, coeffs)
    assert (padded.inverse is not None) == dense
    got = _powers(rspec, padded)
    ref = _powers_padded_to_8n(rspec, n, coeffs)
    np.testing.assert_allclose(got, ref, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("dense, n", [(True, 2**DENSE_LOG2N), (False, 1024)],
                         ids=["dense", "interleaved-rows"])
def test_dealiased_powers_applies_the_gain(dense, n):
    # the gain scales the output weights: the same half-spectrum, times it
    rng = np.random.default_rng(4)
    rspec = np.fft.rfft(0.3 * rng.standard_normal(n))
    gain = rng.uniform(0.5, 1.5, n // 2 + 1)
    plain = _powers(rspec, _grid_in_layout(n, 2, dense, {3: -1.0}))
    got = _powers(rspec, _grid_in_layout(n, 2, dense, {3: -1.0}, gain))
    np.testing.assert_allclose(got, gain * plain, rtol=1e-14, atol=0)


def test_dense_batch_rows_keep_the_bits_of_their_runs_alone():
    # three rows of a 16-point batch, each with its own gain, polynomial
    # coefficients, decay and noise scale, are the bits of each row's
    # call alone, on every call, with and without the noise
    n, pad, rows = 16, 3, 3
    rng = np.random.default_rng(11)
    gain = rng.uniform(0.5, 1.5, (rows, n // 2 + 1))
    rspec = np.fft.rfft(0.4 * rng.standard_normal((rows, n)))
    raw = np.fft.rfft(rng.standard_normal((rows, n)))
    decay, scale = rng.uniform(0.5, 1.0, (2, rows, n // 2 + 1)).astype(
        np.complex128)
    coeffs = {2: rng.uniform(-1.0, 1.0, (rows, 1)),
              3: rng.uniform(-1.0, 1.0, (rows, 1)), 5: -1.0}
    batch = PaddedGrid(n, pad, coeffs, gain, decay, scale)
    assert batch.inverse is not None
    alone = [PaddedGrid(n, pad, {e: c if np.isscalar(c) else c[r:r + 1]
                                 for e, c in coeffs.items()},
                        gain[r:r + 1], decay[r:r + 1], scale[r:r + 1])
             for r in range(rows)]
    for noise in (raw, None):
        first = dealiased_powers(rspec, batch, noise)
        for _ in range(3):
            assert (dealiased_powers(rspec, batch, noise).tobytes()
                    == first.tobytes())
            for r, padded in enumerate(alone):
                row = dealiased_powers(
                    rspec[r:r + 1], padded,
                    None if noise is None else noise[r:r + 1])
                assert row.tobytes() == first[r:r + 1].tobytes()
    # the noise block is in the update
    assert not np.allclose(dealiased_powers(rspec, batch, raw), first)


def _envelope_reference(E, coeffs, ne):
    """``ne`` times the Fourier coefficients of a p(|a|^2), p(y) = sum_e
    coeffs[e] y^e, at the modes of the row ``E`` of a = (1/ne) sum_j E_j
    e^{ijx} over its signed modes j = -h .. w-1-h, h = w // 2: unaliased
    direct sums over the mode lists, by ``np.convolve``, no transform."""
    w = E.size
    modes = np.arange(w) - w // 2
    a = E / ne
    # conj(A) holds mode -j with conj(a_j); |A|^2 spans -(w-1) .. w-1
    abs2, abs2_lo = np.convolve(a, np.conj(a[::-1])), 0 - (w - 1)
    assert abs2_lo == modes[0] - modes[-1]
    out, term, lo = np.zeros(w, np.complex128), a, modes[0]
    for e in range(1, max(coeffs) + 1):
        term, lo = np.convolve(term, abs2), lo + abs2_lo
        start = modes[0] - lo
        out += coeffs.get(e, 0.0) * term[start: start + w]
    return ne * out


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("quintic", [False, True], ids=["cubic", "quintic"])
@pytest.mark.parametrize("width", [31, 32], ids=["band-slice", "fftshift"])
def test_envelope_powers_match_unaliased_reference(width, quintic, rows):
    # a run of w modes, a band slice -15 .. 15 or the 32 modes of a full
    # spectrum in fftshift order, each row with its own coefficients and
    # gain: the first w modes of the products on the ne-point envelope
    # grid are the direct sums, and each row has the bits of its call alone
    rng = np.random.default_rng(8 + width + rows)
    env = EnvelopeGrid(rows, width, quintic)
    assert env.ne == (128 if quintic else 64)
    E = (rng.standard_normal((rows, width))
         + 1j * rng.standard_normal((rows, width))) * env.ne / np.sqrt(width)
    coeffs = {1: rng.uniform(-2.0, 2.0, (rows, 1))}
    if quintic:
        coeffs[2] = rng.uniform(-2.0, 2.0, (rows, 1))
    gain = rng.uniform(0.5, 1.5, (rows, width))
    got = envelope_powers(E, coeffs, gain, env)
    for r in range(rows):
        own = {e: c[r, 0] for e, c in coeffs.items()}
        ref = gain[r] * _envelope_reference(E[r], own, env.ne)
        np.testing.assert_allclose(got[r], ref, rtol=0,
                                   atol=1e-12 * np.max(np.abs(ref)))
        alone = envelope_powers(E[r:r + 1],
                                {e: c[r:r + 1] for e, c in coeffs.items()},
                                gain[r:r + 1], EnvelopeGrid(1, width, quintic))
        assert alone.tobytes() == got[r:r + 1].tobytes()


def test_study_and_landau_grids_fall_on_either_side_of_the_crossover():
    # the default study grid runs the interleaved rows, the Landau fit's
    # one-period grid the dense matrices: each on the layout measured faster
    study = StudyConfig.for_study("theorem2", out_dir=".").n_points
    landau = Grid.for_carrier(0.1, DEFAULT_POINTS_PER_PERIOD, periods=1)
    assert (study, landau.n_points) == (2048, 16)
    assert landau.n_points <= DENSE_MAX < study
    for n in (study, landau.n_points):
        padded = PaddedGrid(n, 2, {3: -1.0})
        assert (padded.inverse is not None) == (n == landau.n_points)
    for p, pad, powers in ((ModelParams(nu=0.5), 2, 2),
                           (ModelParams("quintic", nu2=1.0, nu3=0.5), 3, 3)):
        padded = SHStepper([landau], [p], intensity=0.0).padded
        # real matrices from the float view of the 9-mode half-spectrum to
        # the samples, and from the powers and the half-spectrum back
        assert padded.inverse.shape == (18, pad * 16)
        assert padded.update_matrix.shape == (1, powers * pad * 16 + 18, 18)
        assert padded.stacked.shape == (1, 1, powers * pad * 16 + 18)
        # the interleaved arrays are indexed by part, then by row
        grid = Grid.for_carrier(0.1, study)
        assert SHStepper([grid], [p]).padded.values.shape == (pad, 1, study)


def test_inverse_operator_on_band_matches_symbol(grid):
    delta = 0.125
    sym = band_symbols(grid, delta)
    rng = np.random.default_rng(7)
    K = grid.rfft_wavenumbers
    for q, inv_q in ((sym.q0, sym.inv0), (sym.q2, sym.inv2)):
        f = project(RealField(grid, rng.standard_normal(grid.n_points)), q)
        inv = RealField.from_spectrum(grid, inv_q * f.spectrum())
        # the inverse symbol is only applied on the band support (it is
        # singular at |eps*K| = 1, far outside the band) and is weighted
        # by the band kernel so the result stays band-limited
        on_band = q > 0
        symbol = np.zeros_like(K)
        symbol[on_band] = q[on_band] * inv_symbol_scaled(K[on_band], grid.eps)
        expect = np.fft.irfft(symbol * f.spectrum(), n=grid.n_points)
        np.testing.assert_allclose(inv.values, expect, atol=1e-10)


def test_inverse_operator_rejects_carrier_band(grid, monkeypatch):
    # the table has no inverse on P1: the scaled inverse vanishes wherever
    # the carrier kernel does not, since it is singular at |eps*K| = 1
    sym = band_symbols(grid, 0.125)
    assert np.all(sym.inv0[sym.q1 > 0] == 0.0)
    assert np.all(sym.inv2[sym.q1 > 0] == 0.0)
    # and the builder refuses a P0/P2 support within the tolerance of the
    # neutral modes (raised here to reach the supports of a valid layout)
    monkeypatch.setattr(bands, "NEAR_SINGULAR_TOL", 1.0)
    with pytest.raises(ValueError, match="near-singular"):
        band_symbols.__wrapped__(grid, 0.125)
