import threading
import weakref

import numpy as np
import pytest

from shmod import (
    GLCoefficients,
    Grid,
    NoiseConfig,
    ou_increment_variance,
    spectral_variance_rate,
    stochastic_convolution_sample,
)
from shmod import ModelParams
from shmod.noise import SpectralNoise
from shmod.reduced import GLStepper
from shmod.sh import BLOCK, BLOCK_BYTES, SHStepper, integrate, noise_draw


def small_grid():
    return Grid.for_carrier(0.2, 256, periods=16)


def _white_increments(noise, dt, rng, count):
    """``count`` white-noise increments over ``dt`` as the real solvers draw
    them: the raw spectral draw at the OU scale of rate 0 (pure Brownian)."""
    scale = noise.ou_scale(0.0, dt)
    n = noise.grid.n_points
    return np.concatenate([np.fft.irfft(noise.raw(rng) * scale, n=n)
                           for _ in range(count)])


def test_white_increment_pointwise_variance():
    grid = small_grid()
    dt = 0.01
    samples = _white_increments(SpectralNoise(grid), dt,
                                np.random.default_rng(0), 400)
    target = dt / grid.dx
    assert abs(samples.var() / target - 1.0) < 0.05
    assert abs(samples.mean()) < 0.05 * np.sqrt(target)


def test_white_increment_intensity_scales_std():
    grid = small_grid()
    a = _white_increments(SpectralNoise(grid, 1.0), 0.01,
                          np.random.default_rng(1), 1)
    b = _white_increments(SpectralNoise(grid, 2.0), 0.01,
                          np.random.default_rng(1), 1)
    np.testing.assert_allclose(b, 2.0 * a, rtol=1e-12)


def test_white_increment_rejects_bad_dt():
    with pytest.raises(ValueError):
        SpectralNoise(small_grid()).ou_scale(0.0, 0.0)


def test_complex_white_increment_halves_variance_per_part():
    # the complex draw of simulate_gl at rate 0: independent re/im parts
    # that split the real rate dt/dx evenly
    grid = small_grid()
    dt = 0.01
    noise = GLStepper([grid], [GLCoefficients(cubic=0.0)], dt, 1.0,
                      np.fft.fftshift(np.arange(grid.n_points))).noise
    rng = np.random.default_rng(2)
    scale = noise.ou_scale(0.0, dt)
    vals = np.concatenate([np.fft.ifft(noise.raw_complex(rng) * scale)
                           for _ in range(400)])
    half = dt / (2.0 * grid.dx)
    assert abs(vals.real.var() / half - 1.0) < 0.05
    assert abs(vals.imag.var() / half - 1.0) < 0.05
    assert abs(np.corrcoef(vals.real, vals.imag)[0, 1]) < 0.05
    # total complex variance matches the real-field rate
    assert abs((vals.real.var() + vals.imag.var()) / (dt / grid.dx) - 1.0) < 0.05


class _CountingNoise(SpectralNoise):
    """SpectralNoise recording the lead shape of every draw."""

    def __init__(self, grid):
        super().__init__(grid)
        self.leads = []

    def raw(self, rng, lead=(), out=None):
        self.leads.append(lead)
        return super().raw(rng, lead, out)

    def raw_complex(self, rng, lead=(), out=None):
        self.leads.append(lead)
        return super().raw_complex(rng, lead, out)


class _RecordingStepper:
    """Leaves its spectrum alone and keeps a copy of each step's noise."""

    bound_scale = 1.0

    def __init__(self):
        self.raws = []

    def step_spec(self, spec, raw):
        self.raws.append(raw.copy())
        return spec


def _check_block_draw(n_steps, cfgs, complex_rows):
    # row r of every step integrate takes is the next draw of row r's own
    # stream
    grid = small_grid()
    noise = _CountingNoise(grid)
    draw = noise_draw(noise, cfgs, complex_rows)
    # two noise blocks of BLOCK steps fit the cap, so integrate takes those
    assert 2 * BLOCK * draw[1] <= BLOCK_BYTES
    stepper = _RecordingStepper()
    status, _, _ = integrate([stepper], [np.zeros((len(cfgs), 1))], n_steps,
                             1.0, draw)
    assert status == ["completed"] * len(cfgs)
    steps = stepper.raws
    assert len(steps) == n_steps
    # full blocks, then the rest, one draw of each distinct stream per
    # block: nothing is drawn past the last step
    streams = len({(cfg.seed, cfg.stream_id) for cfg in cfgs})
    full, rest = divmod(n_steps, BLOCK)
    blocks = [(BLOCK,)] * full + [(rest,)] * (rest > 0)
    assert noise.leads == [lead for lead in blocks for _ in range(streams)]
    single = SpectralNoise(grid)
    single = single.raw_complex if complex_rows else single.raw
    for r, cfg in enumerate(cfgs):
        rng = cfg.make_rng()
        for step in steps:
            assert step.shape[0] == len(cfgs)
            assert step[r].tobytes() == single(rng).tobytes()


def _streams(rows):
    return [NoiseConfig(seed=5 + r, intensity=0.3) for r in range(rows)]


BLOCK_EDGES = [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]


@pytest.mark.parametrize("complex_rows", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n_steps", BLOCK_EDGES)
def test_block_draw_hands_out_exactly_the_sequential_draws(n_steps,
                                                          complex_rows):
    _check_block_draw(n_steps, _streams(1), complex_rows)


@pytest.mark.parametrize("complex_rows", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n_steps", BLOCK_EDGES)
def test_block_draw_of_a_batch_hands_out_each_streams_sequential_draws(
        n_steps, complex_rows):
    _check_block_draw(n_steps, _streams(3), complex_rows)


@pytest.mark.parametrize("complex_rows", [False, True], ids=["real", "complex"])
def test_block_draw_makes_one_generator_per_distinct_stream(monkeypatch,
                                                            complex_rows):
    # rows that share a seed and a stream id, as the eps ladder of one seed
    # does, whatever their intensity, each get that stream's sequential
    # draws from one generator, drawn once per block
    made, make_rng = [], NoiseConfig.make_rng

    def counted(cfg):
        made.append((cfg.seed, cfg.stream_id))
        return make_rng(cfg)

    monkeypatch.setattr(NoiseConfig, "make_rng", counted)
    cfgs = [NoiseConfig(seed=5, intensity=0.3), NoiseConfig(seed=6),
            NoiseConfig(seed=5, intensity=0.1),
            NoiseConfig(seed=5, stream_id=1), NoiseConfig(seed=6)]
    _check_block_draw(2 * BLOCK + 1, cfgs, complex_rows)
    # the draw's generators, then the check's own one per row
    assert made == [(5, 0), (6, 0), (5, 1)] + [
        (cfg.seed, cfg.stream_id) for cfg in cfgs]


@pytest.mark.parametrize("rows", [1, 4], ids=["one-row", "batch"])
def test_noise_rows_alive_at_once_stay_within_two_blocks(rows):
    # every block is counted from the start of its draw, on the worker,
    # until its memory is freed: integrate drops each step's draw before
    # the next, so the block handed out and the one being drawn are all
    # that is alive, two blocks of BLOCK steps within the byte cap,
    # whatever the timing
    alive, peak, lock = [0], [0], threading.Lock()

    def released(k):
        with lock:
            alive[0] -= k

    grid = small_grid()
    p = ModelParams(nu=0.5, dt=1e-3)
    stepper = SHStepper([grid] * rows, [p] * rows, 0.1)
    cfgs = [NoiseConfig(seed=r, intensity=0.1) for r in range(rows)]
    draw, step_bytes = noise_draw(stepper.noise, cfgs)

    def counted(k):
        with lock:
            alive[0] += k
            peak[0] = max(peak[0], alive[0])
        block = draw(k)
        weakref.finalize(block.base, released, k)
        return block

    spec = np.zeros((rows, grid.n_points // 2 + 1), dtype=np.complex128)
    status, _, _ = integrate([stepper], [spec], 5 * BLOCK + 1, 1e4,
                             (counted, step_bytes))
    assert status == ["completed"] * rows
    assert alive[0] == 0
    assert peak[0] == 2 * BLOCK
    assert peak[0] * step_bytes <= BLOCK_BYTES


@pytest.mark.parametrize("method", ["raw", "raw_complex"])
def test_stacked_draw_leaves_the_rng_where_sequential_draws_do(method):
    noise = SpectralNoise(small_grid())
    block_rng, seq_rng = (NoiseConfig(seed=9).make_rng() for _ in range(2))
    block = getattr(noise, method)(block_rng, (7,))
    rows = [getattr(noise, method)(seq_rng) for _ in range(7)]
    assert block.tobytes() == np.array(rows).tobytes()
    assert repr(block_rng.bit_generator.state) == repr(seq_rng.bit_generator.state)


def test_no_draw_without_noise():
    noise = SpectralNoise(small_grid())
    assert noise_draw(noise, None) is None
    assert noise_draw(noise, [NoiseConfig(seed=1, intensity=0.0)] * 2) is None


def test_ou_increment_variance_brownian_limit():
    dt = 0.05
    assert ou_increment_variance(0.0, dt) == pytest.approx(dt)
    # continuity through the series branch
    assert ou_increment_variance(-1e-12, dt) == pytest.approx(dt, rel=1e-10)


def test_ou_increment_variance_closed_form():
    lam, dt = -3.0, 0.2
    expect = (np.exp(2 * lam * dt) - 1.0) / (2 * lam)
    assert ou_increment_variance(lam, dt) == pytest.approx(expect, rel=1e-12)


def test_ou_increment_variance_rejects_positive_rate():
    with pytest.raises(ValueError):
        ou_increment_variance(1.0, 0.1)


def test_ou_recursion_stationary_variance():
    # iterate an exact OU step long enough to reach stationarity and
    # compare the ensemble variance with unit / (-2 lam)
    lam, dt, unit = -2.0, 0.1, 3.0
    rng = np.random.default_rng(3)
    n = 10_000
    z = np.zeros(n, dtype=np.complex128)
    for _ in range(60):
        var = unit * ou_increment_variance(lam, dt)
        s = np.sqrt(var / 2.0)
        xi = rng.normal(scale=s, size=n) + 1j * rng.normal(scale=s, size=n)
        z = np.exp(lam * dt) * z + xi
    target = unit / (-2.0 * lam)
    measured = np.mean(np.abs(z) ** 2)
    assert abs(measured / target - 1.0) < 0.05


def test_spectral_variance_rate_identity():
    grid = small_grid()
    assert spectral_variance_rate(grid, 0.5) == pytest.approx(
        0.25 * grid.n_points**2 / grid.length
    )


def test_convolution_sample_is_deterministic():
    grid = small_grid()
    cfg = NoiseConfig(seed=11, intensity=0.3)
    a = stochastic_convolution_sample(grid, 0.05, cfg)
    b = stochastic_convolution_sample(grid, 0.05, cfg)
    np.testing.assert_array_equal(a.values, b.values)
    other = stochastic_convolution_sample(grid, 0.05,
                                          NoiseConfig(seed=12, intensity=0.3))
    assert not np.array_equal(a.values, other.values)


def test_substreams_are_independent():
    grid = small_grid()
    cfg = NoiseConfig(seed=11, intensity=0.3)
    a = stochastic_convolution_sample(grid, 1.0, cfg.substream(1))
    b = stochastic_convolution_sample(grid, 1.0, cfg.substream(2))
    corr = np.corrcoef(a.values, b.values)[0, 1]
    assert abs(corr) < 0.3
    assert not np.array_equal(a.values, b.values)


def test_convolution_sample_mode_variance():
    # each rfft mode of W(T) is a centered complex Gaussian with variance
    # unit * (1 - e^{2 lam T}) / (-2 lam); check a pooled band of modes
    grid = small_grid()
    eps = grid.eps
    T = 0.5
    from shmod import symbol_L_eps

    lam = symbol_L_eps(grid.rfft_wavenumbers, eps)
    unit = spectral_variance_rate(grid, 1.0)
    target = unit * ou_increment_variance(lam, T)
    sel = slice(1, 40)
    acc = np.zeros(grid.n_points // 2 + 1)
    n_draws = 400
    for s in range(n_draws):
        w = stochastic_convolution_sample(grid, T, NoiseConfig(seed=500 + s))
        acc += np.abs(np.fft.rfft(w.values)) ** 2
    acc /= n_draws
    ratio = acc[sel] / target[sel]
    assert abs(np.median(ratio) - 1.0) < 0.1


def _holder_norm(f, dx, alpha=0.4, max_stride=16):
    """sup |f| plus the largest Hoelder quotient |f(x) - f(y)| / |x - y|^alpha
    over the periodic grid pairs at most ``max_stride`` points apart."""
    quotient = max(np.max(np.abs(np.roll(f, -s) - f)) / (s * dx) ** alpha
                   for s in range(1, max_stride + 1))
    return np.max(np.abs(f)) + quotient


def test_convolution_regularity_uniform_in_eps():
    # the Hoelder-type norm of W(1) stays within a tight band as the
    # bandwidth parameter shrinks (regularity uniform in eps)
    medians = []
    for eps in (0.2, 0.1, 0.05):
        grid = Grid.for_carrier(eps, 512, periods=32)
        norms = [
            _holder_norm(stochastic_convolution_sample(
                grid, 1.0, NoiseConfig(seed=s)).values, grid.dx)
            for s in range(24)
        ]
        medians.append(np.median(norms))
    assert max(medians) / min(medians) < 2.0
