import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shmod import (
    Grid,
    ModelParams,
    NoiseConfig,
    RealField,
    StudyConfig,
    band_symbols,
    demodulate,
    estimate_landau_coefficient,
    fit_scaling_exponent,
    integrate,
    make_kernel,
    modulated_carrier_ic,
    project,
    simulate,
)
from shmod.analysis import (PairedDiagnostics, _CarrierAmplitude,
                            averaging_points)
from shmod.operators import inv_symbol_scaled
from shmod.reduced import ReducedStepper
from shmod.sh import SHStepper, block_steps, noise_draw
from shmod.studies import (ATTRACTIVITY_SKIP, DEFAULT_EPS_LADDER, STUDIES,
                           study_cells)

from conftest import Snapshots, paired_diagnostics, simulate_snapshots

DELTA = 0.125


def test_fit_scaling_exponent_recovers_power_law():
    pairs = [(e, 2.5 * e**1.7) for e in (0.2, 0.1, 0.05, 0.025)]
    assert fit_scaling_exponent(pairs) == pytest.approx(1.7, abs=1e-10)


def test_fit_scaling_exponent_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_scaling_exponent([(0.1, 1.0), (0.05, 0.5)])
    with pytest.raises(ValueError):
        fit_scaling_exponent([(0.1, 1.0), (0.05, 0.5), (0.025, -1.0)])


def _averaging_reference(times, snapshots, nu, k_band, delta):
    """The sup norm of the averaging integral by np.trapezoid over the
    stacked integrands of all snapshots, taken at ``times``."""
    grid = snapshots[0].grid
    n, K, eps = grid.n_points, grid.rfft_wavenumbers, grid.eps
    q1 = make_kernel("P1", delta, grid).evaluate(K)
    qk = make_kernel(k_band, delta, grid).evaluate(K)
    on = qk > 0
    inv = np.zeros_like(K)
    inv[on] = qk[on] * inv_symbol_scaled(K[on], eps)

    def integrand(snap):
        spec = snap.spectrum()
        v1 = np.fft.irfft(q1 * spec, n=n)
        vk = np.fft.irfft(qk * spec, n=n) / eps
        corr = np.fft.irfft(inv * np.fft.rfft(v1 * v1), n=n)
        return v1 * vk + nu * v1 * corr

    fields = np.stack([integrand(s) for s in snapshots])
    return float(np.max(np.abs(np.trapezoid(fields, x=times, axis=0))))


@given(seed=st.integers(0, 2**32 - 1), count=st.integers(2, 12),
       nu=st.floats(-1.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_averaging_accumulator_matches_stacked_trapezoid(seed, count, nu):
    # random band-limited fields (modes up to past the P2 band) at random
    # strictly increasing, non-uniform times
    grid = Grid.for_carrier(0.2, 256, periods=16)
    rng = np.random.default_rng(seed)
    times = rng.uniform(-1.0, 1.0) + np.cumsum(rng.uniform(0.05, 1.0, count))
    n_modes = 3 * grid.carrier_index
    snaps = []
    for _ in range(count):
        spec = np.zeros(grid.n_points // 2 + 1, dtype=np.complex128)
        spec[:n_modes] = (rng.standard_normal(n_modes)
                          + 1j * rng.standard_normal(n_modes))
        snaps.append(RealField.from_spectrum(grid, spec))
    # fed in blocks of random sizes; each block leaves its rows of
    # v1 = P1 v on the job's m points in its work array
    specs = np.array([snap.spectrum() for snap in snaps])[:, None]
    diagnostics = paired_diagnostics([grid], [nu])
    m = diagnostics.m
    assert m < grid.n_points
    q1 = m / grid.n_points * band_symbols(grid, DELTA).q1
    start = 0
    while start < count:
        rows = slice(start,
                     start + int(rng.integers(1, diagnostics.size + 1)))
        _feed_block(diagnostics, times[rows], specs[rows])
        for got, spec in zip(diagnostics._v1, specs[rows]):
            assert got.tobytes() == np.fft.irfft(q1 * spec, n=m).tobytes()
        start = rows.stop
    results = diagnostics.results()
    for k_band, residual in zip(("P0", "P2"), (results["res_p0"][0],
                                               results["res_p2"][0])):
        ref = _averaging_reference(times, snaps, nu, k_band, DELTA)
        assert residual == pytest.approx(ref, rel=1e-12)



def _feed_block(diagnostics, times, vspecs):
    """Run ``diagnostics``' block job on the calling thread over the
    half-spectra ``vspecs[j]`` of v of its rows at ``times[j]``, with zero
    band slices."""
    k = len(times)
    diagnostics._times[0, :k] = times
    diagnostics._vspecs[0, :k] = vspecs[..., : diagnostics.top]
    diagnostics._block(0, k)


def _residuals_hex(diagnostics) -> list:
    """The hex res_p0 and res_p2 of each row."""
    results = diagnostics.results()
    return [[x.hex() for x in row]
            for row in zip(results["res_p0"], results["res_p2"])]


def _accumulator_feed(grid, times, specs, sizes, nu=0.5):
    """``total`` and the hex residuals of the paired diagnostics of a
    batch of one fed the samples in consecutive blocks of ``sizes``
    steps."""
    diagnostics, start = paired_diagnostics([grid], [nu]), 0
    for k in sizes:
        _feed_block(diagnostics, times[start:start + k],
                    specs[start:start + k, None])
        start += k
    assert start == len(times)
    return diagnostics.total.tobytes(), _residuals_hex(diagnostics)


@pytest.mark.parametrize("size", range(1, block_steps(1) + 1))
def test_averaging_accumulator_bits_do_not_depend_on_block_size(size):
    # the block's trapezoid pieces go into total by one reduction along
    # axis 0, which adds the steps in order: blocks of any size, uniform or
    # not, give the bits of one sample per call
    grid = Grid.for_carrier(0.2, 256, periods=16)
    rng = np.random.default_rng(size)
    count = 2 * block_steps(1) + 3
    times = np.cumsum(rng.uniform(0.05, 1.0, count))
    n_modes = 3 * grid.carrier_index
    specs = np.zeros((count, grid.n_points // 2 + 1), np.complex128)
    specs[:, :n_modes] = (rng.standard_normal((count, n_modes))
                          + 1j * rng.standard_normal((count, n_modes)))
    one_by_one = _accumulator_feed(grid, times, specs, [1] * count)
    uniform = [size] * (count // size) + [count % size] * (count % size > 0)
    assert _accumulator_feed(grid, times, specs, uniform) == one_by_one
    mixed = []
    while sum(mixed) < count:
        mixed.append(min(int(rng.integers(1, size + 1)), count - sum(mixed)))
    assert _accumulator_feed(grid, times, specs, mixed) == one_by_one


def _cell_inputs(cfg, grid, nu, seed):
    """The noise config, initial data and model parameters of the cell of
    ``nu`` and ``seed`` of an SH study: its noise stream is that of seed
    ``base_seed + seed``, whose substream 1 draws the initial envelope."""
    ncfg = NoiseConfig(seed=cfg.base_seed + seed, intensity=cfg.intensity)
    v0 = modulated_carrier_ic(grid, ncfg.substream(1).make_rng(),
                              amplitude=cfg.amplitude, offband=cfg.offband)
    return ncfg, v0, ModelParams("cubic", nu=nu, dt=cfg.dt, t_end=cfg.t_end)


def test_paired_cell_streams_residuals_in_small_memory(tmp_path):
    # one default theorem2 cell (n=2048, 1000 steps): the residuals are
    # integrated as the run goes, with no per-step snapshots kept
    cfg = StudyConfig.for_study("theorem2", out_dir=str(tmp_path))
    grid = Grid.for_carrier(0.1, cfg.n_points, periods=cfg.periods)
    nu, seed = cfg.nu_list[0], 0
    assert (cfg.n_points, round(cfg.t_end / cfg.dt)) == (2048, 1000)
    tracemalloc.start()
    try:
        (diags,) = STUDIES["theorem2"].run(
            cfg, [grid], [({"eps": 0.1, "nu": nu}, seed)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6

    # the same run with every step stored, through the steppers and the
    # driver directly, and its diagnostics after the fact
    ncfg, v0, p = _cell_inputs(cfg, grid, nu, seed)
    sh = SHStepper([grid], [p], ncfg.intensity)
    red = ReducedStepper([grid], [p], ncfg.intensity, cfg.delta)
    vspec = v0.spectrum()[None]
    wband = red.q1 * vspec[:, red.band]
    snaps = Snapshots([sh, red], [v0, RealField(grid, red.values(wband)[0])],
                      p.dt, 1, 1000)
    q1 = band_symbols(grid, cfg.delta).q1
    gaps = []

    def gap(i, specs):
        # P1 v - w from its spectrum on the band slice, as the observer
        # takes it
        diff = red.half_spectrum(red.q1 * specs[0][:, red.band] - specs[1])
        gaps.append(float(np.max(np.abs(np.fft.irfft(diff[0],
                                                     n=grid.n_points)))))

    status, steps, _ = integrate([sh, red], [vspec, wband], 1000,
                                 p.blowup_threshold,
                                 noise_draw(sh.noise, [ncfg], 1000),
                                 observers=[snaps, gap])
    assert (status, steps) == (["completed"], [1000])
    snaps_v, snaps_w = snaps.fields
    assert len(snaps_v) == len(snaps.times) == 1001
    assert diags["sup_diff"] == max(gaps)
    # rebuilt from the stored fields: rfft(irfft(v^)) is not v^ in the last
    # bit, so this agrees to rounding only
    posthoc_sup = max(
        float(np.max(np.abs(project(v, q1).values - w.values)))
        for v, w in zip(snaps_v[1:], snaps_w[1:]))
    assert diags["sup_diff"] == pytest.approx(posthoc_sup, rel=1e-12)
    for k_band in ("P0", "P2"):
        ref = _averaging_reference(snaps.times, snaps_v, nu, k_band,
                                   cfg.delta)
        assert diags["res_" + k_band.lower()] == pytest.approx(ref, rel=1e-12)


def test_attractivity_cell_matches_snapshot_composition(tmp_path):
    # the streamed off-band sup equals, bit for bit, max|irfft((1 - q1) v^)|
    # over the stored step spectra: every 10th step and the last, from the
    # skip time on.  The stored-snapshot composition agrees to rounding
    # only, since rfft(irfft(v^)) is not v^ in the last bit
    cfg = StudyConfig.for_study("attractivity", out_dir=str(tmp_path))
    grid = Grid.for_carrier(0.1, cfg.n_points, periods=cfg.periods)
    nu, seed = cfg.nu_list[0], 0
    (diags,) = STUDIES["attractivity"].run(
        cfg, [grid], [({"eps": 0.1, "nu": nu}, seed)])
    assert set(diags) == {"offband_sup", "offband_ratio"}
    assert diags["offband_ratio"] == diags["offband_sup"] / grid.eps

    ncfg, v0, p = _cell_inputs(cfg, grid, nu, seed)
    q1 = band_symbols(grid, cfg.delta).q1
    stepper = SHStepper([grid], [p], ncfg.intensity)
    n_steps = round(p.t_end / p.dt)
    specs = {}

    def keep(i, step_specs):
        if i % 10 == 0 or i == n_steps:
            specs[i * p.dt] = step_specs[0][0].copy()

    (status,), _, _ = integrate([stepper], [v0.spectrum()[None]], n_steps,
                                p.blowup_threshold,
                                noise_draw(stepper.noise, [ncfg], n_steps),
                                [keep])
    assert status == "completed"
    exact = max(np.max(np.abs(np.fft.irfft((1.0 - q1) * spec,
                                           n=grid.n_points)))
                for t, spec in specs.items()
                if t >= ATTRACTIVITY_SKIP * cfg.t_end)
    assert diags["offband_sup"] == exact

    status, snaps = simulate_snapshots(v0, p, ncfg, stride=10)
    assert status == "completed"
    assert snaps.times[1:] == list(specs)
    # simulate's result is this run's last step
    run = simulate(v0, p, ncfg)
    assert (run.status, run.time) == (status, snaps.times[-1])
    assert run.final.values.tobytes() == snaps.fields[0][-1].values.tobytes()
    sup = max((snap - project(snap, q1)).sup_norm()
              for t, snap in zip(snaps.times, snaps.fields[0])
              if t >= ATTRACTIVITY_SKIP * cfg.t_end)
    assert diags["offband_sup"] == pytest.approx(sup, rel=1e-12)


def test_attractivity_cell_stores_no_field(tmp_path):
    # one default attractivity cell (n=2048, 1000 steps) keeps one number
    # per sample, not the 101 snapshots a stride-10 run stores (1.9 MB); the
    # first call builds the band table and numpy's FFT plans, which are
    # kept for the process, so the second is measured
    peaks = {}
    for t_end in (1.0, 2.0):
        cfg = StudyConfig.for_study("attractivity", out_dir=str(tmp_path),
                                    t_end=t_end)
        assert (cfg.n_points, round(cfg.t_end / cfg.dt)) == (
            2048, round(1000 * t_end))
        cell = (cfg, [Grid.for_carrier(0.1, cfg.n_points, periods=cfg.periods)],
                [({"eps": 0.1, "nu": cfg.nu_list[0]}, 0)])
        run = STUDIES["attractivity"].run
        run(*cell)
        tracemalloc.start()
        try:
            run(*cell)
            peaks[t_end] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1.0] < 1e6
    # and the peak does not grow with the number of steps: twice the steps
    # add 100 samples, 1.6 MB as stored half-spectra, where the noise
    # blocks in flight move the peak by one noise block at most
    block = block_steps(1) * (cfg.n_points // 2 + 1) * 16
    assert peaks[2.0] < peaks[1.0] + block


def test_landau_estimate_recovers_pure_cubic_rate():
    fit = estimate_landau_coefficient(0.1, nu=0.0, n_points=2048)
    assert fit.c3 == pytest.approx(-3.0, rel=0.05)
    assert fit.c5 == 0.0
    assert fit.r_squared > 0.99


def test_landau_estimate_rejects_out_of_range_amplitude():
    with pytest.raises(ValueError):
        estimate_landau_coefficient(0.1, amplitude=0.8)


def test_streamed_fit_amplitudes_match_posthoc_demodulation():
    # the reference is the composition the fit streams: every stride-th
    # snapshot of the run (and the last), projected on P1, demodulated,
    # mean |A|, over the fit window less its one-sided edges
    eps, amplitude, window = 0.2, 0.2, 0.503
    fit = estimate_landau_coefficient(eps, (1.0, 0.0), variant="quintic",
                                      amplitude=amplitude, n_points=512,
                                      fit_window=window)
    grid = Grid.for_carrier(eps, n_points=512)
    t_skip = 10.0 * eps ** 2
    p = ModelParams("quintic", nu2=1.0, t_end=t_skip + window)
    n_steps = int(round(p.t_end / p.dt))
    stride = max(1, n_steps // 400)
    assert stride > 1 and n_steps % stride  # the last step is off-stride
    v0 = RealField(grid, 2.0 * amplitude * np.cos(grid.x / eps))
    status, snaps = simulate_snapshots(v0, p, stride=stride)
    assert status == "completed"
    q1 = band_symbols(grid, DELTA).q1
    amps = np.array([np.mean(np.abs(demodulate(project(s, q1), DELTA).values))
                     for s in snaps.fields[0]])
    ref = amps[np.asarray(snaps.times) >= t_skip][1:-1]
    assert len(fit.amplitudes) == ref.size
    np.testing.assert_allclose(fit.amplitudes, ref, rtol=1e-13, atol=0)


@pytest.mark.parametrize("n_points", [512, 1024])
@pytest.mark.parametrize("variant, nu", [("cubic", 0.5),
                                         ("quintic", (1.0, 0.5))])
def test_one_period_fit_matches_full_grid_composition(variant, nu, n_points):
    # the fit runs one carrier period; the reference runs all n_points / 16
    # of them.  A cubic nu feeds the even harmonics through nu/eps v^2, a
    # quintic nu3 adds v^3 to v^5
    eps, amplitude, window = 0.2, 0.2, 0.503
    fit = estimate_landau_coefficient(eps, nu, variant=variant,
                                      amplitude=amplitude, n_points=n_points,
                                      fit_window=window, r2_min=-np.inf)
    grid = Grid.for_carrier(eps, n_points=n_points)
    t_skip = 10.0 * eps ** 2
    coeffs = (dict(nu=nu) if variant == "cubic"
              else dict(nu2=nu[0], nu3=nu[1]))
    p = ModelParams(variant, t_end=t_skip + window, **coeffs)
    n_steps = int(round(p.t_end / p.dt))
    stride = max(1, n_steps // 400)
    v0 = RealField(grid, 2.0 * amplitude * np.cos(grid.x / eps))
    status, snaps = simulate_snapshots(v0, p, stride=stride)
    assert status == "completed"
    q1 = band_symbols(grid, DELTA).q1
    amps = np.array([np.mean(np.abs(demodulate(project(s, q1), DELTA).values))
                     for s in snaps.fields[0]])
    ref = amps[np.asarray(snaps.times) >= t_skip][1:-1]
    np.testing.assert_allclose(fit.amplitudes, ref, rtol=1e-13, atol=0)


@pytest.mark.parametrize("n_points", [0, -16, 8200, 1000])
def test_landau_estimate_rejects_n_points_off_the_period(n_points):
    # the one-period run stands for the long grid only at 16 points a period
    with pytest.raises(ValueError, match="multiple of 16"):
        estimate_landau_coefficient(0.1, n_points=n_points)


def test_carrier_amplitude_reads_the_carrier_mode():
    # on the fit's one-period grid the P1 band is the carrier mode alone,
    # with q1 = 1 there; a unit carrier mode is the amplitude 1/n
    grid = Grid.for_carrier(0.1, 16, periods=1)
    sym = band_symbols(grid, DELTA)
    m = grid.carrier_index
    assert sym.band == slice(m, m + 1) and sym.q1[m] == 1.0
    sampler = _CarrierAmplitude(m, grid.n_points, 1e-3, 1, 10)
    spec = np.zeros((2, grid.n_points // 2 + 1), dtype=np.complex128)
    spec[:, m] = 1.0, 2.0j
    sampler(1, [spec])
    assert sampler.amplitudes().tolist() == [[1.0 / grid.n_points,
                                              2.0 / grid.n_points]]
    assert sampler.times == [1e-3]


def test_quintic_fit_streams_its_samples_in_small_memory():
    # acceptance 3's quintic fit over a window of 0.5 at n = 8192; stored
    # snapshots of every step would take about 38 MB
    tracemalloc.start()
    try:
        fit = estimate_landau_coefficient(0.1, (0.0, 0.0), variant="quintic",
                                          amplitude=0.2, n_points=8192,
                                          fit_window=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.c5 == pytest.approx(-10.0, rel=0.1)
    assert peak < 8e6


def test_averaging_accumulator_rows_match_their_solo_accumulators():
    # rows of two eps and nu, fed together in blocks: each row's totals and
    # results have the bits of its own accumulator's
    grids = [Grid.for_carrier(eps, 256, periods=16) for eps in (0.2, 0.14)]
    nus = [0.5, -0.3]
    rng = np.random.default_rng(11)
    count = 2 * block_steps(2) + 3
    times = np.cumsum(rng.uniform(0.05, 1.0, count))
    n_modes = 3 * grids[0].carrier_index
    specs = np.zeros((count, 2, grids[0].n_points // 2 + 1), np.complex128)
    specs[..., :n_modes] = (rng.standard_normal((count, 2, n_modes))
                            + 1j * rng.standard_normal((count, 2, n_modes)))

    def feed(rows):
        diagnostics = paired_diagnostics([grids[r] for r in rows],
                                         [nus[r] for r in rows])
        size = diagnostics.size
        for start in range(0, count, size):
            _feed_block(diagnostics, times[start:start + size],
                        specs[start:start + size, rows])
        return ([total.tobytes() for total in diagnostics.total],
                _residuals_hex(diagnostics))

    together = feed([0, 1])
    alone = [feed([r]) for r in range(2)]
    assert together == tuple(sum(parts, []) for parts in zip(*alone))


def _top_integrand_mode(grid):
    """t1 + top - 2: the top mode of v1 times a P0 or P2 multiplier."""
    sym = band_symbols(grid, DELTA)
    return sum(int(np.flatnonzero(q)[-1]) + 1 for q in (sym.q1, sym.q2)) - 2


@pytest.mark.parametrize("eps", [0.2, 0.14, 0.1, 0.07, 0.05])
@pytest.mark.parametrize("n, periods", [(2048, 128), (512, 32), (576, 36)])
def test_averaging_grid_is_the_smallest_power_of_two_above_twice_the_top_mode(
        eps, n, periods):
    grid = Grid.for_carrier(eps, n, periods=periods)
    top_mode = _top_integrand_mode(grid)
    m = averaging_points(grid, DELTA)
    assert m & (m - 1) == 0 and m // 2 <= 2 * top_mode < m <= n
    assert paired_diagnostics([grid], [0.5]).m == m
    if (n, periods) == (2048, 128):
        # the default grid at every eps of the default ladder
        assert m == 1024


def test_averaging_grid_of_supports_reaching_a_quarter_of_the_grid_is_full():
    # 8 points a carrier period: the integrands reach past n/4, so their
    # samples need every point
    grid = Grid.for_carrier(0.2, 512, periods=64)
    assert 4 * _top_integrand_mode(grid) >= grid.n_points
    assert averaging_points(grid, DELTA) == 512
    assert paired_diagnostics([grid], [0.5]).m == 512


def test_averaging_accumulator_takes_the_largest_grid_of_its_rows():
    grids = [Grid.for_carrier(eps, 576, periods=36) for eps in (0.2, 0.05)]
    assert [averaging_points(g, DELTA) for g in grids] == [512, 256]
    assert paired_diagnostics(grids, [0.5, 0.5]).m == 512


@pytest.mark.parametrize("with_gl", [False, True], ids=["paired", "with-gl"])
@pytest.mark.parametrize("rows", [1, 3, 5])
def test_paired_block_holds_at_most_its_byte_cap(rows, with_gl):
    # every array of the paired job and the run's two live noise blocks of
    # a batch on the default grid stay within the cap, and a block of one
    # step more than the cap or block_steps allows would not; the default
    # theorem2 batch of 5 keeps its blocks of 4 steps
    grids = [Grid.for_carrier(eps, 2048, periods=128)
             for eps in DEFAULT_EPS_LADDER[:rows]]
    diagnostics = paired_diagnostics(grids, [0.5] * rows, with_gl)
    size, cap = diagnostics.size, PairedDiagnostics.BLOCK_BYTES
    cfgs = [NoiseConfig(seed=k, intensity=0.1) for k in range(rows)]
    noise = SHStepper(grids, [ModelParams(nu=0.5)] * rows, 0.1).noise
    noise_block = noise_draw(noise, cfgs, size, size=size)().base
    assert noise_block.shape[:2] == (rows, size)
    held = sum(a.nbytes for a in vars(diagnostics).values()
               if isinstance(a, np.ndarray))
    assert held + 2 * noise_block.nbytes == diagnostics.block_bytes(size)
    assert diagnostics.block_bytes(size) <= cap
    assert (size == block_steps(rows)
            or diagnostics.block_bytes(size + 1) > cap)
    if rows == 5 and not with_gl:
        assert size == 4


def test_attractivity_batch_rows_match_their_cells_alone(tmp_path):
    # cells of two eps, two nu and two seeds stepped as one batch, with the
    # off-band observer on all rows: the diagnostics of each cell alone
    cfg = StudyConfig.for_study("attractivity", out_dir=str(tmp_path),
                                eps_list=(0.2, 0.1), nu_list=(0.5, 0.3),
                                n_seeds=2, n_points=512, periods=32,
                                t_end=0.1)
    cells = study_cells(cfg)
    grids = [Grid.for_carrier(params["eps"], 512, periods=32)
             for params, _ in cells]
    run = STUDIES["attractivity"].run
    batch = run(cfg, grids, cells)
    alone = [run(cfg, [g], [cell])[0] for g, cell in zip(grids, cells)]
    assert len(batch) == 8
    assert ([{k: v.hex() for k, v in d.items()} for d in batch]
            == [{k: v.hex() for k, v in d.items()} for d in alone])
