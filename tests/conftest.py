import numpy as np
import pytest

from shmod import Grid, ModelParams, NoiseConfig, RealField, integrate
from shmod.bands import band_symbols
from shmod.operators import _horner
from shmod.sh import SHStepper, noise_draw


@pytest.fixture
def grid() -> Grid:
    """Small grid at eps = 0.1 for fast unit tests."""
    return Grid.for_carrier(0.1, 1024, periods=64)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def random_field(grid, rng) -> RealField:
    return RealField(grid, rng.standard_normal(grid.n_points))


class Snapshots:
    """Observer for ``integrate`` keeping the grid values of the first
    ``len(initial)`` fields of a batch of one, ``steppers[k].values`` of
    their spectra, on every ``stride``-th step and the last, with their
    times; ``fields[k]`` starts from ``initial[k]`` at time 0."""

    def __init__(self, steppers, initial, dt: float, stride: int,
                 n_steps: int):
        self.steppers = steppers
        self.dt, self.stride, self.n_steps = dt, stride, n_steps
        self.times = [0.0]
        self.fields = [[f] for f in initial]

    def __call__(self, i, specs):
        if i % self.stride == 0 or i == self.n_steps:
            self.times.append(i * self.dt)
            for snaps, stepper, spec in zip(self.fields, self.steppers, specs):
                snaps.append(type(snaps[0])(snaps[0].grid,
                                            stepper.values(spec)[0]))


class PairedReference:
    """Per-step reference for the diagnostics of a batch of one of
    ``simulate_paired``, one step at a time on the calling thread, with no
    batched transform: on
    step i, with
    v1 = irfft(q1 v^) and w the band stepper's ``values``, sup_diff is the
    running max of |v1 - w| over the steps i >= 1, and the averaging
    integrands

        f = v1 * irfft(q_k/eps v^ + nu inv_k rfft(v1^2)),  k = 0, 2,

    are summed by the trapezoid rule from step 0 on.  Call it on step 0
    first, then pass it to ``integrate``."""

    def __init__(self, red, grid: Grid, nu: float, delta: float, dt: float):
        sym, eps = band_symbols(grid, delta), grid.eps
        self.red, self.n, self.dt = red, grid.n_points, dt
        self.q1 = sym.q1
        self.qk_eps = np.array([sym.q0 / eps, sym.q2 / eps])
        self.nu_inv = np.array([nu * sym.inv0, nu * sym.inv2])
        self.sup_diff = 0.0
        self.total = np.zeros((2, self.n))
        self.last = None

    def __call__(self, i, specs):
        vspec = specs[0][0]
        v1 = np.fft.irfft(self.q1 * vspec, n=self.n)
        if i:
            w = self.red.values(specs[1])[0]
            self.sup_diff = max(self.sup_diff, float(np.max(np.abs(v1 - w))))
        sq = np.fft.rfft(v1 * v1)
        f = v1 * np.fft.irfft(self.qk_eps * vspec + self.nu_inv * sq,
                              n=self.n)
        t = i * self.dt
        if self.last is not None:
            self.total += (0.5 * (t - self.last[0])) * (self.last[1] + f)
        self.last = t, f

    def results(self) -> tuple[float, float, float]:
        """sup_diff, res_p0 and res_p2."""
        return (self.sup_diff,) + tuple(float(np.max(np.abs(total)))
                                        for total in self.total)


def band_step_reference(red, E: np.ndarray, raw) -> np.ndarray:
    """``red.step_spec(E, raw)`` by the arithmetic of a band stepper with no
    work arrays: each product and transform a new array, the multipliers
    real, in the operand order of ``ReducedStepper``, for every row."""
    a = np.fft.ifft(E, n=red.ne)
    abs2 = a.real * a.real + a.imag * a.imag
    g = _horner(abs2, red.poly)
    if red.inv_b is not None:
        squares = np.stack((2.0 * abs2, a * a), axis=1)
        b = np.fft.ifft(red.inv_b.real * np.fft.fft(squares))
        g = a * (g + b[:, 0]) + a.conj() * b[:, 1]
    else:
        g = a * g
    drift = red.gain.real * np.fft.fft(g)[:, : E.shape[-1]]
    out = red.decay.real * E + red.phi1dt.real * drift
    if raw is not None and red.noise_scale is not None:
        out = out + raw[:, red.band] * red.noise_scale.real
    return out


def simulate_snapshots(v0: RealField, p: ModelParams,
                       cfg: NoiseConfig | None = None, stride: int = 1):
    """The run of ``simulate(v0, p, cfg)`` with every ``stride``-th step and
    the last stored: its status and its ``Snapshots``."""
    stepper = SHStepper([v0.grid], [p],
                        cfg.intensity if cfg is not None else 0.0)
    n_steps = int(round(p.t_end / p.dt))
    snaps = Snapshots([stepper], [v0], p.dt, stride, n_steps)
    draw = noise_draw(stepper.noise, None if cfg is None else [cfg], n_steps)
    (status,), _, _ = integrate([stepper], [v0.spectrum()[None]], n_steps,
                                p.blowup_threshold, draw, [snaps])
    return status, snaps
