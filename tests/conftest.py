import numpy as np
import pytest

from shmod import Grid, ModelParams, NoiseConfig, RealField, integrate
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
    ``len(initial)`` fields on every ``stride``-th step and the last, with
    their times; ``fields[k]`` starts from ``initial[k]`` at time 0."""

    def __init__(self, initial, dt: float, stride: int, n_steps: int):
        self.dt, self.stride, self.n_steps = dt, stride, n_steps
        self.times = [0.0]
        self.fields = [[f] for f in initial]

    def __call__(self, i, specs, values):
        if i % self.stride == 0 or i == self.n_steps:
            self.times.append(i * self.dt)
            for snaps, vals in zip(self.fields, values):
                snaps.append(type(snaps[0])(snaps[0].grid, vals))


def simulate_snapshots(v0: RealField, p: ModelParams,
                       cfg: NoiseConfig | None = None, stride: int = 1):
    """The run of ``simulate(v0, p, cfg)`` with every ``stride``-th step and
    the last stored: its status and its ``Snapshots``."""
    stepper = SHStepper(v0.grid, p, cfg.intensity if cfg is not None else 0.0)
    n_steps = int(round(p.t_end / p.dt))
    snaps = Snapshots([v0], p.dt, stride, n_steps)
    status, _, _ = integrate([stepper], [v0.spectrum()], n_steps,
                             p.blowup_threshold,
                             noise_draw(stepper.noise, cfg, n_steps), [snaps])
    return status, snaps
