"""Discrete space-time white noise and exact Ornstein-Uhlenbeck mode updates.

Transform convention (pinned by tests): white noise has i.i.d. N(0, dt/dx)
samples per grid point, so each fft coefficient is Gaussian with
E|xi_k|^2 = n * dt / dx = n^2 * dt / length.  All per-mode variances below
derive from that single identity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, RealField
from .operators import symbol_L_eps


@dataclass(frozen=True)
class NoiseConfig:
    seed: int
    intensity: float = 1.0
    stream_id: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.intensity < 0:
            raise ValueError("intensity must be non-negative")

    def make_rng(self) -> np.random.Generator:
        """Counter-based Philox stream; (seed, stream_id) keys are independent."""
        ss = np.random.SeedSequence(entropy=self.seed,
                                    spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.Philox(ss))

    def substream(self, stream_id: int) -> "NoiseConfig":
        return NoiseConfig(seed=self.seed, intensity=self.intensity,
                           stream_id=stream_id)


def spectral_variance_rate(grid: Grid, intensity: float = 1.0) -> float:
    """Per-mode variance growth rate of the fft'd cylindrical Wiener process."""
    return intensity ** 2 * grid.n_points ** 2 / grid.length


def ou_increment_variance(lam, dt: float):
    """Variance factor (e^{2 lam dt} - 1) / (2 lam) of an exact OU step.

    Continuous at lam = 0, where the factor is dt (Brownian limit); a series
    branch keeps tiny |lam*dt| exact.
    """
    lam = np.asarray(lam, dtype=np.float64)
    if np.any(lam > 0):
        raise ValueError("OU rates must be non-positive")
    if dt <= 0:
        raise ValueError("dt must be positive")
    x = 2.0 * lam * dt
    small = np.abs(x) < 1e-8
    out = np.where(small, dt * (1.0 + 0.5 * x),
                   np.expm1(np.where(small, 0.0, x)) / np.where(small, 1.0, 2.0 * lam))
    return out if out.ndim else float(out)


class SpectralNoise:
    """Per-step spectral noise shared between paired solvers.

    ``raw(rng)`` returns the rfft of n i.i.d. standard normals and
    ``raw_complex(rng)`` the fft of n i.i.d. complex normals with unit total
    variance (half in re, half in im), so E|g_k|^2 = n for every mode of
    either; an exact OU increment for rates ``lam`` is
    g * ou_scale(lam, dt) = g * sqrt(unit * ou_increment_variance(lam, dt) / n).
    With a ``lead`` shape both return that many draws stacked, bit for bit
    the draws of as many sequential calls, and leave ``rng`` where those would;
    with ``out`` they write them there.
    """

    def __init__(self, grid: Grid, intensity: float = 1.0):
        self.grid = grid
        self.unit = spectral_variance_rate(grid, intensity)

    def raw(self, rng: np.random.Generator, lead: tuple = (),
            out: np.ndarray | None = None) -> np.ndarray:
        return np.fft.rfft(rng.standard_normal((*lead, self.grid.n_points)),
                           out=out)

    def raw_complex(self, rng: np.random.Generator, lead: tuple = (),
                    out: np.ndarray | None = None) -> np.ndarray:
        z = rng.standard_normal((*lead, 2, self.grid.n_points))
        return np.fft.fft((z[..., 0, :] + 1j * z[..., 1, :]) / np.sqrt(2.0),
                          out=out)

    def ou_scale(self, lam: np.ndarray, dt: float) -> np.ndarray:
        return np.sqrt(self.unit * ou_increment_variance(lam, dt)
                       / self.grid.n_points)


def stochastic_convolution_sample(grid: Grid, T: float,
                                  cfg: NoiseConfig) -> RealField:
    """Single exact draw of W_{L_eps}(T) (one OU step from zero)."""
    rng = cfg.make_rng()
    src = SpectralNoise(grid, cfg.intensity)
    lam = symbol_L_eps(grid.rfft_wavenumbers, grid.eps)
    return RealField.from_spectrum(grid, src.raw(rng) * src.ou_scale(lam, T))
