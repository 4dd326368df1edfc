"""The averaged band equation for w and the limiting stochastic
Ginzburg-Landau amplitude equation.

Band equation (cubic case):
    dw/dT = L_eps w - 2 nu^2 P1[w * inv (P0+P2) w^2] - P1 w^3 + dW1/dT
where inv is eps^-2 L_eps^-1 (a bounded multiplier on the P0/P2 bands) and
W1 = P1 W.  The quintic case replaces the polynomial part by
+ nu3 P1 w^3 - P1 w^5 with the same quadratic correction (nu2 in place of nu).

Amplitude equation:
    dA/dT = 4 A_XX + cubic * |A|^2 A + quintic * |A|^4 A + eta
with cubic = -(3 - 38/9 nu^2) (cubic case) or +(3 nu3 + 38/9 nu2^2) and
quintic = -10 (quintic case).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import AveragingAccumulator
from .bands import DEFAULT_DELTA, band_symbols, demodulate_spectrum
from .grid import ComplexField, Grid, RealField
from .noise import NoiseConfig, SpectralNoise
from .operators import (_horner, _pad_to_physical, _truncate_to_spec,
                        dealiased_powers_complex)
from .sh import (CUBIC, ModelParams, SHStepper, Snapshots, Trajectory, _phi1,
                 integrate, noise_draw)

GL_DIFFUSION = 4.0
GL_QUINTIC = -10.0


@dataclass(frozen=True)
class GLCoefficients:
    cubic: float
    quintic: float = 0.0
    diffusion: float = GL_DIFFUSION
    noise_intensity: float = 1.0

    def __post_init__(self):
        if self.diffusion != GL_DIFFUSION:
            raise ValueError("the amplitude equation has diffusion constant 4")


def gl_coefficients(nu: float, noise_intensity: float = 1.0) -> GLCoefficients:
    """Cubic-case amplitude coefficients: multiplier of |A|^2 A is -(3 - 38/9 nu^2)."""
    return GLCoefficients(cubic=-(3.0 - 38.0 / 9.0 * nu ** 2),
                          quintic=0.0, noise_intensity=noise_intensity)


def gl5_coefficients(nu2: float, nu3: float,
                     noise_intensity: float = 1.0) -> GLCoefficients:
    """Quintic-case coefficients: +(3 nu3 + 38/9 nu2^2) |A|^2 A - 10 |A|^4 A."""
    return GLCoefficients(cubic=3.0 * nu3 + 38.0 / 9.0 * nu2 ** 2,
                          quintic=GL_QUINTIC, noise_intensity=noise_intensity)


# -- reduced band equation ---------------------------------------------------

class ReducedStepper:
    """ETD1 step of the averaged band equation, sharing the SH noise layout."""

    def __init__(self, grid: Grid, p: ModelParams, intensity: float = 1.0,
                 delta: float = DEFAULT_DELTA):
        if abs(grid.eps - p.eps) > 1e-9 * p.eps:
            raise ValueError("grid carrier does not match params.eps")
        self.grid = grid
        sym = band_symbols(grid, p.eps, delta)
        self.decay = np.exp(sym.lam * p.dt)
        self.phi1dt = p.dt * _phi1(sym.lam * p.dt)
        self.q1 = sym.q1
        # P0 and P2 have disjoint supports, so this is inv0 or inv2 per mode
        self.inv02 = sym.inv0 + sym.inv2
        self.noise = SpectralNoise(grid, intensity)
        self.noise_scale = (self.noise.ou_scale(sym.lam, p.dt) * self.q1
                            if intensity > 0 else None)
        # padding by 3 is alias-free for w^5 and for the quadratic correction
        if p.variant == CUBIC:
            self.pad, self.coeffs, nu_q = 2, {3: -1.0}, p.nu
        else:
            self.pad, self.coeffs, nu_q = 3, {3: p.nu3, 5: -1.0}, p.nu2
        self.corr = -2.0 * nu_q * nu_q

    def _padded_correction(self, wp: np.ndarray) -> np.ndarray:
        """-2 nu^2 w * eps^-2 L_eps^-1 (P0+P2) w^2 on the fine grid of ``wp``."""
        n = self.grid.n_points
        w2 = _truncate_to_spec(wp * wp, n)
        return self.corr * wp * _pad_to_physical(self.inv02 * w2, n, wp.size)

    def drift(self, wspec: np.ndarray) -> np.ndarray:
        """P1 of the band polynomial plus the quadratic correction: w padded
        once, one truncating FFT for the whole sum (4 FFTs, 2 if nu = 0)."""
        n = self.grid.n_points
        wp = _pad_to_physical(wspec, n, self.pad * n)
        total = _horner(wp, self.coeffs)
        if self.corr != 0.0:
            total += self._padded_correction(wp)
        return self.q1 * _truncate_to_spec(total, n)

    def step_spec(self, wspec: np.ndarray, raw: np.ndarray | None) -> np.ndarray:
        out = self.decay * wspec + self.phi1dt * self.drift(wspec)
        if raw is not None and self.noise_scale is not None:
            out = out + raw * self.noise_scale
        return out

    def values(self, wspec: np.ndarray) -> np.ndarray:
        return np.fft.irfft(wspec, n=self.grid.n_points)


def simulate_reduced(w0: RealField, p: ModelParams, cfg: NoiseConfig | None = None,
                     delta: float = DEFAULT_DELTA,
                     snapshot_stride: int = 10) -> Trajectory:
    intensity = cfg.intensity if cfg is not None else 0.0
    stepper = ReducedStepper(w0.grid, p, intensity, delta)
    n_steps = int(round(p.t_end / p.dt))
    snaps = Snapshots([w0], p.dt, snapshot_stride, n_steps)
    status = integrate([stepper], [w0.spectrum()], n_steps,
                       p.blowup_threshold, noise_draw(stepper.noise, cfg),
                       [snaps])
    return snaps.trajectory(0, status)


# -- Ginzburg-Landau solver --------------------------------------------------

class GLStepper:
    """ETD2RK step of the amplitude equation on a periodic grid.

    Second order on the deterministic part (the Riccati oracle needs it);
    noise is an exact per-mode OU increment added after the deterministic
    update.
    """

    def __init__(self, grid: Grid, c: GLCoefficients, dt: float):
        self.grid = grid
        self.dt = dt
        K = grid.wavenumbers
        lam = -c.diffusion * K ** 2
        self.decay = np.exp(lam * dt)
        z = lam * dt
        self.phi1dt = dt * _phi1(z)
        small = np.abs(z) < 1e-6
        zs = np.where(small, 1.0, z)
        phi2 = np.where(small, 0.5 + z / 6.0, (np.expm1(zs) - zs) / zs ** 2)
        self.phi2dt = dt * phi2
        self.noise = SpectralNoise(grid, c.noise_intensity)
        self.noise_scale = self.noise.ou_scale(lam, dt)
        self.coeffs = {3: c.cubic} if c.quintic == 0.0 else {3: c.cubic, 5: c.quintic}
        self.pad = 2 if c.quintic == 0.0 else 3

    def nonlinearity(self, aspec: np.ndarray) -> np.ndarray:
        return dealiased_powers_complex(aspec, self.grid.n_points,
                                        self.coeffs, self.pad)

    def step_spec(self, aspec: np.ndarray, raw: np.ndarray | None) -> np.ndarray:
        n1 = self.nonlinearity(aspec)
        a1 = self.decay * aspec + self.phi1dt * n1
        out = a1 + self.phi2dt * (self.nonlinearity(a1) - n1)
        if raw is not None:
            out = out + raw * self.noise_scale
        return out

    def values(self, aspec: np.ndarray) -> np.ndarray:
        return np.fft.ifft(aspec)


def simulate_gl(A0: ComplexField, c: GLCoefficients, dt: float, t_end: float,
                cfg: NoiseConfig | None = None, snapshot_stride: int = 10,
                blowup_threshold: float = 1e4) -> Trajectory:
    stepper = GLStepper(A0.grid, c, dt)
    draw = None
    if cfg is not None and c.noise_intensity > 0:
        rng = cfg.make_rng()

        def draw():
            return stepper.noise.raw_complex(rng)

    n_steps = int(round(t_end / dt))
    snaps = Snapshots([A0], dt, snapshot_stride, n_steps)
    status = integrate([stepper], [A0.spectrum()], n_steps, blowup_threshold,
                       draw, [snaps])
    return snaps.trajectory(0, status)


# -- paired runs for the approximation studies -------------------------------

@dataclass
class PairedResult:
    traj_v: Trajectory
    traj_w: Trajectory
    sup_diff: float                      # sup_T ||P1 v - w||_inf
    res_p0: float                        # averaging residuals of v, every step
    res_p2: float
    res_change: tuple                    # (P0, P2) change under stride halving
    sup_diff_gl: float | None = None     # sup_T ||demod(w) - A||_inf
    status: str = "completed"


def _amplitude_spectrum(rspec: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectrum of the amplitude A of a P1-limited real field
    w = A e^{iX/eps} + c.c., from the rfft half-spectrum of w."""
    n = grid.n_points
    full = np.empty(n, dtype=np.complex128)
    full[: n // 2 + 1] = rspec
    full[n // 2 + 1:] = np.conj(rspec[1: n // 2][::-1])
    return demodulate_spectrum(full, grid.carrier_index)


class _BandGLStepper(GLStepper):
    """GL stepper driven by the shared real draw: the amplitude of its P1
    band, q1 raw."""

    def __init__(self, grid: Grid, c: GLCoefficients, dt: float,
                 q1: np.ndarray):
        super().__init__(grid, c, dt)
        self.q1 = q1

    def step_spec(self, aspec: np.ndarray, raw: np.ndarray | None) -> np.ndarray:
        if raw is not None:
            raw = _amplitude_spectrum(self.q1 * raw, self.grid)
        return super().step_spec(aspec, raw)


class _RunningMax:
    """Observer keeping the largest ``gap(specs, values)`` over the steps."""

    def __init__(self, gap):
        self.gap = gap
        self.value = 0.0

    def __call__(self, i, specs, values):
        self.value = max(self.value, self.gap(specs, values))


class _BandObserver:
    """sup_T ||P1 v - w||_inf and the averaging integrals of v over every
    step, both from one transform v1 = irfft(q1 v) per step."""

    def __init__(self, averaging: AveragingAccumulator, dt: float):
        self.averaging, self.dt = averaging, dt
        self.sup_diff = 0.0

    def __call__(self, i, specs, values):
        acc = self.averaging
        v1 = np.fft.irfft(acc.q1 * specs[0], n=acc.n)
        self.sup_diff = max(self.sup_diff, float(np.max(np.abs(v1 - values[1]))))
        acc.add(i * self.dt, specs[0], v1)


def simulate_paired(v0: RealField, p: ModelParams, cfg: NoiseConfig,
                    delta: float = DEFAULT_DELTA, snapshot_stride: int = 10,
                    with_gl: bool = False) -> PairedResult:
    """Drive the full equation and the band equation with one noise path.

    w starts from P1 v0.  If ``with_gl`` is set, a Ginzburg-Landau amplitude
    on the same grid is driven by the demodulated P1 noise band (same white
    realization, each mode with its own exact OU variance) and compared
    against the demodulated w.  The averaging residuals of v (see
    ``analysis.averaging_residual``, with nu2 for the quintic variant) are
    integrated over every step as the run goes.
    """
    grid = v0.grid
    sh = SHStepper(grid, p, cfg.intensity)
    red = ReducedStepper(grid, p, cfg.intensity, delta)
    vspec = v0.spectrum()
    wspec = red.q1 * vspec
    steppers, specs = [sh, red], [vspec, wspec]
    averaging = AveragingAccumulator(
        grid, p.eps, p.nu if p.variant == CUBIC else p.nu2, delta)
    averaging.add(0.0, vspec)
    band = _BandObserver(averaging, p.dt)
    observers = [band]
    if with_gl:
        c = (gl_coefficients(p.nu, cfg.intensity) if p.variant == CUBIC
             else gl5_coefficients(p.nu2, p.nu3, cfg.intensity))
        steppers.append(_BandGLStepper(grid, c, p.dt, red.q1))
        specs.append(_amplitude_spectrum(wspec, grid))
        sup_diff_gl = _RunningMax(lambda specs, vals: float(np.max(np.abs(
            np.fft.ifft(_amplitude_spectrum(specs[1], grid)) - vals[2]))))
        observers.append(sup_diff_gl)
    n_steps = int(round(p.t_end / p.dt))
    snaps = Snapshots([v0, RealField.from_spectrum(grid, wspec)], p.dt,
                      snapshot_stride, n_steps)
    status = integrate(steppers, specs, n_steps, p.blowup_threshold,
                       noise_draw(sh.noise, cfg), observers + [snaps])
    (res_p0, change_p0), (res_p2, change_p2) = averaging.results()
    return PairedResult(traj_v=snaps.trajectory(0, status),
                        traj_w=snaps.trajectory(1, status),
                        sup_diff=band.sup_diff, res_p0=res_p0, res_p2=res_p2,
                        res_change=(change_p0, change_p2),
                        sup_diff_gl=sup_diff_gl.value if with_gl else None,
                        status=status)
