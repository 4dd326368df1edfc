import numpy as np
import pytest

from shmod import Grid, ModelParams, NoiseConfig, RealField, integrate
from shmod.analysis import PairedDiagnostics
from shmod.bands import band_symbols
from shmod.operators import _horner
from shmod.reduced import GL_DIFFUSION, GLStepper, ReducedStepper
from shmod.sh import SHStepper, etd_multipliers, noise_draw


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


class FullGridReference:
    """Per-step reference for the diagnostics of a batch of one of
    ``simulate_paired`` by the n-point arithmetic of shmod 0.10.0, one step
    at a time on the calling thread, with no batched transform: on step i,
    with v1 = irfft(q1 v^) and w the band stepper's ``values``, sup_diff is
    the running max of |v1 - w| over the steps i >= 1, sup_diff_gl, if the
    band's modes A^ of a GL amplitude follow, that of ``gl_gap(E, A^)``
    with E the band slice of w, and the averaging integrands

        f = v1 * irfft(q_k/eps v^ + nu inv_k rfft(v1^2)),  k = 0, 2,

    are summed by the trapezoid rule from step 0 on, all on the n grid.
    Call it on step 0 first, then pass it to ``integrate``."""

    def __init__(self, red, grid: Grid, nu: float, delta: float, dt: float):
        sym, eps = band_symbols(grid, delta), grid.eps
        self.red, self.n, self.dt = red, grid.n_points, dt
        self.q1 = sym.q1
        self.qk_eps = np.array([sym.q0 / eps, sym.q2 / eps])
        self.nu_inv = np.array([nu * sym.inv0, nu * sym.inv2])
        self.sup_diff = self.sup_diff_gl = 0.0
        self.gl = False
        self.total = np.zeros((2, self.n))
        self.last = None

    def gap(self, vspec, v1, E) -> float:
        w = self.red.values(E)[0]
        return float(np.max(np.abs(v1 - w)))

    def __call__(self, i, specs):
        vspec = specs[0][0][: self.q1.size]
        v1 = np.fft.irfft(self.q1 * vspec, n=self.n)
        if i:
            self.sup_diff = max(self.sup_diff, self.gap(vspec, v1, specs[1]))
        self.gl = len(specs) > 2
        if i and self.gl:
            self.sup_diff_gl = max(self.sup_diff_gl,
                                   self.gl_gap(specs[1][0], specs[2][0]))
        sq = np.fft.rfft(v1 * v1)
        f = v1 * np.fft.irfft(self.qk_eps * vspec + self.nu_inv * sq,
                              n=self.n)
        t = i * self.dt
        if self.last is not None:
            self.total += (0.5 * (t - self.last[0])) * (self.last[1] + f)
        self.last = t, f

    @staticmethod
    def gl(red, grids, coeffs, dt: float, intensity: float, E):
        """The GL stepper of a paired run of ``red``'s rows on ``grids``,
        whose spectra ``gl_gap`` reads, and its initial spectra from the
        band slice E."""
        return GLStepper(grids, coeffs, dt, intensity, red.band, red.q1), E

    def gl_gap(self, E, A) -> float:
        """max |demod(w) - A| over the n grid: the n-point ifft of E - A^
        placed on the band slice, a new array for each product."""
        red = self.red
        spec = np.zeros(red.band.stop, np.complex128)
        spec[red.band] = E - A
        return float(np.max(np.abs(np.fft.ifft(spec, n=red.n))))

    def totals(self) -> np.ndarray:
        """The P0 and the P2 integral on the n grid."""
        return self.total

    def results(self) -> tuple:
        """sup_diff, res_p0 and res_p2, and sup_diff_gl after GL spectra."""
        return ((self.sup_diff,) + tuple(float(np.max(np.abs(total)))
                                         for total in self.totals())
                + (self.sup_diff_gl,) * self.gl)


class PairedReference(FullGridReference):
    """``FullGridReference`` by the arithmetic of ``simulate_paired``: the
    gap is irfft(q1 v^ - w^) on the band slice, and the integrands are
    sampled on the m = ``PairedDiagnostics.m`` points of the smallest
    power-of-two grid above twice their top mode, with the factor m/n in
    q1 and q_k/eps; the totals are interpolated to the n grid, their mode
    m/2 dropped, if m < n."""

    def __init__(self, red, grid: Grid, nu: float, delta: float, dt: float):
        super().__init__(red, grid, nu, delta, dt)
        sym = band_symbols(grid, delta)
        t1, top = (int(np.flatnonzero(q)[-1]) + 1 for q in (sym.q1, sym.q2))
        self.full = self.n
        self.n = min(self.full, 1 << (2 * (t1 + top - 2)).bit_length())
        scale, h = self.n / self.full, self.n // 2 + 1
        self.q1 = scale * sym.q1[:h]
        self.qk_eps = scale * self.qk_eps[:, :h]
        self.nu_inv = self.nu_inv[:, :h]
        self.total = np.zeros((2, self.n))

    def gap(self, vspec, v1, E) -> float:
        red = self.red
        diff = red.half_spectrum(red.q1 * vspec[None, red.band] - E)
        return float(np.max(np.abs(np.fft.irfft(diff[0], n=self.full))))

    def totals(self) -> np.ndarray:
        if self.n == self.full:
            return self.total
        spec = np.fft.rfft(self.total)
        spec[:, -1] = 0.0
        return np.fft.irfft(spec * (self.full / self.n), n=self.full)


def amplitude_spectrum(E: np.ndarray, n: int) -> np.ndarray:
    """The n-point fft of A, w = A e^{iX/eps} + c.c., from the rows of the
    P1 slice ``E = wspec[band]`` of w's half-spectrum (``BandSymbols.band``):
    mode m+j of w is mode j of A, the other modes zero."""
    b = E.shape[-1] // 2
    out = np.zeros((*E.shape[:-1], n), np.complex128)
    out[..., : b + 1] = E[..., b:]
    out[..., n - b:] = E[..., :b]
    return out


def dealiased_powers_complex(spec: np.ndarray, n: int, coeffs: dict,
                             pad_factor: int) -> np.ndarray:
    """Full spectra of sum_e coeffs[e] A |A|^(e-1) for the complex rows A
    of ``spec``, e in {3, 5}, on the ``pad_factor·n`` point grid."""
    n_pad, half = pad_factor * n, n // 2
    zeros = np.zeros((*spec.shape[:-1], n_pad - n))
    padded = np.concatenate([spec[..., :half], zeros, spec[..., half:]],
                            axis=-1)
    ap = np.fft.ifft(padded) * (n_pad / n)
    abs2 = ap.real * ap.real + ap.imag * ap.imag
    gain = _horner(abs2, {(e - 1) // 2: c for e, c in coeffs.items()})
    ws = np.fft.fft(ap * gain) * (n / n_pad)
    return np.concatenate([ws[..., :half], ws[..., n_pad - half:]], axis=-1)


class FullGridGLStepper:
    """The Ginzburg-Landau step of a paired run on all n modes of A, in fft
    order, as shmod 0.12.0 took it: ETD2RK with the powers dealiased on the
    2n (cubic) or 3n (quintic) point grid, driven by ``q1·raw`` of the band
    slice scattered onto A's modes.  Its spectra start from
    ``amplitude_spectrum(E, n)``."""

    def __init__(self, red, grids, coeffs, dt: float, intensity: float):
        self.red, self.n = red, red.n
        quintic = coeffs[0].quintic
        lam = -GL_DIFFUSION * np.array([g.wavenumbers for g in grids]) ** 2
        self.decay, self.phi1dt, self.noise_scale = etd_multipliers(
            grids, lam, [dt] * len(grids), intensity)
        z = lam * dt
        small = np.abs(z) < 1e-6
        zs = np.where(small, 1.0, z)
        self.phi2dt = dt * np.where(small, 0.5 + z / 6.0,
                                    (np.expm1(zs) - zs) / zs ** 2)
        cubic = np.array([[c.cubic] for c in coeffs])
        self.coeffs = {e: c for e, c in {3: cubic, 5: quintic}.items()
                       if np.any(c)} or {3: cubic}
        self.pad = 2 if quintic == 0.0 else 3
        self.bound_scale = 1.0 / self.n

    def nonlinearity(self, aspec):
        return dealiased_powers_complex(aspec, self.n, self.coeffs, self.pad)

    def step_spec(self, aspec, raw):
        n1 = self.nonlinearity(aspec)
        a1 = self.decay * aspec + self.phi1dt * n1
        out = a1 + self.phi2dt * (self.nonlinearity(a1) - n1)
        if raw is not None and self.noise_scale is not None:
            red = self.red
            out = out + amplitude_spectrum(red.q1 * raw[:, red.band],
                                           self.n) * self.noise_scale
        return out

    def values(self, aspec):
        return np.fft.ifft(aspec)


class FullGridGLReference(PairedReference):
    """``PairedReference`` for the GL spectra of a ``FullGridGLStepper``:
    sup_diff_gl is the running max of |ifft(amplitude_spectrum(E)) -
    ifft(A^)| over the n grid."""

    @staticmethod
    def gl(red, grids, coeffs, dt: float, intensity: float, E):
        return (FullGridGLStepper(red, grids, coeffs, dt, intensity),
                amplitude_spectrum(E, red.n))

    def gl_gap(self, E, A) -> float:
        demod = np.fft.ifft(amplitude_spectrum(E, self.full))
        return float(np.max(np.abs(demod - np.fft.ifft(A))))


def paired_diagnostics(grids, nus, with_gl: bool = False,
                       delta: float = 0.125) -> PairedDiagnostics:
    """The ``PairedDiagnostics`` of ``simulate_paired`` for a batch of cubic
    rows on ``grids`` with the nu of ``nus``."""
    band = ReducedStepper(grids, [ModelParams(nu=nu) for nu in nus], 0.0,
                          delta).band
    return PairedDiagnostics(grids, nus, band, 1e-3, delta, with_gl)


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
