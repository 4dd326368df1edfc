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
from .bands import DEFAULT_DELTA, amplitude_spectrum, band_symbols
from .grid import ComplexField, Grid, RealField
from .noise import NoiseConfig, SpectralNoise
from .operators import _horner, dealiased_powers_complex
from .sh import (BLOCK, CUBIC, ModelParams, RunResult, SHStepper, _phi1,
                 integrate, noise_draw, run_on_worker, spectral_l2_bound,
                 step_count)

GL_DIFFUSION = 4.0
GL_QUINTIC = -10.0


@dataclass(frozen=True)
class GLCoefficients:
    cubic: float
    quintic: float = 0.0


def gl_coefficients(nu: float) -> GLCoefficients:
    """Cubic-case amplitude coefficients: multiplier of |A|^2 A is -(3 - 38/9 nu^2)."""
    return GLCoefficients(cubic=-(3.0 - 38.0 / 9.0 * nu ** 2))


def gl5_coefficients(nu2: float, nu3: float) -> GLCoefficients:
    """Quintic-case coefficients: +(3 nu3 + 38/9 nu2^2) |A|^2 A - 10 |A|^4 A."""
    return GLCoefficients(cubic=3.0 * nu3 + 38.0 / 9.0 * nu2 ** 2,
                          quintic=GL_QUINTIC)


# -- reduced band equation ---------------------------------------------------

class ReducedStepper:
    """ETD1 step of the averaged band equation on the envelope of w.

    The band equation keeps w = P1 w: w0 = P1 v0 and both its drift and its
    noise carry the factor q1.  So the state is the P1 slice of the rfft
    half-spectrum, ``E = wspec[band]`` with ``band = m-b .. m+b`` around the
    carrier index m, and w = A e^{iX/eps} + c.c. where the amplitude A has
    the modes -b .. b of E.  Sorting w^3, w^5 and w inv02 w^2 by powers of
    the carrier gives, on the band,

        P1 w^3 = q1 3|A|^2 A,    P1 w^5 = q1 10|A|^4 A,
        P1 [w inv02 w^2] = q1 (A B0 + conj(A) B2),

    with B0 = inv0 (2|A|^2) and B2 = inv2 (A^2), inv2 taken at the modes
    2m + j of A^2 e^{2iX/eps}.  The other harmonics miss the band: those
    of w^3 and of the correction sit at 3m +- 3b and -m +- 3b, off
    m-b .. m+b because b < m/2 (make_kernel keeps P1 and P2 disjoint);
    those of w^5 sit at 3m +- 5b and -m +- 5b, off the band only while
    3b < m, so the quintic variant rejects a wider band.

    The products are taken on an envelope grid of ``ne`` points, the
    smallest power of two above 4b (cubic) or 6b (quintic).  |A|^2 and A^2
    span the modes -2b .. 2b, |A|^2 A, A B0 and conj(A) B2 span -3b .. 3b
    and |A|^4 A spans -5b .. 5b.  Mode k aliases onto k -+ ne, so the
    squares are exact and the cubic (quintic) products keep their modes
    -b .. b exact once ne > 4b (ne > 6b).  The envelope samples are those of
    A e^{ibX dk}, E zero-padded at its end: the shift multiplies every
    product by a pure phase, so the drift is the first 2b+1 modes of one
    forward transform.  The factors ne/n of the two grid normalisations are
    folded into ``gain`` and the quintic coefficient.

    The stepper owns the work arrays of its drift, as ``SHStepper`` owns its
    ``PaddedGrid``, and fills them in place on every step, so one stepper
    serves one thread at a time.  ``step_spec`` returns a new array.
    """

    def __init__(self, grid: Grid, p: ModelParams, intensity: float = 1.0,
                 delta: float = DEFAULT_DELTA):
        self.grid = grid
        sym = band_symbols(grid, delta)
        self.band, m = sym.band, grid.carrier_index
        b = m - self.band.start
        if p.variant != CUBIC and 3 * b >= m:
            raise ValueError("band too wide for the quintic band drift: "
                             "the third harmonic of w^5 reaches P1")
        lam = sym.lam[self.band]
        self.q1 = sym.q1[self.band]
        # the real multipliers of a spectrum are stored as complex numbers
        # with imaginary part +0, the cast numpy would make on each product
        self.decay = np.exp(lam * p.dt).astype(np.complex128)
        self.phi1dt = (p.dt * _phi1(lam * p.dt)).astype(np.complex128)
        self.noise = SpectralNoise(grid, intensity)
        self.noise_scale = (
            (self.noise.ou_scale(lam, p.dt) * self.q1).astype(np.complex128)
            if intensity > 0 else None)
        n = grid.n_points
        if p.variant == CUBIC:
            self.ne = 1 << (4 * b).bit_length()
            self.poly, nu_q = {1: -3.0}, p.nu
        else:
            self.ne = 1 << (6 * b).bit_length()
            self.poly = {1: 3.0 * p.nu3, 2: -10.0 * (self.ne / n) ** 2}
            nu_q = p.nu2
        self.gain = (self.q1 * (self.ne / n) ** 2).astype(np.complex128)
        self.inv_b = None
        if nu_q != 0.0:
            # P0 and P2 have disjoint supports, so inv02 is inv0 or inv2 per
            # mode; past the half-spectrum it is zero
            inv02 = np.zeros(n // 2 + 1 + self.ne)
            inv02[: n // 2 + 1] = sym.inv0 + sym.inv2
            k = np.arange(self.ne)
            self.inv_b = -2.0 * nu_q * nu_q * np.stack(
                (inv02[np.minimum(k, self.ne - k)], inv02[2 * (m - b) + k])
            ).astype(np.complex128)
        # work arrays: the envelope samples a, |a|^2, |Im a|^2 and then the
        # polynomial in |a|^2, the envelope products and the spectra of the
        # two squares
        self._a = np.empty(self.ne, np.complex128)
        self._abs2, self._poly = np.empty(self.ne), np.empty(self.ne)
        self._g = np.empty(self.ne, np.complex128)
        self._h = np.empty_like(self._g)
        self._squares = np.empty((2, self.ne), np.complex128)

    def drift(self, E: np.ndarray) -> np.ndarray:
        """Band slice of P1 of the band polynomial plus the quadratic
        correction: 4 FFTs of ``ne`` points, 2 if nu = 0."""
        a, abs2, poly, g = self._a, self._abs2, self._poly, self._g
        np.fft.ifft(E, n=self.ne, out=a)
        np.multiply(a.real, a.real, out=abs2)
        np.multiply(a.imag, a.imag, out=poly)
        abs2 += poly
        _horner(abs2, self.poly, out=poly)
        if self.inv_b is not None:
            squares, h = self._squares, self._h
            np.multiply(2.0, abs2, out=squares[0])
            np.multiply(a, a, out=squares[1])
            np.fft.fft(squares, out=squares)
            np.multiply(self.inv_b, squares, out=squares)
            b0, b2 = np.fft.ifft(squares, out=squares)
            np.add(poly, b0, out=g)
            np.multiply(a, g, out=g)
            np.multiply(np.conjugate(a, out=h), b2, out=h)
            g += h
        else:
            np.multiply(a, poly, out=g)
        np.fft.fft(g, out=g)
        return self.gain * g[: E.size]

    def step_spec(self, E: np.ndarray, raw: np.ndarray | None) -> np.ndarray:
        drift = self.drift(E)
        np.multiply(self.phi1dt, drift, out=drift)
        out = self.decay * E
        out += drift
        if raw is not None and self.noise_scale is not None:
            out += np.multiply(raw[self.band], self.noise_scale, out=drift)
        return out

    def half_spectrum(self, E: np.ndarray) -> np.ndarray:
        """The rfft half-spectrum of w from its band slice."""
        spec = np.zeros(self.grid.n_points // 2 + 1, dtype=np.complex128)
        spec[self.band] = E
        return spec

    def values(self, E: np.ndarray) -> np.ndarray:
        return np.fft.irfft(self.half_spectrum(E), n=self.grid.n_points)

    def sup_bound(self, E: np.ndarray) -> float:
        """An upper bound on the sup norm of ``values(E)``: each mode of the
        band stands for a conjugate pair (see ``SHStepper.sup_bound``)."""
        return 2.0 * spectral_l2_bound(E) / self.grid.n_points


# -- Ginzburg-Landau solver --------------------------------------------------

class GLStepper:
    """ETD2RK step of the amplitude equation on a periodic grid.

    Second order on the deterministic part (the Riccati oracle needs it);
    noise is an exact per-mode OU increment added after the deterministic
    update.
    """

    def __init__(self, grid: Grid, c: GLCoefficients, dt: float,
                 intensity: float = 1.0):
        self.grid = grid
        K = grid.wavenumbers
        lam = -GL_DIFFUSION * K ** 2
        self.decay = np.exp(lam * dt)
        z = lam * dt
        self.phi1dt = dt * _phi1(z)
        small = np.abs(z) < 1e-6
        zs = np.where(small, 1.0, z)
        phi2 = np.where(small, 0.5 + z / 6.0, (np.expm1(zs) - zs) / zs ** 2)
        self.phi2dt = dt * phi2
        self.noise = SpectralNoise(grid, intensity)
        self.noise_scale = (self.noise.ou_scale(lam, dt)
                            if intensity > 0 else None)
        self.coeffs = {3: c.cubic} if c.quintic == 0.0 else {3: c.cubic, 5: c.quintic}
        self.pad = 2 if c.quintic == 0.0 else 3

    def nonlinearity(self, aspec: np.ndarray) -> np.ndarray:
        return dealiased_powers_complex(aspec, self.grid.n_points,
                                        self.coeffs, self.pad)

    def step_spec(self, aspec: np.ndarray, raw: np.ndarray | None) -> np.ndarray:
        n1 = self.nonlinearity(aspec)
        a1 = self.decay * aspec + self.phi1dt * n1
        out = a1 + self.phi2dt * (self.nonlinearity(a1) - n1)
        if raw is not None and self.noise_scale is not None:
            out = out + raw * self.noise_scale
        return out

    def values(self, aspec: np.ndarray) -> np.ndarray:
        return np.fft.ifft(aspec)

    def sup_bound(self, aspec: np.ndarray) -> float:
        """An upper bound on the sup norm of ``values(aspec)``: ``Σ|ĉ|/n``
        and so ``sqrt(n·Σ|ĉ|²)/n``."""
        return spectral_l2_bound(aspec) / self.grid.n_points


def simulate_gl(A0: ComplexField, c: GLCoefficients, dt: float, t_end: float,
                cfg: NoiseConfig | None = None) -> RunResult:
    """Integrate to t_end, or to the last step before blow-up, at ``cfg``'s
    noise level, noise-free without a ``cfg``."""
    intensity = cfg.intensity if cfg is not None else 0.0
    stepper = GLStepper(A0.grid, c, dt, intensity)
    n_steps = step_count(t_end, dt)
    status, steps, (aspec,) = integrate(
        [stepper], [A0.spectrum()], n_steps, ModelParams.blowup_threshold,
        noise_draw(stepper.noise, cfg, n_steps, complex_rows=True))
    return RunResult(ComplexField.from_spectrum(A0.grid, aspec), status,
                     steps * dt)


# -- paired runs for the approximation studies -------------------------------

@dataclass
class PairedResult:
    sup_diff: float                      # sup_T ||P1 v - w||_inf
    res_p0: float                        # averaging residuals of v, every step
    res_p2: float
    sup_diff_gl: float | None = None     # sup_T ||demod(w) - A||_inf
    status: str = "completed"


class _BandGLStepper(GLStepper):
    """GL stepper driven by the shared real draw: the amplitude of its P1
    band, q1 raw, scattered from the band slice of ``red``."""

    def __init__(self, c: GLCoefficients, dt: float, intensity: float,
                 red: ReducedStepper):
        super().__init__(red.grid, c, dt, intensity)
        self.red = red
        self.raw_amplitude = np.zeros(red.grid.n_points, dtype=np.complex128)

    def step_spec(self, aspec: np.ndarray, raw: np.ndarray | None) -> np.ndarray:
        if raw is not None:
            red = self.red
            raw = amplitude_spectrum(red.q1 * raw[red.band], self.raw_amplitude)
        return super().step_spec(aspec, raw)


class _RunningMax:
    """Observer keeping the largest ``gap(specs)`` over the steps."""

    def __init__(self, gap):
        self.gap = gap
        self.value = 0.0

    def __call__(self, i, specs):
        self.value = max(self.value, self.gap(specs))


class _BandObserver:
    """sup_T ||P1 v - w||_inf and the averaging integrals of v over every
    step, computed in blocks of ``BLOCK`` steps on the worker thread.

    A call copies the step's v^ and band slice E into one side of a pair
    of block buffers.  A full block goes to the worker as one job while
    the stepping thread fills the other side; the job before it is waited
    for first, so at most one block is in flight.  The job gets the block's
    v1 = irfft(q1 v^) from ``AveragingAccumulator.add`` and w = irfft of E
    scattered into the half-spectrum (``ReducedStepper.values``) from one
    batched transform each, into arrays this observer owns.  ``finish``
    hands over the last, partial block and waits; ``wait`` re-raises the
    error of a failed job.  On step 0, w0 = P1 v0 is the same product by
    q1 as v1, so its gap is 0 and leaves the running max as it is.
    """

    def __init__(self, averaging: AveragingAccumulator, red: ReducedStepper,
                 dt: float):
        n, h = averaging.n, averaging.n // 2 + 1
        self.averaging, self.band, self.dt = averaging, red.band, dt
        self.times = np.empty((2, BLOCK))
        self.vspecs = np.empty((2, BLOCK, h), dtype=np.complex128)
        self.bands = np.empty((2, BLOCK, red.band.stop - red.band.start),
                              dtype=np.complex128)
        self.wspec = np.zeros((BLOCK, h), dtype=np.complex128)
        self.w = np.empty((BLOCK, n))
        self.sup_diff = 0.0
        self.side, self.filled, self.pending = 0, 0, None

    def __call__(self, i, specs):
        side, row = self.side, self.filled
        self.times[side, row] = i * self.dt
        self.vspecs[side, row] = specs[0]
        self.bands[side, row] = specs[1]
        self.filled += 1
        if self.filled == BLOCK:
            self._hand_over()

    def _hand_over(self):
        self.wait()
        self.pending = run_on_worker(self._block, self.side, self.filled)
        self.side, self.filled = 1 - self.side, 0

    def wait(self):
        pending, self.pending = self.pending, None
        if pending is not None:
            pending.result()

    def finish(self):
        if self.filled:
            self._hand_over()
        self.wait()

    def _block(self, side: int, k: int):
        v1 = self.averaging.add(self.times[side, :k], self.vspecs[side, :k])
        wspec, w = self.wspec[:k], self.w[:k]
        wspec[:, self.band] = self.bands[side, :k]
        np.fft.irfft(wspec, n=self.averaging.n, out=w)
        np.subtract(v1, w, out=w)
        np.abs(w, out=w)
        self.sup_diff = max(self.sup_diff, float(w.max()))


def simulate_paired(v0: RealField, p: ModelParams, cfg: NoiseConfig,
                    delta: float = DEFAULT_DELTA,
                    with_gl: bool = False) -> PairedResult:
    """Drive the full equation and the band equation with one noise path.

    w starts from P1 v0.  If ``with_gl`` is set, a Ginzburg-Landau amplitude
    on the same grid is driven by the demodulated P1 noise band (same white
    realization, each mode with its own exact OU variance) and compared
    against the demodulated w.  The averaging residuals of v (see
    ``analysis.AveragingAccumulator``, with nu2 for the quintic variant)
    are integrated over every step as the run goes; no field is stored.
    """
    grid = v0.grid
    sh = SHStepper(grid, p, cfg.intensity)
    red = ReducedStepper(grid, p, cfg.intensity, delta)
    vspec = v0.spectrum()
    wband = red.q1 * vspec[red.band]
    steppers, specs = [sh, red], [vspec, wband]
    averaging = AveragingAccumulator(
        grid, p.nu if p.variant == CUBIC else p.nu2, delta)
    band = _BandObserver(averaging, red, p.dt)
    band(0, specs)
    observers = [band]
    if with_gl:
        c = (gl_coefficients(p.nu) if p.variant == CUBIC
             else gl5_coefficients(p.nu2, p.nu3))
        steppers.append(_BandGLStepper(c, p.dt, cfg.intensity, red))
        amp = np.zeros(grid.n_points, dtype=np.complex128)
        specs.append(amplitude_spectrum(wband, amp.copy()))
        sup_diff_gl = _RunningMax(lambda specs: float(np.max(np.abs(
            np.fft.ifft(amplitude_spectrum(specs[1], amp))
            - np.fft.ifft(specs[2])))))
        observers.append(sup_diff_gl)
    n_steps = step_count(p.t_end, p.dt)
    try:
        status, _, _ = integrate(steppers, specs, n_steps, p.blowup_threshold,
                                 noise_draw(sh.noise, cfg, n_steps), observers)
        band.finish()
    finally:
        band.wait()
    res_p0, res_p2 = averaging.results()
    return PairedResult(sup_diff=band.sup_diff, res_p0=res_p0, res_p2=res_p2,
                        sup_diff_gl=sup_diff_gl.value if with_gl else None,
                        status=status)
