"""The averaged band equation for w and the limiting stochastic
Ginzburg-Landau amplitude equation.

Band equation, for the polynomial nu/eps v^2 + c3 v^3 + c5 v^5 of
``ModelParams.polynomial``:
    dw/dT = L_eps w - 2 nu^2 P1[w * inv (P0+P2) w^2] + c3 P1 w^3 + c5 P1 w^5
            + dW1/dT
where inv is eps^-2 L_eps^-1 (a bounded multiplier on the P0/P2 bands) and
W1 = P1 W.

Amplitude equation:
    dA/dT = 4 A_XX + cubic * |A|^2 A + quintic * |A|^4 A + eta
with cubic = 3 c3 + 38/9 nu^2 and quintic = 10 c5 (``gl_coefficients``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import PairedDiagnostics
from .bands import DEFAULT_DELTA, band_symbols
from .grid import ComplexField
from .noise import NoiseConfig, SpectralNoise
from .operators import EnvelopeGrid, envelope_powers
from .sh import (ModelParams, RunResult, SHStepper, etd_multipliers,
                 integrate, noise_draw, per_row, shared, step_count)

GL_DIFFUSION = 4.0


@dataclass(frozen=True)
class GLCoefficients:
    cubic: float
    quintic: float = 0.0


def gl_coefficients(params: ModelParams) -> GLCoefficients:
    """The amplitude coefficients of a model with polynomial
    (nu, c3, c5): 3 c3 + 38/9 nu^2 on |A|^2 A and 10 c5 on |A|^4 A."""
    c = params.polynomial
    return GLCoefficients(cubic=3.0 * c[3] + 38.0 / 9.0 * c[2] ** 2,
                          quintic=10.0 * c[5])


# -- reduced band equation ---------------------------------------------------

class ReducedStepper:
    """ETD1 step of the averaged band equation on the envelope of w.

    The band equation keeps w = P1 w: w0 = P1 v0 and both its drift and its
    noise carry the factor q1.  So the state is a slice of the rfft
    half-spectrum, ``E = wspec[band]`` with ``band = m-b .. m+b`` around the
    carrier index m, and w = A e^{iX/eps} + c.c. where the amplitude A has
    the modes -b .. b of E.  The slice depends on m and on whether the
    polynomial has a quintic term alone, b = (m-1)//2 without one or
    (m-1)//3 with one, so rows of any eps on one grid size share it; it
    holds each row's own P1 slice m-c .. m+c (``BandSymbols.band``), and
    outside that slice the row's q1, gain and noise scale are zero, so its
    modes there stay 0.  Sorting w^3, w^5 and
    w inv02 w^2 by powers of the carrier gives, on a row's own slice,

        P1 w^3 = q1 3|A|^2 A,    P1 w^5 = q1 10|A|^4 A,
        P1 [w inv02 w^2] = q1 (A B0 + conj(A) B2),

    with B0 = inv0 (2|A|^2) and B2 = inv2 (A^2), inv2 taken at the modes
    2m + j of A^2 e^{2iX/eps}.  The other harmonics miss the row's P1
    support: those of w^3 and of the correction sit at 3m +- 3c and
    -m +- 3c, off m-c .. m+c because c < m/2 (make_kernel keeps P1 and P2
    disjoint, which also puts c within the cubic b); those of w^5 sit at
    3m +- 5c and -m +- 5c, off it only while 3c < m, so a quintic
    polynomial rejects a row with a wider P1 slice.

    ``envelope_powers`` takes the products on an ``EnvelopeGrid`` of the
    2b+1 modes of E, whose ne points, a power of two above 4b (6b with a
    quintic term), keep the modes -b .. b of A B0 and conj(A) B2 exact too.
    The factors ne/n of the two grid normalisations are folded into
    ``gain`` and the quintic coefficient.

    The stepper owns its ``EnvelopeGrid``, so one stepper serves one thread
    at a time; ``step_spec`` returns a new array.
    """

    def __init__(self, grids, params, intensity: float = 1.0,
                 delta: float = DEFAULT_DELTA):
        syms = [band_symbols(g, delta) for g in grids]
        n = self.n = shared([g.n_points for g in grids], "grid size")
        m = shared([g.carrier_index for g in grids], "carrier index")
        polys = [p.polynomial for p in params]
        quintic = shared([c[5] != 0 for c in polys], "quintic term")
        if quintic and any(3 * (m - sym.band.start) >= m for sym in syms):
            raise ValueError("band too wide for the quintic band drift: "
                             "the third harmonic of w^5 reaches P1")
        b = (m - 1) // (3 if quintic else 2)
        self.band = slice(m - b, m + b + 1)
        nus = [c[2] for c in polys]
        self.envelope = EnvelopeGrid(len(grids), 2 * b + 1, quintic,
                                     any(nus))
        self.ne = self.envelope.ne
        lam = np.array([sym.lam[self.band] for sym in syms])
        self.q1 = np.array([sym.q1[self.band] for sym in syms])
        self.decay, self.phi1dt, scale = etd_multipliers(
            grids, lam, [p.dt for p in params], intensity)
        self.noise = SpectralNoise(grids[0], intensity)
        self.noise_scale = None if scale is None else scale * self.q1
        # P1 w^3 = q1 3|A|^2 A and P1 w^5 = q1 10|A|^4 A, in |a|^2 of the
        # envelope samples; a term that no row has is left out
        poly = {1: per_row([3.0 * c[3] for c in polys]),
                2: per_row([10.0 * c[5] for c in polys]) * (self.ne / n) ** 2}
        self.poly = {e: c for e, c in poly.items() if np.any(c)}
        self.gain = (self.q1 * (self.ne / n) ** 2).astype(np.complex128)
        # each mode of the band stands for a conjugate pair: see SHStepper
        self.bound_scale = 2.0 / n
        self.inv_b = None
        if any(nus):
            # P0 and P2 have disjoint supports, so inv02 is inv0 or inv2 per
            # mode; past the half-spectrum it is zero
            k = np.arange(self.ne)
            rows = []
            for sym, nu in zip(syms, nus):
                inv02 = np.zeros(n // 2 + 1 + self.ne)
                inv02[: n // 2 + 1] = sym.inv0 + sym.inv2
                rows.append(-2.0 * nu * nu * np.stack(
                    (inv02[np.minimum(k, self.ne - k)],
                     inv02[2 * (m - b) + k])))
            self.inv_b = np.array(rows).astype(np.complex128)

    def drift(self, E: np.ndarray) -> np.ndarray:
        """Band slice of P1 of the band polynomial plus the quadratic
        correction, by rows: 4 batched FFTs of ``ne`` points, 2 if nu = 0."""
        return envelope_powers(E, self.poly, self.gain, self.envelope,
                               self.inv_b)

    def step_spec(self, E: np.ndarray, raw: np.ndarray | None) -> np.ndarray:
        drift = self.drift(E)
        np.multiply(self.phi1dt, drift, out=drift)
        out = self.decay * E
        out += drift
        if raw is not None and self.noise_scale is not None:
            out += np.multiply(raw[:, self.band], self.noise_scale, out=drift)
        return out

    def half_spectrum(self, E: np.ndarray) -> np.ndarray:
        """The rfft half-spectra of w from the rows of its band slice."""
        spec = np.zeros((len(E), self.n // 2 + 1), dtype=np.complex128)
        spec[:, self.band] = E
        return spec

    def values(self, E: np.ndarray) -> np.ndarray:
        return np.fft.irfft(self.half_spectrum(E), n=self.n)


# -- Ginzburg-Landau solver --------------------------------------------------

class GLStepper:
    """ETD2RK step of the amplitude equation for a batch of rows on periodic
    grids of one size, a row's multipliers from its grid and coefficients.

    A row holds A as ``ReducedStepper`` holds w, a run of w modes -h ..
    w-1-h, h = w // 2, of its n-point fft, picked from each step's noise
    draw by ``band`` (a slice or an index array) and weighted by ``q``: a
    paired run holds the P1 slice -b .. b of the real draw with q1 and
    drops the products' modes outside it (README); ``simulate_gl`` all n
    modes of the complex draw in ``fftshift`` order.

    Second order on the deterministic part (the Riccati oracle needs it);
    noise is an exact per-mode OU increment added after the deterministic
    update.
    """

    def __init__(self, grids, coeffs, dt: float, intensity: float, band,
                 q=1.0):
        n = self.n = shared([g.n_points for g in grids], "grid size")
        quintic = shared([c.quintic for c in coeffs], "quintic coefficient")
        self.band, width = band, np.arange(n)[band].size
        modes = np.arange(width) - width // 2
        self.envelope = EnvelopeGrid(len(grids), width, bool(quintic))
        lam = -GL_DIFFUSION * np.array([g.wavenumbers[modes]
                                        for g in grids]) ** 2
        self.decay, self.phi1dt, scale = etd_multipliers(
            grids, lam, [dt] * len(grids), intensity)
        self.noise_scale = None if scale is None else scale * q
        z = lam * dt
        small = np.abs(z) < 1e-6
        zs = np.where(small, 1.0, z)
        phi2 = np.where(small, 0.5 + z / 6.0, (np.expm1(zs) - zs) / zs ** 2)
        self.phi2dt = dt * phi2
        self.noise = SpectralNoise(grids[0], intensity)
        # |A|^2 A and |A|^4 A in |a|^2, the factors ne/n in the gain and
        # the quintic coefficient; a term that no row has is left out,
        # unless no term is left
        self.gain = (self.envelope.ne / n) ** 2
        poly = {1: per_row([c.cubic for c in coeffs]), 2: quintic * self.gain}
        self.poly = {e: c for e, c in poly.items() if np.any(c)} or {
            1: poly[1]}
        # Σ|ĉ|/n bounds the sup norm of the values (_blown_up)
        self.bound_scale = 1.0 / n

    def step_spec(self, aspec: np.ndarray, raw: np.ndarray | None) -> np.ndarray:
        nonlinearity = (self.poly, self.gain, self.envelope)
        n1 = envelope_powers(aspec, *nonlinearity)
        a1 = self.decay * aspec + self.phi1dt * n1
        out = a1 + self.phi2dt * (envelope_powers(a1, *nonlinearity) - n1)
        if raw is not None and self.noise_scale is not None:
            out += raw[:, self.band] * self.noise_scale
        return out

    def values(self, aspec: np.ndarray) -> np.ndarray:
        """The n samples of A e^{ihX dk}, whose modulus is |A|."""
        return np.fft.ifft(aspec, n=self.n)


def simulate_gl(A0: ComplexField, c: GLCoefficients, dt: float, t_end: float,
                cfg: NoiseConfig | None = None) -> RunResult:
    """Integrate to t_end, or to the last step before blow-up, at ``cfg``'s
    noise level, noise-free without a ``cfg``: a batch of one, stepped in
    ``fftshift`` order."""
    intensity = cfg.intensity if cfg is not None else 0.0
    shift = np.fft.fftshift(np.arange(A0.grid.n_points))
    stepper = GLStepper([A0.grid], [c], dt, intensity, shift)
    n_steps = step_count(t_end, dt)
    (status,), (steps,), (aspec,) = integrate(
        [stepper], [A0.spectrum()[None, shift]], n_steps,
        ModelParams.blowup_threshold,
        noise_draw(stepper.noise, None if cfg is None else [cfg], n_steps,
                   complex_rows=True))
    return RunResult(ComplexField.from_spectrum(
        A0.grid, np.fft.ifftshift(aspec[0])), status, steps * dt)


# -- paired runs for the approximation studies -------------------------------

@dataclass
class PairedResult:
    """What a batch of paired runs measured, one entry per row."""
    sup_diff: list                       # sup_T ||P1 v - w||_inf
    res_p0: list                         # averaging residuals of v, every step
    res_p2: list
    status: list
    sup_diff_gl: list | None = None      # sup_T ||demod(w) - A||_inf


def simulate_paired(v0s, params, cfgs, delta: float = DEFAULT_DELTA,
                    with_gl: bool = False) -> list:
    """Drive the full equation and the band equation of a batch of rows,
    each row with its own noise path, and return their ``PairedResult``.

    Row r starts from ``v0s[r]`` with ``params[r]`` and the noise of
    ``cfgs[r]``; the rows share their time stepping, noise intensity,
    quintic term or its absence, grid size and carrier index, and may
    differ in eps and polynomial (``ReducedStepper``'s slice depends on
    neither).  w starts from P1 v0.  If ``with_gl`` is set, a
    Ginzburg-Landau amplitude on the band's modes starts from w's band
    slice and is driven by the P1 noise band (same white realization, each
    mode with its own exact OU variance), and compared against the
    demodulated w.  Every diagnostic,
    the averaging residuals of v with the polynomial's nu among them, is
    taken over every step as the run goes by ``analysis.PairedDiagnostics``,
    in blocks of its ``size`` steps, as is the noise; no field is stored.
    A row that blows up has status "blowup_stopped": alone, its
    diagnostics cover the steps before the blow-up; in a batch they also
    take in the rest the row is held at after it (see ``integrate``).
    """
    grids = [v0.grid for v0 in v0s]
    p = params[0]
    shared([(q.dt, q.t_end, q.blowup_threshold) for q in params],
           "time stepping")
    intensity = shared([cfg.intensity for cfg in cfgs], "noise intensity")
    sh = SHStepper(grids, params, intensity)
    red = ReducedStepper(grids, params, intensity, delta)
    vspec = np.array([v0.spectrum() for v0 in v0s])
    wband = red.q1 * vspec[:, red.band]
    steppers, specs = [sh, red], [vspec, wband]
    if with_gl:
        steppers.append(GLStepper(grids, [gl_coefficients(q) for q in params],
                                  p.dt, intensity, red.band, red.q1))
        specs.append(wband)
    diagnostics = PairedDiagnostics(grids, [q.polynomial[2] for q in params],
                                    red.band, p.dt, delta, with_gl)
    diagnostics(0, specs)
    n_steps = step_count(p.t_end, p.dt)
    try:
        status, _, _ = integrate(steppers, specs, n_steps,
                                 p.blowup_threshold,
                                 noise_draw(sh.noise, cfgs, n_steps,
                                            size=diagnostics.size),
                                 [diagnostics])
        diagnostics.finish()
    finally:
        diagnostics.wait()
    return PairedResult(status=status, **diagnostics.results())
