"""Diagnostics: the paired runs' gaps and averaging-identity residuals,
scaling-exponent fits, and effective amplitude-coefficient estimation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bands import DEFAULT_DELTA, band_symbols
from .grid import DEFAULT_POINTS_PER_PERIOD, Grid, RealField
from .sh import (CUBIC, QUINTIC, ModelParams, SHStepper, block_steps,
                 integrate, run_on_worker, shared, step_count)


def _band_top(q: np.ndarray) -> int:
    """One past the last mode of the rfft layout where ``q`` is nonzero."""
    return int(np.flatnonzero(q)[-1]) + 1


def averaging_points(grid: Grid, delta: float = DEFAULT_DELTA) -> int:
    """m of the smallest grid that holds the averaging integrands of
    (grid, delta) exactly: the smallest power of two above twice their top
    mode t1 + top - 2, with t1 and top the tops of the P1 and the P2
    support, and at most n (see ``PairedDiagnostics``)."""
    sym = band_symbols(grid, delta)
    top_mode = _band_top(sym.q1) + _band_top(sym.q2) - 2
    return min(grid.n_points, 1 << (2 * top_mode).bit_length())


class PairedDiagnostics:
    """The diagnostics of a batch of paired runs over every step, by rows:
    sup_T ||P1 v - w||_inf, the averaging integrals of v and, with
    ``with_gl``, sup_T ||demod(w) - A||_inf, computed in blocks of ``size``
    steps on the worker thread.

    A call, on the stepping thread, copies the step's v^ below ``top``,
    band slice E of w and, with ``with_gl``, the band's modes A^ of the
    amplitude of every row into one side of a pair of block buffers.  A
    full block goes to the worker as one job, ``_block``, while the
    stepping thread fills the other side; the job before it is waited for
    first, so at most one block is in flight.  ``finish`` hands over the
    last, partial block and waits; ``wait`` re-raises the error of a
    failed job.

    The averaging integrals are the running trapezoid rule, over time, of

        v1 * P_k v / eps + nu * v1 * eps^-2 L_eps^-1 P_k v1^2,  k = 0, 2,

    for rows of one ``(grid, nu)`` pair each on grids of one size, sampled
    on the ``m`` points of the smallest grid that holds them exactly
    (``averaging_points``).  v1 has modes below t1, the top of a row's P1
    support, and both bands' multipliers are zero from ``top``, the top of
    its P2 support, on; so v1^2 sits below 2 t1 - 1 and the integrands
    below t1 + top - 1.  With m the smallest power of two above
    2 (t1 + top - 2), at most n, the m-point samples of v1^2 alias no mode
    below top and those of the integrands none at all, so the m-point sums
    are the n-point ones at the m-point grid's points.  The factor m/n of
    the two grid normalisations, a power of two, is folded into ``q1`` and
    ``qk_eps``, and ``results`` interpolates the totals to the n grid.  A
    block's trapezoid pieces 0.5 (t_j - t_{j-1}) (f_{j-1} + f_j) are built
    in place in the integrand rows, and ``total`` gets them from one
    ``np.add.reduce`` along axis 0 of a stack whose first row is
    ``total``.  Along axis 0 numpy adds the rows in order, as
    ``((total + p_1) + p_2) + ...``, so the sums have the bits of one
    sample per block, whatever the block sizes.

    P1 v - w is the irfft of q1 v^ - E on the band slice, scattered into
    the half-spectrum up to the band's top (q1 is zero off the slice, and
    irfft zero-pads the rest with the same bits), and |demod(w) - A| that
    of the n-point ifft of E - A^ on the band slice, shifted by a phase.
    On step 0, w0 = P1 v0 and A0 = demod(w0) are these same products, so
    both gaps are 0 and leave the running max as it is.

    Each transform is one batched call over the block, and the other calls
    are few and large, so the job holds the GIL briefly; the rows of a
    batched transform, and the ``abs`` and ``max`` of its values, have the
    bits of one step at a time.  A block holds the most steps, at most
    ``block_steps`` of the batch, for which ``block_bytes`` stays within
    ``BLOCK_BYTES``.
    """

    #: bytes of a paired run's block at most: every array of this object
    #: and the run's two live noise blocks.  A default theorem2 batch of 5
    #: holds 2.76 MB in blocks of 4 steps and would hold 3.36 MB in blocks
    #: of 5; in that batch, blocks of 7 steps peaked 1.8 MB above blocks
    #: of 4
    BLOCK_BYTES = 3 << 20

    def __init__(self, grids, nus, band: slice, dt: float,
                 delta: float = DEFAULT_DELTA, with_gl: bool = False):
        syms = [band_symbols(g, delta) for g in grids]
        n = self.n = shared([g.n_points for g in grids], "grid size")
        self.rows = rows = len(grids)
        self.band, self.dt = band, dt
        # q0, q1 and q2 are zero from ``top`` on, past every row's P2
        # support, and irfft zero-pads a shorter input with the bits of the
        # full one, so only the modes below it are multiplied and
        # transformed.  The real multipliers of the averaging integrands
        # are stored as complex numbers with imaginary part +0, the cast
        # numpy makes on each product with a spectrum
        self.top = top = max(_band_top(sym.q2) for sym in syms)
        # the largest m of the rows holds all of them exactly; rows of one
        # m have the bits of their own diagnostics'
        self.m = m = max(averaging_points(g, delta) for g in grids)
        scale = m / n
        self.q1 = (scale * np.array([sym.q1[:top] for sym in syms])
                   ).astype(np.complex128)
        self.qk_eps = np.array([[scale * sym.q0[:top] / g.eps,
                                 scale * sym.q2[:top] / g.eps]
                                for sym, g in zip(syms, grids)], np.complex128)
        self.nu_inv = np.array([[nu * sym.inv0[:top], nu * sym.inv2[:top]]
                                for sym, nu in zip(syms, nus)], np.complex128)
        self.q1_band = np.array([sym.q1[band] for sym in syms])
        self.count = 0
        self.total = np.zeros((rows, 2, m))
        self.sup_diff = np.zeros(rows)
        self.sup_diff_gl = np.zeros(rows) if with_gl else None
        self.size = max((k for k in range(1, block_steps(rows) + 1)
                         if self.block_bytes(k) <= self.BLOCK_BYTES),
                        default=1)
        for name, (shape, dtype) in self._blocks(self.size).items():
            setattr(self, name, np.zeros(shape, dtype))
        self.side, self.filled, self.pending = 0, 0, None

    def _blocks(self, size: int) -> dict:
        """The shape and dtype of each block array, by attribute name, for
        blocks of ``size`` steps."""
        rows, n, m, top, c = self.rows, self.n, self.m, self.top, np.complex128
        blocks = {
            # the two sides the stepping thread and the job take in turn
            "_times": ((2, size), float),
            "_vspecs": ((2, size, rows, top), c),
            "_bands": ((2, size, rows, self.band.stop - self.band.start), c),
            # v1, the spectrum of v1^2 and two pairs of spectra below top.
            # Step 1 of the stack carries the last sample's integrands to
            # the next block, steps 2 .. k + 1 take the block's integrands
            # and steps 1 .. k their trapezoid pieces; step 0 takes a copy
            # of total before the reduction
            "_v1": ((size, rows, m), float),
            "_v1sq": ((size, rows, m // 2 + 1), c),
            "_sq": ((size, rows, 2, top), c),
            "_rhs": ((size, rows, 2, top), c),
            "_stack": ((size + 2, rows, 2, m), float),
            # the gap spectra, zero below the band, and the gaps' values
            "_gapspec": ((size, rows, self.band.stop), c),
            "_gap": ((size, rows, n), float)}
        if self.sup_diff_gl is not None:
            # the amplitude's band modes have the band slice's shape
            blocks |= {"_gls": blocks["_bands"], "_amp": ((size, rows, n), c)}
        return blocks

    def block_bytes(self, size: int) -> int:
        """The bytes of every array this object holds with blocks of
        ``size`` steps, and of the run's two live noise blocks of as many
        steps (``sh.noise_draw``)."""
        blocks = self._blocks(size)
        held = sum(a.nbytes for name, a in vars(self).items()
                   if isinstance(a, np.ndarray) and name not in blocks)
        noise = 2 * size * self.rows * (self.n // 2 + 1) * 16
        return (held + noise + sum(math.prod(shape) * np.dtype(dtype).itemsize
                                   for shape, dtype in blocks.values()))

    def __call__(self, i, specs):
        side, row = self.side, self.filled
        self._times[side, row] = i * self.dt
        self._vspecs[side, row] = specs[0][:, : self.top]
        self._bands[side, row] = specs[1]
        if self.sup_diff_gl is not None:
            self._gls[side, row] = specs[2]
        self.filled += 1
        if self.filled == self.size:
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
        times, vspecs = self._times[side, :k], self._vspecs[side, :k]
        bands, m = self._bands[side, :k], self.m
        v1, sq, rhs = self._v1[:k], self._sq[:k], self._rhs[:k]
        v1sq = self._v1sq[:k]
        f = self._stack[1:k + 2]
        np.multiply(self.q1, vspecs, out=sq[:, :, 0])
        np.fft.irfft(sq[:, :, 0], n=m, out=v1)
        # the integrand rows are free until they are refilled
        np.multiply(v1, v1, out=f[1:, :, 0])
        np.fft.rfft(f[1:, :, 0], out=v1sq)
        np.multiply(self.nu_inv, v1sq[:, :, None, : self.top], out=rhs)
        np.multiply(self.qk_eps, vspecs[:, :, None], out=sq)
        np.add(sq, rhs, out=rhs)
        np.fft.irfft(rhs, n=m, out=f[1:])
        np.multiply(f[1:], v1[:, :, None], out=f[1:])
        # steps 0 .. k - 1 of f become the pieces p_1 .. p_k, in place:
        # each is read before it is overwritten.  Step k, the last
        # integrand, is left to carry
        last = self._t if self.count else times[0]
        half = 0.5 * np.diff(times, prepend=last)
        np.add(f[:k], f[1:], out=f[:k])
        np.multiply(f[:k], half[:, None, None, None], out=f[:k])
        # the first sample of a run has no piece: total takes its row
        lo = 0 if self.count else 1
        self._stack[lo] = self.total
        np.add.reduce(self._stack[lo:k + 1], axis=0, out=self.total)
        f[0] = f[k]
        self._t = times[-1]
        self.count += k

        diff, gap = self._gapspec[:k, :, self.band], self._gap[:k]
        np.multiply(self.q1_band, vspecs[..., self.band], out=diff)
        np.subtract(diff, bands, out=diff)
        np.fft.irfft(self._gapspec[:k], n=self.n, out=gap)
        np.abs(gap, out=gap)
        np.maximum(self.sup_diff, gap.max(axis=(0, 2)), out=self.sup_diff)
        if self.sup_diff_gl is not None:
            # the gap spectra take E - A^ on the band, and stay zero below
            np.subtract(bands, self._gls[side, :k], out=diff)
            np.fft.ifft(self._gapspec[:k], n=self.n, out=self._amp[:k])
            np.abs(self._amp[:k], out=gap)
            np.maximum(self.sup_diff_gl, gap.max(axis=(0, 2)),
                       out=self.sup_diff_gl)

    def results(self) -> dict:
        """The diagnostics of each row by name, as lists: ``sup_diff``,
        ``res_p0`` and ``res_p2``, the sup norms over the n grid of the P0
        and the P2 integral, and ``sup_diff_gl``, None without ``with_gl``.
        On m < n points the totals are interpolated to the n grid: their
        modes lie below m/2, whose mode holds only rounding and is
        dropped."""
        total = self.total
        if self.m < self.n:
            spec = np.fft.rfft(total)
            spec[..., -1] = 0.0
            total = np.fft.irfft(spec * (self.n / self.m), n=self.n)
        res = np.max(np.abs(total), axis=2)
        gl = self.sup_diff_gl
        return {"sup_diff": self.sup_diff.tolist(),
                "res_p0": res[:, 0].tolist(), "res_p2": res[:, 1].tolist(),
                "sup_diff_gl": None if gl is None else gl.tolist()}

def fit_scaling_exponent(pairs) -> float:
    """Least-squares slope of log(diagnostic) against log(eps)."""
    pairs = [(float(e), float(y)) for e, y in pairs]
    if len(pairs) < 3:
        raise ValueError("need at least 3 (eps, diagnostic) points")
    if any(e <= 0 or y <= 0 for e, y in pairs):
        raise ValueError("eps and diagnostics must be positive")
    le = np.log([e for e, _ in pairs])
    ly = np.log([y for _, y in pairs])
    return float(np.polyfit(le, ly, 1)[0])


# -- effective amplitude-coefficient estimation ------------------------------

class _CarrierAmplitude:
    """Observer recording the carrier amplitude |A| = |v^_m| / n of each
    row of the first field v on every ``stride``-th step and the last, where
    P1 v = A e^{iX/eps} + c.c. and m is the carrier index of the
    ``n``-point rfft.

    On the one-period grid of the fit the P1 band is the carrier mode
    alone, with q1 = 1 there, so A is constant and this is its mean
    modulus, read with no transform.
    """

    def __init__(self, m: int, n: int, dt: float, stride: int, n_steps: int):
        self.m, self.n = m, n
        self.dt, self.stride, self.n_steps = dt, stride, n_steps
        self.times, self.modes = [], []

    def __call__(self, i, specs):
        if i % self.stride and i != self.n_steps:
            return
        self.times.append(i * self.dt)
        self.modes.append(specs[0][:, self.m].tolist())

    def amplitudes(self) -> np.ndarray:
        """|A| at each sample time, by rows."""
        return np.abs(np.array(self.modes, dtype=np.complex128)) / self.n


def check_fit_amplitude(amplitude: float) -> None:
    """Refuse a carrier amplitude outside [0.1, 0.5], where a Landau fit
    does not run, with a ValueError."""
    if not 0.1 <= amplitude <= 0.5:
        raise ValueError("the Landau fit needs a carrier amplitude in "
                         "[0.1, 0.5]")


@dataclass(frozen=True)
class LandauFit:
    c3: float
    c5: float
    r_squared: float
    amplitudes: tuple[float, ...] = field(repr=False, default=())


def estimate_landau_coefficient(eps: float, nu=0.0, variant: str = CUBIC,
                                amplitude: float = 0.3, n_points: int = 8192,
                                dt: float = 1e-3,
                                fit_window: float | None = None,
                                r2_min: float = 0.99) -> LandauFit:
    """Fit the effective amplitude nonlinearity of the deterministic equation.

    Runs the full (noise-free) dynamics of the model ``nu`` (cubic
    variant) or ``nu = (nu2, nu3)`` (quintic variant) from a pure carrier
    2*a0*cos(x/eps), samples the modulus a of the amplitude of its carrier
    mode about 400 times as it goes, storing no field, and regresses da/dT
    on the powers of a that its amplitude equation holds: a^3 if its
    polynomial has a quadratic or cubic term, a^5 if it has a quintic one.
    The fit starts after the slaved-mode transient (10 eps^2) and rejects
    windows with R^2 below ``r2_min``.

    The fit computes the dynamics of ``Grid.for_carrier(eps, n_points)``,
    ``n_points / 16`` carrier periods, on one period of it.  The initial
    state is 2*pi*eps-periodic and the noise-free flow is translation
    invariant, so every period of the long grid repeats the same numbers.
    At 16 points per period both grids hold the carrier harmonics 0..8,
    whose top one, the coarse Nyquist mode, the dealiased nonlinearity
    drops, so the one-period run reproduces the long one up to rounding.
    That holds only at 16 points per period: ``n_points`` must be a
    positive multiple of ``DEFAULT_POINTS_PER_PERIOD``.
    """
    check_fit_amplitude(amplitude)
    if n_points <= 0 or n_points % DEFAULT_POINTS_PER_PERIOD:
        raise ValueError(f"n_points must be a positive multiple of "
                         f"{DEFAULT_POINTS_PER_PERIOD}")
    grid = Grid.for_carrier(eps, DEFAULT_POINTS_PER_PERIOD, periods=1)
    t_skip = 10.0 * grid.eps ** 2
    if fit_window is None:
        fit_window = 0.1 / amplitude ** 2
    t_end = t_skip + fit_window

    v0 = RealField(grid, 2.0 * amplitude * np.cos(grid.x / grid.eps))
    model = ({"nu2": float(nu[0]), "nu3": float(nu[1])} if variant == QUINTIC
             else {"nu": float(nu)})
    p = ModelParams(variant=variant, dt=dt, t_end=t_end, **model)
    n_steps = step_count(t_end, dt)
    sampler = _CarrierAmplitude(grid.carrier_index, grid.n_points, dt,
                                max(1, n_steps // 400), n_steps)
    vspec = v0.spectrum()[None]
    sampler(0, [vspec])
    (status,), _, _ = integrate([SHStepper([grid], [p], intensity=0.0)],
                                [vspec], n_steps, p.blowup_threshold,
                                observers=[sampler])
    if status != "completed":
        raise RuntimeError("deterministic run hit the blow-up guard")

    times = np.asarray(sampler.times)
    amps = sampler.amplitudes()[:, 0]

    keep = times >= t_skip
    t, a = times[keep], amps[keep]
    if t.size < 8:
        raise RuntimeError("not enough samples in the fit window")
    rate = np.gradient(a, t)
    # drop the window edges where np.gradient is one-sided
    t, a, rate = t[1:-1], a[1:-1], rate[1:-1]

    c = p.polynomial
    powers = [e for e, term in ((3, c[2] or c[3]), (5, c[5])) if term]
    X = np.column_stack([a ** k for k in powers])
    coef, *_ = np.linalg.lstsq(X, rate, rcond=None)
    pred = X @ coef
    ss_res = float(np.sum((rate - pred) ** 2))
    ss_tot = float(np.sum((rate - np.mean(rate)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    if r2 < r2_min:
        raise RuntimeError(f"amplitude fit rejected: R^2 = {r2:.4f} < {r2_min}")
    fit = dict(zip(powers, map(float, coef)))
    return LandauFit(c3=fit.get(3, 0.0), c5=fit.get(5, 0.0), r_squared=r2,
                     amplitudes=tuple(a))
