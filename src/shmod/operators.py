"""Fourier symbols of L = -(1+Laplacian)^2, of its rescaled version and of
the scaled inverse, and dealiased polynomial kernels.
"""
from __future__ import annotations

import numpy as np


def symbol_L_eps(K, eps: float):
    """Multiplier of the rescaled operator at wavenumber K: -(1-eps^2 K^2)^2/eps^2."""
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    K = np.asarray(K, dtype=np.float64)
    s = -((1.0 - (eps * K) ** 2) ** 2) / eps ** 2
    return s if s.ndim else float(s)


def inv_symbol_scaled(K, eps: float):
    """Symbol of eps^-2 L_eps^-1: -(1 - eps^2 K^2)^-2 (unguarded)."""
    K = np.asarray(K, dtype=np.float64)
    return -1.0 / (1.0 - (eps * K) ** 2) ** 2


# -- dealiased pseudospectral products --------------------------------------

def _horner(vp: np.ndarray, coeffs: dict, out: np.ndarray | None = None
            ) -> np.ndarray:
    """Samples of sum_e coeffs[e] vp^e (exponents >= 1) by Horner's rule,
    from products only, into ``out`` if given: numpy's float power of signed
    data costs about 50 times the product x*x*x.  A coefficient may be an
    array that broadcasts against ``vp``, one per row of a batch; a missing
    exponent is skipped."""
    top = max(coeffs)
    poly = np.multiply(coeffs[top], vp, out=out)
    for e in range(top - 1, 0, -1):
        if e in coeffs:
            poly += coeffs[e]
        poly *= vp
    return poly


#: largest n at which :class:`PaddedGrid` holds dense matrices; above it
#: interleaved rows cost less (the crossover table in README)
DENSE_MAX = 32


def _power_chain(exponents) -> list:
    """How to make v^e for each e of ``exponents`` (all 2 or more), in
    increasing order: the exponents of the powers whose product it is,
    each the largest power made before it that still fits, v itself
    last.  ``{2, 3, 5}`` is v·v, v²·v and v³·v²: one product each."""
    made, chain = [1], []
    for e in sorted(exponents):
        factors, left = [], e
        while left:
            factors.append(max(k for k in made if k <= left and k < e))
            left -= factors[-1]
        chain.append((e, factors))
        made.append(e)
    return chain


def _float_matrices(m: np.ndarray) -> np.ndarray:
    """The real matrices, one per row of the complex multipliers ``m``,
    that take the float view of a row's half-spectrum x (re, im, re, ...)
    to the float view of ``m·x``: a 2×2 block per mode."""
    rows, modes = m.shape
    out = np.zeros((rows, modes, 2, modes, 2))
    k = np.arange(modes)
    out[:, k, 0, k, 0] = out[:, k, 1, k, 1] = m.real
    out[:, k, 0, k, 1] = m.imag
    out[:, k, 1, k, 0] = -m.imag
    return out.reshape(rows, 2 * modes, 2 * modes)


class PaddedGrid:
    """The update of a batch of rows on the ``pad * n`` point grid: the
    polynomial ``sum_e coeffs[e] v^e`` (exponents 2 and up; a coefficient
    is a number or one per row, as a column), alias-free and times
    ``gain``, plus ``decay·v̂`` and ``noise_scale·raw`` of each row when
    given, with the work arrays of :func:`dealiased_powers`, filled in
    place on every call, so a step allocates only its result; a caller
    owns its own instance and never shares it between threads.

    ``gain``, ``decay`` and ``noise_scale`` have one row per row of the
    batch (a scalar gain is a batch of one) and broadcast against the
    half-spectra.  Up to ``DENSE_MAX`` points a step is two stacked
    per-row matrix products from and to the float view of the
    half-spectrum (re, im, re, ...).  ``inverse`` maps it to the ``pad·n``
    samples (its rows of the Nyquist mode and of the imaginary part of
    the mean are zero); the powers that the polynomial needs are one
    product each, into ``stacked``, which also holds the row's
    half-spectrum and its raw noise; and each row's ``update_matrix``
    maps its ``stacked`` to the new half-spectrum.  That matrix is built
    once: a block per power, its coefficient times the forward transform
    of the samples times ``gain/pad`` with the coarse Nyquist mode
    dropped, then ``decay`` and ``noise_scale`` as a 2×2 block per mode
    (a zero block without ``decay``).

    Otherwise a row's padded grid is ``pad`` interleaved n-point parts,
    and every array is indexed by part first and row second, so each
    part of the batch is one contiguous block: ``values`` holds the
    samples, ``poly`` the polynomial and ``terms`` the weighted parts,
    cut to the coarse half-spectrum, and after them ``decay·v̂`` and the
    noise.  Part r holds the samples at ``pad·j + r``, the n-point irfft
    of the first n/2 modes (``spec``) times the ``twiddle``
    ``exp(2πi·k·r/(pad·n))`` (none for part 0).  The fine half-spectrum
    is ``Σ_r weights_r·F_r`` over the parts' n-point spectra ``F_r``,
    with ``weights`` ``exp(−2πi·k·r/(pad·n))·gain/pad``, which fold the
    scale, the dropped coarse Nyquist mode and the gain into one product.
    """

    def __init__(self, n: int, pad: int, coeffs: dict,
                 gain: np.ndarray | float = 1.0,
                 decay: np.ndarray | None = None,
                 noise_scale: np.ndarray | None = None):
        self.n, half = n, n // 2
        gain = np.atleast_2d(gain)
        batch = gain.shape[0]
        self.coeffs, self.noisy = coeffs, noise_scale is not None
        if n <= DENSE_MAX:
            self._dense(pad, gain, decay, noise_scale)
            return
        self.inverse = None
        self.decay, self.noise_scale = decay, noise_scale
        extra = (decay is not None) + self.noisy
        self.values = np.empty((pad, batch, n))
        self.poly = np.empty((pad, batch, n))
        self.terms = np.empty((pad + extra, batch, half + 1), np.complex128)
        self.spec = np.zeros((pad, batch, half + 1), np.complex128)
        # phases of the parts: exp(2πi·k·r/(pad·n)) for r = 0 .. pad - 1
        phase = np.arange(half + 1) * np.arange(pad)[:, None] * (
            2.0 * np.pi / (pad * n))
        self.twiddle = np.exp(1j * phase[1:, None, :half])
        self.weights = np.exp(-1j * phase[:, None]) * (gain / pad)
        self.weights[..., half] = 0.0
        # views that a call fills: the coarse modes of the parts' spectra
        # and the parts' spectra, which are their own cut and are weighted
        # in place
        self.head = self.spec[:, :, :half]
        self.weighted = self.terms[:pad]

    def _dense(self, pad, gain, decay, noise_scale):
        half, size = self.n // 2, pad * self.n
        batch, floats = gain.shape[0], 2 * (half + 1)
        # row f of ``inverse`` is the samples of the half-spectrum whose
        # float f is 1, row j of ``fine`` the half-spectrum of sample j
        unit = np.eye(floats).view(np.complex128)
        unit[:, half] = 0.0
        self.inverse = np.fft.irfft(unit * pad, n=size)
        fine = np.fft.rfft(np.eye(size))[:, : half + 1]
        fine[:, half] = 0.0
        forward = (fine * (gain / pad)[:, None]).view(np.float64)
        chain = _power_chain(self.coeffs)
        blocks = [np.reshape(self.coeffs[e], (-1, 1, 1)) * forward
                  for e, _ in chain]
        # no decay is a zero block: the half-spectrum stays in ``stacked``
        # as the operand of ``inverse``
        blocks += [_float_matrices(np.broadcast_to(m, (batch, half + 1)))
                   for m in (0.0 if decay is None else decay, noise_scale)
                   if m is not None]
        self.update_matrix = np.concatenate(blocks, axis=1)
        # one row each of the powers, the half-spectrum and the raw noise;
        # every product is per row, of shape (1, k) @ (k, m), so a row has
        # the bits of its run alone
        powers = len(chain) * size
        self.stacked = np.empty((batch, 1, self.update_matrix.shape[1]))
        self.values = np.empty((batch, 1, size))
        self.floats = self.stacked[:, :, powers: powers + floats]
        self.own = self.floats[:, 0].view(np.complex128)
        self.raw = self.stacked[:, 0, powers + floats:].view(np.complex128)
        # the products of each power, and the operands of a step without
        # its noise
        slots = {1: self.values}
        self.chain = []
        for i, (e, factors) in enumerate(chain):
            slots[e] = self.stacked[:, :, i * size: (i + 1) * size]
            self.chain.append((slots[e], *(slots[f] for f in factors)))
        quiet = powers + floats
        self.quiet = self.stacked[:, :, :quiet], self.update_matrix[:, :quiet]


def dealiased_powers(rspec: np.ndarray, padded: PaddedGrid,
                     raw: np.ndarray | None = None) -> np.ndarray:
    """The update of ``padded`` of each row of ``rspec``, as a new array of
    rows of ``padded.n // 2 + 1`` coefficients: the alias-free polynomial
    times the gain, plus ``decay·v̂`` and, with ``raw`` on a grid that has
    a noise scale, ``noise_scale·raw``.  A pad factor of 2 is exact up to
    the cube, 3 up to v^5.

    On the dense layout that is the samples (one matrix product per row),
    one product per power and one matrix product per row of
    ``[powers | v̂ | raw]`` by its ``update_matrix``.  On the interleaved
    one it is one batched inverse FFT, the polynomial by Horner's rule,
    one batched forward FFT and one product with the weights, then
    ``decay·v̂`` and the noise written after the weighted parts into
    ``padded.terms``, which ``np.add.reduce`` adds along that axis in
    their order, ``((f_0 + f_1) + decay·v̂) + noise``, with no temporary.
    """
    noisy = raw is not None and padded.noisy
    if padded.inverse is not None:
        padded.own[...] = rspec
        np.matmul(padded.floats, padded.inverse, out=padded.values)
        for out, first, second, *rest in padded.chain:
            np.multiply(first, second, out=out)
            for factor in rest:
                out *= factor
        if noisy:
            padded.raw[...] = raw
            stacked, update = padded.stacked, padded.update_matrix
        else:
            stacked, update = padded.quiet
        return np.matmul(stacked, update)[:, 0].view(np.complex128)
    values, terms, parts = padded.values, padded.terms, len(padded.values)
    head = padded.head
    coarse = rspec[:, : head.shape[-1]]
    head[0] = coarse
    np.multiply(coarse, padded.twiddle, out=head[1:])
    np.fft.irfft(padded.spec, n=values.shape[-1], out=values)
    _horner(values, padded.coeffs, out=padded.poly)
    np.fft.rfft(padded.poly, out=padded.weighted)
    np.multiply(padded.weighted, padded.weights, out=padded.weighted)
    if padded.decay is not None:
        np.multiply(padded.decay, rspec, out=terms[parts])
        parts += 1
    if noisy:
        np.multiply(raw, padded.noise_scale, out=terms[parts])
        parts += 1
    return np.add.reduce(terms[:parts], axis=0)


class EnvelopeGrid:
    """Work arrays of :func:`envelope_powers` for a batch of ``rows`` rows
    of ``width`` contiguous modes, filled in place on every call; a caller
    owns its own instance and never shares it between threads.

    A row's samples a are its w modes zero-padded at the end to ``ne``
    points: A e^{ihX dk} for a run whose first mode is -h, a pure phase
    that drops out of |a|^2.  a |a|^{2e} spans the shifts -e (w-1) ..
    (e+1)(w-1), so its first w modes alias nothing once ne > (e+1)(w-1):
    ``ne`` is the smallest power of two above 2 (w-1), or 3 (w-1) with
    ``quintic``.  ``quadratic`` adds the work arrays of ``inv``.
    """

    def __init__(self, rows: int, width: int, quintic: bool,
                 quadratic: bool = False):
        self.ne = 1 << ((3 if quintic else 2) * (width - 1)).bit_length()
        # a row each: a, |a|^2, |Im a|^2 and then p(|a|^2), the products
        # and, with ``quadratic``, the spectra of the two squares
        size = (rows, self.ne)
        self.a, self.g = np.empty((2, *size), np.complex128)
        self.abs2, self.poly = np.empty((2, *size))
        if quadratic:
            self.h = np.empty_like(self.g)
            self.squares = np.empty((rows, 2, self.ne), np.complex128)


def envelope_powers(E: np.ndarray, coeffs: dict, gain, env: EnvelopeGrid,
                    inv: np.ndarray | None = None) -> np.ndarray:
    """The first ``E.shape[-1]`` modes of ``gain`` times a p(|a|^2), p(y) =
    sum_e coeffs[e] y^e, for the envelope samples a on ``env`` of each row
    of ``E``, as a new array; with ``inv``, of a (p(|a|^2) + B0) + conj(a)
    B2, B0 and B2 the inverse transforms of ``inv[:, 0]`` times the
    spectrum of 2|a|^2 and ``inv[:, 1]`` times that of a^2.  2 batched
    FFTs of ``ne`` points, 4 with ``inv``; a row has the bits of its call
    alone."""
    a, abs2, poly, g = env.a, env.abs2, env.poly, env.g
    np.fft.ifft(E, n=env.ne, out=a)
    np.multiply(a.real, a.real, out=abs2)
    np.multiply(a.imag, a.imag, out=poly)
    abs2 += poly
    _horner(abs2, coeffs, out=poly)
    if inv is not None:
        squares, h = env.squares, env.h
        np.multiply(2.0, abs2, out=squares[:, 0])
        np.multiply(a, a, out=squares[:, 1])
        np.fft.fft(squares, out=squares)
        np.multiply(inv, squares, out=squares)
        np.fft.ifft(squares, out=squares)
        np.add(poly, squares[:, 0], out=g)
        np.multiply(a, g, out=g)
        np.multiply(np.conjugate(a, out=h), squares[:, 1], out=h)
        g += h
    else:
        np.multiply(a, poly, out=g)
    np.fft.fft(g, out=g)
    return gain * g[:, : E.shape[-1]]
