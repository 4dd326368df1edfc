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


#: largest n at which :class:`PaddedGrid` holds dense transform matrices;
#: above it interleaved rows cost less (the crossover table in README)
DENSE_MAX = 32

#: the terms that :func:`dealiased_powers` adds after the polynomial, at
#: most: the linear flow and the noise of an SH step
EXTRA_TERMS = 2


class PaddedGrid:
    """Work arrays of :func:`dealiased_powers` for a batch of rows on the
    ``pad * n`` point grid, filled in place on every call, so a step
    allocates no padded array; a caller owns its own instance and never
    shares it between threads.

    ``gain`` has one row per row of the batch (a scalar is a batch of
    one).  Every array is indexed by part first and row second, so each
    part of the batch is one contiguous block: ``values`` holds the
    samples, ``poly`` the polynomial and ``terms`` the weighted parts,
    cut to the coarse half-spectrum, and after them the extra terms of
    the sum.  Each part's weights fold the scale, the dropped coarse
    Nyquist mode and the row's ``gain`` into one product.

    Up to ``DENSE_MAX`` points the grid is one *dense* part, taken by
    matrix products from and to the float view of the half-spectrum:
    ``inverse`` maps it to the ``pad·n`` samples (its rows of the Nyquist
    mode and of the imaginary part of the mean are zero), and each row's
    ``forward`` maps its samples to the weighted half-spectrum, times
    ``gain/pad``.  Otherwise a row's padded grid is ``pad`` interleaved
    n-point parts: part r holds the samples at ``pad·j + r``, the n-point
    irfft of the first n/2 modes (``spec``) times the ``twiddle``
    ``exp(2πi·k·r/(pad·n))`` (none for part 0).  The fine half-spectrum
    is ``Σ_r weights_r·F_r`` over the parts' n-point spectra ``F_r``,
    with ``weights`` ``exp(−2πi·k·r/(pad·n))·gain/pad``.
    """

    def __init__(self, n: int, pad: int, gain: np.ndarray | float = 1.0):
        self.n, half = n, n // 2
        gain = np.atleast_2d(gain)
        batch = gain.shape[0]
        parts, size = (1, pad * n) if n <= DENSE_MAX else (pad, n)
        self.values = np.empty((parts, batch, size))
        self.poly = np.empty((parts, batch, size))
        self.terms = np.empty((parts + EXTRA_TERMS, batch, half + 1),
                              np.complex128)
        if parts == 1:
            # row f of ``inverse`` is the samples of the half-spectrum whose
            # float f is 1, row j of ``fine`` the half-spectrum of sample j
            unit = np.eye(2 * (half + 1)).view(np.complex128)
            unit[:, half] = 0.0
            self.inverse = np.fft.irfft(unit * pad, n=size)
            fine = np.fft.rfft(np.eye(size))[:, : half + 1]
            fine[:, half] = 0.0
            self.forward = (fine * (gain / pad)[:, None]).view(np.float64)
            # one product per row, of shape (1, floats) @ (floats, samples)
            # and back, so a row has the bits of its run alone
            self.row_values = self.values[0, :, None]
            self.row_poly = self.poly[0, :, None]
            self.row_terms = self.terms[0].view(np.float64)[:, None]
            return
        self.inverse = None
        self.spec = np.zeros((parts, batch, half + 1), np.complex128)
        # phases of the parts: exp(2πi·k·r/(pad·n)) for r = 0 .. parts - 1
        phase = np.arange(half + 1) * np.arange(parts)[:, None] * (
            2.0 * np.pi / (pad * n))
        self.twiddle = np.exp(1j * phase[1:, None, :half])
        self.weights = np.exp(-1j * phase[:, None]) * (gain / pad)
        self.weights[..., half] = 0.0
        # views that a call fills: the coarse modes of the parts' spectra
        # and the parts' spectra, which are their own cut and are weighted
        # in place
        self.head = self.spec[:, :, :half]
        self.weighted = self.terms[:parts]


def dealiased_powers(rspec: np.ndarray, coeffs: dict, padded: PaddedGrid,
                     *products) -> np.ndarray:
    """Half-spectra of the polynomial sum_e coeffs[e] v^e of each row of
    ``rspec``, alias-free and times ``padded``'s gain, plus the product
    ``x * y`` of each pair ``(x, y)`` in ``products``, as a new array of
    rows of ``padded.n // 2 + 1`` coefficients: the samples on the padded
    grid (one matrix product per row, or one batched inverse FFT), the
    polynomial there, its weighted spectrum (one matrix product per row,
    or one batched forward FFT and one product) and one sum over the parts
    of ``padded.terms``.  A pad factor of 2 is exact up to the cube, 3 up
    to v^5.

    The weighted parts and then each product are written into the parts
    of ``terms``, and ``np.add.reduce`` adds them along that axis in their
    order, ``((f_0 + f_1) + x·y) + ...``, with no temporary.
    """
    terms, values = padded.terms, padded.values
    if padded.inverse is not None:
        floats = np.ascontiguousarray(rspec).view(np.float64)
        np.matmul(floats[:, None], padded.inverse, out=padded.row_values)
        _horner(values, coeffs, out=padded.poly)
        np.matmul(padded.row_poly, padded.forward, out=padded.row_terms)
    else:
        head = padded.head
        coarse = rspec[:, : head.shape[-1]]
        head[0] = coarse
        np.multiply(coarse, padded.twiddle, out=head[1:])
        np.fft.irfft(padded.spec, n=values.shape[-1], out=values)
        _horner(values, coeffs, out=padded.poly)
        np.fft.rfft(padded.poly, out=padded.weighted)
        np.multiply(padded.weighted, padded.weights, out=padded.weighted)
    parts = len(values)
    for part, (x, y) in enumerate(products, parts):
        np.multiply(x, y, out=terms[part])
    return np.add.reduce(terms[: parts + len(products)], axis=0)


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
