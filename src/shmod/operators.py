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


#: smallest n at which :class:`PaddedGrid` holds interleaved rows; below
#: it one padded row costs less (the crossover table in README)
INTERLEAVE_MIN = 1024

#: the terms that :func:`dealiased_powers` adds after the polynomial, at
#: most: the linear flow and the noise of an SH step
EXTRA_TERMS = 2


class PaddedGrid:
    """Work arrays of :func:`dealiased_powers` for a batch of rows on the
    ``pad * n`` point grid, filled in place on every call, so a step
    allocates no padded array; a caller owns its own instance and never
    shares it between threads.

    ``gain`` has one row per row of the batch (a scalar is a batch of
    one).  From ``INTERLEAVE_MIN`` points on, a row's padded grid is
    ``pad`` interleaved n-point parts: part r holds the samples at
    ``pad·j + r``, the n-point irfft of the first n/2 modes times the
    ``twiddle`` ``exp(2πi·k·r/(pad·n))`` (none for part 0).  Otherwise it
    is one padded part.  Every array is indexed by part first and row
    second, so each part of the batch is one contiguous block.  ``spec``
    holds the parts' half-spectra, zero from n/2 on, ``values`` the
    samples, ``poly`` the polynomial and ``fine`` its spectra.  ``terms``
    takes the weighted parts, cut to the coarse half-spectrum, and after
    them the extra terms of the sum; interleaved parts are their own
    cut, so ``fine`` is the first parts of ``terms``.  The
    fine half-spectrum is ``Σ_r weights_r·fine_r``: the ``weights``
    ``exp(−2πi·k·r/(pad·n))·gain/pad`` fold the phases, the scale, the
    dropped coarse Nyquist mode and the row's ``gain`` into one product.
    """

    def __init__(self, n: int, pad: int, gain: np.ndarray | float = 1.0):
        self.n, self.pad, half = n, pad, n // 2
        gain = np.atleast_2d(gain)
        batch = gain.shape[0]
        interleave = n >= INTERLEAVE_MIN
        parts, size = (pad, n) if interleave else (1, pad * n)
        self.spec = np.zeros((parts, batch, size // 2 + 1), np.complex128)
        self.values = np.empty((parts, batch, size))
        self.poly = np.empty((parts, batch, size))
        self.terms = np.empty((parts + EXTRA_TERMS, batch, half + 1),
                              np.complex128)
        self.fine = (self.terms[:parts] if interleave else
                     np.empty((parts, batch, size // 2 + 1), np.complex128))
        # phases of the parts: exp(2πi·k·r/(pad·n)) for r = 0 .. parts - 1
        phase = np.arange(half + 1) * np.arange(parts)[:, None] * (
            2.0 * np.pi / (pad * n))
        self.twiddle = (np.exp(1j * phase[1:, None, :half]) if interleave
                        else None)
        self.weights = np.exp(-1j * phase[:, None]) * (gain / pad)
        self.weights[..., half] = 0.0
        # views that a call fills: the coarse modes of the parts' spectra,
        # the fine spectra cut to the coarse half-spectrum and their
        # weighted terms
        self.head = self.spec[:, :, :half]
        self.cut = self.fine[..., : half + 1]
        self.weighted = self.terms[:parts]


def dealiased_powers(rspec: np.ndarray, coeffs: dict, padded: PaddedGrid,
                     *products) -> np.ndarray:
    """Half-spectra of the polynomial sum_e coeffs[e] v^e of each row of
    ``rspec``, alias-free and times ``padded``'s gain, plus the product
    ``x * y`` of each pair ``(x, y)`` in ``products``, as a new array of
    rows of ``padded.n // 2 + 1`` coefficients: one batched inverse FFT,
    the polynomial on the fine grid, one batched forward FFT and one sum
    over the parts of ``padded.terms``.  A pad factor of 2 is exact up to
    the cube, 3 up to v^5.

    The weighted parts and then each product are written into the parts
    of ``terms``, and ``np.add.reduce`` adds them along that axis in their
    order, ``((f_0 + f_1) + x·y) + ...``, with no temporary.
    """
    head, terms, values = padded.head, padded.terms, padded.values
    coarse = rspec[:, : head.shape[-1]]
    if padded.twiddle is None:  # scaled so the samples come out at theirs
        np.multiply(coarse, padded.pad, out=head[0])
    else:
        head[0] = coarse
        np.multiply(coarse, padded.twiddle, out=head[1:])
    np.fft.irfft(padded.spec, n=values.shape[-1], out=values)
    _horner(values, coeffs, out=padded.poly)
    np.fft.rfft(padded.poly, out=padded.fine)
    np.multiply(padded.cut, padded.weights, out=padded.weighted)
    parts = len(head)
    for part, (x, y) in enumerate(products, parts):
        np.multiply(x, y, out=terms[part])
    return np.add.reduce(terms[: parts + len(products)], axis=0)


def dealiased_powers_complex(spec: np.ndarray, n: int, coeffs: dict,
                             pad_factor: int) -> np.ndarray:
    """Full spectra of sum_e coeffs[e] A |A|^(e-1) for the complex rows A
    of ``spec``; e in {3, 5}."""
    n_pad, half = pad_factor * n, n // 2
    zeros = np.zeros((*spec.shape[:-1], n_pad - n))
    padded = np.concatenate([spec[..., :half], zeros, spec[..., half:]],
                            axis=-1)
    ap = np.fft.ifft(padded) * (n_pad / n)
    abs2 = ap.real * ap.real + ap.imag * ap.imag
    gain = _horner(abs2, {(e - 1) // 2: c for e, c in coeffs.items()})
    ws = np.fft.fft(ap * gain) * (n / n_pad)
    return np.concatenate([ws[..., :half], ws[..., n_pad - half:]], axis=-1)
