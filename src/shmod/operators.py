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
    data costs about 50 times the product x*x*x."""
    top = max(coeffs)
    poly = np.multiply(coeffs[top], vp, out=out)
    for e in range(top - 1, 0, -1):
        if coeffs.get(e):
            poly += coeffs[e]
        poly *= vp
    return poly


#: smallest n at which :class:`PaddedGrid` holds interleaved rows; below
#: it one padded row costs less (the crossover table in README)
INTERLEAVE_MIN = 1024


class PaddedGrid:
    """Work arrays of :func:`dealiased_powers` on the ``pad * n`` point
    grid, filled in place on every call, so a step allocates no padded
    array; a caller owns its own instance and never shares it between
    threads.

    From ``INTERLEAVE_MIN`` points on the grid is ``pad`` interleaved
    n-point rows: row r holds the samples at ``pad·j + r``, the n-point
    irfft of the first n/2 modes times the ``twiddle``
    ``exp(2πi·k·r/(pad·n))`` (none for row 0).  Otherwise it is one padded
    row.  ``spec`` holds the rows' half-spectra, zero from n/2
    on, ``values`` the samples, ``poly`` the polynomial and ``fine`` its
    spectra.  The fine half-spectrum is ``Σ_r weights_r·fine_r``: the
    ``weights`` ``exp(−2πi·k·r/(pad·n))·gain/pad`` fold the phases, the
    scale, the dropped coarse Nyquist mode and ``gain`` into one product.
    """

    def __init__(self, n: int, pad: int, gain: np.ndarray | float = 1.0):
        self.n, self.pad, half = n, pad, n // 2
        interleave = n >= INTERLEAVE_MIN
        rows, size = (pad, n) if interleave else (1, pad * n)
        self.spec = np.zeros((rows, size // 2 + 1), dtype=np.complex128)
        self.values = np.empty((rows, size))
        self.poly = np.empty((rows, size))
        self.fine = np.empty_like(self.spec)
        # phases of the rows: exp(2πi·k·r/(pad·n)) for r = 0 .. rows - 1
        phase = np.arange(half + 1) * np.arange(rows)[:, None] * (
            2.0 * np.pi / (pad * n))
        self.twiddle = np.exp(1j * phase[1:, :half]) if interleave else None
        self.weights = np.exp(-1j * phase) * (gain / pad)
        self.weights[:, half] = 0.0


def dealiased_powers(rspec: np.ndarray, coeffs: dict,
                     padded: PaddedGrid) -> np.ndarray:
    """Half-spectrum of the polynomial sum_e coeffs[e] v^e, alias-free and
    times ``padded``'s gain, as a new array of ``padded.n // 2 + 1``
    coefficients: one batched inverse FFT, the polynomial on the fine
    grid, one batched forward FFT and the weighted sum of its rows.  A pad
    factor of 2 is exact up to the cube, 3 up to v^5.
    """
    half, spec = padded.n // 2, padded.spec
    if padded.twiddle is None:  # scaled so the samples come out at theirs
        np.multiply(rspec[:half], padded.pad, out=spec[0, :half])
    else:
        spec[0, :half] = rspec[:half]
        np.multiply(rspec[:half], padded.twiddle, out=spec[1:, :half])
    np.fft.irfft(spec, n=padded.values.shape[1], out=padded.values)
    _horner(padded.values, coeffs, out=padded.poly)
    fine = np.fft.rfft(padded.poly, out=padded.fine)[:, : half + 1]
    if padded.twiddle is None:
        return np.multiply(fine[0], padded.weights[0])
    np.multiply(fine, padded.weights, out=fine)
    return np.add.reduce(fine, axis=0)


def dealiased_powers_complex(spec: np.ndarray, n: int, coeffs: dict,
                             pad_factor: int) -> np.ndarray:
    """Full spectrum of sum_e coeffs[e] A |A|^(e-1) for complex A; e in {3, 5}."""
    n_pad, half = pad_factor * n, n // 2
    padded = np.concatenate([spec[:half], np.zeros(n_pad - n), spec[half:]])
    ap = np.fft.ifft(padded) * (n_pad / n)
    abs2 = ap.real * ap.real + ap.imag * ap.imag
    gain = _horner(abs2, {(e - 1) // 2: c for e, c in coeffs.items()})
    ws = np.fft.fft(ap * gain) * (n / n_pad)
    return np.concatenate([ws[:half], ws[n_pad - half:]])
