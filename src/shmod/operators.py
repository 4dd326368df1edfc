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


class PaddedGrid:
    """Work arrays of :func:`dealiased_powers` on the ``pad_factor * n``
    point grid: the padded half-spectrum, whose entries from n/2 on stay
    zero, the fine-grid samples, the polynomial samples and their fine
    spectrum.

    Each is filled in place on every call, so a step allocates no padded
    array.  A caller owns its own instance and never shares it between
    threads.
    """

    def __init__(self, n: int, pad_factor: int):
        self.n, self.n_pad = n, pad_factor * n
        self.spec = np.zeros(self.n_pad // 2 + 1, dtype=np.complex128)
        self.values = np.empty(self.n_pad)
        self.poly = np.empty(self.n_pad)
        self.fine = np.empty_like(self.spec)


def dealiased_powers(rspec: np.ndarray, coeffs: dict,
                     padded: PaddedGrid) -> np.ndarray:
    """Half-spectrum of the polynomial sum_e coeffs[e] v^e, alias-free, as a
    new array of ``padded.n // 2 + 1`` coefficients.

    One padded inverse FFT, the polynomial on the fine grid, one truncating
    forward FFT, all in the arrays of ``padded``.  A pad factor of 2 is
    exact up to the cube, 3 up to v^5.  The ambiguous coarse Nyquist
    coefficient is dropped on the way in and out.
    """
    half, scale = padded.n // 2, padded.n_pad / padded.n
    padded.spec[:half] = rspec[:half]
    np.fft.irfft(padded.spec, n=padded.n_pad, out=padded.values)
    padded.values *= scale
    _horner(padded.values, coeffs, out=padded.poly)
    np.fft.rfft(padded.poly, out=padded.fine)
    spec = padded.fine[: half + 1] * (padded.n / padded.n_pad)
    spec[half] = 0.0
    return spec


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
