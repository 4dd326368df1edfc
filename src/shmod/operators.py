"""Fourier symbols of L = -(1+Laplacian)^2, of its rescaled version and of
the scaled inverse, and dealiased polynomial kernels.
"""
from __future__ import annotations

import numpy as np


def symbol_L(k):
    """Multiplier of -(1+Laplacian)^2 at wavenumber k: -(1-k^2)^2."""
    k = np.asarray(k, dtype=np.float64)
    s = -((1.0 - k ** 2) ** 2)
    return s if s.ndim else float(s)


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

def _pad_to_physical(rspec: np.ndarray, n: int, n_pad: int) -> np.ndarray:
    """Zero-pad an rfft half-spectrum and return fine-grid physical samples."""
    padded = np.zeros(n_pad // 2 + 1, dtype=np.complex128)
    padded[: n // 2 + 1] = rspec
    padded[n // 2] = 0.0  # drop the ambiguous coarse Nyquist coefficient
    return np.fft.irfft(padded, n=n_pad) * (n_pad / n)


def _truncate_to_spec(values_pad: np.ndarray, n: int) -> np.ndarray:
    n_pad = values_pad.shape[0]
    spec = np.fft.rfft(values_pad)[: n // 2 + 1] * (n / n_pad)
    spec[n // 2] = 0.0
    return spec


def _horner(vp: np.ndarray, coeffs: dict) -> np.ndarray:
    """Samples of sum_e coeffs[e] vp^e (exponents >= 1) by Horner's rule,
    from products only: numpy's float power of signed data costs about
    50 times the product x*x*x."""
    top = max(coeffs)
    poly = coeffs[top] * vp
    for e in range(top - 1, 0, -1):
        if coeffs.get(e):
            poly += coeffs[e]
        poly *= vp
    return poly


def dealiased_powers(rspec: np.ndarray, n: int, coeffs: dict,
                     pad_factor: int) -> np.ndarray:
    """Half-spectrum of the polynomial sum_e coeffs[e] v^e, alias-free.

    One padded inverse FFT, the polynomial on the fine grid, one truncating
    forward FFT.  pad_factor 2 is exact up to the cube, 3 up to v^5.
    """
    vp = _pad_to_physical(rspec, n, pad_factor * n)
    return _truncate_to_spec(_horner(vp, coeffs), n)


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
