"""Smooth Fourier band projectors P0, P1, P2, the cached table of band
symbols, and carrier (de)modulation between the band field and the complex
amplitude.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grid import ComplexField, Grid, RealField
from .operators import inv_symbol_scaled, symbol_L_eps

DEFAULT_DELTA = 0.125

#: largest share of a band field's energy that may lie off the P1 band
#: before its demodulated amplitude is refused
OFFBAND_ENERGY_TOL = 0.01

#: guard on |1 - eps^2 K^2| before inverting on the P0/P2 bands
NEAR_SINGULAR_TOL = 1e-6

_BAND_SPEC = {
    # which -> (centers in units of 1/eps, plateau radius in units of delta/eps)
    "P0": ((0.0,), 2.0),
    "P1": ((-1.0, 1.0), 1.0),
    "P2": ((-2.0, 2.0), 2.0),
}


#: width, in wavenumber, of the raised-cosine taper of every band kernel
TAPER_WIDTH = 1.0


@dataclass(frozen=True)
class BandKernel:
    """Smooth multiplier q(K): 1 on a plateau around each center, raised-cosine
    taper to 0 over ``TAPER_WIDTH``, symmetric under K -> -K."""

    centers: tuple[float, ...]
    plateau_radius: float

    def evaluate(self, K) -> np.ndarray:
        K = np.asarray(K, dtype=np.float64)
        dist = np.min(np.abs(K[..., None] - np.asarray(self.centers)), axis=-1)
        s = (dist - self.plateau_radius) / TAPER_WIDTH
        q = np.where(s <= 0.0, 1.0,
                     np.where(s >= 1.0, 0.0, 0.5 * (1.0 + np.cos(np.pi * np.clip(s, 0.0, 1.0)))))
        return q

    @property
    def support_radius(self) -> float:
        return self.plateau_radius + TAPER_WIDTH


def make_kernel(which: str, delta: float, grid: Grid) -> BandKernel:
    """Build the P0/P1/P2 kernel for the given delta on a grid, at its eps."""
    if which not in _BAND_SPEC:
        raise ValueError(f"unknown band {which!r}")
    if not (0 < delta <= 0.5):
        raise ValueError("delta must lie in (0, 1/2]")
    eps = grid.eps
    centers_rel, radius_rel = _BAND_SPEC[which]
    centers = tuple(c / eps for c in centers_rel)
    kernel = BandKernel(centers=centers, plateau_radius=radius_rel * delta / eps)
    outer = max(abs(c) for c in centers) + kernel.support_radius
    if outer >= grid.nyquist:
        raise ValueError("band support reaches past the grid Nyquist")
    # P1 and P2 supports must stay disjoint (needed for the projector algebra)
    p1_hi = 1.0 / eps + delta / eps + 1.0
    p2_lo = 2.0 / eps - 2.0 * delta / eps - 1.0
    if which in ("P1", "P2") and p1_hi >= p2_lo:
        raise ValueError("delta too large: P1 and P2 supports overlap")
    return kernel


@dataclass(frozen=True, eq=False)
class BandSymbols:
    """Multipliers of one (grid, delta) on the rfft layout: the symbol
    ``lam`` of L_eps, the kernels ``q0``/``q1``/``q2`` and the scaled inverse
    eps^-2 L_eps^-1 weighted by each fast band, ``inv0``/``inv2`` (zero off
    its support); ``band`` is the P1 slice m-b .. m+b around the carrier
    index m, outside which q1 is zero.

    Built once by :func:`band_symbols` and shared by every consumer, on any
    thread, so the arrays are read-only.
    """

    lam: np.ndarray
    q0: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    inv0: np.ndarray
    inv2: np.ndarray
    band: slice


@functools.lru_cache(maxsize=32)
def band_symbols(grid: Grid, delta: float) -> BandSymbols:
    """The cached band-symbol table of (grid, delta), at the grid's eps.

    Raises ValueError if a band does not fit the grid or if the inverse is
    near-singular on the P0/P2 support.
    """
    K, eps = grid.rfft_wavenumbers, grid.eps
    kernels = [make_kernel(b, delta, grid) for b in ("P0", "P1", "P2")]
    q0, q1, q2 = (kernel.evaluate(K) for kernel in kernels)
    if np.any(np.abs(1.0 - (eps * K[(q0 + q2) > 0]) ** 2) < NEAR_SINGULAR_TOL):
        raise ValueError(
            "near-singular inverse on band support (delta too large for eps)")
    invs = []
    for q in (q0, q2):
        on = q > 0
        inv = np.zeros_like(K)
        inv[on] = q[on] * inv_symbol_scaled(K[on], eps)
        invs.append(inv)
    arrays = (symbol_L_eps(K, eps), q0, q1, q2, *invs)
    for a in arrays:
        a.setflags(write=False)
    m, on = grid.carrier_index, np.flatnonzero(q1)
    b = int(max(m - on[0], on[-1] - m))
    return BandSymbols(*arrays, band=slice(m - b, m + b + 1))


def project(f: RealField, q: np.ndarray) -> RealField:
    """P f for a band multiplier ``q`` on the rfft layout (a ``BandSymbols``
    kernel)."""
    return RealField.from_spectrum(f.grid, f.spectrum() * q)


# -- carrier modulation ------------------------------------------------------

def demodulate(v1: RealField, delta: float = DEFAULT_DELTA,
               energy_tol: float = OFFBAND_ENERGY_TOL) -> ComplexField:
    """Complex amplitude A with v1 = A e^{iX/eps} + c.c., eps the grid's.

    A is the positive band of v1 (modes 1 .. n/2 - 1 of its rfft) shifted
    down by the carrier index.  Rejects input with more than
    ``energy_tol`` of its energy outside the P1 band.
    """
    grid = v1.grid
    rspec = v1.spectrum()
    power = np.abs(rspec) ** 2
    power[1:-1] *= 2.0  # these modes stand for their conjugates too
    total = np.sum(power)
    q1 = band_symbols(grid, delta).q1
    if total > 0 and np.sum((1.0 - q1) ** 2 * power) > energy_tol * total:
        raise ValueError("field has significant energy outside the P1 band")
    n, m = grid.n_points, grid.carrier_index
    spec = np.zeros(n, dtype=np.complex128)
    spec[: n // 2 - m] = rspec[m: n // 2]
    spec[n - m + 1:] = rspec[1:m]
    return ComplexField.from_spectrum(grid, spec)


def modulate(A: ComplexField) -> RealField:
    """Real field A e^{iX/eps} + c.c. on A's grid, at its eps."""
    grid = A.grid
    spec = A.spectrum()
    n, m = grid.n_points, grid.carrier_index
    # shifting by +m must not push content past Nyquist or below DC
    idx = np.fft.fftfreq(n, d=1.0 / n).astype(int)  # signed mode indices
    shifted = idx + m
    bad = (np.abs(spec) > 1e-12 * (1 + np.max(np.abs(spec)))) & (
        (shifted >= n // 2) | (shifted <= -n // 2))
    if np.any(bad):
        raise ValueError("amplitude band would alias past Nyquist when modulated")
    up = np.roll(spec, m)
    return RealField(grid, 2.0 * np.real(np.fft.ifft(up)))


def kernel_dump_csv(kernel: BandKernel, grid: Grid, path) -> None:
    """Debug dump: CSV columns k,q(k) over the grid's signed wavenumbers."""
    K = np.sort(grid.wavenumbers)
    q = kernel.evaluate(K)
    with open(path, "w") as fh:
        fh.write("k,q\n")
        for k, v in zip(K, q):
            fh.write(f"{k:.12g},{v:.12g}\n")
