"""Periodic 1-D grid and real/complex field containers.

All dynamics runs in the rescaled frame: the spatial variable is X = eps*x,
so the carrier wave cos(x) of the pattern appears at wavenumber 1/eps.  The
grid is constructed so that 1/eps is *exactly* a grid wavenumber (the carrier
sits in a single Fourier bin and never leaks).
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi

#: default ratio n_points / carrier_index; gives Nyquist = 8/eps
DEFAULT_POINTS_PER_PERIOD = 16


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, length) with an exactly resolvable carrier.

    ``carrier_index`` is the Fourier index m with wavenumber m*2*pi/length
    equal to 1/eps; ``eps`` is derived, not stored, so the commensurability
    invariant cannot drift.
    """

    n_points: int
    length: float
    carrier_index: int

    def __post_init__(self):
        if self.n_points <= 0 or self.n_points % 2 != 0:
            raise ValueError("n_points must be a positive even integer")
        if not (self.length > 0 and np.isfinite(self.length)):
            raise ValueError("length must be positive and finite")
        if not (0 < self.carrier_index < self.n_points // 2):
            raise ValueError("carrier_index must lie strictly below Nyquist")

    # -- derived geometry -------------------------------------------------

    @property
    def dx(self) -> float:
        return self.length / self.n_points

    @property
    def dk(self) -> float:
        return TWO_PI / self.length

    @property
    def eps(self) -> float:
        """Effective eps: 1/eps is the carrier wavenumber."""
        return 1.0 / (self.carrier_index * self.dk)

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n_points) * self.dx

    @property
    def wavenumbers(self) -> np.ndarray:
        """Signed wavenumbers in numpy fft layout."""
        return np.fft.fftfreq(self.n_points, d=self.dx) * TWO_PI

    @property
    def rfft_wavenumbers(self) -> np.ndarray:
        return np.fft.rfftfreq(self.n_points, d=self.dx) * TWO_PI

    @property
    def nyquist(self) -> float:
        return (self.n_points // 2) * self.dk

    # -- constructors ------------------------------------------------------

    @classmethod
    def for_carrier(cls, eps: float, n_points: int = 8192,
                    periods: int | None = None) -> "Grid":
        """Grid whose carrier wavenumber is exactly 1/eps.

        ``periods`` is the number of carrier periods in the domain; the
        rescaled length is 2*pi*periods*eps (= 2*pi*periods unrescaled).
        """
        if not (0 < eps < 1):
            raise ValueError("eps must lie in (0, 1)")
        if periods is None:
            periods = n_points // DEFAULT_POINTS_PER_PERIOD
        return cls(n_points=n_points, length=TWO_PI * periods * eps,
                   carrier_index=periods)


def _as_array(values, dtype) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    if arr.ndim != 1:
        raise ValueError("field values must be one-dimensional")
    return arr


@dataclass(frozen=True)
class RealField:
    """Real grid samples (the SH solution v and its projections)."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _as_array(self.values, np.float64))
        if self.values.shape[0] != self.grid.n_points:
            raise ValueError("values length does not match grid")

    def spectrum(self) -> np.ndarray:
        """rfft coefficients (Hermitian half; realness is structural)."""
        return np.fft.rfft(self.values)

    def full_spectrum(self) -> np.ndarray:
        return np.fft.fft(self.values)

    @classmethod
    def from_spectrum(cls, grid: Grid, rspec: np.ndarray) -> "RealField":
        return cls(grid, np.fft.irfft(rspec, n=grid.n_points))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def l2_norm(self) -> float:
        return float(np.sqrt(self.grid.dx * np.sum(self.values ** 2)))

    def __add__(self, other: "RealField") -> "RealField":
        return RealField(self.grid, self.values + other.values)

    def __sub__(self, other: "RealField") -> "RealField":
        return RealField(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "RealField":
        return RealField(self.grid, self.values * c)

    __rmul__ = __mul__


@dataclass(frozen=True)
class ComplexField:
    """Complex grid samples (the amplitude A)."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _as_array(self.values, np.complex128))
        if self.values.shape[0] != self.grid.n_points:
            raise ValueError("values length does not match grid")

    def spectrum(self) -> np.ndarray:
        return np.fft.fft(self.values)

    @classmethod
    def from_spectrum(cls, grid: Grid, spec: np.ndarray) -> "ComplexField":
        return cls(grid, np.fft.ifft(spec))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __mul__(self, c) -> "ComplexField":
        return ComplexField(self.grid, self.values * c)

    __rmul__ = __mul__


# -- binary snapshot format ------------------------------------------------
# little-endian: magic "SHM2", u32 n_points, f64 length, u32 carrier_index,
# u8 is_complex, then n_points f64 (real) or 2*n_points f64 interleaved
# re/im (complex).  "SHM1" files lack the carrier_index field.

_HEADERS = {b"SHM1": struct.Struct("<IdB"), b"SHM2": struct.Struct("<IdIB")}


def write_field(path, f: RealField | ComplexField) -> None:
    is_complex = isinstance(f, ComplexField)
    g = f.grid
    with open(path, "wb") as fh:
        fh.write(b"SHM2" + _HEADERS[b"SHM2"].pack(
            g.n_points, g.length, g.carrier_index, 1 if is_complex else 0))
        if is_complex:
            inter = np.empty(2 * g.n_points, dtype="<f8")
            inter[0::2] = f.values.real
            inter[1::2] = f.values.imag
            fh.write(inter.tobytes())
        else:
            fh.write(f.values.astype("<f8").tobytes())


def read_field(path, carrier_index: int | None = None) -> RealField | ComplexField:
    """Read a field snapshot on the grid stored with it.

    ``carrier_index`` is needed only for "SHM1" files, which do not store
    it, and defaults to n_points/16 there; an "SHM2" file whose stored
    index differs from a given one raises ValueError.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic not in _HEADERS:
            raise ValueError(f"bad field magic {magic!r}")
        header = fh.read(_HEADERS[magic].size)
        if len(header) < _HEADERS[magic].size:
            raise ValueError("truncated field snapshot header")
        fields = _HEADERS[magic].unpack(header)
        raw = np.frombuffer(fh.read(), dtype="<f8")
    if magic == b"SHM2":
        n, length, stored, is_complex = fields
        if carrier_index is not None and carrier_index != stored:
            raise ValueError(f"field stores carrier_index {stored}, "
                             f"not {carrier_index}")
        carrier_index = stored
    else:
        n, length, is_complex = fields
        if carrier_index is None:
            carrier_index = n // DEFAULT_POINTS_PER_PERIOD
    grid = Grid(n_points=n, length=length, carrier_index=carrier_index)
    if is_complex:
        if raw.size != 2 * n:
            raise ValueError("truncated complex field snapshot")
        return ComplexField(grid, raw[0::2] + 1j * raw[1::2])
    if raw.size != n:
        raise ValueError("truncated real field snapshot")
    return RealField(grid, raw.copy())
