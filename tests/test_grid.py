import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shmod import ComplexField, Grid, RealField, read_field, write_field


def test_carrier_wavenumber_is_exactly_on_grid():
    for eps in (0.2, 0.14, 0.1, 0.07, 0.05):
        g = Grid.for_carrier(eps, 1024, periods=64)
        assert g.carrier_index == 64
        k = g.wavenumbers
        assert np.min(np.abs(k - 1.0 / g.eps)) < 1e-9 * (1.0 / g.eps)


def test_eps_derived_from_carrier_index():
    g = Grid.for_carrier(0.1, 1024, periods=64)
    assert g.eps == pytest.approx(0.1, rel=1e-12)
    # eps is 1 / (carrier_index * dk) by construction
    assert g.eps == pytest.approx(1.0 / (g.carrier_index * g.dk), rel=1e-14)


def test_nyquist_covers_second_harmonic_band():
    g = Grid.for_carrier(0.1, 1024, periods=64)
    assert g.nyquist > 2.0 / g.eps


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_real_field_spectrum_roundtrip(seed):
    g = Grid.for_carrier(0.1, 256, periods=16)
    vals = np.random.default_rng(seed).standard_normal(g.n_points)
    f = RealField(g, vals)
    back = RealField.from_spectrum(g, f.spectrum())
    np.testing.assert_allclose(back.values, vals, atol=1e-12)


def test_norms_of_constant_field():
    g = Grid.for_carrier(0.1, 256, periods=16)
    f = RealField(g, np.full(g.n_points, 3.0))
    assert f.sup_norm() == 3.0
    assert f.l2_norm() == pytest.approx(3.0 * np.sqrt(g.length), rel=1e-12)


def test_field_arithmetic(grid, rng):
    a = RealField(grid, rng.standard_normal(grid.n_points))
    b = RealField(grid, rng.standard_normal(grid.n_points))
    np.testing.assert_array_equal((a + b).values, a.values + b.values)
    np.testing.assert_array_equal((a - b).values, a.values - b.values)
    np.testing.assert_array_equal((a * 2.0).values, 2.0 * a.values)


def test_field_length_mismatch_rejected(grid):
    with pytest.raises(ValueError):
        RealField(grid, np.zeros(grid.n_points - 1))


def test_snapshot_roundtrip_real(tmp_path, grid, rng):
    f = RealField(grid, rng.standard_normal(grid.n_points))
    path = tmp_path / "f.field"
    write_field(path, f)
    back = read_field(path, carrier_index=grid.carrier_index)
    assert isinstance(back, RealField)
    np.testing.assert_array_equal(back.values, f.values)
    assert back.grid.length == f.grid.length


def test_snapshot_roundtrip_complex(tmp_path, grid, rng):
    vals = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    f = ComplexField(grid, vals)
    path = tmp_path / "f.field"
    write_field(path, f)
    back = read_field(path, carrier_index=grid.carrier_index)
    assert isinstance(back, ComplexField)
    np.testing.assert_array_equal(back.values, f.values)


@settings(max_examples=25, deadline=None)
@given(periods=st.integers(1, 255), eps=st.floats(0.01, 0.9),
       is_complex=st.booleans())
def test_snapshot_roundtrip_keeps_carrier(tmp_path_factory, periods, eps,
                                          is_complex):
    # a field written off the default periods = n/16 reads back on its grid,
    # so with its true eps
    grid = Grid.for_carrier(eps, 512, periods=periods)
    vals = np.cos(grid.x / grid.eps) * (1j if is_complex else 1.0)
    f = (ComplexField if is_complex else RealField)(grid, vals)
    path = tmp_path_factory.mktemp("field") / "f.field"
    write_field(path, f)
    back = read_field(path)
    assert back.grid == grid
    assert back.grid.eps == grid.eps
    np.testing.assert_array_equal(back.values, f.values)


def test_snapshot_reads_shm1_and_rejects_a_conflicting_carrier(tmp_path,
                                                                grid, rng):
    # SHM1 files carry no carrier_index; SHM2 files must not be read on
    # another one
    vals = rng.standard_normal(grid.n_points)
    old = tmp_path / "old.field"
    header = struct.pack("<IdB", grid.n_points, grid.length, 0)
    old.write_bytes(b"SHM1" + header + vals.astype("<f8").tobytes())
    back = read_field(old, carrier_index=grid.carrier_index)
    assert back.grid == grid
    np.testing.assert_array_equal(back.values, vals)
    assert read_field(old).grid.carrier_index == grid.n_points // 16
    new = tmp_path / "new.field"
    write_field(new, RealField(grid, vals))
    with pytest.raises(ValueError, match="carrier_index"):
        read_field(new, carrier_index=grid.carrier_index + 1)


def test_snapshot_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.field"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError):
        read_field(path)
    # and a header cut short is a ValueError too, not a struct.error
    path.write_bytes(b"SHM2" + b"\x00" * 3)
    with pytest.raises(ValueError, match="truncated"):
        read_field(path)
