"""Reconstruction and Rusanov building blocks.

Face values for linear data are exact, limited slopes vanish at extrema, and
the dissipation speed matches the analytic characteristic bound.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congested_euler.fluxes import (
    div_from_faces,
    face_states,
    max_wave_speed,
    minmod,
    rusanov_flux,
)
from congested_euler.grid import GHOST, Grid, pad_field
from congested_euler.pressure import PressureLaw

LAW = PressureLaw(epsilon=1e-1, alpha=2.0, gamma=2.0)


def test_minmod_frozen_pairs():
    assert minmod(1.0, 2.0) == 1.0
    assert minmod(2.0, 1.0) == 1.0
    assert minmod(-1.0, 2.0) == 0.0
    assert minmod(-4.0, -2.0) == -2.0
    assert minmod(0.0, 5.0) == 0.0
    out = minmod(np.array([1.0, -1.0]), np.array([3.0, -0.5]))
    assert out.tolist() == [1.0, -0.5]


def test_first_order_faces_are_neighbors():
    padded = np.arange(10.0) ** 2
    n = padded.size - 2 * GHOST
    left, right = face_states(padded, axis=0, order=1)
    assert left.shape == right.shape == (n + 1,)
    assert np.array_equal(left, padded[GHOST - 1 : GHOST + n])
    assert np.array_equal(right, padded[GHOST : GHOST + n + 1])


def test_linear_data_reconstructs_face_values_exactly():
    padded = 3.0 * np.arange(12.0) + 1.0
    n = padded.size - 2 * GHOST
    left, right = face_states(padded, axis=0, order=2)
    # Both sides of every face agree on the linear interpolant there.
    expected = 3.0 * (np.arange(n + 1) + GHOST - 0.5) + 1.0
    np.testing.assert_allclose(left, expected, rtol=1e-14)
    np.testing.assert_allclose(right, expected, rtol=1e-14)


def test_extrema_fall_back_to_donor_values():
    padded = np.array([0.0, 1.0, 5.0, 1.0, 0.0, 1.0, 5.0, 1.0])
    left, right = face_states(padded, axis=0, order=2)
    # Cell 2 (value 5) and cell 4 (value 0) are extrema: zero slope there.
    assert left[1] == 5.0 and right[0] == 5.0
    assert left[3] == 0.0 and right[2] == 0.0


def test_periodic_grid_faces_close_the_loop():
    grid = Grid(nx=6)
    vals = np.array([1.0, 4.0, 2.0, 7.0, 3.0, 5.0])
    padded = pad_field(grid, vals)
    left, right = face_states(padded, axis=0, order=2)
    assert left.shape == (7,)
    # The first and last faces are the same periodic face.
    assert left[0] == left[-1] and right[0] == right[-1]


def test_two_dimensional_axis_handling():
    grid = Grid(nx=4, ny=3)
    f = np.arange(12.0).reshape(3, 4)
    padded = pad_field(grid, f)
    lx, rx = face_states(padded, axis=1, order=2)
    ly, ry = face_states(padded, axis=0, order=2)
    assert lx.shape == (3, 5) and ly.shape == (4, 4)
    # Rows of f step by 1 in x and 4 in y; linear data is exact even across
    # the periodic seam only where the wrap keeps it linear, so check an
    # internal face: x-face 2 of row 1 sits halfway between cells 1 and 2.
    assert lx[1, 2] == pytest.approx(0.5 * (f[1, 1] + f[1, 2]))
    assert ry[2, 1] == pytest.approx(0.5 * (f[0, 2] + f[1, 2]))


def test_div_from_faces_moves_axis_back():
    flux = np.array([[0.0, 1.0, 3.0], [2.0, 2.0, 2.0]])
    out = div_from_faces(flux, axis=1, h=0.5)
    np.testing.assert_allclose(out, [[2.0, 4.0], [0.0, 0.0]])
    out = div_from_faces(flux, axis=0, h=0.5)
    assert out.shape == (2, 2)
    np.testing.assert_allclose(out, [[2.0, 0.0], [4.0, 0.0]])


def test_wave_speed_matches_characteristic_bound():
    rho, qn, Z = 0.7, 0.8, 7.0 / 12.0
    v = qn / rho
    c = np.sqrt((Z / rho) * LAW.gamma * Z ** (LAW.gamma - 1.0))
    assert max_wave_speed(rho, qn, Z, LAW) == pytest.approx(v + c, rel=1e-13)
    assert max_wave_speed(rho, qn, Z, LAW) == pytest.approx(2.1288704400404122)
    # Reversing the flow direction cannot change the bound.
    assert max_wave_speed(rho, -qn, Z, LAW) == pytest.approx(v + c, rel=1e-13)


def test_rusanov_flux_algebra():
    assert rusanov_flux(1.0, 3.0, 2.0, 0.0, 1.0) == 1.0
    assert rusanov_flux(1.0, 1.0, 5.0, 2.0, 2.0) == 1.0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.1, max_value=9.0), min_size=8, max_size=20),
)
def test_reconstruction_stays_within_stencil_bounds(cells):
    padded = np.asarray(cells)
    n = padded.size - 2 * GHOST
    left, right = face_states(padded, axis=0, order=2)
    for i in range(n + 1):
        jl, jr = GHOST - 1 + i, GHOST + i
        lo = min(padded[jl - 1 : jl + 2])
        hi = max(padded[jl - 1 : jl + 2])
        assert lo - 1e-12 <= left[i] <= hi + 1e-12
        lo = min(padded[jr - 1 : jr + 2])
        hi = max(padded[jr - 1 : jr + 2])
        assert lo - 1e-12 <= right[i] <= hi + 1e-12
        assert left[i] > 0.0 and right[i] > 0.0
