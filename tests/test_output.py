"""Frame serialization: CSV and legacy-VTK writers, CSV reader, manifests."""

import json

import numpy as np
import pytest

from congested_euler.grid import Grid, GridState
from congested_euler import output


def state_1d(nx):
    grid = Grid(nx=nx)
    x = grid.centers_x
    rho = 0.6 + 0.1 * np.sin(2 * np.pi * x)
    q1 = 0.3 * np.cos(2 * np.pi * x)
    rho_star = 1.1 + 0.05 * np.cos(4 * np.pi * x)
    state = GridState(rho=rho, q1=q1, Z=rho / rho_star, rho_star=rho_star, time=0.25)
    return grid, state


def state_2d(nx, ny):
    grid = Grid(nx=nx, ny=ny)
    xx, yy = grid.cell_centers()
    rho = 0.5 + 0.1 * np.sin(2 * np.pi * xx) * np.cos(2 * np.pi * yy)
    q1 = 0.2 * xx
    q2 = -0.1 * yy
    rho_star = 1.0 + 0.2 * xx * yy
    state = GridState(rho=rho, q1=q1, Z=rho / rho_star, rho_star=rho_star, q2=q2)
    return grid, state


def test_csv_two_cells_has_header_and_two_rows(tmp_path):
    grid, state = state_1d(2)
    path = tmp_path / "frame.csv"
    output.write_frame(state, grid, path, "csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,rho,q1,Z,rho_star"
    assert len(lines) == 3


def test_csv_2d_header_column_order(tmp_path):
    grid, state = state_2d(3, 2)
    path = tmp_path / "frame.csv"
    output.write_frame(state, grid, path, "csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,rho,q1,q2,Z,rho_star"
    assert len(lines) == 1 + grid.size


def test_csv_roundtrip_1d_exact(tmp_path):
    grid, state = state_1d(17)
    path = tmp_path / "frame.csv"
    output.write_frame(state, grid, path, "csv")
    back = output.read_frame(path)
    assert np.array_equal(back["x"], grid.centers_x)
    for name in ("rho", "q1", "Z", "rho_star"):
        assert np.array_equal(back[name], getattr(state, name))


def test_csv_roundtrip_2d_exact_and_row_major(tmp_path):
    grid, state = state_2d(5, 3)
    path = tmp_path / "frame.csv"
    output.write_frame(state, grid, path, "csv")
    back = output.read_frame(path)
    for name in ("rho", "q1", "q2", "Z", "rho_star"):
        assert back[name].shape == grid.shape
        assert np.array_equal(back[name], getattr(state, name))
    # x varies fastest: the first nx rows share y = first center
    rows = (tmp_path / "frame.csv").read_text().strip().splitlines()[1:]
    ys = [float(r.split(",")[1]) for r in rows[: grid.nx]]
    assert ys == [grid.centers_y[0]] * grid.nx


def test_vtk_structured_points_header_1d(tmp_path):
    grid, state = state_1d(4)
    path = tmp_path / "frame.vtk"
    output.write_frame(state, grid, path, "vtk")
    text = path.read_text()
    assert text.startswith("# vtk DataFile Version 3.0")
    assert "DATASET STRUCTURED_POINTS" in text
    assert "DIMENSIONS 4 1 1" in text
    assert "POINT_DATA 4" in text
    for name in ("rho", "q1", "Z", "rho_star"):
        assert f"SCALARS {name} double 1" in text


def test_vtk_dimensions_match_grid_and_values_roundtrip(tmp_path):
    grid, state = state_2d(6, 4)
    path = tmp_path / "frame.vtk"
    output.write_frame(state, grid, path, "vtk")
    lines = path.read_text().splitlines()
    assert "DIMENSIONS 6 4 1" in lines
    assert f"ORIGIN {grid.dx / 2:.17g} {grid.dy / 2:.17g} 0" in lines
    assert "POINT_DATA 24" in lines
    # first scalar block is rho, x varying fastest
    start = lines.index("LOOKUP_TABLE default") + 1
    vals = np.array([float(v) for v in lines[start : start + grid.size]])
    assert np.array_equal(vals.reshape(grid.shape), state.rho)


def test_write_frame_rejects_unknown_format(tmp_path):
    grid, state = state_1d(2)
    with pytest.raises(ValueError):
        output.write_frame(state, grid, tmp_path / "frame.bin", "bin")


def test_manifest_roundtrip(tmp_path):
    payload = {"kind": "riemann1d", "nx": 8, "seed": 3, "dt": 1.25e-4}
    path = tmp_path / "manifest.json"
    output.write_manifest(path, payload)
    assert json.loads(path.read_text()) == payload


@pytest.mark.parametrize("nx, ny", [(4, 1), (1, 3)])
def test_csv_roundtrip_one_row_or_column_2d(tmp_path, nx, ny):
    grid, state = state_2d(nx, ny)
    path = tmp_path / "frame.csv"
    output.write_frame(state, grid, path, "csv")
    back = output.read_frame(path)
    assert np.array_equal(back["x"], grid.centers_x)
    assert np.array_equal(back["y"], grid.centers_y)
    for name in ("rho", "q1", "q2", "Z", "rho_star"):
        assert back[name].shape == grid.shape
        assert np.array_equal(back[name], getattr(state, name))
