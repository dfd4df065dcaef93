"""Frame and manifest serialization.

CSV frames carry one row per cell center (x varying fastest) with 17
significant digits so that float64 values survive a round trip.  VTK frames
use the legacy structured-points ASCII layout with one scalar array per state
field; cell centers are encoded as the point lattice.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .grid import Grid, GridState

_FMT = "%.17g"


def _field_names(grid: Grid) -> list[str]:
    return ["rho", *(f"q{k + 1}" for k in range(grid.ndim)), "Z", "rho_star"]


def _columns(state: GridState, grid: Grid):
    names = _field_names(grid)
    cols = [f.reshape(-1) for f in grid.cell_centers() + [getattr(state, n) for n in names]]
    return ["x", "y"][: grid.ndim] + names, cols


def _write_table(fh, columns, header=()) -> None:
    """Equal-length columns as comma-separated rows of 17-digit values.

    One format string per row: ``np.savetxt`` wraps every row in an array
    view and took more than twice as long on a one-column block.
    """
    if header:
        fh.write(",".join(header) + "\n")
    row = ",".join([_FMT] * len(columns)) + "\n"
    fh.writelines(map(row.__mod__, zip(*(np.asarray(c, dtype=float) for c in columns))))


def _write_csv(state: GridState, grid: Grid, path) -> None:
    header, cols = _columns(state, grid)
    with open(path, "w") as fh:
        _write_table(fh, cols, header)


def _write_vtk(state: GridState, grid: Grid, path) -> None:
    # the lattice is 3D: each missing axis has one point at 0 and spacing 1
    pad = 3 - grid.ndim
    dims = " ".join(str(n) for n in grid.shape[::-1]) + " 1" * pad
    origin = " ".join(_FMT % (h / 2) for h in grid.spacing) + " 0" * pad
    spacing = " ".join(_FMT % h for h in grid.spacing) + " 1" * pad
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(_FMT % state.time + "\n")
        fh.write("ASCII\n")
        fh.write("DATASET STRUCTURED_POINTS\n")
        fh.write(f"DIMENSIONS {dims}\n")
        fh.write(f"ORIGIN {origin}\n")
        fh.write(f"SPACING {spacing}\n")
        fh.write(f"POINT_DATA {grid.size}\n")
        for name in _field_names(grid):
            fh.write(f"SCALARS {name} double 1\n")
            fh.write("LOOKUP_TABLE default\n")
            _write_table(fh, [getattr(state, name).reshape(-1)])


def write_frame(state: GridState, grid: Grid, path, fmt: str = "csv") -> None:
    if fmt == "csv":
        _write_csv(state, grid, path)
    elif fmt == "vtk":
        _write_vtk(state, grid, path)
    else:
        raise ValueError(f"unknown frame format {fmt!r}")


def write_frames(result, outdir, fmt: str = "csv") -> list[dict]:
    """Write every recorded frame of a scenario result as frame_NNNNNN files.

    Returns manifest entries pairing each file name with its solution time.
    """
    entries = []
    for k, (t, state) in enumerate(result.frames):
        name = f"frame_{k:06d}.{fmt}"
        write_frame(state, result.grid, Path(outdir) / name, fmt)
        entries.append({"file": name, "time": t})
    return entries


def read_frame(path) -> dict[str, np.ndarray]:
    """Read a CSV frame back into per-field arrays shaped like the grid."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    cols = {name: data[:, k] for k, name in enumerate(header)}
    if "y" not in cols:
        return cols
    nx = int(np.argmax(cols["x"][1:] < cols["x"][:-1])) + 1
    ny = data.shape[0] // nx
    shaped = {name: col.reshape(ny, nx) for name, col in cols.items()}
    shaped["x"] = shaped["x"][0]
    shaped["y"] = shaped["y"][:, 0]
    return shaped


def write_error_table(report, path) -> None:
    """A refinement study's L1 errors: one row of dx, dt and the errors per spacing."""
    with open(path, "w") as fh:
        _write_table(fh, [report.dxs, report.dts, *report.errors.values()],
                     ["dx", "dt", *report.errors])


def write_manifest(path, payload: dict) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
