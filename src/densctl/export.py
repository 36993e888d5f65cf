"""CSV / VTK writers for densities, controls, trajectories, and reports.

Floats are written with Python's shortest round-trip repr so that identical
runs produce bitwise-identical files.  A nodal CSV's ``node_index,x,y,`` row
prefixes are formatted once per mesh and cached on it, so each file formats
only its value column.  Rows are joined from ``repr`` strings and written a
block at a time, with no per-row ``str.format`` or ``write``.
"""

from __future__ import annotations

import os
from itertools import repeat

import numpy as np

from .fem import ControlField, sq_norms
from .mesh import Mesh
from .state import _vals

__all__ = [
    "fmt",
    "write_csv",
    "write_density_csv",
    "read_vector_csv",
    "write_control_csvs",
    "write_history_csv",
    "write_trajectory",
    "write_vtk",
    "Manifest",
]


def fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) if not isinstance(v, str) else v for v in row) + "\n")


def _write_rows(fh, columns, sep=","):
    """Write, as one string, the rows that joining the string iterables
    ``columns`` item by item with ``sep`` gives, each ended by a newline;
    there must be at least one row."""
    fh.write("\n".join(map(sep.join, zip(*columns))) + "\n")


def write_indexed_csv(path, header, table) -> None:
    """Rows (row index, *row of the 2-D float ``table``), byte for byte what
    ``write_csv`` and ``fmt`` give, formatted from Python floats block by
    block, so no Python copy of the whole table is held."""
    table = np.asarray(table, dtype=float)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), 4096):
            block = table[start : start + 4096]
            rows = map(str, range(start, start + len(block)))
            _write_rows(fh, [rows, *(map(repr, col) for col in block.T.tolist())])


def _write_nodal_csv(path, mesh: Mesh, name: str, values) -> None:
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.n_vertices,):
        raise ValueError(f"{path}: {values.shape} values for {mesh.n_vertices} nodes")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"node_index,x,y,{name}\n")
        _write_rows(fh, [mesh._csv_prefixes, map(repr, values.tolist())], sep="")


def write_density_csv(path, mesh: Mesh, values) -> None:
    _write_nodal_csv(path, mesh, "q", values)


def read_vector_csv(path, n: int) -> np.ndarray:
    """Read the last column of a nodal CSV, one row per node indexed by its
    first column, back into an array of length n; every node needs exactly
    one row, with as many fields as the header."""
    out = np.zeros(n)
    seen = np.zeros(n, dtype=bool)
    with open(path, "r", encoding="ascii") as fh:
        width = len(fh.readline().split(","))
        for line_no, line in enumerate(fh, 2):
            parts = line.strip().split(",")
            if parts != [""]:
                if len(parts) != width:
                    raise ValueError(f"{path}: line {line_no} has {len(parts)} of {width} fields")
                try:
                    node, value = int(parts[0]), float(parts[-1])
                except ValueError as exc:
                    raise ValueError(f"{path}: line {line_no}: {exc}") from None
                if not 0 <= node < n:
                    raise ValueError(f"{path}: node {node} is out of range for {n} nodes")
                if seen[node]:
                    raise ValueError(f"{path}: node {node} has more than one row")
                out[node] = value
                seen[node] = True
    if not seen.all():
        missing = np.flatnonzero(~seen)
        raise ValueError(
            f"{path}: no value for {missing.size} of {n} nodes, first {missing[:5].tolist()}"
        )
    return out


def write_control_csvs(x_path, y_path, mesh: Mesh, control: ControlField) -> None:
    """The u_x and u_y nodal CSVs of a control, at the two paths given."""
    for path, comp in ((x_path, control.ux), (y_path, control.uy)):
        _write_nodal_csv(path, mesh, "u", comp)


def write_history_csv(path, history) -> None:
    write_csv(
        path,
        ["iteration", "J", "grad_norm", "step_size"],
        ((h.iteration, h.J, h.grad_norm, h.step_size) for h in history),
    )


def write_trajectory(
    out_dir, mesh: Mesh, trajectory, reference, M, every: int = 1, vtk: bool = False
) -> None:
    """Snapshot CSVs of every ``every``-th state (and VTK files with ``vtk``)
    plus a manifest (step,time,mass,min_q,l2_dist_to_target), the distance
    being the M-norm of each state minus ``reference``."""
    os.makedirs(out_dir, exist_ok=True)
    states = trajectory.states
    for i in range(0, len(states), every):
        path = os.path.join(out_dir, f"q_{i:05d}")
        write_density_csv(path + ".csv", mesh, states[i])
        if vtk:
            write_vtk(path + ".vtk", mesh, point_scalars={"q": states[i]})
    dists = np.sqrt(sq_norms(M, states, _vals(reference)))
    write_csv(
        os.path.join(out_dir, "manifest.csv"),
        ["step", "time", "mass", "min_q", "l2_dist_to_target"],
        zip(range(len(states)), trajectory.times, trajectory.masses, trajectory.min_values, dists),
    )


def write_vtk(path, mesh: Mesh, point_scalars=None) -> None:
    """Legacy ASCII unstructured-grid file with point data."""
    nv, nt = mesh.n_vertices, mesh.n_triangles
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("densctl output\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {nv} double\n")
        x, y = np.asarray(mesh.vertices, dtype=float).T.tolist()
        _write_rows(fh, [map(repr, x), map(repr, y), repeat("0.0")], sep=" ")
        fh.write(f"CELLS {nt} {4 * nt}\n")
        _write_rows(fh, [repeat("3"), *(map(str, c) for c in mesh.triangles.T.tolist())], sep=" ")
        fh.write(f"CELL_TYPES {nt}\n")
        fh.write("5\n" * nt)
        if point_scalars:
            fh.write(f"POINT_DATA {nv}\n")
        for name, values in (point_scalars or {}).items():
            fh.write(f"SCALARS {name} double\n")
            fh.write("LOOKUP_TABLE default\n")
            _write_rows(fh, [map(repr, np.asarray(values, dtype=float).tolist())])


class Manifest:
    """The (path, kind) rows of a run's manifest.csv, one per output, listed
    by :meth:`path` as the output's path is taken."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.rows: list[tuple[str, str]] = []

    def path(self, rel: str, kind: str) -> str:
        """Lists ``rel`` as a ``kind`` row and returns its path under the run
        directory, whose directory (or itself, for a ``rel`` ending in /) it
        makes."""
        self.rows.append((rel, kind))
        path = os.path.join(self.out_dir, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return path

    def write(self) -> None:
        write_csv(
            os.path.join(self.out_dir, "manifest.csv"), ["path", "kind"], self.rows
        )
