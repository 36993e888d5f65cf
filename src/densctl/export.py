"""CSV / VTK writers for densities, controls, trajectories, and reports.

Floats are written with Python's shortest round-trip repr so that identical
runs produce bitwise-identical files.
"""

from __future__ import annotations

import os

import numpy as np

from .fem import ControlField
from .mesh import Mesh

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


def _write_nodal_csv(path, mesh: Mesh, name: str, values) -> None:
    """Rows (node_index, x, y, value), byte for byte what ``write_csv`` and
    ``fmt`` give for float values, formatted from Python floats in one join."""
    columns = np.column_stack([mesh.vertices, np.asarray(values, dtype=float)]).tolist()
    body = "".join(f"{i},{x!r},{y!r},{v!r}\n" for i, (x, y, v) in enumerate(columns))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"node_index,x,y,{name}\n" + body)


def write_density_csv(path, mesh: Mesh, values) -> None:
    _write_nodal_csv(path, mesh, "q", values)


def read_vector_csv(path, n: int) -> np.ndarray:
    """Read the last column of a nodal CSV back into an array of length n."""
    out = np.zeros(n)
    with open(path, "r", encoding="ascii") as fh:
        fh.readline()
        for line in fh:
            parts = line.strip().split(",")
            if parts and parts != [""]:
                out[int(parts[0])] = float(parts[-1])
    return out


def write_control_csvs(out_dir, mesh: Mesh, control: ControlField, suffix="") -> None:
    for name, comp in (("u_x", control.ux), ("u_y", control.uy)):
        _write_nodal_csv(os.path.join(out_dir, f"{name}{suffix}.csv"), mesh, "u", comp)


def write_history_csv(path, history) -> None:
    write_csv(
        path,
        ["iteration", "J", "grad_norm", "step_size"],
        ((h.iteration, h.J, h.grad_norm, h.step_size) for h in history),
    )


def write_trajectory(
    out_dir, mesh: Mesh, trajectory, reference=None, M=None, every: int = 1, vtk: bool = False
) -> None:
    """Snapshot CSVs plus a manifest (step,time,mass,min_q,l2_dist_to_target)."""
    os.makedirs(out_dir, exist_ok=True)
    ref = None if reference is None else np.asarray(
        getattr(reference, "values", reference), dtype=float
    )
    rows = []
    for i in range(trajectory.n_steps + 1):
        dist = ""
        if ref is not None and M is not None:
            d = trajectory.states[i] - ref
            dist = np.sqrt(max(d @ (M @ d), 0.0))
        rows.append(
            (
                i,
                trajectory.times[i],
                trajectory.masses[i],
                trajectory.min_values[i],
                dist,
            )
        )
        if i % every == 0:
            write_density_csv(
                os.path.join(out_dir, f"q_{i:05d}.csv"), mesh, trajectory.states[i]
            )
            if vtk:
                write_vtk(
                    os.path.join(out_dir, f"q_{i:05d}.vtk"),
                    mesh,
                    point_scalars={"q": trajectory.states[i]},
                )
    write_csv(
        os.path.join(out_dir, "manifest.csv"),
        ["step", "time", "mass", "min_q", "l2_dist_to_target"],
        rows,
    )


def write_vtk(path, mesh: Mesh, point_scalars=None, point_vectors=None) -> None:
    """Legacy ASCII unstructured-grid file with point data."""
    nv, nt = mesh.n_vertices, mesh.n_triangles
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("densctl output\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {nv} double\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r} 0.0\n")
        fh.write(f"CELLS {nt} {4 * nt}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"3 {i} {j} {k}\n")
        fh.write(f"CELL_TYPES {nt}\n")
        fh.write("5\n" * nt)
        if point_scalars or point_vectors:
            fh.write(f"POINT_DATA {nv}\n")
        for name, values in (point_scalars or {}).items():
            fh.write(f"SCALARS {name} double\n")
            fh.write("LOOKUP_TABLE default\n")
            for v in values:
                fh.write(f"{float(v)!r}\n")
        for name, (vx, vy) in (point_vectors or {}).items():
            fh.write(f"VECTORS {name} double\n")
            for a, b in zip(vx, vy):
                fh.write(f"{float(a)!r} {float(b)!r} 0.0\n")


class Manifest:
    """Collects (path, kind) rows for the run-level manifest.csv."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.rows: list[tuple[str, str]] = []

    def add(self, rel_path: str, kind: str) -> None:
        self.rows.append((rel_path, kind))

    def write(self) -> None:
        write_csv(
            os.path.join(self.out_dir, "manifest.csv"), ["path", "kind"], self.rows
        )
