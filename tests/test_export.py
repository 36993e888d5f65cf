import gc
import os

import numpy as np
import pytest

import densctl as dc
from densctl import export
from densctl.ocp_static import IterationRecord


def test_fmt_roundtrip():
    vals = [0.1, 1.0 / 3.0, 1e-17, -2.5e300, 7.0]
    for v in vals:
        assert float(export.fmt(v)) == v
    assert export.fmt(3) == "3"
    assert float(export.fmt(np.float64(0.1))) == 0.1


def test_density_csv_roundtrip(tmp_path, small_mesh, small_ops, rng):
    values = rng.random(small_ops.n)
    path = tmp_path / "d.csv"
    export.write_density_csv(path, small_mesh, values)
    back = export.read_vector_csv(path, small_ops.n)
    assert np.array_equal(back, values)


# floats whose repr is not plain digits
SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1e-5, 0.1]


def test_nodal_csvs_match_per_cell_fmt(tmp_path, small_mesh, small_ops, rng):
    values = rng.standard_normal(small_ops.n)
    values[:13] = [0.0, -0.0, 1e300, -1e-300, 1.0 / 3.0, *SPECIAL]
    cf = dc.ControlField(values, -values)
    export.write_density_csv(tmp_path / "q.csv", small_mesh, values)
    export.write_control_csvs(tmp_path / "u_x_t.csv", tmp_path / "u_y_t.csv", small_mesh, cf)
    expected = (("q.csv", "q", values), ("u_x_t.csv", "u", cf.ux), ("u_y_t.csv", "u", cf.uy))
    for name, column, vec in expected:
        rows = ((i, *small_mesh.vertices[i], vec[i]) for i in range(small_ops.n))
        export.write_csv(tmp_path / "expected.csv", ["node_index", "x", "y", column], rows)
        assert (tmp_path / name).read_bytes() == (tmp_path / "expected.csv").read_bytes()
    # particle ensembles: an id column and two float columns
    positions = np.column_stack([values, values[::-1]])
    export.write_indexed_csv(tmp_path / "ensemble.csv", ["id", "x", "y"], positions)
    rows = ((i, p[0], p[1]) for i, p in enumerate(positions))
    export.write_csv(tmp_path / "expected.csv", ["id", "x", "y"], rows)
    assert (tmp_path / "ensemble.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_indexed_csv_blocks_and_special_floats(tmp_path, rng):
    """Rows on both sides of each 4096-row block seam, special floats among
    them, give what write_csv gives."""
    table = rng.standard_normal((2 * 4096 + 3, 3))
    seams = [4095, 4096, 8191, 8192, 8194]
    table[seams] = np.resize(SPECIAL, (len(seams), 3))
    table[:len(SPECIAL), 1] = SPECIAL
    export.write_indexed_csv(tmp_path / "t.csv", ["id", "a", "b", "c"], table)
    export.write_csv(tmp_path / "expected.csv", ["id", "a", "b", "c"],
                     ((i, *r) for i, r in enumerate(table)))
    text = (tmp_path / "t.csv").read_bytes()
    assert text == (tmp_path / "expected.csv").read_bytes()
    assert text.count(b"\n") == len(table) + 1
    assert b"\n4096,-0.0,5e-324,1e+16\n" in text and b"\n8191,1e-05,0.1,nan\n" in text


def test_nodal_csv_prefixes_follow_their_mesh(tmp_path, rng):
    """Each mesh formats its own row prefixes: meshes written alternately, and
    meshes of the same size built after another is dropped, get their own."""

    def check(mesh, name):
        values = rng.standard_normal(mesh.n_vertices)
        export.write_density_csv(tmp_path / name, mesh, values)
        columns = np.column_stack([mesh.vertices, values])
        export.write_indexed_csv(tmp_path / "expected.csv", ["node_index", "x", "y", "q"], columns)
        assert (tmp_path / name).read_bytes() == (tmp_path / "expected.csv").read_bytes()
        back = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)
        assert np.array_equal(back[:, 1:3], mesh.vertices)

    meshes = [dc.generate_rect_mesh((0.0, 0.0, 1.0, 1.0), h) for h in (0.3, 0.2)]
    for k in range(3):
        for j, mesh in enumerate(meshes):
            check(mesh, f"q_{k}_{j}.csv")
    first = meshes.pop(0)
    fields = {k: getattr(first, k) for k in ("triangles", "boundary_edges",
                                             "boundary_markers", "domain_area")}
    vertices = first.vertices
    del first
    gc.collect()
    # shifted copies, each built after the last is dropped: CPython reuses ids
    for k in range(1, 4):
        check(dc.Mesh(vertices=vertices + 0.5 * k, **fields), f"shifted_{k}.csv")
    check(meshes[0], "again.csv")


@pytest.mark.parametrize("keep, problem", [
    (slice(0, 2), "no value for"),
    (slice(None), "out of range"),
    (slice(None), "line 3 has 3 of 4 fields"),
])
def test_read_vector_csv_rejects_incomplete_files(tmp_path, small_mesh, small_ops, keep, problem):
    path = tmp_path / "u_x.csv"
    export.write_density_csv(path, small_mesh, np.ones(small_ops.n))
    lines = path.read_text().splitlines(keepends=True)
    rows = lines[1:][keep]
    if problem == "out of range":
        rows.append(f"{small_ops.n},0.0,0.0,1.0\n")
    elif problem.endswith("fields"):  # node 1's row without its value
        rows[1] = "1,1.0,0.0\n"
    path.write_text(lines[0] + "".join(rows))
    with pytest.raises(ValueError, match=problem) as exc:
        export.read_vector_csv(path, small_ops.n)
    assert str(path) in str(exc.value)


def test_control_csvs(tmp_path, small_mesh, small_ops, rng):
    cf = dc.ControlField(rng.random(small_ops.n), rng.random(small_ops.n))
    export.write_control_csvs(tmp_path / "u_x.csv", tmp_path / "u_y.csv", small_mesh, cf)
    ux = export.read_vector_csv(tmp_path / "u_x.csv", small_ops.n)
    uy = export.read_vector_csv(tmp_path / "u_y.csv", small_ops.n)
    assert np.array_equal(ux, cf.ux)
    assert np.array_equal(uy, cf.uy)


def test_directory_style_control_call_raises(tmp_path, small_mesh, small_ops):
    # the (directory, mesh, control[, suffix]) form the paths replaced
    cf = dc.ControlField.zeros(small_ops.n)
    for target in (tmp_path, tmp_path / "new"):
        with pytest.raises((TypeError, AttributeError)):
            export.write_control_csvs(target, small_mesh, cf)
        with pytest.raises((TypeError, AttributeError)):
            export.write_control_csvs(target, small_mesh, cf, suffix="_00001")
        with pytest.raises((TypeError, AttributeError)):
            export.write_control_csvs(target, small_mesh, cf, "_00001")
    assert list(tmp_path.iterdir()) == []


def test_manifest_path_lists_and_makes_directories(tmp_path):
    manifest = export.Manifest(str(tmp_path / "run"))
    echo = manifest.path("config.echo", "configuration")
    series = manifest.path("a/b/series.csv", "series")
    controls = manifest.path("a/controls/", "per-time-node controls")
    assert echo == os.path.join(tmp_path, "run", "config.echo")
    assert series == os.path.join(tmp_path, "run", "a", "b", "series.csv")
    assert os.path.isdir(os.path.dirname(series)) and not os.path.exists(series)
    assert os.path.isdir(controls)
    manifest.write()
    assert (tmp_path / "run" / "manifest.csv").read_text().splitlines() == [
        "path,kind", "config.echo,configuration", "a/b/series.csv,series",
        "a/controls/,per-time-node controls",
    ]


def test_history_csv(tmp_path):
    hist = [IterationRecord(0, 1.5, 0.3, 1.0), IterationRecord(1, 1.2, 0.1, 0.5)]
    path = tmp_path / "h.csv"
    export.write_history_csv(path, hist)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,J,grad_norm,step_size"
    assert lines[1] == "0,1.5,0.3,1.0"


def test_trajectory_export(tmp_path, small_ops, small_mesh):
    q0 = dc.gaussian_density(small_ops, (0.4, 0.4), 0.2)
    u = dc.ControlField.zeros(small_ops.n)
    traj = dc.simulate(small_ops, q0, u, T=0.2, dt=0.05)
    ref = dc.uniform_density(small_ops)
    export.write_trajectory(tmp_path / "t", small_mesh, traj, reference=ref, M=small_ops.M, every=2)
    manifest = (tmp_path / "t" / "manifest.csv").read_text().splitlines()
    assert manifest[0] == "step,time,mass,min_q,l2_dist_to_target"
    assert len(manifest) == 6
    assert (tmp_path / "t" / "q_00000.csv").exists()
    assert (tmp_path / "t" / "q_00004.csv").exists()
    assert not (tmp_path / "t" / "q_00001.csv").exists()


def _write_vtk_per_row(path, mesh, point_scalars):
    """The per-row writer that write_vtk's joined blocks must match."""
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
        fh.write(f"POINT_DATA {nv}\n")
        for name, values in point_scalars.items():
            fh.write(f"SCALARS {name} double\n")
            fh.write("LOOKUP_TABLE default\n")
            for v in values:
                fh.write(f"{float(v)!r}\n")


def test_vtk_writer(tmp_path, small_mesh, small_ops, rng):
    values = rng.random(small_ops.n)
    values[: len(SPECIAL)] = SPECIAL
    scalars = {"q": values, "p": -values}
    path = tmp_path / "o.vtk"
    export.write_vtk(path, small_mesh, point_scalars=scalars)
    _write_vtk_per_row(tmp_path / "expected.vtk", small_mesh, scalars)
    assert path.read_bytes() == (tmp_path / "expected.vtk").read_bytes()
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert "DATASET UNSTRUCTURED_GRID" in text
    assert f"POINTS {small_mesh.n_vertices} double" in text
    assert f"CELL_TYPES {small_mesh.n_triangles}" in text
    assert "SCALARS q double" in text
    # all cells are linear triangles
    start = text.index(f"CELL_TYPES {small_mesh.n_triangles}") + 1
    assert all(t == "5" for t in text[start : start + small_mesh.n_triangles])
