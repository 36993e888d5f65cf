import numpy as np

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


def test_nodal_csvs_match_per_cell_fmt(tmp_path, small_mesh, small_ops, rng):
    values = rng.standard_normal(small_ops.n)
    values[:5] = [0.0, -0.0, 1e300, -1e-300, 1.0 / 3.0]
    cf = dc.ControlField(values, -values)
    export.write_density_csv(tmp_path / "q.csv", small_mesh, values)
    export.write_control_csvs(tmp_path, small_mesh, cf, suffix="_t")
    expected = (("q.csv", "q", values), ("u_x_t.csv", "u", cf.ux), ("u_y_t.csv", "u", cf.uy))
    for name, column, vec in expected:
        rows = ((i, *small_mesh.vertices[i], vec[i]) for i in range(small_ops.n))
        export.write_csv(tmp_path / "expected.csv", ["node_index", "x", "y", column], rows)
        assert (tmp_path / name).read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_control_csvs(tmp_path, small_mesh, small_ops, rng):
    cf = dc.ControlField(rng.random(small_ops.n), rng.random(small_ops.n))
    export.write_control_csvs(tmp_path, small_mesh, cf)
    ux = export.read_vector_csv(tmp_path / "u_x.csv", small_ops.n)
    uy = export.read_vector_csv(tmp_path / "u_y.csv", small_ops.n)
    assert np.array_equal(ux, cf.ux)
    assert np.array_equal(uy, cf.uy)


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


def test_vtk_writer(tmp_path, small_mesh, small_ops, rng):
    values = rng.random(small_ops.n)
    path = tmp_path / "o.vtk"
    export.write_vtk(
        path,
        small_mesh,
        point_scalars={"q": values},
        point_vectors={"u": (values, -values)},
    )
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert "DATASET UNSTRUCTURED_GRID" in text
    assert f"POINTS {small_mesh.n_vertices} double" in text
    assert f"CELL_TYPES {small_mesh.n_triangles}" in text
    assert "SCALARS q double" in text
    assert "VECTORS u double" in text
    # all cells are linear triangles
    start = text.index(f"CELL_TYPES {small_mesh.n_triangles}") + 1
    assert all(t == "5" for t in text[start : start + small_mesh.n_triangles])
