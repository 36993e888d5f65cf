import math

import numpy as np
import pytest

import densctl as dc
from densctl.cli import main
from densctl.mesh import (
    GeometryError,
    MeshFormatError,
    MeshTopologyError,
    OrientationWarning,
    _edge_incidence,
)


def test_unit_square_file(unit_square_mesh):
    m = unit_square_mesh
    assert m.n_vertices == 4
    assert m.n_triangles == 2
    assert m.domain_area == 1.0
    assert (m.triangle_areas() > 0).all()


def test_clockwise_triangle_reoriented(tmp_path):
    path = tmp_path / "cw.txt"
    path.write_text(
        "3 1 3\n0 0\n1 0\n0 1\n"
        "0 2 1\n"  # clockwise
        "0 1 1\n1 2 1\n2 0 1\n"
    )
    with pytest.warns(OrientationWarning):
        m = dc.load_mesh(path)
    assert (m.triangle_areas() > 0).all()


def test_out_of_range_vertex_index(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 1 3\n0 0\n1 0\n0 1\n0 1 7\n0 1 1\n1 2 1\n2 0 1\n")
    with pytest.raises(MeshTopologyError, match="triangle 0"):
        dc.load_mesh(path)


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "garbled.txt"
    path.write_text("3 1 0\n0 0\nnot numbers\n0 1\n0 1 2\n")
    with pytest.raises(MeshFormatError, match="line 3"):
        dc.load_mesh(path)


def test_data_after_the_last_boundary_edge_is_rejected(tmp_path, capsys):
    square = "4 2 4\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 2 3\n0 1 1\n1 2 1\n2 3 1\n3 0 1\n"
    path = tmp_path / "tail.txt"
    path.write_text(square + "# comments and blank lines may follow\n\n")
    assert dc.load_mesh(path).n_triangles == 2
    path.write_text(square + "\n# junk follows\n3 0 1\n")
    with pytest.raises(MeshFormatError, match="line 14") as exc:
        dc.load_mesh(path)
    assert exc.value.line_no == 14
    assert main(["mesh", "check", str(path)]) == 1
    assert "line 14" in capsys.readouterr().err


def test_roundtrip_bit_exact(tmp_path, holed_mesh):
    path = tmp_path / "rt.txt"
    dc.write_mesh(holed_mesh, path)
    again = dc.load_mesh(path)
    assert np.array_equal(again.vertices, holed_mesh.vertices)
    assert np.array_equal(again.triangles, holed_mesh.triangles)
    assert np.array_equal(again.boundary_edges, holed_mesh.boundary_edges)
    assert np.array_equal(again.boundary_markers, holed_mesh.boundary_markers)
    assert again.domain_area == holed_mesh.domain_area
    second = tmp_path / "rt2.txt"
    dc.write_mesh(again, second)
    assert path.read_text() == second.read_text()


def test_generate_unit_square_exact_area():
    m = dc.generate_rect_mesh((0, 0, 1, 1), 0.5)
    assert m.domain_area == 1.0


def test_generate_with_circular_hole_area():
    m = dc.generate_rect_mesh((-1, -1, 1, 1), 0.1, holes=[dc.Circle(0, 0, 0.2)])
    exact = 4.0 - math.pi * 0.04
    # polygonalized circle: stay within 2% of the exact area, and never
    # below the inscribed-polygon bound for the coarsest plausible polygon
    assert abs(m.domain_area - exact) / exact < 0.02
    # carving yields roughly one boundary segment per target_h of circumference
    n_hole_edges = int((m.boundary_markers == 2).sum())
    assert n_hole_edges >= math.ceil(2 * math.pi * 0.2 / 0.1) - 2
    # the area deficit is exactly the shoelace area of the carved polygon,
    # which is inscribed in the circle and so never exceeds the disk area
    loop = _ordered_loop(m, marker=2)
    poly = m.vertices[loop]
    shoelace = 0.5 * abs(
        np.sum(poly[:, 0] * np.roll(poly[:, 1], -1) - poly[:, 1] * np.roll(poly[:, 0], -1))
    )
    assert m.domain_area == pytest.approx(4.0 - shoelace, rel=1e-12)
    assert shoelace <= math.pi * 0.04 + 1e-12
    assert shoelace >= 0.9 * math.pi * 0.04


def _ordered_loop(mesh, marker):
    edges = [tuple(e) for e, mk in zip(mesh.boundary_edges, mesh.boundary_markers) if mk == marker]
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    start = edges[0][0]
    loop = [start]
    prev = None
    while True:
        nxt = [v for v in adj[loop[-1]] if v != prev]
        prev = loop[-1]
        if nxt[0] == start:
            break
        loop.append(nxt[0])
    return loop


def test_hole_touching_boundary_rejected():
    with pytest.raises(GeometryError):
        dc.generate_rect_mesh((0, 0, 1, 1), 0.1, holes=[dc.Circle(0.5, 0.5, 2.0)])


def test_degenerate_h_rejected():
    with pytest.raises(GeometryError):
        dc.generate_rect_mesh((0, 0, 1, 1), 0.0)


def test_overlapping_holes_rejected():
    with pytest.raises(GeometryError):
        dc.generate_rect_mesh(
            (-1, -1, 1, 1),
            0.1,
            holes=[dc.Circle(-0.2, 0, 0.3), dc.Circle(0.2, 0, 0.3)],
        )


def test_area_consistency(holed_mesh):
    assert math.isclose(
        holed_mesh.triangle_areas().sum(), holed_mesh.domain_area, rel_tol=1e-12
    )


def test_euler_characteristic(holed_mesh, small_mesh):
    for mesh, holes in ((holed_mesh, 1), (small_mesh, 0)):
        edges, _, _ = _edge_incidence(mesh.triangles)
        assert mesh.n_vertices - len(edges) + mesh.n_triangles == 1 - holes


def test_boundary_markers(holed_mesh):
    assert set(np.unique(holed_mesh.boundary_markers)) == {1, 2}
    # hole edges lie on the circle
    for (a, b), mk in zip(holed_mesh.boundary_edges, holed_mesh.boundary_markers):
        for v in (a, b):
            r = np.hypot(*holed_mesh.vertices[v])
            if mk == 2:
                assert abs(r - 0.2) < 1e-9


def test_quality_generated_mesh_strict(small_mesh):
    rep = dc.check_mesh_quality(small_mesh)
    assert rep.is_strict_delaunay
    assert rep.max_opposite_angle_sum < math.pi
    assert rep.min_angle > math.radians(20)


def test_quality_single_triangle_vacuous(tmp_path):
    path = tmp_path / "single.txt"
    path.write_text("3 1 3\n0 0\n1 0\n0 1\n0 1 2\n0 1 1\n1 2 1\n2 0 1\n")
    rep = dc.check_mesh_quality(dc.load_mesh(path))
    assert rep.is_strict_delaunay
    assert rep.worst_edge is None


def test_quality_needle_triangle(tmp_path):
    # quad whose shared edge faces a near-degenerate apex: the needle makes
    # the opposite-angle sum across the interior edge exceed pi
    path = tmp_path / "needle.txt"
    path.write_text(
        "4 2 4\n0 0\n1 0\n0.5 0.8\n0.5 -0.004\n"
        "0 1 2\n0 3 1\n"
        "0 2 1\n2 1 1\n1 3 1\n3 0 1\n"
    )
    rep = dc.check_mesh_quality(dc.load_mesh(path))
    assert rep.min_angle < 0.0175
    assert not rep.is_strict_delaunay
    assert rep.worst_edge == (0, 1)


def test_quality_consistent_diagonal_grid_not_strict():
    # right-triangle pattern: opposite angles across diagonals sum to pi,
    # which the strict test must reject (computed, not assumed)
    verts = []
    for j in range(3):
        for i in range(3):
            verts.append((i * 0.5, j * 0.5))
    tris = []
    for j in range(2):
        for i in range(2):
            a = j * 3 + i
            tris.append((a, a + 1, a + 4))
            tris.append((a, a + 4, a + 3))
    verts = np.array(verts, float)
    tris = np.array(tris)
    edges, counts, _ = _edge_incidence(tris)
    boundary = edges[counts == 1]
    mesh = dc.Mesh(
        vertices=verts,
        triangles=tris,
        boundary_edges=boundary,
        boundary_markers=np.ones(len(boundary), dtype=np.int64),
        domain_area=1.0,
    )
    dc.validate_mesh(mesh)
    rep = dc.check_mesh_quality(mesh)
    assert not rep.is_strict_delaunay
    assert rep.max_opposite_angle_sum == pytest.approx(math.pi, abs=1e-9)


def test_validate_catches_listed_boundary_mismatch(unit_square_mesh):
    bad = dc.Mesh(
        vertices=unit_square_mesh.vertices,
        triangles=unit_square_mesh.triangles,
        boundary_edges=np.array([[0, 1]]),
        boundary_markers=np.array([1]),
        domain_area=1.0,
    )
    with pytest.raises(MeshTopologyError):
        dc.validate_mesh(bad)


@pytest.mark.parametrize("seed", range(3))
def test_generated_meshes_validate(seed):
    rng = np.random.default_rng(seed)
    h = float(rng.uniform(0.08, 0.2))
    mesh = dc.generate_rect_mesh((-1, -1, 1, 1), h, holes=[dc.Circle(0.1, -0.1, 0.25)])
    dc.validate_mesh(mesh)  # raises on any structural violation
    assert mesh.domain_area < 4.0


def test_rect_hole_mesh():
    mesh = dc.generate_rect_mesh((-1, -1, 1, 1), 0.1, holes=[dc.Rect(-0.1, -0.6, 0.1, 0.6)])
    dc.validate_mesh(mesh)
    exact = 4.0 - 0.2 * 1.2
    assert abs(mesh.domain_area - exact) / exact < 0.02
    assert set(np.unique(mesh.boundary_markers)) == {1, 2}
