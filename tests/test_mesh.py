import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import densctl as dc
from densctl import cli, presets
from densctl.cli import main
from densctl.mesh import (
    GeometryError,
    MeshFormatError,
    MeshTopologyError,
    OrientationWarning,
    _check_hole_geometry,
    _edge_incidence,
    _lattice,
)

from conftest import _delaunay_meshes
from test_sweep import _meshes


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
    path.write_text("3 1 3\n0 0\n1 0\n0 1\n0 1 2\n0 1 1\n1 -2 1\n2 0 1\n")
    with pytest.raises(MeshTopologyError, match="boundary edge 1 references vertex index"):
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


_SQUARE_EDGES = "0 1 1\n1 2 1\n2 3 1\n3 0 1\n"


@pytest.mark.parametrize(
    "text, error, fragment",
    [
        # validation: the file parses, the mesh is not valid
        ("3 1 3\n0 0\n1 0\n2 0\n0 1 2\n0 1 1\n1 2 1\n2 0 1\n",
         MeshTopologyError, "nonpositive area"),
        ("5 2 4\n0 0\n1 0\n1 1\n0 1\n5 5\n0 1 2\n0 2 3\n" + _SQUARE_EDGES,
         MeshTopologyError, "not used by any triangle"),
        # two triangles that share only vertex 2
        ("5 2 6\n0 0\n1 0\n1 1\n2 1\n2 2\n0 1 2\n2 3 4\n"
         "0 1 1\n1 2 1\n2 0 1\n2 3 1\n3 4 1\n4 2 1\n",
         MeshTopologyError, "not a union of closed loops"),
        # two disjoint triangles: two boundary loops ask for one hole, V-E+T is 2
        ("6 2 6\n0 0\n1 0\n0 1\n2 0\n3 0\n2 1\n0 1 2\n3 4 5\n"
         "0 1 1\n1 2 1\n2 0 1\n3 4 1\n4 5 1\n5 3 1\n",
         MeshTopologyError, "Euler check failed"),
        # format
        ("3 1\n0 0\n1 0\n0 1\n0 1 2\n", MeshFormatError, "header must contain"),
        ("3 1 x\n0 0\n1 0\n0 1\n0 1 2\n", MeshFormatError, "bad header"),
        ("2 1 0\n0 0\n1 0\n0 1 1\n", MeshFormatError, "implausible sizes"),
        ("3 1 3\n0 0\n1 0\n0 1\n0 1 2\n0 1 1\n", MeshFormatError,
         "unexpected end of file while reading boundary edge 1"),
        ("3 1 3\n0 0 0\n1 0\n0 1\n0 1 2\n0 1 1\n1 2 1\n2 0 1\n", MeshFormatError,
         "vertex line must contain"),
    ],
)
def test_invalid_mesh_files_are_rejected(tmp_path, text, error, fragment):
    path = tmp_path / "mesh.txt"
    path.write_text(text)
    with pytest.raises(error, match=fragment):
        dc.load_mesh(path)


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
    # the circle gets about one boundary segment per target_h of circumference
    n_hole_edges = int((m.boundary_markers == 2).sum())
    assert n_hole_edges >= math.ceil(2 * math.pi * 0.2 / 0.1) - 2
    # the area deficit is exactly the shoelace area of the hole's polygon,
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


def _greedy_lattice(x0, y0, x1, y1, target_h):
    """The reference lattice: vertex rows built row by row, and each strip
    between two rows triangulated greedily along the shorter diagonal."""
    nx = max(2, round((x1 - x0) / target_h))
    dx = (x1 - x0) / nx
    ny = max(2, round((y1 - y0) / (dx * math.sqrt(3.0) / 2.0)))
    dy = (y1 - y0) / ny
    rows, verts = [], []
    for j in range(ny + 1):
        y = y0 + j * dy if j < ny else y1
        if j % 2 == 0:
            xs = np.linspace(x0, x1, nx + 1)
        else:
            xs = np.concatenate(([x0], x0 + (np.arange(nx) + 0.5) * dx, [x1]))
        rows.append(np.arange(len(verts), len(verts) + len(xs)))
        verts.extend((x, y) for x in xs)
    vertices = np.asarray(verts, dtype=float)
    strips = [_strip(rows[j], rows[j + 1], vertices) for j in range(ny)]
    return vertices, strips, dx


def _strip(bottom, top, vertices):
    """Monotone triangulation between two x-sorted vertex rows."""
    tris = []
    i, j = 0, 0
    nb, nt = len(bottom) - 1, len(top) - 1
    while i < nb or j < nt:
        if i < nb and j < nt:
            d_bottom = np.hypot(*(vertices[bottom[i + 1]] - vertices[top[j]]))
            d_top = np.hypot(*(vertices[bottom[i]] - vertices[top[j + 1]]))
            advance_bottom = d_bottom <= d_top
        else:
            advance_bottom = i < nb
        if advance_bottom:
            tris.append((bottom[i], bottom[i + 1], top[j]))
            i += 1
        else:
            tris.append((bottom[i], top[j + 1], top[j]))
            j += 1
    return np.asarray(tris, dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(
    corner=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
    width=st.floats(0.05, 10.0),
    aspect=st.floats(0.2, 5.0),
    ratio=st.floats(0.04, 1.0),
)
def test_lattice_matches_the_greedy_strips(corner, width, aspect, ratio):
    x0, y0 = corner
    bounds = (x0, y0, x0 + width, y0 + aspect * width)
    target_h = ratio * min(bounds[2] - x0, bounds[3] - y0)
    vertices, triangles, dx = _lattice(*bounds, target_h)
    ref_vertices, strips, ref_dx = _greedy_lattice(*bounds, target_h)
    assert vertices.tobytes() == ref_vertices.tobytes() and dx == ref_dx
    assert triangles.dtype == np.int64 and len(triangles) == sum(map(len, strips))
    for strip, ref in zip(np.split(triangles, len(strips)), strips):
        assert np.array_equal(strip, ref)


def test_rect_hole_mesh():
    mesh = dc.generate_rect_mesh((-1, -1, 1, 1), 0.1, holes=[dc.Rect(-0.1, -0.6, 0.1, 0.6)])
    dc.validate_mesh(mesh)
    exact = 4.0 - 0.2 * 1.2
    assert abs(mesh.domain_area - exact) / exact < 0.02
    assert set(np.unique(mesh.boundary_markers)) == {1, 2}


# Layouts that the hole check accepts with two holes about one or two edges
# apart, where only a few triangles span the gap between them.
_CLOSE_LAYOUTS = {
    "two rects 0.95 h apart": (0.21985944969592663, [
        dc.Rect(-0.10014517517314592, -0.7284493903895214, 0.33588714799941405, -0.28694551961009584),
        dc.Rect(-0.7763622057208465, -0.4856768220117492, -0.30874278271888833, -0.03659646695113239),
    ]),
    "rect and circle": (0.08202118945079956, [
        dc.Rect(0.14065802772742353, -0.9289176164675911, 0.588254548454121, -0.4862271719833291),
        dc.Circle(0.7792021420192206, -0.6200960753965188, 0.12344995316533552),
    ]),
    "two circles": (0.08019171697851514, [
        dc.Circle(0.30756275476313777, -0.5411119392868706, 0.18060352685116332),
        dc.Circle(0.7355070020550394, -0.544219469017136, 0.18062891606508147),
    ]),
    "rect above rect": (0.12471500173005429, [
        dc.Rect(0.13675179457268427, -0.31953951850609286, 0.3986795950420975, 0.2700784669793771),
        dc.Rect(0.27466851075124366, 0.40454013995175137, 0.46344719227723896, 0.6970897626444783),
    ]),
    # the corners (-0.278, 0.421) and (-0.148, 0.373) face each other across 0.95 h
    "diagonal corners": (0.1464329820765764, [
        dc.Rect(-0.5675494579609903, 0.42069458309095076, -0.27831982901731306, 0.7351684279533739),
        dc.Rect(-0.14772195510083685, -0.2651151237238587, 0.24174946591175273, 0.3729997355775748),
    ]),
    # 0.166 (3.3 h) apart, though their bounding boxes share a corner
    "diagonal circles": (0.05, [dc.Circle(-0.3, -0.3, 0.2), dc.Circle(0.1, 0.1, 0.2)]),
}


@pytest.mark.parametrize("name", sorted(_CLOSE_LAYOUTS))
def test_close_holes_mesh(name):
    h, holes = _CLOSE_LAYOUTS[name]
    mesh = dc.generate_rect_mesh((-1, -1, 1, 1), h, holes=holes)  # validates
    assert set(np.unique(mesh.boundary_markers)) == {1, 2, 3}
    assert dc.check_mesh_quality(mesh).is_strict_delaunay


def _diagonal_pair(kind, gap):
    """Two holes in (-1, 1)^2 whose boundaries are ``gap`` apart along the
    diagonal: circles of radius 0.2, squares of side 0.3 or 0.4."""
    step = gap / math.sqrt(2.0)
    if kind == "rects":
        c = -0.2 + step
        return [dc.Rect(-0.6, -0.6, -0.2, -0.2), dc.Rect(c, c, c + 0.3, c + 0.3)]
    c = -0.3 + 0.2 / math.sqrt(2.0) + step  # nearest point of the second hole
    if kind == "circles":
        c += 0.2 / math.sqrt(2.0)
        return [dc.Circle(-0.3, -0.3, 0.2), dc.Circle(c, c, 0.2)]
    return [dc.Circle(-0.3, -0.3, 0.2), dc.Rect(c, c, c + 0.3, c + 0.3)]


@pytest.mark.parametrize("kind", ["circles", "circle and rect", "rects"])
def test_diagonal_holes_are_spaced_by_their_boundaries(kind):
    # the clearance between holes is 0.75 h, boundary to boundary
    h = 0.05
    mesh = dc.generate_rect_mesh((-1, -1, 1, 1), h, holes=_diagonal_pair(kind, 0.8 * h))
    assert set(np.unique(mesh.boundary_markers)) == {1, 2, 3}
    assert dc.check_mesh_quality(mesh).is_strict_delaunay
    with pytest.raises(GeometryError, match="holes 0 and 1 overlap or are too close"):
        dc.generate_rect_mesh((-1, -1, 1, 1), h, holes=_diagonal_pair(kind, 0.7 * h))


@st.composite
def _hole_layouts(draw):
    """(target_h, holes): one or two circles or rectangles in (-1, 1)^2,
    often near the generator's clearance limits: a second hole 0.6-1.4 h
    from the first, or a hole 0.7-1.4 h from a side."""
    h = draw(st.floats(0.08, 0.25))
    lo, hi = -1.0 + 0.75 * h, 1.0 - 0.75 * h

    def hole():
        if draw(st.booleans()):
            w, t = draw(st.floats(1.5 * h, 1.5 * h + 0.45)), draw(st.floats(1.5 * h, 1.5 * h + 0.45))
            x, y = draw(st.floats(lo, hi - w)), draw(st.floats(lo, hi - t))
            return dc.Rect(x, y, x + w, y + t)
        r = draw(st.floats(1.5 * h, 1.5 * h + 0.2))
        return dc.Circle(draw(st.floats(lo + r, hi - r)), draw(st.floats(lo + r, hi - r)), r)

    def moved(shape, dx, dy):
        if isinstance(shape, dc.Rect):
            return dc.Rect(shape.x0 + dx, shape.y0 + dy, shape.x1 + dx, shape.y1 + dy)
        return dc.Circle(shape.cx + dx, shape.cy + dy, shape.r)

    holes = [hole() for _ in range(draw(st.integers(1, 2)))]
    if len(holes) == 2 and draw(st.booleans()):
        (ax0, ay0, ax1, ay1), (bx0, by0, bx1, by1) = holes[0].bbox(), holes[1].bbox()
        gap, slide = draw(st.floats(0.6, 1.4)) * h, draw(st.floats(0.0, 1.0))
        if draw(st.booleans()):  # beside the first hole
            dy = ay0 - by1 + slide * (ay1 - ay0 + by1 - by0)
            holes[1] = moved(holes[1], ax1 + gap - bx0, dy)
        else:  # above it
            dx = ax0 - bx1 + slide * (ax1 - ax0 + bx1 - bx0)
            holes[1] = moved(holes[1], dx, ay1 + gap - by0)
    if draw(st.booleans()):
        x0, y0, x1, y1 = holes[0].bbox()
        c = draw(st.floats(0.7, 1.4)) * h
        side = draw(st.sampled_from([(-1 + c - x0, 0.0), (1 - c - x1, 0.0),
                                     (0.0, -1 + c - y0), (0.0, 1 - c - y1)]))
        holes[0] = moved(holes[0], *side)
    return h, holes


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(layout=_hole_layouts())
def test_every_accepted_hole_layout_meshes(layout):
    h, holes = layout
    bounds = (-1.0, -1.0, 1.0, 1.0)
    try:
        _check_hole_geometry(bounds, holes, h)
    except GeometryError:
        assume(False)
    mesh = dc.generate_rect_mesh(bounds, h, holes=holes)  # validates
    assert set(np.unique(mesh.boundary_markers)) == set(range(1, len(holes) + 2))
    rep = dc.check_mesh_quality(mesh)
    assert rep.is_strict_delaunay, rep.max_opposite_angle_sum
    A = dc.assemble_operators(mesh, mu=1.0).A_u.tocoo()
    assert A.data[A.row != A.col].max() <= 1e-12 * A.diagonal().max()


def _edge_incidence_rows(triangles):
    """Row-wise oracle: np.unique over the sorted vertex pairs as rows."""
    raw = np.vstack([triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]])
    edges, inverse, counts = np.unique(
        np.sort(raw, axis=1), axis=0, return_inverse=True, return_counts=True
    )
    return edges, counts, inverse


def _rect_distance_oracle(rect, x, y):
    """Clip distance outside, least penetration depth inside."""
    qx, qy = np.clip(x, rect.x0, rect.x1), np.clip(y, rect.y0, rect.y1)
    outside = np.hypot(x - qx, y - qy)
    inner = np.minimum(np.minimum(x - rect.x0, rect.x1 - x), np.minimum(y - rect.y0, rect.y1 - y))
    return np.where(outside > 0, outside, np.abs(inner))


def _rect_nearest_oracle(rect, x, y):
    """Clip outside; inside, push along the axis of least penetration."""
    which = np.argmin(np.stack([x - rect.x0, rect.x1 - x, y - rect.y0, rect.y1 - y]), axis=0)
    ix = np.where(which == 0, rect.x0, np.where(which == 1, rect.x1, x))
    iy = np.where(which == 2, rect.y0, np.where(which == 3, rect.y1, y))
    inside = (x > rect.x0) & (x < rect.x1) & (y > rect.y0) & (y < rect.y1)
    return (
        np.where(inside, ix, np.clip(x, rect.x0, rect.x1)),
        np.where(inside, iy, np.clip(y, rect.y0, rect.y1)),
    )


_mesh_properties = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@_mesh_properties
@given(mesh=st.one_of(_meshes(), _delaunay_meshes()))
def test_edge_incidence_matches_row_unique(mesh):
    got, want = _edge_incidence(mesh.triangles), _edge_incidence_rows(mesh.triangles)
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b)


@_mesh_properties
@given(mesh=st.one_of(_meshes(), _delaunay_meshes()), data=st.data())
def test_shape_projections_match_their_formulas(mesh, data):
    # a rectangle spanned by mesh vertices, so some vertices lie on its edges
    # or corners
    v = mesh.vertices
    i, j = (data.draw(st.integers(0, mesh.n_vertices - 1)) for _ in range(2))
    (x0, x1), (y0, y1) = np.sort(v[[i, j]], axis=0).T
    mx, my = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    x = np.concatenate([v[:, 0], [x0, x1, x1, x0, mx, x1, mx, x0, mx]])
    y = np.concatenate([v[:, 1], [y0, y0, y1, y1, y0, my, y1, my, my]])
    rect = dc.Rect(x0, y0, x1, y1)
    assert np.array_equal(rect.boundary_distance(x, y), _rect_distance_oracle(rect, x, y))
    for a, b in zip(rect.nearest(x, y), _rect_nearest_oracle(rect, x, y)):
        assert np.array_equal(a, b)


def _markers_by_edge_loop(mesh, bounds, holes):
    """Loop oracle: 1 where both ends are on the outer rectangle, else 2 + the
    first hole holding both ends."""
    x0, y0, x1, y1 = bounds
    scale = max(x1 - x0, y1 - y0)
    vx, vy = mesh.vertices[:, 0], mesh.vertices[:, 1]
    on_outer = np.min(np.abs([vx - x0, vx - x1, vy - y0, vy - y1]), axis=0) <= 1e-9 * scale
    on_hole = [hole.boundary_distance(vx, vy) <= 1e-6 * scale for hole in holes]
    markers = []
    for a, b in mesh.boundary_edges:
        if on_outer[a] and on_outer[b]:
            markers.append(1)
        else:
            markers.append(next(k + 2 for k, on in enumerate(on_hole) if on[a] and on[b]))
    return np.array(markers)


@pytest.mark.parametrize("number", [1, 2, 3])
def test_boundary_markers_match_the_edge_loop(number):
    gen = presets.testcase_config(number)["mesh"]["generate"]
    holes = [
        dc.Circle(*h["center"], h["radius"]) if h["type"] == "circle" else dc.Rect(*h["bounds"])
        for h in gen["holes"]
    ]
    mesh = dc.generate_rect_mesh(gen["bounds"], gen["target_h"], holes)
    assert np.array_equal(mesh.boundary_markers, _markers_by_edge_loop(mesh, gen["bounds"], holes))
    assert set(mesh.boundary_markers) == set(range(1, len(holes) + 2))


@pytest.mark.parametrize("paper_scale", [False, True], ids=["desk", "paper"])
@pytest.mark.parametrize("number", [1, 2, 3])
def test_preset_meshes_give_a_z_matrix_stiffness(number, paper_scale):
    mesh = cli.parse_config(presets.testcase_config(number, paper_scale)).mesh()
    assert dc.check_mesh_quality(mesh).is_strict_delaunay
    A = dc.assemble_operators(mesh, mu=1.0).A_u.tocoo()
    assert (A.data[A.row != A.col] <= 0).all()
