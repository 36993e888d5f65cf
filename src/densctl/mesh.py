"""Triangular meshes of rectangular domains with circular/rectangular holes.

Vertices are 2D points, triangles are counterclockwise index triples, and
boundary edges carry integer markers (1 = outer boundary, 2, 3, ... = holes
in the order they were given).  Meshes are immutable after construction.

The generator lays out staggered rows of vertices (odd rows offset by half a
spacing, plus end vertices pinned to the domain sides) so that the bulk of
the triangulation is near-equilateral.  Holes are carved by snapping nearby
vertices onto the hole boundary and deleting the triangles that fall inside.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

__all__ = [
    "Circle",
    "Rect",
    "Mesh",
    "MeshQualityReport",
    "MeshError",
    "MeshFormatError",
    "MeshTopologyError",
    "GeometryError",
    "OrientationWarning",
    "load_mesh",
    "write_mesh",
    "generate_rect_mesh",
    "check_mesh_quality",
    "validate_mesh",
]


class MeshError(Exception):
    """Base class for mesh failures."""


class MeshFormatError(MeshError):
    """A mesh file could not be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class MeshTopologyError(MeshError):
    """Connectivity is inconsistent (bad index, open boundary, ...)."""


class GeometryError(MeshError):
    """Generator input is infeasible (hole touches boundary, bad h, ...)."""


class OrientationWarning(UserWarning):
    """Issued when clockwise triangles are re-oriented on input."""


@dataclass(frozen=True)
class Circle:
    """Circular hole (or region) with center (cx, cy) and radius r."""

    cx: float
    cy: float
    r: float

    def contains(self, x, y, shrink=0.0):
        return (x - self.cx) ** 2 + (y - self.cy) ** 2 < (self.r - shrink) ** 2

    def boundary_distance(self, x, y):
        return np.abs(np.hypot(x - self.cx, y - self.cy) - self.r)

    def nearest(self, x, y):
        """Radial projection onto the circle; the distance to the center is
        floored at 1e-12 r, so the center itself stays put."""
        scale = self.r / np.maximum(np.hypot(x - self.cx, y - self.cy), 1e-12 * self.r)
        return self.cx + (x - self.cx) * scale, self.cy + (y - self.cy) * scale

    def bbox(self):
        return (self.cx - self.r, self.cy - self.r, self.cx + self.r, self.cy + self.r)


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangular hole (or region)."""

    x0: float
    y0: float
    x1: float
    y1: float

    def contains(self, x, y, shrink=0.0):
        return (
            (x > self.x0 + shrink)
            & (x < self.x1 - shrink)
            & (y > self.y0 + shrink)
            & (y < self.y1 - shrink)
        )

    def boundary_distance(self, x, y):
        nx, ny = self.nearest(x, y)
        return np.hypot(x - nx, y - ny)

    def nearest(self, x, y):
        """Closest boundary point: outside points clip onto the rectangle,
        interior points move along the axis of least penetration."""
        inside = self.contains(x, y)
        which = np.argmin(np.stack([x - self.x0, self.x1 - x, y - self.y0, self.y1 - y]), axis=0)
        ix = np.where(which == 0, self.x0, np.where(which == 1, self.x1, x))
        iy = np.where(which == 2, self.y0, np.where(which == 3, self.y1, y))
        nx = np.where(inside, ix, np.clip(x, self.x0, self.x1))
        ny = np.where(inside, iy, np.clip(y, self.y0, self.y1))
        return nx, ny

    def bbox(self):
        return (self.x0, self.y0, self.x1, self.y1)


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation with marked boundary edges.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, counterclockwise
    boundary_edges : (nb, 2) int array
    boundary_markers : (nb,) int array
    domain_area : float, sum of triangle areas
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_markers: np.ndarray
    domain_area: float

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def triangle_areas(self) -> np.ndarray:
        return _signed_areas(self.vertices, self.triangles)

    @cached_property
    def _csv_prefixes(self) -> list[str]:
        """The ``node_index,x,y,`` prefix of each row of a nodal CSV."""
        xy = np.asarray(self.vertices, dtype=float).tolist()
        return [f"{i},{x!r},{y!r}," for i, (x, y) in enumerate(xy)]


@dataclass(frozen=True)
class MeshQualityReport:
    """Geometric quality summary.

    ``is_strict_delaunay`` is true iff every interior edge has opposite
    angles summing to strictly less than pi (checked with a 1e-12 margin).
    ``worst_edge`` is the interior edge with the largest opposite-angle sum,
    or None when there are no interior edges.
    """

    is_strict_delaunay: bool
    min_angle: float
    worst_edge: tuple[int, int] | None
    max_opposite_angle_sum: float


def _finish(vertices, triangles, boundary, markers) -> Mesh:
    """The validated Mesh of these arrays, which become read-only."""
    area = float(_signed_areas(vertices, triangles).sum())
    mesh = Mesh(vertices, triangles, boundary, markers, domain_area=area)
    validate_mesh(mesh)
    for arr in (vertices, triangles, boundary, markers):
        arr.setflags(write=False)
    return mesh


def _signed_areas(vertices, triangles):
    p1 = vertices[triangles[:, 0]]
    p2 = vertices[triangles[:, 1]]
    p3 = vertices[triangles[:, 2]]
    return 0.5 * (
        (p2[:, 0] - p1[:, 0]) * (p3[:, 1] - p1[:, 1])
        - (p2[:, 1] - p1[:, 1]) * (p3[:, 0] - p1[:, 0])
    )


def _orient_ccw(vertices, triangles):
    """Flip clockwise triangles in place; returns the number of flips."""
    areas = _signed_areas(vertices, triangles)
    flipped = np.flatnonzero(areas < 0)
    if flipped.size:
        triangles[flipped, 1], triangles[flipped, 2] = (
            triangles[flipped, 2].copy(),
            triangles[flipped, 1].copy(),
        )
    return flipped.size


def _edge_incidence(triangles):
    """All undirected edges with incidence counts.

    Returns (edges (ne,2) sorted pairs in lexicographic order, counts (ne,),
    inverse (3*nt,)) where inverse maps each local triangle edge to its row in
    ``edges``.  Pairs are deduplicated through the integer key a * nv + b.
    """
    raw = np.vstack([triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]])
    a, b = np.sort(raw, axis=1).astype(np.int64, copy=False).T
    nv = int(b.max()) + 1 if b.size else 1
    keys, inverse, counts = np.unique(a * nv + b, return_inverse=True, return_counts=True)
    return np.stack([keys // nv, keys % nv], axis=1), counts, inverse


def boundary_edge_normals(mesh: Mesh) -> np.ndarray:
    """Outward normals of the boundary edges, in ``boundary_edges`` order and
    as long as their edges: each points away from the vertex opposite it in
    the one triangle that owns it."""
    tris, verts, be = mesh.triangles, mesh.vertices, mesh.boundary_edges
    nt, nv = tris.shape[0], mesh.n_vertices
    edges, _, inverse = _edge_incidence(tris)
    # slot s = e * nt + t is local edge e of triangle t, opposite its vertex (e + 2) % 3
    owner = np.empty(len(edges), dtype=np.int64)
    owner[inverse] = np.arange(3 * nt)
    keys = edges[:, 0] * nv + edges[:, 1]
    slot = owner[np.searchsorted(keys, be.min(axis=1) * nv + be.max(axis=1))]
    opposite = tris[slot % nt, (slot // nt + 2) % 3]
    a, b = verts[be[:, 0]], verts[be[:, 1]]
    nrm = np.stack([b[:, 1] - a[:, 1], a[:, 0] - b[:, 0]], axis=1)
    inward = (nrm * (verts[opposite] - 0.5 * (a + b))).sum(axis=1) > 0
    nrm[inward] *= -1.0
    return nrm


def validate_mesh(mesh: Mesh) -> None:
    """Raise MeshTopologyError unless all structural invariants hold."""
    nv = mesh.n_vertices
    tris = mesh.triangles
    _check_indices("triangle", tris, nv)
    areas = _signed_areas(mesh.vertices, tris)
    if (areas <= 0).any():
        bad = int(np.argmin(areas))
        raise MeshTopologyError(f"triangle {bad} has nonpositive area {areas[bad]:g}")

    referenced = np.zeros(nv, dtype=bool)
    referenced[tris.ravel()] = True
    if not referenced.all():
        raise MeshTopologyError(
            f"vertex {int(np.flatnonzero(~referenced)[0])} is not used by any triangle"
        )

    edges, counts, _ = _edge_incidence(tris)
    if (counts > 2).any():
        e = edges[np.argmax(counts)]
        raise MeshTopologyError(f"edge ({e[0]},{e[1]}) is shared by more than 2 triangles")

    boundary = edges[counts == 1]
    listed = np.sort(np.asarray(mesh.boundary_edges), axis=1)
    if listed.shape[0] != boundary.shape[0]:
        raise MeshTopologyError(
            f"boundary edge list has {listed.shape[0]} entries, "
            f"mesh has {boundary.shape[0]} boundary edges"
        )
    if boundary.size:
        order = np.lexsort((listed[:, 1], listed[:, 0]))
        if not np.array_equal(boundary, listed[order]):
            raise MeshTopologyError("boundary edge list does not match mesh boundary")

    # boundary loops: every boundary vertex has degree exactly 2
    if boundary.size:
        degrees = np.bincount(boundary.ravel(), minlength=nv)
        bad = np.flatnonzero((degrees != 0) & (degrees != 2))
        if bad.size:
            raise MeshTopologyError(
                f"boundary is not a union of closed loops at vertex {int(bad[0])}"
            )
        n_loops = _count_boundary_loops(boundary, nv)
        n_holes = n_loops - 1
        euler = nv - edges.shape[0] + tris.shape[0]
        if euler != 1 - n_holes:
            raise MeshTopologyError(
                f"Euler check failed: V-E+T={euler}, expected {1 - n_holes} "
                f"for {n_holes} hole(s)"
            )

    total = float(areas.sum())
    if not math.isclose(total, mesh.domain_area, rel_tol=1e-12, abs_tol=0.0):
        raise MeshTopologyError(
            f"domain_area {mesh.domain_area!r} != sum of triangle areas {total!r}"
        )


def _count_boundary_loops(boundary_edges, nv):
    """Connected components of the boundary-edge graph that hold an edge."""
    graph = sp.coo_matrix((np.ones(len(boundary_edges)), boundary_edges.T), shape=(nv, nv))
    _, labels = connected_components(graph, directed=False)
    return np.unique(labels[boundary_edges]).size


# ---------------------------------------------------------------------------
# file I/O
#
# ASCII format: line 1 "nv nt nb"; nv lines "x y"; nt lines "i j k" (0-based);
# nb lines "i j marker".  Comments start with '#'.


def _data_lines(path):
    with open(path, "r", encoding="ascii") as fh:
        for line_no, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if body:
                yield line_no, body


def _check_indices(what, rows, nv):
    """MeshTopologyError naming the first of ``rows`` (``what`` i) with a
    vertex index outside 0..nv-1."""
    if rows.size and (rows.min() < 0 or rows.max() >= nv):
        bad = np.flatnonzero((rows < 0).any(axis=1) | (rows >= nv).any(axis=1))[0]
        raise MeshTopologyError(
            f"{what} {int(bad)} references vertex index out of range 0..{nv - 1}"
        )


def _records(next_line, what, count, width, parse, usage, bad):
    """A (count, width) array of ``parse`` values, one data line per record
    (``what`` i); MeshFormatError with ``usage`` for a line of another width
    and ``bad`` for a field ``parse`` rejects."""
    rows = np.empty((count, width), dtype=parse)
    for i in range(count):
        line_no, body = next_line(f"{what} {i}")
        parts = body.split()
        if len(parts) != width:
            raise MeshFormatError(line_no, usage)
        try:
            rows[i] = [parse(p) for p in parts]
        except ValueError:
            raise MeshFormatError(line_no, f"{bad} {body!r}")
    return rows


def load_mesh(path) -> Mesh:
    """Read a mesh file, normalize orientation, and validate it."""
    lines = _data_lines(path)

    def next_line(what):
        try:
            return next(lines)
        except StopIteration:
            raise MeshFormatError(0, f"unexpected end of file while reading {what}")

    line_no, header = next_line("header")
    parts = header.split()
    if len(parts) != 3:
        raise MeshFormatError(line_no, "header must contain 'nv nt nb'")
    try:
        nv, nt, nb = (int(p) for p in parts)
    except ValueError:
        raise MeshFormatError(line_no, f"bad header {header!r}")
    if nv < 3 or nt < 1 or nb < 0:
        raise MeshFormatError(line_no, f"implausible sizes nv={nv} nt={nt} nb={nb}")

    vertices = _records(
        next_line, "vertex", nv, 2, float, "vertex line must contain 'x y'",
        "bad vertex coordinates",
    )
    triangles = _records(
        next_line, "triangle", nt, 3, int, "triangle line must contain 'i j k'",
        "bad triangle indices",
    )
    edges = _records(
        next_line, "boundary edge", nb, 3, int, "boundary line must contain 'i j marker'",
        "bad boundary edge",
    )
    boundary, markers = edges[:, :2].copy(), edges[:, 2].copy()
    extra = next(lines, None)
    if extra is not None:
        raise MeshFormatError(extra[0], f"data after the last boundary edge: {extra[1]!r}")

    _check_indices("triangle", triangles, nv)
    _check_indices("boundary edge", boundary, nv)

    n_flipped = _orient_ccw(vertices, triangles)
    if n_flipped:
        warnings.warn(
            f"re-oriented {n_flipped} clockwise triangle(s)", OrientationWarning
        )
    return _finish(vertices, triangles, boundary, markers)


def write_mesh(mesh: Mesh, path) -> None:
    """Inverse serializer of load_mesh; floats use shortest round-trip form."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{mesh.n_vertices} {mesh.n_triangles} {len(mesh.boundary_edges)}\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"{i} {j} {k}\n")
        for (i, j), m in zip(mesh.boundary_edges, mesh.boundary_markers):
            fh.write(f"{i} {j} {m}\n")


# ---------------------------------------------------------------------------
# generation


def generate_rect_mesh(bounds, target_h, holes=()) -> Mesh:
    """Triangulate an axis-aligned rectangle minus the given holes.

    Parameters
    ----------
    bounds : (x0, y0, x1, y1)
    target_h : edge-length scale; the generator snaps it so rows fit exactly
    holes : iterable of Circle / Rect lying strictly inside the bounds

    The bulk pattern is staggered rows of near-equilateral triangles; holes
    are carved by snapping nearby vertices to the hole boundary and removing
    the triangles inside, which polygonalizes circular boundaries with
    roughly one segment per target_h of circumference.
    """
    x0, y0, x1, y1 = (float(b) for b in bounds)
    if not (x1 > x0 and y1 > y0):
        raise GeometryError(f"empty bounds {bounds}")
    width, height = x1 - x0, y1 - y0
    if not (0 < target_h <= min(width, height)):
        raise GeometryError(f"degenerate target_h {target_h} for bounds {bounds}")
    holes = tuple(holes)
    _check_hole_geometry((x0, y0, x1, y1), holes, target_h)

    vertices, triangles, dx = _lattice(x0, y0, x1, y1, target_h)

    if holes:
        vertices, triangles = _carve_holes(vertices, triangles, (x0, y0, x1, y1), holes, dx)
        if triangles.shape[0] == 0:
            raise GeometryError("holes removed the entire domain")

    _orient_ccw(vertices, triangles)
    boundary, markers = _classify_boundary(vertices, triangles, (x0, y0, x1, y1), holes)
    return _finish(vertices, triangles, boundary, markers)


def _check_hole_geometry(bounds, holes, target_h):
    """Raise GeometryError for hole layouts the generator cannot mesh."""
    x0, y0, x1, y1 = bounds
    clear = 0.75 * target_h
    for n, hole in enumerate(holes):
        hx0, hy0, hx1, hy1 = hole.bbox()
        if hx0 <= x0 + clear or hy0 <= y0 + clear or hx1 >= x1 - clear or hy1 >= y1 - clear:
            raise GeometryError(
                f"hole {n} touches or is too close to the outer boundary "
                f"(needs {clear:g} clearance at h={target_h:g})"
            )
        if isinstance(hole, Circle) and hole.r < 1.5 * target_h:
            raise GeometryError(
                f"hole {n} radius {hole.r:g} is below 1.5*target_h; refine target_h"
            )
        if isinstance(hole, Rect) and min(hole.x1 - hole.x0, hole.y1 - hole.y0) < 1.5 * target_h:
            raise GeometryError(f"hole {n} is thinner than 1.5*target_h; refine target_h")
    for n, a in enumerate(holes):
        for m, b in enumerate(holes[n + 1 :], start=n + 1):
            ax0, ay0, ax1, ay1 = a.bbox()
            bx0, by0, bx1, by1 = b.bbox()
            gap_x = max(bx0 - ax1, ax0 - bx1)
            gap_y = max(by0 - ay1, ay0 - by1)
            if max(gap_x, gap_y) < clear:
                raise GeometryError(f"holes {n} and {m} overlap or are too close")
    # a rectangle's corner needs a vertex of its own, which the carving
    # cannot give it when a hole diagonally across takes the one lattice
    # vertex between them
    for n, a in enumerate(holes):
        if not isinstance(a, Rect):
            continue
        cx, cy = np.array([a.x0, a.x0, a.x1, a.x1]), np.array([a.y0, a.y1, a.y0, a.y1])
        for m, b in enumerate(holes):
            bx0, by0, bx1, by1 = b.bbox()
            diagonal = ~(((cx > bx0) & (cx < bx1)) | ((cy > by0) & (cy < by1)))
            if m != n and (b.boundary_distance(cx, cy)[diagonal] < target_h).any():
                raise GeometryError(
                    f"a corner of hole {n} lies diagonally within target_h={target_h:g} "
                    f"of hole {m}"
                )


def _lattice(x0, y0, x1, y1, target_h):
    """Staggered rows of vertices over the rectangle and the triangles between
    them, as (vertices, triangles, dx), row by row and strip by strip.

    Even rows hold nx + 1 vertices dx apart; odd rows are offset by dx/2 and
    end in vertices pinned to the sides, nx + 2 in all.  Each strip between
    two rows is 2 nx + 1 triangles, left to right, each joining a row's edge
    to a vertex of the other row.  The shorter diagonal always follows, so a
    strip alternates its triangles between its bottom and top row's edges,
    starting on the top over an even row and on the bottom over an odd one.
    """
    nx = max(2, round((x1 - x0) / target_h))
    dx = (x1 - x0) / nx
    ny = max(2, round((y1 - y0) / (dx * math.sqrt(3.0) / 2.0)))
    dy = (y1 - y0) / ny
    sizes = nx + 1 + np.arange(ny + 1) % 2  # vertices per row
    starts = np.concatenate([[0], np.cumsum(sizes)])
    even, odd = np.linspace(x0, x1, nx + 1), x0 + (np.arange(nx) + 0.5) * dx
    x = np.tile(np.concatenate([even, [x0], odd, [x1]]), ny // 2 + 1)[: starts[-1]]
    y = y0 + np.arange(ny + 1) * dy
    y[-1] = y1
    vertices = np.column_stack([x, np.repeat(y, sizes)])

    # triangle m of a strip joins bottom vertex i and top vertex k to the
    # next vertex of the top row (up) or of the bottom row
    m, top_first = np.arange(2 * nx + 1), 1 - np.arange(ny)[:, None] % 2
    i, k, up = (m + 1 - top_first) // 2, (m + top_first) // 2, (m + top_first) % 2 == 1
    bottom, top = starts[:-2, None] + i, starts[1:-1, None] + k
    triangles = np.stack([bottom, np.where(up, top + 1, bottom + 1), top], axis=-1)
    return vertices, triangles.reshape(-1, 3), dx


def _on_bounds(vertices, bounds, rel_tol):
    """Which vertices lie on a side of the rectangle ``bounds``, within
    ``rel_tol`` times its longer side."""
    x0, y0, x1, y1 = bounds
    tol = rel_tol * max(x1 - x0, y1 - y0)
    vx, vy = vertices[:, 0], vertices[:, 1]
    return (
        (np.abs(vx - x0) <= tol)
        | (np.abs(vx - x1) <= tol)
        | (np.abs(vy - y0) <= tol)
        | (np.abs(vy - y1) <= tol)
    )


def _carve_holes(vertices, triangles, bounds, holes, dx):
    """Snap vertices near hole boundaries onto them and drop inside triangles.

    Removal exposes loop vertices farther than the initial snap band, so the
    snap/carve pair iterates: every exposed non-outer vertex is pulled onto
    its nearest hole (the nearest that holds a boundary neighbour of it, if
    one does), then triangles whose centroid landed inside a hole (in
    particular chordal caps with all corners on a circle), triangles with a
    strictly interior vertex, and degenerate or inverted triangles are
    removed, until the boundary stabilizes.

    Between two holes less than about two edges apart, a removed triangle
    can span the gap and leave an edge from one hole to the other on the
    boundary.  The carving then starts over with the vertices inside a hole
    of the removed triangles at that edge's ends snapped onto their holes
    too, so that those triangles stay; layouts with no such edge carve in
    one pass.
    """
    on_outer = _on_bounds(vertices, bounds, 1e-12)
    pinned = np.zeros(len(vertices), dtype=bool)
    while True:
        carved, kept = _carve_pass(vertices, triangles, on_outer, holes, dx, pinned)
        culprits = _gap_culprits(carved, triangles, kept, bounds, holes) & ~pinned
        if not culprits.any():
            break
        pinned |= culprits
    triangles = triangles[kept]
    referenced = np.zeros(len(carved), dtype=bool)
    referenced[triangles.ravel()] = True
    remap = -np.ones(len(carved), dtype=np.int64)
    remap[referenced] = np.arange(referenced.sum())
    return carved[referenced], remap[triangles]


def _carve_pass(vertices, triangles, on_outer, holes, dx, pinned):
    """One snap/carve iteration to a stable boundary, with the ``pinned``
    vertices snapped onto the hole holding them at the start; returns the
    moved vertices and the indices of the kept triangles."""
    vertices = vertices.copy()
    for hole in holes:
        sel = ~on_outer & (hole.boundary_distance(*vertices.T) < 0.45 * dx)
        sel |= pinned & hole.contains(*vertices.T)
        vertices[sel, 0], vertices[sel, 1] = hole.nearest(*vertices[sel].T)

    kept = np.arange(len(triangles))
    for _ in range(20):
        vx, vy = vertices[:, 0], vertices[:, 1]
        tris = triangles[kept]
        keep = _signed_areas(vertices, tris) > 1e-9 * dx * dx
        cent = vertices[tris].mean(axis=1)
        for hole in holes:
            keep &= ~hole.contains(cent[:, 0], cent[:, 1])
            inside_v = hole.contains(vx, vy, shrink=1e-9 * dx)
            keep &= ~inside_v[tris].any(axis=1)
        changed = not keep.all()
        kept = kept[keep]

        # exposed boundary vertices that sit on neither the outer rectangle
        # nor a hole boundary get pulled onto a hole
        edges, counts, _ = _edge_incidence(triangles[kept])
        loop_edges = edges[counts == 1]
        loop_verts = np.unique(loop_edges)
        hole_dists = np.stack(
            [hole.boundary_distance(vx[loop_verts], vy[loop_verts]) for hole in holes]
        )
        nearest_hole = np.argmin(hole_dists, axis=0)
        min_dist = hole_dists[nearest_hole, np.arange(len(loop_verts))]
        stray = (~on_outer[loop_verts]) & (min_dist > 1e-9 * dx)
        if not stray.any() and not changed:
            return vertices, kept
        if stray.any():
            if min_dist[stray].max() > 2.0 * dx:
                raise GeometryError(
                    "hole carving exposed a vertex far from every hole "
                    f"boundary ({min_dist[stray].max():.3g}); refine target_h"
                )
            ends = np.searchsorted(loop_verts, loop_edges)
            held = np.zeros(hole_dists.shape[::-1], dtype=bool)
            for a, b in (ends.T, ends.T[::-1]):
                np.logical_or.at(held, a, hole_dists[:, b].T <= 1e-9 * dx)
            target = np.where(
                held.any(axis=1), np.argmin(np.where(held.T, hole_dists, np.inf), axis=0),
                nearest_hole,
            )
            for k, hole in enumerate(holes):
                idx = loop_verts[stray & (target == k)]
                vertices[idx, 0], vertices[idx, 1] = hole.nearest(*vertices[idx].T)
    raise GeometryError("hole carving did not stabilize; refine target_h")


def _gap_culprits(vertices, triangles, kept, bounds, holes):
    """Which vertices belong to a removed triangle at an end of a boundary
    edge that joins two boundaries."""
    edges, counts, _ = _edge_incidence(triangles[kept])
    loop = edges[counts == 1]
    on = _on_boundaries(vertices, bounds, holes)
    gap_ends = np.zeros(len(vertices), dtype=bool)
    gap_ends[loop[~(on[:, loop[:, 0]] & on[:, loop[:, 1]]).any(axis=0)]] = True
    removed = np.ones(len(triangles), dtype=bool)
    removed[kept] = False
    culprits = np.zeros(len(vertices), dtype=bool)
    culprits[triangles[removed & gap_ends[triangles].any(axis=1)]] = True
    return culprits


def _on_boundaries(vertices, bounds, holes):
    """Per boundary (the outer rectangle, then each hole), which vertices lie
    on it."""
    x0, y0, x1, y1 = bounds
    tol = 1e-6 * max(x1 - x0, y1 - y0)
    vx, vy = vertices[:, 0], vertices[:, 1]
    return np.stack(
        [_on_bounds(vertices, bounds, 1e-9)]
        + [hole.boundary_distance(vx, vy) <= tol for hole in holes]
    )


def _classify_boundary(vertices, triangles, bounds, holes):
    """Boundary edges and their markers: 1 where both ends lie on the outer
    rectangle, else 2 + the index of the first hole holding both ends."""
    edges, counts, _ = _edge_incidence(triangles)
    boundary = edges[counts == 1]
    on = _on_boundaries(vertices, bounds, holes)
    both = on[:, boundary[:, 0]] & on[:, boundary[:, 1]]
    unmarked = np.flatnonzero(~both.any(axis=0))
    if unmarked.size:
        a, b = boundary[unmarked[0]]
        raise MeshTopologyError(
            f"boundary edge ({a},{b}) lies on neither the outer boundary nor a hole"
        )
    return boundary, np.argmax(both, axis=0).astype(np.int64) + 1


# ---------------------------------------------------------------------------
# quality


def check_mesh_quality(mesh: Mesh) -> MeshQualityReport:
    """Angle statistics and the strict-Delaunay interior-edge test."""
    verts = mesh.vertices
    tris = mesh.triangles
    angles = _triangle_angles(verts, tris)

    edges, counts, inverse = _edge_incidence(tris)
    # local edge e of a triangle is opposite local vertex (e+2)%3 given the
    # edge order [(0,1),(1,2),(2,0)]
    nt = tris.shape[0]
    opp_local = np.concatenate(
        [np.full(nt, 2), np.full(nt, 0), np.full(nt, 1)]
    )
    opp_angle = angles[np.tile(np.arange(nt), 3), opp_local]

    sums = np.zeros(len(edges))
    np.add.at(sums, inverse, opp_angle)
    interior = counts == 2
    if interior.any():
        worst = int(np.argmax(np.where(interior, sums, -np.inf)))
        max_sum = float(sums[worst])
        worst_edge = (int(edges[worst, 0]), int(edges[worst, 1]))
        strict = bool(max_sum < math.pi - 1e-12)
    else:
        max_sum = 0.0
        worst_edge = None
        strict = True

    return MeshQualityReport(
        is_strict_delaunay=strict,
        min_angle=float(angles.min()),
        worst_edge=worst_edge,
        max_opposite_angle_sum=max_sum,
    )


def _triangle_angles(vertices, triangles):
    p = vertices[triangles]  # (nt, 3, 2)
    angles = np.empty((triangles.shape[0], 3))
    for a in range(3):
        u = p[:, (a + 1) % 3] - p[:, a]
        v = p[:, (a + 2) % 3] - p[:, a]
        cosang = (u * v).sum(axis=1) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
        angles[:, a] = np.arccos(np.clip(cosang, -1.0, 1.0))
    return angles
