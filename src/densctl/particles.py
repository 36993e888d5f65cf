"""Particle-level validation of the mean-field density dynamics.

Simulates independent agents X <- X + (u(X) + b(X)) dt + sqrt(2 mu dt) xi
with specular reflection at the mesh boundary, and deposits ensembles back
onto the mesh (mass-lumped P1 deposition) so empirical densities can be
compared against PDE trajectories.

Each substep runs two kernels on uniform background grids.  Point location
tests each point against the candidate triangles of its fine cell
progressively, in ascending triangle index, so every point gets the
lowest-index triangle that contains it: round 0 tests every point in place
against its cell's first candidate, and round k tests only the points still
unlocated against their cell's k-th candidate.  Most cells list one
candidate.
Reflection tests a segment only against the boundary edges binned, once per
domain, into the coarse cells its bounding box covers, so its memory grows
with the segments, not with segments times boundary edges.  Those
(segment, edge) pairs arrive grouped by segment, so each segment's first hit
is a segmented minimum over its pairs, with no sort.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .mesh import Mesh, boundary_edge_normals
from .state import DensityField, _vals

__all__ = [
    "ParticleEnsemble",
    "TriangleLocator",
    "MeshDomain",
    "NodalVelocity",
    "sample_initial",
    "step_particles",
    "empirical_density",
]

logger = logging.getLogger(__name__)

_MAX_REFLECTIONS = 10
# locator grid cell side, as a fraction of the largest triangle bounding box
_CELL_SCALE = 0.5
# candidate lists: fine cells per grid cell side, and triangles per chunk of
# their build, which bounds the build's transient memory
_FINE_SPLIT = 8
_BUILD_CHUNK = 256


@dataclass(frozen=True)
class ParticleEnsemble:
    """Positions with their location: containing triangle and barycentrics."""

    positions: np.ndarray  # (n, 2)
    tri: np.ndarray  # (n,), from TriangleLocator.locate
    bary: np.ndarray  # (n, 3)

    @property
    def n(self) -> int:
        return self.positions.shape[0]


def _csr(key, items, n):
    """CSR (ptr, items) grouping items by key in [0, n), in their order
    within a key."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=n), out=ptr[1:])
    return ptr, items[np.argsort(key, kind="stable")]


def _ranges(start, count):
    """Every start[i] + j with j < count[i], in order of i, paired with i."""
    which = np.repeat(np.arange(len(start)), count)
    return which, np.arange(len(which)) + np.repeat(start - (np.cumsum(count) - count), count)


class TriangleLocator:
    """Uniform background grids for point-in-triangle queries.

    Each cell of a grid ``_FINE_SPLIT`` times finer than the coarse one
    lists, as CSR arrays (``ptr``, ``tris``), the triangles not surely
    outside it, in ascending triangle index.  ``locate`` tests points
    progressively, so a point stops at its first hit: round 0 tests every
    point in place against its fine cell's first candidate, and round k
    only the points still unlocated against their cell's k-th candidate.
    The coarse grid bins any boxes (``bin_boxes``), such as the boundary
    edges of ``MeshDomain``.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        verts = mesh.vertices
        tris = mesh.triangles
        p1 = verts[tris[:, 0]]
        e2 = verts[tris[:, 1]] - p1
        e3 = verts[tris[:, 2]] - p1
        det = e2[:, 0] * e3[:, 1] - e2[:, 1] * e3[:, 0]
        # one row per triangle, p1x, p1y, e2x, e2y, e3x, e3y, det, gathered
        # once per round; the last row, all NaN, fails every test
        self._geom = np.vstack([np.column_stack([p1, e2, e3, det]), np.full(7, np.nan)])

        self.xmin, self.ymin = verts.min(axis=0)
        xmax, ymax = verts.max(axis=0)
        corners = verts[tris]
        lo, hi = corners.min(axis=1), corners.max(axis=1)
        self.cell = max((hi - lo).max() * _CELL_SCALE, 1e-12)
        self.nx = max(1, int(np.ceil((xmax - self.xmin) / self.cell)))
        self.ny = max(1, int(np.ceil((ymax - self.ymin) / self.cell)))
        self.fine = self.cell / _FINE_SPLIT
        self.fine_shape = np.array([self.nx, self.ny]) * _FINE_SPLIT

        # T is surely outside a fine cell, padded by 1e-6 of its side, when
        # one of its barycentrics is below -1e-9 at all four corners.  They
        # are linear, so then, wherever rounding puts a point of the cell,
        # the scan's -1e-12 test fails T: dropping T changes no answer.
        side, pad, nfx = self.fine, 1e-6 * self.fine, self.fine_shape[0]
        cells, cands = [], []
        for s in range(0, len(lo), _BUILD_CHUNK):
            chunk = slice(s, s + _BUILD_CHUNK)
            t, col, row = self._box_cells(lo[chunk] - pad, hi[chunk] + pad, side, self.fine_shape)
            t += s
            x, y = self.xmin + col * side, self.ymin + row * side
            lam = np.array([self._bary(x + ox, y + oy, t)
                            for ox in (-pad, side + pad) for oy in (-pad, side + pad)])
            near = (lam.max(axis=0) >= -1e-9).all(axis=0)
            cells.append(row[near] * nfx + col[near])
            cands.append(t[near])
        self.ptr, self.tris = _csr(np.concatenate(cells), np.concatenate(cands), nfx * self.fine_shape[1])
        # each fine cell's first candidate; the sentinel row for an empty cell
        self._first = np.full(len(self.ptr) - 1, len(tris))
        listed = self.ptr[:-1] < self.ptr[1:]
        self._first[listed] = self.tris[self.ptr[:-1][listed]]

    def box_cells(self, lo, hi):
        """(box, cell) pairs of every grid cell that each box lo..hi meets,
        box by box in index order; boxes outside the grid are clamped to it."""
        box, col, row = self._box_cells(lo, hi, self.cell, (self.nx, self.ny))
        return box, row * self.nx + col

    def _cells(self, x, y, side, shape):
        """(column, row) of each point (x, y)'s cell on the grid with our
        origin, cell side ``side`` and ``shape`` (columns, rows), clamped to
        the grid, each from its own 1-D coordinate column."""
        return [np.fmin(np.fmax(np.floor((v - origin) / side), 0), k - 1).astype(np.int64)
                for v, origin, k in ((x, self.xmin, shape[0]), (y, self.ymin, shape[1]))]

    def _box_cells(self, lo, hi, side, shape):
        """``box_cells`` on that grid, as (box, column, row)."""
        (ax, ay), (bx, by) = self._cells(*lo.T, side, shape), self._cells(*hi.T, side, shape)
        wx = bx - ax + 1
        box, k = _ranges(np.zeros(len(ax), dtype=np.int64), wx * (by - ay + 1))
        wx = wx[box]
        return box, ax[box] + k % wx, ay[box] + k // wx

    def bin_boxes(self, lo, hi):
        """CSR (ptr, items) listing, per grid cell, the boxes lo..hi that
        meet it, in ascending box index."""
        box, cell = self.box_cells(lo, hi)
        return _csr(cell, box, self.nx * self.ny)

    def locate(self, points):
        """Containing triangle and barycentric coordinates per point.

        Returns (tri, bary): the first triangle of the point's fine cell, in
        ascending index, whose barycentrics are all >= -1e-12, and those
        barycentrics clipped at 0 and renormalized.  Points outside the mesh
        get tri = -1 and bary = 0.  Round 0 tests every point in place
        against its cell's first candidate (an empty cell's is the NaN row);
        later rounds test only the misses, against their cell's next one.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        x, y = points[:, 0], points[:, 1]
        # clamped: a point just off the grid can still pass an edge cell's test
        col, row = self._cells(x, y, self.fine, self.fine_shape)
        cell = row * self.fine_shape[0] + col
        tri = self._first[cell]
        lam = np.array(self._bary(x, y, tri))
        ok = np.minimum(np.minimum(lam[0], lam[1]), lam[2]) >= -1e-12
        todo = np.flatnonzero(~ok)
        tri[todo] = -1
        pos, end = self.ptr[cell[todo]] + 1, self.ptr[cell[todo] + 1]
        live = pos < end
        while live.any():
            todo, pos, end = todo[live], pos[live], end[live]
            cand = self.tris[pos]
            l1, l2, l3 = self._bary(x[todo], y[todo], cand)
            ok = np.minimum(np.minimum(l1, l2), l3) >= -1e-12
            hit = todo[ok]
            tri[hit] = cand[ok]
            lam[0, hit], lam[1, hit], lam[2, hit] = l1[ok], l2[ok], l3[ok]
            pos += 1
            live = ~ok & (pos < end)
        np.clip(lam, 0.0, None, out=lam)
        bary = (lam / (lam[0] + lam[1] + lam[2])).T
        bary[tri < 0] = 0.0
        return tri, bary

    def _bary(self, x, y, t):
        """Unclipped barycentrics (l1, l2, l3) of the points (x, y) in triangles t."""
        # np.take gathers rows of a 2-D table about 3 times faster than
        # self._geom[t] (numpy 2.4.6, 50000 rows of 7: 310 against 920 us)
        p1x, p1y, e2x, e2y, e3x, e3y, det = np.take(self._geom, t, axis=0).T
        dx = x - p1x
        dy = y - p1y
        l2 = (dx * e3y - dy * e3x) / det
        l3 = (e2x * dy - e2y * dx) / det
        return 1.0 - l2 - l3, l2, l3


class MeshDomain:
    """Point location plus specular reflection against the mesh boundary.

    The boundary edges are binned once into the locator's grid, as CSR
    arrays (``edge_ptr``, ``edges``), so a segment is tested only against
    the edges of the cells its bounding box covers.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.locator = TriangleLocator(mesh)
        be = mesh.boundary_edges
        verts = mesh.vertices
        self._ea = verts[be[:, 0]]
        self._eb = verts[be[:, 1]]
        self._ed = self._eb - self._ea
        lengths = np.hypot(self._ed[:, 0], self._ed[:, 1])
        self._normals = -boundary_edge_normals(mesh) / lengths[:, None]  # unit, inward
        self._nudge = 1e-9 * float(lengths.mean())
        # padded by far more than the crossing test's tolerances, so every
        # edge that test can accept is binned where the segment looks
        pad = 1e-6 * self.locator.cell
        self.edge_ptr, self.edges = self.locator.bin_boxes(
            np.minimum(self._ea, self._eb) - pad, np.maximum(self._ea, self._eb) + pad
        )

    def reflect(self, start, end, located):
        """Specularly fold the segments start->end back into the domain.

        ``start`` must be inside; ``located`` holds the (tri, bary) of
        ``end`` from :meth:`TriangleLocator.locate`.  Applies up to
        _MAX_REFLECTIONS bounces per particle; anything still outside
        afterwards is returned to its start point (counted and logged).
        Returns (end, tri, bary): the folded points and their location, found
        by the locate that tests each bounce.
        """
        end = end.copy()
        tri, bary = map(np.copy, located)
        outside = tri < 0
        stuck = np.zeros(len(end), dtype=bool)
        p = start.copy()
        for _ in range(_MAX_REFLECTIONS):
            if not outside.any():
                break
            idx = np.flatnonzero(outside)
            t_hit, e_hit = self._first_crossing(np.take(p, idx, axis=0), np.take(end, idx, axis=0))
            missed = ~np.isfinite(t_hit)
            if missed.any():
                stuck[idx[missed]] = True
                outside[idx[missed]] = False
            good = ~missed
            if good.any():
                gi = idx[good]
                a, b = np.take(p, gi, axis=0), np.take(end, gi, axis=0)
                hit = a + t_hit[good, None] * (b - a)
                rest = b - hit
                nrm = np.take(self._normals, e_hit[good], axis=0)
                end[gi] = folded = hit + rest - 2.0 * (rest * nrm).sum(axis=1)[:, None] * nrm
                # restart strictly inside so the sweep cannot re-cross the
                # same edge at t = 0 and wedge the particle on the boundary
                p[gi] = hit + self._nudge * nrm
                tri[gi], bary[gi] = self.locator.locate(folded)
                outside[gi] = tri[gi] < 0
        still = outside | stuck
        if still.any():
            logger.warning(
                "projected %d particle(s) back to their last interior point",
                int(still.sum()),
            )
            end[still] = start[still]
            tri[still], bary[still] = self.locator.locate(end[still])
        return end, tri, bary

    def _first_crossing(self, p, q):
        """Earliest boundary-edge crossing of each segment p->q.

        Returns (t_hit, e_hit): the smallest crossing parameter t in
        (0, 1 + 1e-12] and its edge, the lowest-index one on ties; inf and 0
        for a segment that crosses nothing.
        """
        seg, cell = self.locator.box_cells(np.minimum(p, q), np.maximum(p, q))
        which, pos = _ranges(self.edge_ptr[cell], self.edge_ptr[cell + 1] - self.edge_ptr[cell])
        seg = seg[which]
        e = self.edges[pos]
        (px, py), (dx, dy) = p.T, (q - p).T
        (eax, eay), (edx, edy) = self._ea.T, self._ed.T
        d1x, d1y, d2x, d2y = dx[seg], dy[seg], edx[e], edy[e]
        ax, ay = eax[e] - px[seg], eay[e] - py[seg]
        denom = d1x * d2y - d1y * d2x
        with np.errstate(divide="ignore", invalid="ignore"):
            # p + t d1 = ea + s d2  =>  t = (a x d2)/(d1 x d2), s = (a x d1)/(d1 x d2)
            t = (ax * d2y - ay * d2x) / denom
            s = (ax * d1y - ay * d1x) / denom
        valid = (
            (np.abs(denom) > 1e-300)
            & (t > 0.0)
            & (t <= 1.0 + 1e-12)
            & (s >= -1e-9)
            & (s <= 1.0 + 1e-9)
        )
        seg, e, t = seg[valid], e[valid], t[valid]
        t_hit = np.full(len(p), np.inf)
        e_hit = np.zeros(len(p), dtype=np.int64)
        # the pairs come grouped by segment: a segmented minimum gives each
        # segment's t, then its lowest edge among the pairs at that t
        start = np.flatnonzero(np.diff(seg, prepend=-1))
        first = np.minimum.reduceat(t, start)
        tied = t == np.repeat(first, np.diff(start, append=len(t)))
        e_hit[seg[start]] = np.minimum.reduceat(np.where(tied, e, len(self._normals)), start)
        t_hit[seg[start]] = first
        return t_hit, e_hit


class NodalVelocity:
    """Barycentric P1 interpolator of nodal velocities plus analytic drift,
    evaluated at located points (triangle indices + barycentric coordinates)."""

    def __init__(self, locator: TriangleLocator, nodal_x, nodal_y, drift=None):
        self.drift = drift
        # per triangle: u_x, then u_y, at its three vertices; one gather per point
        tris = locator.mesh.triangles
        self._corners = np.hstack([np.asarray(v, dtype=float)[tris] for v in (nodal_x, nodal_y)])

    def at(self, points, tri, bary):
        c = np.take(self._corners, np.maximum(tri, 0), axis=0)
        b0, b1, b2 = bary.T
        out = np.empty((len(c), 2))
        out[:, 0] = c[:, 0] * b0 + c[:, 1] * b1 + c[:, 2] * b2
        out[:, 1] = c[:, 3] * b0 + c[:, 4] * b1 + c[:, 5] * b2
        out[tri < 0] = 0.0
        if self.drift is not None:
            out += np.stack(self.drift(points[:, 0], points[:, 1]), axis=1)
        if not np.isfinite(out).all():
            raise ValueError("velocity evaluation produced non-finite values")
        return out


def sample_initial(density, locator: TriangleLocator, n: int, seed: int) -> ParticleEnsemble:
    """Draw n positions from a nodal P1 density on the locator's mesh
    (rejection inside triangles), located by ``locator``.

    Triangles are chosen with probability proportional to their integrated
    density; within a triangle, uniform barycentric proposals are accepted
    against the linear density.  Fully reproducible for a fixed seed.
    """
    q = _vals(density)
    rng = np.random.default_rng(seed)
    mesh = locator.mesh
    tris = mesh.triangles
    corners = mesh.vertices[tris]
    nodal = np.clip(q[tris], 0.0, None)  # (nt, 3)
    tri_mass = mesh.triangle_areas() * nodal.mean(axis=1)
    total = tri_mass.sum()
    if not total > 0:
        raise ValueError("density has no positive mass to sample from")
    counts = rng.multinomial(n, tri_mass / total)

    chunks = []
    for t in np.flatnonzero(counts):
        need = int(counts[t])
        vmax = nodal[t].max()
        got = []
        while need > 0:
            m = max(16, int(1.5 * need))
            r1 = rng.random(m)
            r2 = rng.random(m)
            flip = r1 + r2 > 1.0
            r1[flip] = 1.0 - r1[flip]
            r2[flip] = 1.0 - r2[flip]
            lam = np.stack([1.0 - r1 - r2, r1, r2], axis=1)
            accept = rng.random(m) * vmax <= lam @ nodal[t]
            pts = lam[accept][:need] @ corners[t]
            got.append(pts)
            need -= len(pts)
        chunks.append(np.concatenate(got, axis=0))
    positions = (
        np.concatenate(chunks, axis=0) if chunks else np.empty((0, 2))
    )
    return ParticleEnsemble(positions, *locator.locate(positions))


def step_particles(
    ensemble: ParticleEnsemble,
    domain: MeshDomain,
    velocity: NodalVelocity,
    mu: float,
    dt: float,
    rng: np.random.Generator,
) -> ParticleEnsemble:
    """One Euler-Maruyama step with specular boundary reflection.

    ``velocity`` is evaluated at the ensemble's own location; ``rng`` is the
    caller-owned noise stream.  The new ensemble carries the location of its
    positions, found by one locate and by the reflection's own.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    X = ensemble.positions
    vel = velocity.at(X, ensemble.tri, ensemble.bary)
    noise = rng.standard_normal(X.shape) * np.sqrt(2.0 * mu * dt) if mu > 0 else 0.0
    proposal = X + vel * dt + noise
    if not np.isfinite(proposal).all():
        raise ValueError("particle step produced non-finite positions")

    tri, bary = domain.locator.locate(proposal)
    outside = tri < 0
    if outside.any():
        idx = np.flatnonzero(outside)
        start, end, b = (np.take(a, idx, axis=0) for a in (X, proposal, bary))
        proposal[idx], tri[idx], bary[idx] = domain.reflect(start, end, (tri[idx], b))
    return ParticleEnsemble(proposal, tri, bary)


def empirical_density(ensemble: ParticleEnsemble, mesh: Mesh) -> DensityField:
    """Mass-lumped P1 deposition of the ensemble; has unit mass exactly.

    Each particle spreads weight 1/n to its triangle's vertices by
    barycentric coordinates; nodal sums are divided by the lumped-mass
    entries.  A particle outside the mesh is a fatal error (reflection is
    supposed to make that impossible).
    """
    if ensemble.n == 0:
        raise ValueError("empty ensemble")
    tri, bary = ensemble.tri, ensemble.bary
    if (tri < 0).any():
        raise ValueError(
            f"{int((tri < 0).sum())} particle(s) lie outside the mesh"
        )
    tris = mesh.triangles
    nv = mesh.n_vertices
    lumped = np.bincount(tris.ravel(), np.repeat(mesh.triangle_areas() / 3.0, 3), minlength=nv)
    dep = np.bincount(tris[tri].ravel(), (bary / ensemble.n).ravel(), minlength=nv)
    return DensityField(values=dep / lumped)
