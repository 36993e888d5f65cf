"""Particle-level validation of the mean-field density dynamics.

Simulates independent agents X <- X + (u(X) + b(X)) dt + sqrt(2 mu dt) xi
with specular reflection at the mesh boundary, and deposits ensembles back
onto the mesh (mass-lumped P1 deposition) so empirical densities can be
compared against PDE trajectories.
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


@dataclass(frozen=True)
class ParticleEnsemble:
    positions: np.ndarray  # (n, 2)
    rng_seed: int
    time: float
    # location cache (containing triangle + barycentric coords), filled lazily
    tri: np.ndarray | None = None
    bary: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.positions.shape[0]


class TriangleLocator:
    """Uniform background grid for point-in-triangle queries."""

    def __init__(self, mesh: Mesh, cell_scale: float = 0.5):
        self.mesh = mesh
        verts = mesh.vertices
        tris = mesh.triangles
        self._p1 = verts[tris[:, 0]]
        e2 = verts[tris[:, 1]] - self._p1
        e3 = verts[tris[:, 2]] - self._p1
        self._e2 = e2
        self._e3 = e3
        self._det = e2[:, 0] * e3[:, 1] - e2[:, 1] * e3[:, 0]

        self.xmin, self.ymin = verts.min(axis=0)
        xmax, ymax = verts.max(axis=0)
        corners = verts[tris]
        sizes = corners.max(axis=1) - corners.min(axis=1)
        self.cell = max(sizes.max() * cell_scale, 1e-12)
        self.nx = max(1, int(np.ceil((xmax - self.xmin) / self.cell)))
        self.ny = max(1, int(np.ceil((ymax - self.ymin) / self.cell)))

        lo = np.floor((corners.min(axis=1) - [self.xmin, self.ymin]) / self.cell).astype(int)
        hi = np.floor((corners.max(axis=1) - [self.xmin, self.ymin]) / self.cell).astype(int)
        lo = np.clip(lo, 0, [self.nx - 1, self.ny - 1])
        hi = np.clip(hi, 0, [self.nx - 1, self.ny - 1])
        buckets: dict[int, list[int]] = {}
        for t in range(len(tris)):
            for cx in range(lo[t, 0], hi[t, 0] + 1):
                for cy in range(lo[t, 1], hi[t, 1] + 1):
                    buckets.setdefault(cy * self.nx + cx, []).append(t)
        depth = max((len(v) for v in buckets.values()), default=1)
        self._table = -np.ones((self.nx * self.ny, depth), dtype=np.int64)
        for key, tlist in buckets.items():
            self._table[key, : len(tlist)] = tlist

    def locate(self, points, tol: float = 1e-12):
        """Containing triangle and barycentric coordinates per point.

        Returns (tri, bary) with tri = -1 for points outside the mesh.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        cx = np.clip(((points[:, 0] - self.xmin) / self.cell).astype(int), 0, self.nx - 1)
        cy = np.clip(((points[:, 1] - self.ymin) / self.cell).astype(int), 0, self.ny - 1)
        cand = self._table[cy * self.nx + cx]  # (npts, depth)
        safe = np.maximum(cand, 0)
        d = points[:, None, :] - self._p1[safe]
        det = self._det[safe]
        l2 = (d[..., 0] * self._e3[safe][..., 1] - d[..., 1] * self._e3[safe][..., 0]) / det
        l3 = (self._e2[safe][..., 0] * d[..., 1] - self._e2[safe][..., 1] * d[..., 0]) / det
        l1 = 1.0 - l2 - l3
        ok = (cand >= 0) & (l1 >= -tol) & (l2 >= -tol) & (l3 >= -tol)
        first = np.argmax(ok, axis=1)
        hit = ok[np.arange(len(points)), first]
        tri = np.where(hit, cand[np.arange(len(points)), first], -1)
        rows = np.arange(len(points))
        bary = np.stack(
            [l1[rows, first], l2[rows, first], l3[rows, first]], axis=1
        )
        bary = np.clip(bary, 0.0, None)
        bary /= bary.sum(axis=1, keepdims=True)
        return tri, bary


class MeshDomain:
    """Point location plus specular reflection against the mesh boundary."""

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

    def contains(self, points):
        tri, _ = self.locator.locate(points)
        return tri >= 0

    def reflect(self, start, end, outside=None):
        """Specularly fold the segments start->end back into the domain.

        ``start`` must be inside.  Applies up to _MAX_REFLECTIONS bounces per
        particle; anything still outside afterwards is returned to its start
        point (counted and logged).
        """
        end = end.copy()
        if outside is None:
            outside = ~self.contains(end)
        else:
            outside = outside.copy()
        stuck = np.zeros(len(end), dtype=bool)
        p = start.copy()
        for _ in range(_MAX_REFLECTIONS):
            if not outside.any():
                break
            idx = np.flatnonzero(outside)
            t_hit, e_hit = self._first_crossing(p[idx], end[idx])
            missed = ~np.isfinite(t_hit)
            if missed.any():
                stuck[idx[missed]] = True
                outside[idx[missed]] = False
            good = ~missed
            if good.any():
                gi = idx[good]
                seg = end[gi] - p[gi]
                hit = p[gi] + t_hit[good, None] * seg
                rest = end[gi] - hit
                nrm = self._normals[e_hit[good]]
                end[gi] = hit + rest - 2.0 * (rest * nrm).sum(axis=1)[:, None] * nrm
                # restart strictly inside so the sweep cannot re-cross the
                # same edge at t = 0 and wedge the particle on the boundary
                p[gi] = hit + self._nudge * nrm
                outside[gi] = ~self.contains(end[gi])
        still = outside | stuck
        if still.any():
            logger.warning(
                "projected %d particle(s) back to their last interior point",
                int(still.sum()),
            )
            end[still] = start[still]
        return end

    def _first_crossing(self, p, q):
        """Earliest boundary-edge crossing of each segment p->q."""
        d1 = q - p  # (m, 2)
        a = self._ea[None, :, :] - p[:, None, :]  # (m, ne, 2)
        d2 = self._ed[None, :, :]
        denom = d1[:, None, 0] * d2[..., 1] - d1[:, None, 1] * d2[..., 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            # p + t d1 = ea + s d2  =>  t = (a x d2)/(d1 x d2), s = (a x d1)/(d1 x d2)
            t = (a[..., 0] * d2[..., 1] - a[..., 1] * d2[..., 0]) / denom
            s = (a[..., 0] * d1[:, None, 1] - a[..., 1] * d1[:, None, 0]) / denom
        valid = (
            (np.abs(denom) > 1e-300)
            & (t > 0.0)
            & (t <= 1.0 + 1e-12)
            & (s >= -1e-9)
            & (s <= 1.0 + 1e-9)
        )
        t = np.where(valid, t, np.inf)
        e_hit = np.argmin(t, axis=1)
        t_hit = t[np.arange(len(p)), e_hit]
        return t_hit, e_hit


class NodalVelocity:
    """Barycentric P1 interpolator of nodal velocities plus analytic drift.

    Callable on raw points; ``at`` additionally accepts a cached location
    (triangle indices + barycentric coordinates) to skip point location.
    """

    def __init__(self, locator: TriangleLocator, nodal_x, nodal_y, drift=None):
        self.locator = locator
        self.nodal_x = np.asarray(nodal_x, dtype=float)
        self.nodal_y = np.asarray(nodal_y, dtype=float)
        self.drift = drift

    def at(self, points, tri=None, bary=None):
        if tri is None or bary is None:
            tri, bary = self.locator.locate(points)
        inside = tri >= 0
        vtx = self.locator.mesh.triangles[np.maximum(tri, 0)]
        vx = np.where(inside, (bary * self.nodal_x[vtx]).sum(axis=1), 0.0)
        vy = np.where(inside, (bary * self.nodal_y[vtx]).sum(axis=1), 0.0)
        if self.drift is not None:
            bx, by = self.drift(points[:, 0], points[:, 1])
            vx = vx + bx
            vy = vy + by
        out = np.stack([vx, vy], axis=1)
        if not np.isfinite(out).all():
            raise ValueError("velocity evaluation produced non-finite values")
        return out

    def __call__(self, points):
        return self.at(points)


def sample_initial(density, mesh: Mesh, n: int, seed: int) -> ParticleEnsemble:
    """Draw n positions from a nodal P1 density (rejection inside triangles).

    Triangles are chosen with probability proportional to their integrated
    density; within a triangle, uniform barycentric proposals are accepted
    against the linear density.  Fully reproducible for a fixed seed.
    """
    q = _vals(density)
    rng = np.random.default_rng(seed)
    tris = mesh.triangles
    corners = mesh.vertices[tris]
    areas = np.abs(
        0.5
        * (
            (corners[:, 1, 0] - corners[:, 0, 0]) * (corners[:, 2, 1] - corners[:, 0, 1])
            - (corners[:, 1, 1] - corners[:, 0, 1]) * (corners[:, 2, 0] - corners[:, 0, 0])
        )
    )
    nodal = np.clip(q[tris], 0.0, None)  # (nt, 3)
    tri_mass = areas * nodal.mean(axis=1)
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
    return ParticleEnsemble(positions=positions, rng_seed=int(seed), time=0.0)


def step_particles(
    ensemble: ParticleEnsemble,
    domain: MeshDomain,
    velocity,
    mu: float,
    dt: float,
    rng: np.random.Generator,
) -> ParticleEnsemble:
    """One Euler-Maruyama step with specular boundary reflection.

    ``velocity`` maps (n, 2) positions to (n, 2) velocities (or None for
    pure diffusion); ``rng`` is the caller-owned noise stream.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    X = ensemble.positions
    if velocity is None:
        vel = 0.0
    elif isinstance(velocity, NodalVelocity):
        tri0, bary0 = ensemble.tri, ensemble.bary
        if tri0 is None:
            tri0, bary0 = domain.locator.locate(X)
        vel = velocity.at(X, tri0, bary0)
    else:
        vel = velocity(X)
    noise = rng.standard_normal(X.shape) * np.sqrt(2.0 * mu * dt) if mu > 0 else 0.0
    proposal = X + vel * dt + noise
    if not np.isfinite(np.asarray(proposal)).all():
        raise ValueError("particle step produced non-finite positions")
    if mu <= 0 and velocity is None:
        return ParticleEnsemble(
            positions=X.copy(),
            rng_seed=ensemble.rng_seed,
            time=ensemble.time + dt,
            tri=ensemble.tri,
            bary=ensemble.bary,
        )

    tri, bary = domain.locator.locate(proposal)
    outside = tri < 0
    if outside.any():
        idx = np.flatnonzero(outside)
        fixed = domain.reflect(X[idx], proposal[idx], outside=np.ones(len(idx), bool))
        proposal[idx] = fixed
        tri[idx], bary[idx] = domain.locator.locate(fixed)
    return ParticleEnsemble(
        positions=proposal,
        rng_seed=ensemble.rng_seed,
        time=ensemble.time + dt,
        tri=tri,
        bary=bary,
    )


def empirical_density(
    ensemble: ParticleEnsemble, mesh: Mesh, locator: TriangleLocator | None = None
) -> DensityField:
    """Mass-lumped P1 deposition of the ensemble; has unit mass exactly.

    Each particle spreads weight 1/n to its triangle's vertices by
    barycentric coordinates; nodal sums are divided by the lumped-mass
    entries.  A particle outside the mesh is a fatal error (reflection is
    supposed to make that impossible).
    """
    if ensemble.n == 0:
        raise ValueError("empty ensemble")
    if ensemble.tri is not None:
        tri, bary = ensemble.tri, ensemble.bary
    else:
        locator = locator or TriangleLocator(mesh)
        tri, bary = locator.locate(ensemble.positions)
    if (tri < 0).any():
        raise ValueError(
            f"{int((tri < 0).sum())} particle(s) lie outside the mesh"
        )
    tris = mesh.triangles
    e2 = mesh.vertices[tris[:, 1]] - mesh.vertices[tris[:, 0]]
    e3 = mesh.vertices[tris[:, 2]] - mesh.vertices[tris[:, 0]]
    areas = 0.5 * np.abs(e2[:, 0] * e3[:, 1] - e2[:, 1] * e3[:, 0])
    lumped = np.zeros(mesh.n_vertices)
    np.add.at(lumped, tris.ravel(), np.repeat(areas / 3.0, 3))

    dep = np.zeros(mesh.n_vertices)
    np.add.at(dep, tris[tri].ravel(), (bary / ensemble.n).ravel())
    values = dep / lumped
    return DensityField(values=values, mass=float(lumped @ values))
