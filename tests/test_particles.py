import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import densctl as dc
from densctl.mesh import Mesh, boundary_edge_normals
from densctl.particles import (
    MeshDomain,
    NodalVelocity,
    ParticleEnsemble,
    TriangleLocator,
    empirical_density,
    sample_initial,
    step_particles,
)

from conftest import _delaunay_meshes
from test_sweep import _meshes


@pytest.fixture(scope="module")
def domain(holed_mesh):
    return MeshDomain(holed_mesh)


@pytest.fixture(scope="module")
def still(domain, holed_mesh):
    """Zero control and no drift: particles only diffuse."""
    zero = np.zeros(holed_mesh.n_vertices)
    return NodalVelocity(domain.locator, zero, zero)


def _ensemble(locator, points):
    return ParticleEnsemble(points, *locator.locate(points))


def test_locator_roundtrip(holed_mesh, rng):
    loc = TriangleLocator(holed_mesh)
    tris = holed_mesh.triangles
    # random barycentric points inside random triangles must be found there
    t_idx = rng.integers(0, holed_mesh.n_triangles, size=500)
    lam = rng.dirichlet([1.0, 1.0, 1.0], size=500)
    pts = np.einsum("pk,pkd->pd", lam, holed_mesh.vertices[tris[t_idx]])
    found, bary = loc.locate(pts)
    assert (found >= 0).all()
    rebuilt = np.einsum("pk,pkd->pd", bary, holed_mesh.vertices[tris[found]])
    assert_allclose(rebuilt, pts, atol=1e-12)


def test_locator_rejects_outside(holed_mesh):
    loc = TriangleLocator(holed_mesh)
    tri, _ = loc.locate(np.array([[0.0, 0.0], [5.0, 5.0], [1.5, 0.0]]))
    assert (tri == -1).all()  # hole center and exterior points


def test_sampling_deterministic(holed_ops, domain):
    uni = dc.uniform_density(holed_ops)
    a = sample_initial(uni, domain.locator, 2000, seed=5)
    b = sample_initial(uni, domain.locator, 2000, seed=5)
    assert np.array_equal(a.positions, b.positions)
    c = sample_initial(uni, domain.locator, 2000, seed=6)
    assert not np.array_equal(a.positions, c.positions)


def test_sampling_single_triangle_support(holed_ops, holed_mesh):
    loc = TriangleLocator(holed_mesh)
    values = np.zeros(holed_ops.n)
    tri0 = holed_mesh.triangles[17]
    values[tri0] = 1.0
    # density supported on the patch around triangle 17; particles sampled
    # from the restriction to that triangle's span stay in the patch
    dens = dc.normalized_density(holed_ops, values)
    ens = sample_initial(dens, loc, 500, seed=0)
    found, _ = loc.locate(ens.positions)
    support_tris = {
        t
        for t in range(holed_mesh.n_triangles)
        if set(holed_mesh.triangles[t]) & set(tri0)
    }
    assert set(found.tolist()) <= support_tris


def test_sampling_chi2_uniform(holed_ops, holed_mesh):
    # triangle occupancy of a uniform sample vs exact areas (chi^2, 1% level)
    from scipy.stats import chi2

    uni = dc.uniform_density(holed_ops)
    n = 100_000
    loc = TriangleLocator(holed_mesh)
    ens = sample_initial(uni, loc, n, seed=11)
    found, _ = loc.locate(ens.positions)
    assert (found >= 0).all()
    counts = np.bincount(found, minlength=holed_mesh.n_triangles)
    areas = holed_mesh.triangle_areas()
    expected = n * areas / areas.sum()
    stat = ((counts - expected) ** 2 / expected).sum()
    dof = holed_mesh.n_triangles - 1
    assert stat < chi2.ppf(0.99, dof)


def test_sampling_rejects_zero_density(holed_ops, domain):
    with pytest.raises(ValueError):
        sample_initial(
            dc.DensityField(values=np.zeros(holed_ops.n)),
            domain.locator,
            10,
            seed=0,
        )


def test_sampling_carries_its_location(holed_ops, domain):
    # the ensemble is located once, by the locator it was sampled for
    q0 = dc.gaussian_density(holed_ops, (0.5, -0.5), 0.3)
    ens = sample_initial(q0, domain.locator, 5000, seed=4)
    tri, bary = domain.locator.locate(ens.positions)
    assert ens.tri.dtype == tri.dtype and np.array_equal(ens.tri, tri)
    assert ens.bary.dtype == bary.dtype and np.array_equal(ens.bary, bary)
    assert (ens.tri >= 0).all()


def test_step_no_motion(domain, still):
    ens = _ensemble(domain.locator, np.array([[0.5, 0.5], [-0.7, 0.6]]))
    rng = np.random.default_rng(0)
    out = step_particles(ens, domain, still, mu=0.0, dt=0.1, rng=rng)
    assert np.array_equal(out.positions, ens.positions)
    assert np.array_equal(out.tri, ens.tri) and np.array_equal(out.bary, ens.bary)


def test_step_pure_advection(domain, holed_mesh):
    ens = _ensemble(domain.locator, np.array([[0.5, 0.5]]))
    rng = np.random.default_rng(0)
    zero = np.zeros(holed_mesh.n_vertices)
    wind = NodalVelocity(
        domain.locator, zero, zero, drift=lambda x, y: (np.full_like(x, 0.25),) * 2
    )
    out = step_particles(ens, domain, wind, mu=0.0, dt=0.1, rng=rng)
    assert_allclose(out.positions, [[0.525, 0.525]], rtol=0, atol=1e-15)


def test_step_determinism(domain, still, holed_ops):
    q0 = dc.gaussian_density(holed_ops, (0.5, 0.5), 0.2)
    outs = []
    for _ in range(2):
        ens = sample_initial(q0, domain.locator, 3000, seed=9)
        rng = np.random.default_rng(99)
        for _ in range(5):
            ens = step_particles(ens, domain, still, mu=1.0, dt=0.03, rng=rng)
        outs.append(ens.positions)
    assert np.array_equal(outs[0], outs[1])


def test_containment_many_steps(domain, still, holed_ops):
    uni = dc.uniform_density(holed_ops)
    ens = sample_initial(uni, domain.locator, 5000, seed=1)
    rng = np.random.default_rng(2)
    for _ in range(30):
        ens = step_particles(ens, domain, still, mu=1.0, dt=0.03, rng=rng)
        assert (domain.locator.locate(ens.positions)[0] >= 0).all()


def test_pure_diffusion_preserves_uniform(domain, still, holed_ops, holed_mesh):
    # u = 0 long run: the empirical density stays uniform within the
    # sampling noise floor
    uni = dc.uniform_density(holed_ops)
    ens = sample_initial(uni, domain.locator, 50_000, seed=13)
    rng = np.random.default_rng(14)
    for _ in range(30):
        ens = step_particles(ens, domain, still, mu=1.0, dt=0.03, rng=rng)
    rho = empirical_density(ens, holed_mesh)
    floor = np.sqrt(np.clip(uni.values, 0.0, None).sum() / ens.n)
    assert dc.l2_distance(rho, uni, holed_ops.M) < 3.0 * floor


def test_reflection_simple_wall():
    # square without holes: one deterministic bounce off the right wall
    mesh = dc.generate_rect_mesh((0, 0, 1, 1), 0.25)
    dom = MeshDomain(mesh)
    start = np.array([[0.9, 0.5]])
    end = np.array([[1.06, 0.5]])
    out, tri, bary = dom.reflect(start, end, dom.locator.locate(end))
    assert_allclose(out, [[0.94, 0.5]], atol=1e-12)
    # the location comes with the folded point
    want_tri, want_bary = dom.locator.locate(out)
    assert tri.tolist() == want_tri.tolist() and (tri >= 0).all()
    assert_allclose(bary, want_bary, rtol=0, atol=0)


def test_reflection_gives_up_after_max_bounces(caplog):
    # the first segment crosses the unit square about 50 times, more than
    # _MAX_REFLECTIONS bounces: it returns to its start, logged once; the
    # second stays inside and is left as it is
    mesh = dc.generate_rect_mesh((0, 0, 1, 1), 0.25)
    dom = MeshDomain(mesh)
    start = np.array([[0.5, 0.5], [0.25, 0.3]])
    end = np.array([[50.3, 0.5], [0.3, 0.35]])
    located = dom.locator.locate(end)
    assert located[0][0] < 0 <= located[0][1]
    with caplog.at_level("WARNING", logger="densctl.particles"):
        out, tri, bary = dom.reflect(start, end, located)
    assert [r.getMessage() for r in caplog.records] == [
        "projected 1 particle(s) back to their last interior point"
    ]
    assert np.array_equal(out, [start[0], end[1]])
    start_tri, start_bary = dom.locator.locate(start[:1])
    assert tri[0] == start_tri[0] and np.array_equal(bary[0], start_bary[0])
    assert tri[1] == located[0][1] and np.array_equal(bary[1], located[1][1])


def test_empirical_density_unit_mass(domain, holed_ops, holed_mesh):
    q0 = dc.gaussian_density(holed_ops, (-0.5, 0.5), 0.2)
    ens = sample_initial(q0, domain.locator, 20000, seed=3)
    rho = empirical_density(ens, holed_mesh)
    tris, nv = holed_mesh.triangles, holed_mesh.n_vertices
    lumped = np.bincount(tris.ravel(), np.repeat(holed_mesh.triangle_areas() / 3.0, 3), minlength=nv)
    assert lumped @ rho.values == pytest.approx(1.0, abs=1e-12)
    assert holed_ops.F @ rho.values == pytest.approx(1.0, abs=1e-10)


def test_empirical_density_single_particle_at_vertex(domain, holed_mesh):
    v = 30
    ens = _ensemble(domain.locator, holed_mesh.vertices[[v]].copy())
    rho = empirical_density(ens, holed_mesh)
    areas = holed_mesh.triangle_areas()
    lumped_v = sum(
        areas[t] / 3.0
        for t in range(holed_mesh.n_triangles)
        if v in holed_mesh.triangles[t]
    )
    assert rho.values[v] == pytest.approx(1.0 / lumped_v, rel=1e-12)
    mask = np.ones(holed_mesh.n_vertices, bool)
    mask[holed_mesh.triangles[np.argmax(holed_mesh.triangles == v) // 3]] = False


def test_empirical_density_converges_with_n(holed_ops, holed_mesh, domain):
    q = dc.gaussian_density(holed_ops, (0.4, -0.4), 0.25)
    errs = []
    for n in (1000, 10000, 100000):
        ens = sample_initial(q, domain.locator, n, seed=21)
        rho = empirical_density(ens, holed_mesh)
        errs.append(dc.l2_distance(rho, q, holed_ops.M))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 0.35 * errs[0]


def test_empirical_density_rejects_outside(domain, holed_mesh):
    ens = _ensemble(domain.locator, np.array([[0.0, 0.0]]))  # hole center
    with pytest.raises(ValueError, match="outside"):
        empirical_density(ens, holed_mesh)


def test_velocity_interpolation(domain, holed_ops, holed_mesh):
    # interpolating a linear nodal field reproduces it exactly at P1 level
    verts = holed_mesh.vertices
    vel = NodalVelocity(domain.locator, 2.0 * verts[:, 0], -verts[:, 1])
    pts = np.array([[0.5, 0.5], [-0.3, 0.8], [0.7, -0.2]])
    out = vel.at(pts, *domain.locator.locate(pts))
    assert_allclose(out[:, 0], 2.0 * pts[:, 0], atol=1e-12)
    assert_allclose(out[:, 1], -pts[:, 1], atol=1e-12)


def test_velocity_is_bitwise_the_per_vertex_sum(domain, holed_mesh, rng):
    # the per-triangle table must add each point's three vertex terms in
    # vertex order, as a sum over the gathered nodal values does
    ux, uy = rng.standard_normal((2, holed_mesh.n_vertices))
    pts = rng.uniform(-1.1, 1.1, size=(5000, 2))  # some in the hole and outside
    tri, bary = domain.locator.locate(pts)
    vtx = holed_mesh.triangles[np.maximum(tri, 0)]
    for drift in (None, dc.DRIFT_PRESETS["swirl"]):
        want = np.stack([(bary * u[vtx]).sum(axis=1) for u in (ux, uy)], axis=1)
        want[tri < 0] = 0.0
        if drift is not None:
            want += np.stack(drift(pts[:, 0], pts[:, 1]), axis=1)
        got = NodalVelocity(domain.locator, ux, uy, drift).at(pts, tri, bary)
        assert np.array_equal(got, want)


def _locate_reference(mesh, points, tol=1e-12):
    """Every triangle in index order, with locate's formulas; the lowest-index
    hit wins."""
    tri = np.full(len(points), -1)
    bary = np.zeros((len(points), 3))
    for t, (i, j, k) in enumerate(mesh.triangles):
        p1 = mesh.vertices[i]
        e2 = mesh.vertices[j] - p1
        e3 = mesh.vertices[k] - p1
        det = e2[0] * e3[1] - e2[1] * e3[0]
        d = points - p1
        l2 = (d[:, 0] * e3[1] - d[:, 1] * e3[0]) / det
        l3 = (e2[0] * d[:, 1] - e2[1] * d[:, 0]) / det
        l1 = 1.0 - l2 - l3
        new = (tri < 0) & (l1 >= -tol) & (l2 >= -tol) & (l3 >= -tol)
        tri[new] = t
        bary[new] = np.stack([l1, l2, l3], axis=1)[new]
    found = tri >= 0
    lam = np.clip(bary[found], 0.0, None)
    bary[found] = lam / lam.sum(axis=1, keepdims=True)
    return tri, bary


def _velocity_reference(mesh, nodal, points, tri, bary, drift=None):
    """Per-vertex sums: for each velocity component, the nodal value at each
    vertex k = 0, 1, 2 of the point's triangle times its barycentric, added in
    that order; 0 outside the mesh, then the drift."""
    vtx = mesh.triangles[np.maximum(tri, 0)]
    out = np.zeros((len(tri), 2))
    for c, u in enumerate(nodal):
        for k in range(3):
            out[:, c] += u[vtx[:, k]] * bary[:, k]
    out[tri < 0] = 0.0
    if drift is not None:
        out += np.stack(drift(points[:, 0], points[:, 1]), axis=1)
    return out


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    mesh=st.one_of(_meshes(), _delaunay_meshes()),
    seed=st.integers(0, 2**32 - 1),
    drift=st.booleans(),
)
def test_velocity_matches_the_per_vertex_reference_on_random_meshes(mesh, seed, drift):
    rng = np.random.default_rng(seed)
    loc = TriangleLocator(mesh)
    nodal = rng.standard_normal((2, mesh.n_vertices))
    pts = rng.uniform(-1.3, 1.3, size=(500, 2))  # holes and beyond the mesh too
    tri, bary = loc.locate(pts)
    assert (tri < 0).any() and (tri >= 0).any()
    field = dc.DRIFT_PRESETS["swirl"] if drift else None
    got = NodalVelocity(loc, *nodal, field).at(pts, tri, bary)
    assert np.array_equal(got, _velocity_reference(mesh, nodal, pts, tri, bary, field))


def test_step_is_the_reference_step_bit_for_bit(domain, holed_mesh, holed_ops):
    # the reference velocity, the reference locate and the same noise draws;
    # proposals that leave the domain fold back through reflect
    nodal = 3.0 * np.random.default_rng(7).standard_normal((2, holed_mesh.n_vertices))
    drift = dc.DRIFT_PRESETS["swirl"]
    velocity = NodalVelocity(domain.locator, *nodal, drift)
    ens = sample_initial(dc.uniform_density(holed_ops), domain.locator, 2000, seed=3)
    mu, dt = 1.0, 0.02
    out = step_particles(ens, domain, velocity, mu, dt, np.random.default_rng(11))

    X = ens.positions
    tri0, bary0 = _locate_reference(holed_mesh, X)
    vel = _velocity_reference(holed_mesh, nodal, X, tri0, bary0, drift)
    noise = np.random.default_rng(11).standard_normal(X.shape) * np.sqrt(2.0 * mu * dt)
    want = X + vel * dt + noise
    tri, bary = _locate_reference(holed_mesh, want)
    out_of_domain = tri < 0
    assert out_of_domain.sum() >= 10
    want[out_of_domain] = domain.reflect(
        X[out_of_domain], want[out_of_domain], (tri[out_of_domain], bary[out_of_domain])
    )[0]
    want_tri, want_bary = _locate_reference(holed_mesh, want)
    assert np.array_equal(out.positions, want)
    assert np.array_equal(out.tri, want_tri) and np.array_equal(out.bary, want_bary)


def test_locate_misses_are_zero_and_quiet(holed_mesh):
    # empty fine cells test the NaN sentinel row; every miss is tri -1, bary 0
    loc = TriangleLocator(holed_mesh)
    empty = np.flatnonzero(np.diff(loc.ptr) == 0)
    assert len(empty) > 0
    nfx = loc.fine_shape[0]
    centers = np.stack([
        loc.xmin + (empty % nfx + 0.5) * loc.fine,
        loc.ymin + (empty // nfx + 0.5) * loc.fine,
    ], axis=1)
    pts = np.vstack([
        [[0.0, 0.0], [0.1, -0.05]],  # inside the hole
        centers,
        [[5.0, 5.0], [-1e6, 0.3], [0.2, 1e6], [1.5, -1.5]],  # beyond the grid
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tri, bary = loc.locate(pts)
    assert (tri == -1).all()
    assert np.array_equal(bary, np.zeros((len(pts), 3)))


def _first_crossing_reference(domain, p, q):
    """Every segment against every boundary edge, in (m, n_edges) arrays."""
    d1 = q - p
    a = domain._ea[None, :, :] - p[:, None, :]
    d2 = domain._ed[None, :, :]
    denom = d1[:, None, 0] * d2[..., 1] - d1[:, None, 1] * d2[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
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
    return t[np.arange(len(p)), e_hit], e_hit


def _grid_points(loc, rng, m):
    """Points the candidate lists must get right: corners and edges of the
    fine grid, lines of the coarse grid, points just off the bounding box and
    off the fine grid, and points just across the mesh boundary."""
    nx, ny = loc.fine_shape
    gx = loc.xmin + rng.integers(0, nx + 1, m) * loc.fine
    gy = loc.ymin + rng.integers(0, ny + 1, m) * loc.fine
    cx = loc.xmin + rng.integers(0, loc.nx + 1, m) * loc.cell
    cy = loc.ymin + rng.integers(0, loc.ny + 1, m) * loc.cell
    xmax, ymax = loc.xmin + nx * loc.fine, loc.ymin + ny * loc.fine
    ux, uy = rng.uniform(loc.xmin, xmax, m), rng.uniform(loc.ymin, ymax, m)
    vmax = loc.mesh.vertices.max(axis=0)
    off_x = [np.nextafter(loc.xmin, -np.inf), np.nextafter(vmax[0], np.inf), vmax[0], xmax]
    off_y = [np.nextafter(loc.ymin, -np.inf), np.nextafter(vmax[1], np.inf), vmax[1], ymax]
    # 1e-9 to 1e-3 of a fine cell out of the mesh, across a boundary edge
    edge = rng.integers(0, len(loc.mesh.boundary_edges), m)
    a, b = loc.mesh.vertices[loc.mesh.boundary_edges[edge]].transpose(1, 0, 2)
    normal = boundary_edge_normals(loc.mesh)[edge]
    step = 10.0 ** rng.uniform(-9, -3, m) * loc.fine / np.hypot(*normal.T)
    across = a + rng.uniform(size=(m, 1)) * (b - a) + step[:, None] * normal
    return np.vstack([
        np.stack([gx, gy], axis=1),
        np.stack([gx, uy], axis=1),
        np.stack([ux, gy], axis=1),
        np.stack([cx, uy], axis=1),
        np.stack([ux, cy], axis=1),
        np.stack([cx, cy], axis=1),
        np.stack([rng.choice(off_x, m), uy], axis=1),
        np.stack([ux, rng.choice(off_y, m)], axis=1),
        across,
    ])


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mesh=st.one_of(_meshes(), _delaunay_meshes()), seed=st.integers(0, 2**32 - 1))
def test_locate_matches_brute_force_on_random_meshes(mesh, seed):
    rng = np.random.default_rng(seed)
    verts, tris = mesh.vertices, mesh.triangles
    loc = TriangleLocator(mesh)
    lam = rng.dirichlet([1.0, 1.0, 1.0], size=300)
    inside = np.einsum("pk,pkd->pd", lam, verts[tris[rng.integers(0, len(tris), 300)]])
    points = np.vstack([
        inside,
        rng.uniform(-1.5, 1.5, size=(300, 2)),  # holes and beyond the bounding box
        _grid_points(loc, rng, 100),
        verts,
        0.5 * (verts[tris[:, 0]] + verts[tris[:, 1]]),
    ])
    tri, bary = loc.locate(points)
    ref_tri, ref_bary = _locate_reference(mesh, points)
    assert np.array_equal(tri, ref_tri)
    assert np.array_equal(bary, ref_bary)
    assert (tri[:300] >= 0).all() and (tri[-len(verts) - len(tris):] >= 0).all()
    assert (np.diff(loc.ptr) == 1).any()


def test_candidates_keep_both_triangles_where_they_overlap():
    # not a valid mesh: triangle 1 lies inside triangle 0, where the scan
    # answers 0, the lower index
    verts = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [0.5, 0.5], [2.0, 0.5], [0.5, 2.0]])
    mesh = Mesh(
        vertices=verts,
        triangles=np.array([[0, 1, 2], [3, 4, 5]]),
        boundary_edges=np.array([[0, 1], [1, 2], [2, 0]]),
        boundary_markers=np.ones(3, dtype=np.int64),
        domain_area=8.0,
    )
    loc = TriangleLocator(mesh)
    f = np.floor((verts[3:].mean(axis=0) - [loc.xmin, loc.ymin]) / loc.fine).astype(np.int64)
    cell = f[1] * loc.fine_shape[0] + f[0]
    assert list(loc.tris[loc.ptr[cell] : loc.ptr[cell + 1]]) == [0, 1]
    pts = np.random.default_rng(0).uniform(0.0, 4.0, size=(2000, 2))
    tri, bary = loc.locate(pts)
    ref_tri, ref_bary = _locate_reference(mesh, pts)
    assert np.array_equal(tri, ref_tri) and np.array_equal(bary, ref_bary)


def test_one_candidate_for_most_criterion_10_particles():
    # the initial ensemble of acceptance criterion 10
    mesh = dc.generate_rect_mesh((-1, -1, 1, 1), 0.1, holes=[dc.Circle(0, 0, 0.2)])
    q0 = dc.gaussian_density(dc.assemble_operators(mesh, mu=1.0), (-0.5, -0.5), 0.18)
    loc = TriangleLocator(mesh)
    pts = sample_initial(q0, loc, 100_000, seed=42).positions
    f = np.floor((pts - [loc.xmin, loc.ymin]) / loc.fine).astype(np.int64)
    cell = f[:, 1] * loc.fine_shape[0] + f[:, 0]
    single = loc.ptr[cell + 1] - loc.ptr[cell] == 1
    assert single.mean() >= 0.6
    assert np.array_equal(loc.tris[loc.ptr[cell[single]]], loc.locate(pts[single])[0])


def test_locate_empty_input(holed_mesh):
    tri, bary = TriangleLocator(holed_mesh).locate(np.empty((0, 2)))
    assert tri.shape == (0,) and bary.shape == (0, 3)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mesh=st.one_of(_meshes(), _delaunay_meshes()), seed=st.integers(0, 2**32 - 1))
def test_first_crossing_matches_all_edges_on_random_meshes(mesh, seed):
    rng = np.random.default_rng(seed)
    domain = MeshDomain(mesh)
    p = rng.uniform(-1.0, 1.0, size=(900, 2))
    corner = mesh.vertices[rng.choice(mesh.boundary_edges[:, 0], 300)]
    q = np.vstack([
        p[:300] + rng.normal(scale=0.1, size=(300, 2)),  # short, near one cell
        rng.uniform(-1.6, 1.6, size=(300, 2)),  # across many cells, some leave the box
        2.0 * corner - p[600:],  # through a boundary vertex: two edges can tie
    ])
    t_hit, e_hit = domain._first_crossing(p, q)
    ref_t, ref_e = _first_crossing_reference(domain, p, q)
    assert np.array_equal(t_hit, ref_t)
    assert np.array_equal(e_hit, ref_e)
    assert np.isfinite(t_hit[300:600]).sum() > 100  # the long segments do cross


def _square_ring():
    """The ring between the squares [0, 4]^2 and [1, 3]^2, in 8 triangles, on
    a 2 x 2 grid of side 2; its boundary edges are listed out of order."""
    verts = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0],
                      [1.0, 1.0], [3.0, 1.0], [3.0, 3.0], [1.0, 3.0]])
    tris = np.array([[0, 1, 5], [0, 5, 4], [1, 2, 6], [1, 6, 5],
                     [2, 3, 7], [2, 7, 6], [3, 0, 4], [3, 4, 7]])
    # 1: inner right, 3: inner top, 4: outer top, 5: inner left
    edges = np.array([[0, 1], [5, 6], [1, 2], [6, 7], [2, 3], [7, 4], [3, 0], [4, 5]])
    return Mesh(vertices=verts, triangles=tris, boundary_edges=edges,
                boundary_markers=np.ones(8, dtype=np.int64), domain_area=12.0)


def test_box_cells_come_grouped_by_box():
    # the segmented minimum of _first_crossing rests on this order
    loc = TriangleLocator(_square_ring())
    rng = np.random.default_rng(3)
    lo = rng.uniform(-1.0, 5.0, size=(500, 2))
    hi = lo + rng.uniform(0.0, 3.0, size=(500, 2))
    box, cell = loc.box_cells(lo, hi)
    assert (np.diff(box) >= 0).all()
    a = np.clip(np.floor(lo / loc.cell), 0, 1).astype(int)
    b = np.clip(np.floor(hi / loc.cell), 0, 1).astype(int)
    assert np.array_equal(np.bincount(box, minlength=500), np.prod(b - a + 1, axis=1))
    for i in range(500):
        cols, rows = np.meshgrid(np.arange(a[i, 0], b[i, 0] + 1), np.arange(a[i, 1], b[i, 1] + 1))
        assert sorted(cell[box == i]) == sorted((rows * loc.nx + cols).ravel())


def test_first_crossing_takes_the_earliest_hit_and_the_lowest_tied_edge():
    domain = MeshDomain(_square_ring())
    p = np.array([[1.0, 3.5], [0.5, 2.0], [3.5, 3.25], [2.0, 2.0]])
    q = np.array([[3.0, 4.5], [3.5, 2.0], [1.5, 2.25], [2.5, 2.5]])
    # 0: its box covers both upper cells, and both list the outer top edge 4;
    # 1: crosses edge 5 at t = 1/6, then edge 1 at t = 5/6;
    # 2: through the vertex (3, 3) at t = 1/4, where edges 3 (listed in the
    #    first cell of its box, and again in the second) and 1 (only in the
    #    second) tie;
    # 3: inside the hole, crosses nothing
    box, cell = domain.locator.box_cells(np.minimum(p, q), np.maximum(p, q))
    assert cell[box == 0].tolist() == [2, 3] and cell[box == 2].tolist() == [2, 3]
    for c in (2, 3):
        assert 4 in domain.edges[domain.edge_ptr[c] : domain.edge_ptr[c + 1]]
    assert 1 not in domain.edges[domain.edge_ptr[2] : domain.edge_ptr[3]]
    t_hit, e_hit = domain._first_crossing(p, q)
    assert t_hit.tolist() == [0.5, 1.0 / 6.0, 0.25, np.inf]
    assert e_hit.tolist() == [4, 5, 1, 0]
    ref_t, ref_e = _first_crossing_reference(domain, p, q)
    assert np.array_equal(t_hit, ref_t) and np.array_equal(e_hit, ref_e)


def test_first_crossing_memory_is_bounded():
    # the all-edges test would hold (m, n_edges) float arrays: m * ne * 8 bytes each
    mesh = dc.generate_rect_mesh((-1.0, -1.0, 1.0, 1.0), 0.02)
    domain = MeshDomain(mesh)
    ne = len(mesh.boundary_edges)
    assert ne >= 400
    rng = np.random.default_rng(0)
    m = 20_000
    p = rng.uniform(-1.0, 1.0, size=(m, 2))
    q = p + rng.normal(scale=0.02, size=(m, 2))
    tracemalloc.start()
    try:
        t_hit, _ = domain._first_crossing(p, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(t_hit).any()
    assert peak < m * ne * 8 / 5
