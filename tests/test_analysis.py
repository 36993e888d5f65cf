import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import densctl as dc
from densctl import cli, presets
from densctl.analysis import (
    certify_kernel,
    certify_spectral_positivity,
    convergence_report,
    l2_distance,
)
from densctl.fem import sq_norms, state_matrix
from densctl.mesh import boundary_edge_normals

from conftest import _delaunay_meshes, random_control
from test_sweep import _meshes


def zero_mean_basis(F: np.ndarray) -> np.ndarray:
    """Orthonormal basis of {w : F.w = 0} from the spanning set e_1 - (F_1/F_k) e_k."""
    n = F.size
    raw = np.zeros((n, n - 1))
    raw[0, :] = 1.0
    for k in range(1, n):
        raw[k, k - 1] = -F[0] / F[k]
    Q, _ = np.linalg.qr(raw)
    return Q


def dense_certificates(ops, u):
    """The dense oracle: (dim, sigma_{n-2}, kernel_min_entry, lambda_min) from
    the full SVD of L(u) and eigvalsh of its symmetric part on F^perp."""
    L = state_matrix(ops, u).toarray()
    _, svals, vt = np.linalg.svd(L)
    gap = svals[-2] / max(svals[-1], np.finfo(float).tiny)
    v = vt[-1] * np.sign(vt[-1][np.argmax(np.abs(vt[-1]))])
    B = zero_mean_basis(ops.F)
    reduced = B.T @ L @ B
    lam = np.linalg.eigvalsh(0.5 * (reduced + reduced.T))[0]
    return (1 if gap > 1e3 else None), svals[-2], v.min(), lam


def assert_matches_dense_oracle(ops, u):
    cert = certify_kernel(ops, dc.solve_equilibrium(ops, u))
    lam = certify_spectral_positivity(ops, u)
    dim, sigma, min_entry, dense_lam = dense_certificates(ops, u)
    # gap_ratio = sigma_{n-2} / ||L v||, so sigma_{n-2} is recovered exactly
    residual = np.linalg.norm(state_matrix(ops, u) @ cert.kernel_vector)
    assert cert.dim == dim
    assert abs(cert.gap_ratio * residual - sigma) <= 1e-10 * sigma
    assert abs(cert.kernel_min_entry - min_entry) <= 1e-10 * abs(min_entry)
    assert abs(lam - dense_lam) <= 1e-10 * abs(dense_lam)


def test_kernel_zero_control(small_ops):
    u = dc.ControlField.zeros(small_ops.n)
    cert = certify_kernel(small_ops, dc.solve_equilibrium(small_ops, u))
    assert cert.dim == 1
    assert cert.gap_ratio > 1e6
    assert cert.left_kernel_residual < 1e-12
    # kernel of the unadvected operator is the constant vector
    v = cert.kernel_vector
    assert np.abs(v - v.mean()).max() < 1e-10 * np.abs(v).max()


def test_kernel_random_controls(small_ops, rng):
    for _ in range(5):
        u = random_control(small_ops, rng)
        cert = certify_kernel(small_ops, dc.solve_equilibrium(small_ops, u))
        assert cert.dim == 1
        assert cert.gap_ratio > 1e6
        assert cert.left_kernel_residual < 1e-12
        assert cert.kernel_min_entry > 0  # equilibrium is one-signed


def test_zero_mean_basis(small_ops):
    B = zero_mean_basis(small_ops.F)
    n = small_ops.n
    assert B.shape == (n, n - 1)
    assert_allclose(B.T @ B, np.eye(n - 1), atol=1e-12)
    assert np.abs(small_ops.F @ B).max() < 1e-12


def test_spectral_positivity_zero_control(small_ops):
    lam = certify_spectral_positivity(small_ops, dc.ControlField.zeros(small_ops.n))
    assert lam > 0  # reduced Neumann stiffness is PD on the zero-mean subspace


def test_spectral_positivity_reported_for_random_control(small_ops, rng):
    val = certify_spectral_positivity(small_ops, random_control(small_ops, rng, 0.3))
    assert np.isfinite(val)


def test_l2_distance_properties(small_ops, rng):
    a = rng.random(small_ops.n)
    b = rng.random(small_ops.n)
    c = rng.random(small_ops.n)
    M = small_ops.M
    assert l2_distance(a, a, M) == 0.0
    assert l2_distance(a, b, M) == pytest.approx(l2_distance(b, a, M), rel=1e-14)
    assert l2_distance(a, c, M) <= l2_distance(a, b, M) + l2_distance(b, c, M) + 1e-14
    # matches dense quadrature of the squared P1 difference
    d = a - b
    dense = np.sqrt(d @ (M.toarray() @ d))
    assert l2_distance(a, b, M) == pytest.approx(dense, rel=1e-13)


def test_convergence_report(small_ops, rng):
    u = random_control(small_ops, rng, 0.3)
    qeq, _ = dc.solve_equilibrium(small_ops, u)
    q0 = dc.gaussian_density(small_ops, (0.3, 0.3), 0.2)
    traj = dc.simulate(small_ops, q0, u, T=1.0, dt=0.05, theta=1.0, lumped=True)
    rows, monotone, final = convergence_report(traj, qeq, small_ops)
    assert len(rows) == 21
    assert monotone
    assert final < rows[0][2]
    lyap = 0.5 * sq_norms(small_ops.M, traj.states, qeq.values)
    assert rows[5][3] == pytest.approx(lyap[5], rel=1e-12)


def test_certificates_of_one_control(small_ops, rng):
    # the three functions behind the rows of `densctl certify`
    u = random_control(small_ops, rng, 0.3)
    equilibrium = dc.solve_equilibrium(small_ops, u)
    qeq = equilibrium[0]
    q0 = dc.uniform_density(small_ops)
    traj = dc.simulate(small_ops, q0, u, T=0.5, dt=0.05, theta=1.0, lumped=True)
    kc = certify_kernel(small_ops, equilibrium)
    assert kc.dim == 1
    assert kc.left_kernel_residual < 1e-12
    assert np.isfinite(certify_spectral_positivity(small_ops, u))
    rows, monotone, final = convergence_report(traj, qeq, small_ops)
    assert monotone
    assert final == rows[-1][2] and np.isfinite(final)


def test_boundary_normals_outward(small_mesh):
    normals = boundary_edge_normals(small_mesh)
    ends = small_mesh.vertices[small_mesh.boundary_edges]
    lengths = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1)
    assert_allclose(np.linalg.norm(normals, axis=1), lengths, rtol=1e-12)
    # on the unit square, outward normals point away from the centroid
    center = np.array([0.5, 0.5])
    outward = ((ends.mean(axis=1) - center) * normals).sum(axis=1)
    assert (outward > 0).all()


def test_kernel_residual_scale_independent(small_mesh, rng):
    # residuals are algebraic identities: they stay at round-off level for
    # both mu = 1 and mu = 100
    for mu in (1.0, 100.0):
        ops = dc.assemble_operators(small_mesh, mu=mu)
        cert = certify_kernel(ops, dc.solve_equilibrium(ops, random_control(ops, rng)))
        assert cert.left_kernel_residual < 1e-12


@pytest.mark.parametrize("number", [1, 2, 3])
def test_certificates_match_dense_oracle_on_presets(number, rng):
    _, ops, _, _ = cli.build_problem(presets.testcase_config(number))
    assert_matches_dense_oracle(ops, random_control(ops, rng))


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    mesh=st.one_of(_meshes(), _delaunay_meshes()),
    drift=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.0, 10.0),
)
def test_certificates_match_dense_oracle_on_random_meshes(mesh, drift, seed, scale):
    field = dc.DRIFT_PRESETS["swirl"] if drift else None
    ops = dc.assemble_operators(mesh, mu=1.0, drift=field)
    assert_matches_dense_oracle(ops, random_control(ops, np.random.default_rng(seed), scale))

