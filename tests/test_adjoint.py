import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import densctl as dc
from densctl.adjoint import solve_adjoint_dynamic, solve_adjoint_static, trapezoid_weights
from densctl.linalg import SolverError
from densctl.state import theta_sweep

from conftest import _delaunay_meshes, random_control
from test_sweep import _meshes


def test_lambda_m_zero_cases(small_ops, rng):
    z = dc.gaussian_density(small_ops, (0.5, 0.5), 0.2)
    u = random_control(small_ops, rng, scale=0.3)
    equilibrium = dc.solve_equilibrium(small_ops, u)
    for target, alpha in ((equilibrium[0], 1.0), (z, 0.0)):
        adj = solve_adjoint_static(small_ops, equilibrium, target, alpha)
        assert adj.lambda_m == 0.0
        assert np.abs(adj.values).max() == 0.0


def test_lambda_m_orthogonality(tiny_ops, rng):
    # lambda_m makes the adjoint's right-hand side orthogonal to the kernel
    for _ in range(5):
        u = random_control(tiny_ops, rng, scale=0.5)
        equilibrium = dc.solve_equilibrium(tiny_ops, u)
        q = v = equilibrium[0].values  # the kernel vector
        z = dc.normalized_density(tiny_ops, rng.random(tiny_ops.n) + 0.1)
        lam_m = solve_adjoint_static(tiny_ops, equilibrium, z, alpha=1.3).lambda_m
        rhs = 1.3 * (tiny_ops.M @ (q - z.values)) + lam_m * tiny_ops.F
        assert abs(v @ rhs) < 1e-12 * max(np.abs(rhs).max(), 1e-30) * np.abs(v).max() * len(v)


def test_lambda_m_rejects_bad_kernel(small_ops, rng):
    # a zero state passes |L q| <= 1e-10 |L| |q| but is no kernel vector
    u = random_control(small_ops, rng, scale=0.3)
    q = dc.uniform_density(small_ops)
    _, factor = dc.solve_equilibrium(small_ops, u)
    with pytest.raises(SolverError):
        solve_adjoint_static(small_ops, (np.zeros(small_ops.n), factor), q, alpha=1.0)


def test_adjoint_static_rejects_a_stale_state(small_ops, rng):
    # the equilibrium of another control is not a kernel vector of L(u):
    # a q paired with another control's factor, either way round
    u, other = (random_control(small_ops, rng, scale=0.5) for _ in range(2))
    z = dc.gaussian_density(small_ops, (0.4, 0.6), 0.2)
    q, factor = dc.solve_equilibrium(small_ops, u)
    stale, stale_factor = dc.solve_equilibrium(small_ops, other)
    with pytest.raises(SolverError):
        solve_adjoint_static(small_ops, (q, stale_factor), z, alpha=1.0)
    with pytest.raises(SolverError):
        solve_adjoint_static(small_ops, (stale, factor), z, alpha=1.0)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    mesh=st.one_of(_meshes(), _delaunay_meshes()),
    drift=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.0, 3.0),
    alpha=st.floats(0.1, 10.0),
)
def test_static_adjoint_and_mass_multiplier_on_random_meshes(mesh, drift, seed, scale, alpha):
    ops = dc.assemble_operators(mesh, mu=1.0, drift=dc.DRIFT_PRESETS["swirl"] if drift else None)
    rng = np.random.default_rng(seed)
    u = random_control(ops, rng, scale)
    z = dc.normalized_density(ops, rng.random(ops.n) + 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", dc.state.NegativeDensityWarning)
        equilibrium = dc.solve_equilibrium(ops, u)
    q, v = equilibrium[0], equilibrium[0].values  # q spans the kernel of L
    adj = solve_adjoint_static(ops, equilibrium, z, alpha)
    lam, source = adj.values, alpha * (ops.M @ (q.values - z.values))

    # lambda_m = -alpha v.M(q - z) / v.F, the solvability condition of L^T
    expected = -(v @ source) / (v @ ops.F)
    bound = np.abs(v) @ np.abs(source) / abs(v @ ops.F)
    assert abs(adj.lambda_m - expected) <= 1e-10 * bound
    assert abs(ops.F @ lam) <= 1e-10 * (ops.F @ np.abs(lam))
    L = dc.state_matrix(ops, u)
    rhs = source + adj.lambda_m * ops.F
    bound = (abs(L).T @ np.abs(lam) + np.abs(source) + np.abs(adj.lambda_m * ops.F)).max()
    assert np.abs(L.T @ lam - rhs).max() <= 1e-10 * bound


def test_adjoint_static_zero_for_matched_target(small_ops, rng):
    u = random_control(small_ops, rng, scale=0.3)
    equilibrium = dc.solve_equilibrium(small_ops, u)
    adj = solve_adjoint_static(small_ops, equilibrium, equilibrium[0], alpha=1.0)
    assert np.abs(adj.values).max() < 1e-12
    assert adj.lambda_m == 0.0


def test_adjoint_static_zero_mean_and_linearity(small_ops, rng):
    u = random_control(small_ops, rng, scale=0.4)
    equilibrium = dc.solve_equilibrium(small_ops, u)
    z = dc.gaussian_density(small_ops, (0.6, 0.4), 0.2)
    a1 = solve_adjoint_static(small_ops, equilibrium, z, alpha=1.0)
    a2 = solve_adjoint_static(small_ops, equilibrium, z, alpha=2.0)
    assert abs(small_ops.F @ a1.values) < 1e-10
    assert_allclose(a2.values, 2.0 * a1.values, rtol=1e-9, atol=1e-13)
    assert a2.lambda_m == pytest.approx(2.0 * a1.lambda_m, rel=1e-12)


def test_adjoint_static_symmetric_case_pinv_oracle(tiny_ops, rng):
    # u = 0, no drift: L = A is symmetric; compare to the Moore-Penrose
    # solution shifted to the zero-mean gauge
    u = dc.ControlField.zeros(tiny_ops.n)
    equilibrium = dc.solve_equilibrium(tiny_ops, u)
    q = equilibrium[0]
    z = dc.normalized_density(tiny_ops, rng.random(tiny_ops.n) + 0.2)
    adj = solve_adjoint_static(tiny_ops, equilibrium, z, alpha=1.0)
    source = tiny_ops.M @ (q.values - z.values)
    rhs = source - (q.values @ source) / (q.values @ tiny_ops.F) * tiny_ops.F
    A = tiny_ops.tensor.csr(tiny_ops.L0_data)  # the stiffness matrix: no drift, mu = 1
    lam_pinv = np.linalg.pinv(A.toarray()) @ rhs
    lam_pinv -= (tiny_ops.F @ lam_pinv) / tiny_ops.F.sum()
    assert_allclose(adj.values, lam_pinv, rtol=0, atol=1e-10)


def test_adjoint_transpose_duality(small_ops, rng):
    u = random_control(small_ops, rng)
    L = dc.state_matrix(small_ops, u)
    lam = rng.standard_normal(small_ops.n)
    w = rng.standard_normal(small_ops.n)
    assert (L.T @ lam) @ w == pytest.approx(lam @ (L @ w), rel=1e-12)


def test_dynamic_adjoint_zero_cases(small_ops, rng):
    u = random_control(small_ops, rng, scale=0.3)
    qeq, _ = dc.solve_equilibrium(small_ops, u)
    traj = dc.simulate(small_ops, qeq, u, T=0.3, dt=0.1, theta=1.0, lumped=True)
    lams = solve_adjoint_dynamic(small_ops, traj, qeq, alpha=1.0)
    assert np.abs(lams.values).max() < 1e-10
    q0 = dc.gaussian_density(small_ops, (0.4, 0.6), 0.2)
    traj2 = dc.simulate(small_ops, q0, u, T=0.3, dt=0.1, theta=1.0, lumped=True)
    lams2 = solve_adjoint_dynamic(small_ops, traj2, qeq, alpha=0.0)
    assert np.abs(lams2.values).max() == 0.0


@pytest.mark.parametrize(
    "theta,lumped,krylov",
    [
        pytest.param(1.0, True, False, id="1.0-True"),
        pytest.param(0.5, False, False, id="0.5-False"),
        pytest.param(1.0, True, True, id="1.0-True-krylov"),
        pytest.param(0.5, False, True, id="0.5-False-krylov"),
    ],
)
def test_dynamic_adjoint_dense_spacetime_oracle(tiny_ops, rng, theta, lumped, krylov):
    # assemble the full discrete forward map densely, transpose it, and
    # compare the block solution (after the zero-mean gauge shift)
    n = tiny_ops.n
    n_steps = 3
    dt = 0.04
    U = 0.4 * rng.standard_normal((n_steps + 1, 2 * n))
    q0 = dc.normalized_density(tiny_ops, rng.random(n) + 0.3)
    qref = dc.normalized_density(tiny_ops, rng.random(n) + 0.3)
    # the Krylov sweeps are preconditioned by another control's step matrix,
    # so GMRES needs several iterations per step
    other = random_control(tiny_ops, rng, 0.4)
    pair = np.tile(other.stacked(), (2, 1))
    precond = theta_sweep(tiny_ops, q0, pair, dt, theta, lumped)[1] if krylov else None
    traj, _ = theta_sweep(tiny_ops, q0.values, U, dt, theta, lumped, precond)
    lams = solve_adjoint_dynamic(tiny_ops, traj, qref, alpha=1.7, precond=precond)
    assert traj.fallbacks == lams.fallbacks == 0

    Ms = tiny_ops.tensor.csr(tiny_ops.mass_data(lumped)).toarray()
    Ls = [dc.state_matrix(tiny_ops, dc.ControlField.from_stacked(r)).toarray() for r in U]
    A_big = np.zeros((n_steps * n, n_steps * n))
    for s in range(1, n_steps + 1):
        A_big[(s - 1) * n : s * n, (s - 1) * n : s * n] = Ms / dt + theta * Ls[s]
        if s >= 2:
            A_big[(s - 1) * n : s * n, (s - 2) * n : (s - 1) * n] = -(
                Ms / dt - (1 - theta) * Ls[s - 1]
            )
    w = trapezoid_weights(n_steps)
    src = np.concatenate(
        [
            w[s] * dt * 1.7 * (tiny_ops.M.toarray() @ (traj.states[s] - qref.values))
            for s in range(1, n_steps + 1)
        ]
    )
    lam_flat = np.linalg.solve(A_big.T, src)
    for s in range(1, n_steps + 1):
        expected = lam_flat[(s - 1) * n : s * n]
        expected = expected - (tiny_ops.F @ expected) / tiny_ops.F.sum()
        assert_allclose(lams.values[s - 1], expected, rtol=0, atol=1e-10)
    assert np.abs(lams.values[-1]).max() == 0.0  # terminal condition


def test_dynamic_adjoint_zero_mean_slices(small_ops, rng):
    u = random_control(small_ops, rng, scale=0.3)
    q0 = dc.gaussian_density(small_ops, (0.3, 0.7), 0.2)
    qref = dc.uniform_density(small_ops)
    traj = dc.simulate(small_ops, q0, u, T=0.5, dt=0.05, theta=0.5, lumped=False)
    lams = solve_adjoint_dynamic(small_ops, traj, qref, alpha=1.0)
    assert np.abs(lams.values @ small_ops.F).max() < 1e-10
