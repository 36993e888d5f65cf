import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import densctl as dc

from densctl.fem import sq_norms
from densctl.ocp_static import OcpConfig
from densctl.state import NegativeDensityWarning, _n_steps, step_theta, theta_sweep

from conftest import _delaunay_meshes, random_control, z_matrix
from test_sweep import _meshes


def test_equilibrium_zero_control_uniform(holed_ops):
    q, _ = dc.solve_equilibrium(holed_ops, dc.ControlField.zeros(holed_ops.n))
    expected = 1.0 / holed_ops.mesh.domain_area
    assert_allclose(q.values, expected, rtol=1e-10)
    assert holed_ops.F @ q.values == pytest.approx(1.0, abs=1e-12)
    assert (q.values > 0).all()


def test_equilibrium_matches_dense_svd(tiny_ops, rng):
    for _ in range(5):
        u = random_control(tiny_ops, rng, scale=0.7)
        q, _ = dc.solve_equilibrium(tiny_ops, u)
        L = dc.state_matrix(tiny_ops, u).toarray()
        _, _, vt = np.linalg.svd(L)
        null = vt[-1]
        null = null / (tiny_ops.F @ null)
        assert_allclose(q.values, null, rtol=0, atol=1e-10)


def test_equilibrium_unit_mass_and_residual(small_ops, rng):
    u = random_control(small_ops, rng)
    q, _ = dc.solve_equilibrium(small_ops, u)
    assert small_ops.F @ q.values == pytest.approx(1.0, abs=1e-13)
    L = dc.state_matrix(small_ops, u)
    rel = np.abs(L @ q.values).max() / (np.abs(L).max() * np.abs(q.values).max())
    assert rel < 1e-10


def test_step_theta_fixed_point(small_ops, rng):
    u = random_control(small_ops, rng, scale=0.5)
    q, _ = dc.solve_equilibrium(small_ops, u)
    for theta, lumped in ((1.0, True), (0.5, False), (0.0, False)):
        q1 = step_theta(small_ops, q, u, u, dt=0.01, theta=theta, lumped=lumped)
        assert_allclose(q1.values, q.values, rtol=0, atol=1e-10)


def test_step_theta_mass_conservation(small_ops, rng):
    q = dc.gaussian_density(small_ops, (0.4, 0.6), 0.2)
    for theta in (0.0, 0.5, 1.0):
        u0 = random_control(small_ops, rng)
        u1 = random_control(small_ops, rng)
        q1 = step_theta(small_ops, q, u0, u1, dt=0.02, theta=theta, lumped=theta == 1.0)
        assert abs(small_ops.F @ q1.values - 1.0) < 1e-12


def test_step_theta_matches_dense_implicit_euler(tiny_ops, rng):
    u = random_control(tiny_ops, rng)
    q0 = dc.uniform_density(tiny_ops).values + 0.01 * rng.standard_normal(tiny_ops.n)
    dt = 0.005
    L = dc.state_matrix(tiny_ops, u).toarray()
    M = tiny_ops.M.toarray()
    expected = np.linalg.solve(M + dt * L, M @ q0)
    got = step_theta(tiny_ops, q0, u, u, dt=dt, theta=1.0, lumped=False)
    assert_allclose(got.values, expected, rtol=0, atol=1e-12)


def test_step_theta_validates_inputs(small_ops):
    u = dc.ControlField.zeros(small_ops.n)
    q = dc.uniform_density(small_ops)
    with pytest.raises(ValueError):
        step_theta(small_ops, q, u, u, dt=-1.0)
    with pytest.raises(ValueError):
        step_theta(small_ops, q, u, u, dt=0.1, theta=1.5)


def test_simulate_stationary(small_ops, rng):
    u = random_control(small_ops, rng, scale=0.5)
    q, _ = dc.solve_equilibrium(small_ops, u)
    traj = dc.simulate(small_ops, q, u, T=0.5, dt=0.05, theta=1.0, lumped=True)
    assert traj.n_steps == 10
    assert np.abs(traj.states - q.values).max() < 1e-9


def test_simulate_grid_and_mass(small_ops, rng):
    q0 = dc.gaussian_density(small_ops, (0.3, 0.3), 0.15)
    u = random_control(small_ops, rng, scale=0.3)
    traj = dc.simulate(small_ops, q0, u, T=3.0, dt=0.03, theta=1.0, lumped=True)
    assert traj.n_steps == 100
    assert traj.mass_errors().max() < 1e-12
    assert len(traj.times) == 101
    assert traj.times[-1] == pytest.approx(3.0)


def test_simulate_time_varying_control(small_ops, rng):
    q0 = dc.uniform_density(small_ops)
    controls = np.stack([random_control(small_ops, rng, scale=0.2).stacked() for _ in range(11)])
    traj = dc.simulate(small_ops, q0, controls, T=1.0, dt=0.1, theta=0.5, lumped=False)
    assert traj.mass_errors().max() < 1e-12
    with pytest.raises(ValueError):
        dc.simulate(small_ops, q0, controls[:5], T=1.0, dt=0.1)


def test_simulate_bad_grid(small_ops):
    q0 = dc.uniform_density(small_ops)
    with pytest.raises(ValueError):
        dc.simulate(small_ops, q0, dc.ControlField.zeros(small_ops.n), T=1.0, dt=0.3)


# dt = 0, dt < 0, T = 0, and a T that is no multiple of dt
BAD_GRIDS = [(1.0, 0.0), (1.0, -0.1), (0.0, 0.1), (1.0, 0.3)]


@pytest.mark.parametrize("T, dt", BAD_GRIDS)
def test_every_time_grid_goes_through_one_check(small_ops, T, dt):
    u = dc.ControlField.zeros(small_ops.n)
    for make in (
        lambda: _n_steps(T, dt),
        lambda: dc.simulate(small_ops, dc.uniform_density(small_ops), u, T=T, dt=dt),
        lambda: OcpConfig(T=T, dt=dt),
    ):
        with pytest.raises(ValueError, match="dt"):
            make()


def test_time_grid_step_count():
    assert _n_steps(1.0, 0.1) == 10
    assert _n_steps(3.0, 0.03) == 100
    assert OcpConfig(T=0.25, dt=0.05).T == 0.25


def test_positivity_lumped_implicit_euler(small_mesh):
    # strict-Delaunay mesh + lumped implicit Euler keeps densities nonnegative
    assert dc.check_mesh_quality(small_mesh).is_strict_delaunay
    ops = dc.assemble_operators(small_mesh, mu=1.0)
    verts = ops.mesh.vertices
    u = dc.ControlField(-(verts[:, 1] - 0.5), verts[:, 0] - 0.5)
    q0 = dc.gaussian_density(ops, (0.25, 0.25), 0.1)
    assert q0.values.min() >= 0.0
    traj = dc.simulate(ops, q0, u, T=2.0, dt=0.05, theta=1.0, lumped=True)
    assert traj.min_values.min() >= -1e-12


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    mesh=st.one_of(_meshes(), _delaunay_meshes()),
    drift=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.0, 2.0),
    dt=st.floats(1e-3, 1.0),
)
def test_lumped_implicit_step_keeps_nonnegativity_where_it_is_an_m_matrix(
    mesh, drift, seed, scale, dt
):
    # A = M_l/dt + L(u) with no positive off-diagonal has column sums F/dt > 0:
    # a nonsingular M-matrix, so A^-1 >= 0 and A q1 = M_l q0 / dt keeps q0 >= 0
    ops = dc.assemble_operators(mesh, mu=1.0, drift=dc.DRIFT_PRESETS["swirl"] if drift else None)
    rng = np.random.default_rng(seed)
    u = random_control(ops, rng, scale).stacked()
    if z_matrix(ops, ops.mass_data(True) / dt + ops.state_data(u)):
        q0 = rng.random(ops.n) * (rng.random(ops.n) < 0.5)
        q1 = theta_sweep(ops, q0, np.stack([u, u]), dt, 1.0, True).states[1]
        assert q1.min() >= 0.0


def test_lyapunov_decay_under_constant_control(small_ops, rng):
    u = random_control(small_ops, rng, scale=0.4)
    qeq, _ = dc.solve_equilibrium(small_ops, u)
    q0 = dc.gaussian_density(small_ops, (0.7, 0.3), 0.15)
    traj = dc.simulate(small_ops, q0, u, T=1.0, dt=0.02, theta=1.0, lumped=True)
    lyap = 0.5 * sq_norms(small_ops.M, traj.states, qeq.values)
    assert np.all(np.diff(lyap) <= 1e-12 * max(1.0, lyap[0]))


def test_negative_density_warning(tiny_ops, rng):
    # strong advection on a very coarse mesh produces undershoots
    with pytest.warns(NegativeDensityWarning):
        for _ in range(20):
            u = random_control(tiny_ops, rng, scale=8.0)
            dc.solve_equilibrium(tiny_ops, u)


def test_normalized_density_rejects_zero(small_ops):
    with pytest.raises(ValueError):
        dc.normalized_density(small_ops, np.zeros(small_ops.n))


def test_trajectory_holds_its_scheme_and_swept_controls(small_ops, rng):
    q0 = dc.gaussian_density(small_ops, (0.4, 0.6), 0.2)
    U = np.stack([random_control(small_ops, rng, scale=0.3).stacked() for _ in range(4)])
    for theta, lumped in ((1.0, True), (0.5, False)):
        traj = theta_sweep(small_ops, q0, U, 0.1, theta, lumped)
        assert traj.controls is U
        assert (traj.dt, traj.theta, traj.lumped) == (0.1, theta, lumped)
        traj = dc.simulate(small_ops, q0, U, T=0.3, dt=0.1, theta=theta, lumped=lumped)
        assert traj.controls is U
        assert (traj.dt, traj.theta, traj.lumped) == (0.1, theta, lumped)
    # a constant control is swept as a read-only broadcast of its one row
    u = random_control(small_ops, rng, scale=0.3)
    traj = dc.simulate(small_ops, q0, u, T=0.3, dt=0.1, theta=0.5, lumped=False)
    assert traj.controls.shape == (4, 2 * small_ops.n)
    assert traj.controls.strides[0] == 0 and not traj.controls.flags.writeable
    assert np.array_equal(traj.controls, np.tile(u.stacked(), (4, 1)))
    assert (traj.dt, traj.theta, traj.lumped) == (0.1, 0.5, False)
