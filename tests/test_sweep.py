"""The theta-sweep kernel: exact factorization and contraction counts, and
property tests on generated meshes of the pattern-built operators, of the
whole-stack dynamic gradient and of the mesh file round trip."""

import os
import tempfile
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import densctl as dc
from densctl.adjoint import solve_adjoint_dynamic, trapezoid_weights
from densctl.fem import _Q7_POINTS, _Q7_WEIGHTS
from densctl.linalg import gmres_solve, lu_factor
from densctl.ocp_dynamic import _dynamic_gradient, evaluate_dynamic_cost, solve_dynamic_ocp
from densctl.ocp_static import OcpConfig, StaticSolution, solve_static_ocp
from densctl.state import theta_sweep

from conftest import random_control


def test_simulate_constant_control_factorizes_once(small_ops, rng, counts):
    u = random_control(small_ops, rng, scale=0.5)
    q0 = dc.gaussian_density(small_ops, (0.4, 0.6), 0.2)
    traj = dc.simulate(small_ops, q0, u, T=0.5, dt=0.05, theta=0.5, lumped=False)
    assert traj.n_steps == 10
    assert counts == {"lu_factor": 1, "contract": 1}


def test_simulate_time_varying_control_factorizes_every_step(small_ops, rng, counts):
    controls = np.stack([random_control(small_ops, rng, scale=0.5).stacked() for _ in range(11)])
    q0 = dc.gaussian_density(small_ops, (0.4, 0.6), 0.2)
    dc.simulate(small_ops, q0, controls, T=0.5, dt=0.05, theta=0.5, lumped=False)
    # one contraction per time node serves both steps that touch it
    assert counts == {"lu_factor": 10, "contract": 11}


def test_equal_rows_factorize_once(small_ops, rng, counts):
    # rows equal in value but each its own array, as a controls/ directory loads
    u = random_control(small_ops, rng, scale=0.5).stacked()
    U = np.stack([u.copy() for _ in range(11)])
    q0 = dc.gaussian_density(small_ops, (0.4, 0.6), 0.2)
    traj, lu = theta_sweep(small_ops, q0, U, 0.05, 0.5, False)
    assert lu is not None and traj.n_steps == 10
    assert counts == {"lu_factor": 1, "contract": 1}


def test_constant_control_is_not_copied_per_node(small_ops, rng):
    # a (n_t, 2n) copy of the control alone would be twice the states' size
    u = random_control(small_ops, rng, scale=0.5)
    q0 = dc.gaussian_density(small_ops, (0.4, 0.6), 0.2)
    tracemalloc.start()
    try:
        traj = dc.simulate(small_ops, q0, u, T=99.99, dt=0.03)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.n_steps == 3333
    assert peak < 2 * traj.states.nbytes


def test_dynamic_ocp_reuses_the_accepted_trial(small_ops, monkeypatch, counts):
    import densctl.ocp_dynamic as ocp_dynamic

    z = dc.gaussian_density(small_ops, (0.65, 0.6), 0.2)
    scfg = OcpConfig(alpha=1.0, beta=1e-3, beta_g=1e-5, tol=1e-6, max_iter=40)
    static = solve_static_ocp(small_ops, z, scfg)
    cfg = OcpConfig(
        alpha=1.0, beta=1e-3, beta_g=1e-5, tol=1e-12, max_iter=3,
        theta=0.5, lumped=False, dt=0.05, T=0.5,
    )
    q0 = dc.gaussian_density(small_ops, (0.3, 0.3), 0.2)
    evaluations = []
    evaluate = ocp_dynamic.evaluate_dynamic_cost
    monkeypatch.setattr(
        ocp_dynamic, "evaluate_dynamic_cost",
        lambda *a, **k: evaluations.append(1) or evaluate(*a, **k),
    )
    counts["lu_factor"] = 0
    dyn = solve_dynamic_ocp(small_ops, q0, static, cfg)
    trials = len(evaluations) - 1  # the first sweep is the warm start's
    # 3 line searches, none backtracking: the second and third directions
    # are projected L-BFGS ones
    assert len(dyn.history) == 4 and trials == 3 and dyn.restarts == 0
    # H once and the warm start's constant control once; every trial and
    # adjoint step is a GMRES solve preconditioned by the warm start's LU,
    # and no iteration sweeps its accepted trial again
    assert counts["lu_factor"] == 1 + 1 + dyn.fallbacks == 2


def _reference_operator(mesh, drift):
    """Stiffness (mu = 1) minus the drift's transport matrix, summed in scipy
    COO from P1 element entries computed here, not by the assembly."""
    p = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    opposite = np.roll(p, -2, axis=1) - np.roll(p, -1, axis=1)  # edge facing each corner
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    area = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    grad = np.stack([-opposite[..., 1], opposite[..., 0]], axis=2) / (2 * area)[:, None, None]
    entries = area[:, None, None] * np.einsum("tad,tbd->tab", grad, grad)
    if drift is not None:
        pts = np.einsum("qa,tad->tqd", _Q7_POINTS, p)
        b = np.stack(drift(pts[..., 0], pts[..., 1]), axis=2)  # (nt, 7, 2)
        flux = np.einsum("tqd,tad->tqa", b, grad)
        entries -= area[:, None, None] * np.einsum("q,tqa,qb->tab", _Q7_WEIGHTS, flux, _Q7_POINTS)
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    return sp.coo_matrix((entries.ravel(), (rows, cols)), shape=(mesh.n_vertices,) * 2).tocsr()


@st.composite
def _meshes(draw):
    h = draw(st.floats(0.15, 0.3))
    holes = []
    if draw(st.booleans()):
        x, y = draw(st.floats(-0.2, 0.2)), draw(st.floats(-0.2, 0.2))
        holes.append(dc.Circle(x, y, 1.5 * h + draw(st.floats(0.0, 0.05))))
    return dc.generate_rect_mesh((-1.0, -1.0, 1.0, 1.0), h, holes=holes)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    mesh=_meshes(),
    drift=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.0, 5.0),
    theta=st.sampled_from([0.0, 0.5, 1.0]),
    lumped=st.booleans(),
)
def test_pattern_operators_on_random_meshes(mesh, drift, seed, scale, theta, lumped):
    field = dc.DRIFT_PRESETS["swirl"] if drift else None
    ops = dc.assemble_operators(mesh, mu=1.0, drift=field)
    rng = np.random.default_rng(seed)
    u_old, u_new = (random_control(ops, rng, scale) for _ in range(2))
    tensor = ops.tensor

    data = ops.state_data(u_new)
    ref = _reference_operator(mesh, field) - tensor.csr(tensor.contract_data(u_new))
    size = np.abs(data).max()
    assert np.abs(tensor.csr(data) - ref).max() <= 1e-14 * size
    col_sums = np.bincount(tensor.pattern_cols, weights=data, minlength=ops.n)
    assert np.abs(col_sums).max() <= 1e-12 * size

    q0 = dc.normalized_density(ops, rng.random(ops.n) + 0.1)
    U = np.stack([u_old.stacked(), u_new.stacked()])
    traj, lu = theta_sweep(ops, q0, U, 0.01, theta, lumped)
    # only a constant control's LU is returned: rows equal in value (scale 0)
    assert (lu is None) == (not np.array_equal(U[0], U[1]))
    assert abs(ops.F @ traj.states[1] - 1.0) <= 1e-12


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    mesh=_meshes(),
    drift=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    theta=st.sampled_from([0.5, 1.0]),
    lumped=st.booleans(),
)
def test_dynamic_gradient_on_random_meshes(mesh, drift, seed, theta, lumped):
    ops = dc.assemble_operators(
        mesh, mu=1.0, drift=dc.DRIFT_PRESETS["swirl"] if drift else None
    )
    rng = np.random.default_rng(seed)
    n, n_steps = ops.n, 3
    cfg = OcpConfig(
        alpha=1.0, beta=1e-2, beta_g=1e-3, dt=0.05, T=0.15, theta=theta, lumped=lumped
    )
    # the gradient is exact for any reference pair, optimal or not
    static = StaticSolution(
        q_star=dc.normalized_density(ops, rng.random(n) + 0.1),
        u_star=random_control(ops, rng, 0.5),
        adjoint=None,
        history=[],
        reason="tol",
    )
    q0 = dc.normalized_density(ops, rng.random(n) + 0.1)
    U = 0.5 * rng.standard_normal((n_steps + 1, 2 * n))

    def cost(Um):
        traj, _ = theta_sweep(ops, q0, Um, cfg.dt, theta, lumped)
        return evaluate_dynamic_cost(ops, traj, static, cfg)

    traj, _ = theta_sweep(ops, q0, U, cfg.dt, theta, lumped)
    lams = solve_adjoint_dynamic(ops, traj, static.q_star, cfg.alpha)
    G = _dynamic_gradient(ops, traj, lams, static, cfg)
    D = rng.standard_normal(U.shape)
    D /= np.linalg.norm(D)
    slope = float((G * D).sum())
    err = min(
        abs((cost(U + h * D) - cost(U - h * D)) / (2 * h) - slope)
        for h in (1e-3, 1e-4, 1e-5)
    )
    assert err <= 1e-8 * np.linalg.norm(G)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    mesh=_meshes(),
    drift=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    theta=st.sampled_from([0.5, 1.0]),
    lumped=st.booleans(),
)
def test_krylov_sweeps_on_random_meshes(mesh, drift, seed, theta, lumped):
    ops = dc.assemble_operators(
        mesh, mu=1.0, drift=dc.DRIFT_PRESETS["swirl"] if drift else None
    )
    rng = np.random.default_rng(seed)
    n, n_steps = ops.n, 3
    cfg = OcpConfig(
        alpha=1.0, beta=1e-2, beta_g=1e-3, dt=0.05, T=0.15, theta=theta, lumped=lumped
    )
    static = StaticSolution(
        q_star=dc.normalized_density(ops, rng.random(n) + 0.1),
        u_star=random_control(ops, rng, 0.5),
        adjoint=None,
        history=[],
        reason="tol",
    )
    q0 = dc.normalized_density(ops, rng.random(n) + 0.1)
    U = 0.5 * rng.standard_normal((n_steps + 1, 2 * n))
    # preconditioned by the reference control's step LU, as in the OCP
    pair = np.tile(static.u_star.stacked(), (2, 1))
    precond = theta_sweep(ops, q0, pair, cfg.dt, theta, lumped)[1]

    def cost(Um):
        traj, _ = theta_sweep(ops, q0, Um, cfg.dt, theta, lumped)
        return evaluate_dynamic_cost(ops, traj, static, cfg)

    direct, _ = theta_sweep(ops, q0, U, cfg.dt, theta, lumped)
    traj, lu = theta_sweep(ops, q0, U, cfg.dt, theta, lumped, precond)
    assert lu is None and traj.fallbacks == 0
    assert np.abs(traj.states - direct.states).max() <= 1e-12 * np.abs(direct.states).max()
    lams = solve_adjoint_dynamic(ops, traj, static.q_star, cfg.alpha, precond=precond)
    assert lams.fallbacks == 0
    G = _dynamic_gradient(ops, traj, lams, static, cfg)
    D = rng.standard_normal(U.shape)
    D /= np.linalg.norm(D)
    slope = float((G * D).sum())
    err = min(
        abs((cost(U + h * D) - cost(U - h * D)) / (2 * h) - slope)
        for h in (1e-3, 1e-4, 1e-5)
    )
    assert err <= 1e-8 * np.linalg.norm(G)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    mesh=_meshes(),
    drift=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    theta=st.sampled_from([0.5, 1.0]),
    lumped=st.booleans(),
    krylov=st.booleans(),
)
def test_sweeps_match_fresh_step_matrices_bitwise(mesh, drift, seed, theta, lumped, krylov):
    """The sweeps overwrite step matrices built once per sweep; a loop that
    builds them afresh at every step gives the same bits."""
    ops = dc.assemble_operators(
        mesh, mu=1.0, drift=dc.DRIFT_PRESETS["swirl"] if drift else None
    )
    rng = np.random.default_rng(seed)
    n, n_steps, dt, alpha = ops.n, 3, 0.05, 1.0
    q0, qref = (dc.normalized_density(ops, rng.random(n) + 0.1).values for _ in range(2))
    U = 0.5 * rng.standard_normal((n_steps + 1, 2 * n))
    u_ref = random_control(ops, rng, 0.5)
    pair = np.tile(u_ref.stacked(), (2, 1))
    precond = theta_sweep(ops, q0, pair, dt, theta, lumped)[1] if krylov else None
    tensor, mass = ops.tensor, ops.mass_data(lumped) / dt
    L = [ops.state_data(u) for u in U]

    states = [q0]
    for i in range(n_steps):
        rhs = tensor.csr(mass - (1.0 - theta) * L[i]) @ states[i]
        A = tensor.csc(mass + theta * L[i + 1])
        if krylov:
            states.append(gmres_solve(A, rhs, precond, states[i])[0])
        else:
            lu = lu_factor(A)
            q = lu.solve(rhs)
            states.append(q + lu.solve(rhs - A @ q))
    traj, _ = theta_sweep(ops, q0, U, dt, theta, lumped, precond)
    assert _same_bits(traj.states, states)

    w, lams = trapezoid_weights(n_steps), [np.zeros(n)]
    for i in range(n_steps, 0, -1):
        source = w[i] * dt * alpha * (ops.M @ (traj.states[i] - qref))
        rhs = tensor.csr(mass - (1.0 - theta) * L[i]).T @ lams[-1] + source
        if krylov:
            A_T = tensor.csc(mass + theta * L[i]).T
            lam = gmres_solve(A_T, rhs, precond, lams[-1], trans="T")[0]
        else:
            lam = lu_factor(tensor.csr(mass + theta * L[i]).T).solve(rhs)
        lams.append(lam - float(ops.F @ lam) / float(ops.F.sum()))
    adj = solve_adjoint_dynamic(ops, traj, qref, alpha, precond=precond)
    assert _same_bits(adj.values, lams[::-1])
    assert traj.fallbacks == adj.fallbacks == 0


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mesh=_meshes(), drift=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_gradient_contraction_matches_transposed_products_bitwise(mesh, drift, seed):
    ops = dc.assemble_operators(
        mesh, mu=1.0, drift=dc.DRIFT_PRESETS["swirl"] if drift else None
    )
    tensor, rng = ops.tensor, np.random.default_rng(seed)
    lam, q = rng.standard_normal((2, ops.n))
    w = lam[tensor.pattern_rows] * q[tensor.pattern_cols]
    gx, gy = tensor.gradient_contraction(lam, q)
    assert _same_bits(gx, tensor.kx.T @ w) and _same_bits(gy, tensor.ky.T @ w)


def test_krylov_miss_falls_back_to_the_direct_step(holed_ops, rng):
    ops, n_steps, dt = holed_ops, 3, 0.05
    assert ops.n > 60  # more unknowns than one GMRES cycle has iterations
    U = 0.5 * rng.standard_normal((n_steps + 1, 2 * ops.n))
    q0 = dc.gaussian_density(ops, (-0.5, -0.5), 0.3)
    qref = dc.uniform_density(ops)
    # a random diagonal is no preconditioner: GMRES misses every step
    poor = lu_factor(sp.diags(rng.uniform(1e-3, 1e3, ops.n), format="csc"))
    direct, _ = theta_sweep(ops, q0, U, dt, 0.5, False)
    traj, _ = theta_sweep(ops, q0, U, dt, 0.5, False, precond=poor)
    assert traj.fallbacks == n_steps
    assert np.array_equal(traj.states, direct.states)
    ref = solve_adjoint_dynamic(ops, direct, qref, 1.0)
    lams = solve_adjoint_dynamic(ops, traj, qref, 1.0, precond=poor)
    assert lams.fallbacks == n_steps and ref.fallbacks == 0
    # the fallback refines its direct solve once; the reference does not
    assert np.abs(lams.values - ref.values).max() <= 1e-12 * np.abs(ref.values).max()


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mesh=_meshes())
def test_mesh_file_round_trip_on_random_meshes(mesh):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.txt"), os.path.join(tmp, "b.txt")
        dc.write_mesh(mesh, first)
        again = dc.load_mesh(first)
        dc.write_mesh(again, second)
        with open(first) as fa, open(second) as fb:
            assert fa.read() == fb.read()
    for name in ("vertices", "triangles", "boundary_edges", "boundary_markers"):
        assert np.array_equal(getattr(again, name), getattr(mesh, name)), name
    assert again.domain_area == mesh.domain_area
