import numpy as np
import pytest
from numpy.testing import assert_allclose

import densctl as dc
from densctl import cli, ocp_static, presets
from densctl.adjoint import solve_adjoint_static
from densctl.ocp_static import (
    ArmijoParams,
    LineSearchError,
    NotDescentError,
    OcpConfig,
    armijo_backtracking,
    evaluate_cost,
    reduced_gradient,
    solve_static_ocp,
)

from conftest import random_control


def test_config_validation():
    with pytest.raises(ValueError):
        OcpConfig(alpha=0.0)
    with pytest.raises(ValueError):
        OcpConfig(beta=-1.0)
    with pytest.raises(ValueError):
        ArmijoParams(c1=1.5)
    with pytest.raises(ValueError):
        ArmijoParams(shrink=1.0)


def test_cost_zero_at_target(small_ops, base_config):
    z = dc.gaussian_density(small_ops, (0.5, 0.5), 0.2)
    u0 = dc.ControlField.zeros(small_ops.n)
    assert evaluate_cost(small_ops, z, z, u0, base_config) == 0.0


def test_cost_matches_dense_quadrature(holed_ops, base_config):
    # alpha-term against the dense M-weighted norm for uniform vs indicator
    z = dc.indicator_density(holed_ops, [dc.Rect(0.2, 0.2, 0.8, 0.8)])
    q = dc.uniform_density(holed_ops)
    u0 = dc.ControlField.zeros(holed_ops.n)
    J = evaluate_cost(holed_ops, q, z, u0, base_config)
    d = q.values - z.values
    expected = 0.5 * base_config.alpha * d @ (holed_ops.M.toarray() @ d)
    assert J == pytest.approx(expected, rel=1e-12)
    assert J > 0


def test_cost_quadratic_in_control(small_ops, base_config, rng):
    z = dc.uniform_density(small_ops)
    u = random_control(small_ops, rng)
    u2 = dc.ControlField(2 * u.ux, 2 * u.uy)
    j1 = evaluate_cost(small_ops, z, z, u, base_config)
    j2 = evaluate_cost(small_ops, z, z, u2, base_config)
    assert j2 == pytest.approx(4.0 * j1, rel=1e-12)


@pytest.mark.parametrize("with_drift", [False, True])
def test_gradient_matches_finite_differences(small_mesh, base_config, with_drift, rng):
    # the convention arbiter: reduced gradient vs central differences
    drift = dc.DRIFT_PRESETS["swirl"] if with_drift else None
    ops = dc.assemble_operators(small_mesh, mu=1.0, drift=drift)
    z = dc.gaussian_density(ops, (0.6, 0.6), 0.25)
    cfg = base_config
    u0 = 0.5 * rng.standard_normal(2 * ops.n)

    def j_of(vec):
        cf = dc.ControlField.from_stacked(vec)
        q, _ = dc.solve_equilibrium(ops, cf)
        return evaluate_cost(ops, q, z, cf, cfg)

    grad, J, _, _ = reduced_gradient(ops, dc.ControlField.from_stacked(u0), z, cfg)
    for _ in range(10):
        d = rng.standard_normal(2 * ops.n)
        d /= np.linalg.norm(d)
        slope = grad @ d
        best = np.inf
        for h in (1e-3, 1e-4, 1e-5, 1e-6):
            fd = (j_of(u0 + h * d) - j_of(u0 - h * d)) / (2 * h)
            best = min(best, abs(fd - slope) / max(abs(fd), 1e-300))
        assert best < 1e-5


def test_gradient_contraction_term_only(small_ops, rng):
    # beta_g = 0 and u = 0: gradient reduces to the adjoint-state contraction
    cfg = OcpConfig(alpha=1.0, beta=1e-3, beta_g=0.0)
    z = dc.gaussian_density(small_ops, (0.3, 0.7), 0.2)
    u = dc.ControlField.zeros(small_ops.n)
    grad, _, q, adj = reduced_gradient(small_ops, u, z, cfg)
    gx, gy = small_ops.tensor.gradient_contraction(adj.values, q.values)
    assert_allclose(grad, np.concatenate([gx, gy]), rtol=0, atol=1e-15)


def test_armijo_accepts_full_newton_step():
    H = np.diag([2.0, 0.5])
    u0 = np.array([3.0, -2.0])

    def j(u):
        return 0.5 * (u - 1.0) @ (H @ (u - 1.0))

    grad = H @ (u0 - 1.0)
    d = -np.linalg.solve(H, grad)
    tau, f = armijo_backtracking(j, u0, d, grad, ArmijoParams())
    assert tau == 1.0
    assert f == pytest.approx(0.0, abs=1e-14)


def test_armijo_backtracks_on_steep_function():
    def j(u):
        with np.errstate(over="ignore"):
            return float(np.cosh(4.0 * u[0]))

    u0 = np.array([1.0])
    grad = np.array([4.0 * np.sinh(4.0)])
    d = -100.0 * grad  # deliberately overlong direction
    params = ArmijoParams()
    tau, f = armijo_backtracking(j, u0, d, grad, params)
    assert tau < 1.0
    assert f <= j(u0) + params.c1 * tau * float(grad @ d)


def test_armijo_rejects_ascent():
    with pytest.raises(NotDescentError):
        armijo_backtracking(lambda u: float(u @ u), np.ones(2), np.ones(2), np.ones(2), ArmijoParams())


def test_armijo_exhaustion():
    params = ArmijoParams(max_backtracks=3)
    with pytest.raises(LineSearchError):
        # constant function can never satisfy strict decrease
        armijo_backtracking(
            lambda u: 1.0, np.zeros(1), np.array([-1.0]), np.array([1.0]), params
        )


def test_uniform_target_trivial_optimum(small_ops):
    z = dc.uniform_density(small_ops)
    cfg = OcpConfig(alpha=1.0, beta=1e-3, beta_g=1e-5, tol=1e-10, max_iter=5)
    sol = solve_static_ocp(small_ops, z, cfg)
    assert sol.converged
    assert len(sol.history) == 1
    assert np.abs(sol.u_star.stacked()).max() == 0.0
    assert sol.history[0].J == pytest.approx(0.0, abs=1e-20)


def test_static_ocp_improves_tracking(small_ops):
    z = dc.gaussian_density(small_ops, (0.7, 0.3), 0.15)
    cfg = OcpConfig(alpha=1.0, beta=1e-3, beta_g=1e-5, tol=1e-7, max_iter=150)
    sol = solve_static_ocp(small_ops, z, cfg)
    baseline, _ = dc.solve_equilibrium(small_ops, dc.ControlField.zeros(small_ops.n))
    d_opt = dc.l2_distance(sol.q_star, z, small_ops.M)
    d_base = dc.l2_distance(baseline, z, small_ops.M)
    assert d_opt < d_base
    costs = [h.J for h in sol.history]
    assert all(b <= a + 1e-15 for a, b in zip(costs, costs[1:]))
    grads = [h.grad_norm for h in sol.history]
    assert grads[-1] < grads[0]


def test_static_ocp_warm_start(small_ops):
    z = dc.gaussian_density(small_ops, (0.7, 0.3), 0.15)
    cfg = OcpConfig(alpha=1.0, beta=1e-3, beta_g=1e-5, tol=1e-5, max_iter=500)
    sol = solve_static_ocp(small_ops, z, cfg)
    assert sol.converged
    again = solve_static_ocp(small_ops, z, cfg, u0=sol.u_star)
    assert again.converged
    assert len(again.history) == 1


def test_boundary_tangency_diagnostic(small_ops):
    # with beta_g = 0 the optimal control is approximately tangent to the
    # boundary; reported as a diagnostic ratio relative to max |u|
    z = dc.gaussian_density(small_ops, (0.6, 0.6), 0.2)
    cfg = OcpConfig(alpha=1.0, beta=1e-3, beta_g=0.0, tol=1e-8, max_iter=200)
    sol = solve_static_ocp(small_ops, z, cfg)
    ratio, umax = dc.analysis.tangency_report(small_ops.mesh, sol.u_star)
    assert umax > 0
    assert np.isfinite(ratio)


def test_static_ocp_factorization_count(small_ops, monkeypatch, counts):
    # H once, the equilibrium at u0 once, then one bordered factorization per
    # Armijo trial; the accepted trial's factor serves the next gradient
    trials = []
    armijo = ocp_static.armijo_backtracking

    def counted_armijo(j_fun, *args, **kwargs):
        return armijo(lambda v: trials.append(1) or j_fun(v), *args, **kwargs)

    monkeypatch.setattr(ocp_static, "armijo_backtracking", counted_armijo)
    z = dc.gaussian_density(small_ops, (0.7, 0.3), 0.15)
    cfg = OcpConfig(alpha=1.0, beta=1e-3, beta_g=1e-5, tol=1e-5, max_iter=150)
    sol = solve_static_ocp(small_ops, z, cfg)
    assert sol.reason == "tol"
    assert (len(sol.history) - 1, len(trials)) == (28, 37)
    assert counts["lu_factor"] == 1 + 1 + len(trials) == 39

    q, _, factor = dc.solve_equilibrium(small_ops, sol.u_star, return_factor=True)
    before = counts["lu_factor"]
    reduced_gradient(small_ops, sol.u_star, z, cfg, equilibrium=(q, factor))
    assert counts["lu_factor"] == before


@pytest.mark.parametrize("with_drift", [False, True])
def test_adjoint_on_the_equilibrium_factor(small_mesh, with_drift, rng):
    drift = dc.DRIFT_PRESETS["swirl"] if with_drift else None
    ops = dc.assemble_operators(small_mesh, mu=1.0, drift=drift)
    u = random_control(ops, rng, scale=0.5)
    z = dc.gaussian_density(ops, (0.3, 0.6), 0.2)
    q, _, factor = dc.solve_equilibrium(ops, u, return_factor=True)
    shared = solve_adjoint_static(ops, u, q, z, 1.0, factor=factor)
    alone = solve_adjoint_static(ops, u, q, z, 1.0)
    # reference: factorize the bordered matrix of L^T itself
    rhs = ops.M @ (q.values - z.values) + alone.lambda_m * ops.F
    lam, nu, _ = dc.bordered_solve(dc.bordered_lu(dc.state_matrix(ops, u).T, ops.F), rhs, 0.0)
    scale = np.abs(lam).max()
    for adj in (shared, alone):
        assert np.abs(adj.values - lam).max() <= 1e-12 * scale
        assert abs(adj.lagrange_nu - nu) <= 1e-12 * scale
    assert shared.lambda_m == alone.lambda_m


# Factorizations and final J of the desk-scale static solves before L-BFGS,
# when every direction was -H^-1 grad.
SURROGATE_STEP = {1: (3262, 0.17727092868), 2: (6429, 0.32969851305), 3: (7104, 0.24847997050)}


@pytest.mark.parametrize("number", [1, 2, 3])
def test_preset_static_solve_budget(number, counts):
    cfg = presets.testcase_config(number)
    _, ops, z, _ = cli.build_problem(cfg)
    counts["lu_factor"] = 0
    sol = solve_static_ocp(ops, z, cli._ocp_config(cfg["ocp"]))
    factorizations, J = SURROGATE_STEP[number]
    assert sol.converged
    assert counts["lu_factor"] <= factorizations / 5
    assert sol.history[-1].J <= J * (1 + 1e-6)


def test_static_stop_reasons(small_ops):
    z = dc.gaussian_density(small_ops, (0.7, 0.3), 0.15)
    runs = {
        "tol": OcpConfig(tol=1e-5, max_iter=150),
        "max_iter": OcpConfig(tol=1e-12, max_iter=3),
        # the first direction is -H^-1 grad, far too long for a unit step
        "line_search": OcpConfig(tol=1e-12, armijo=ArmijoParams(max_backtracks=2)),
    }
    for reason, cfg in runs.items():
        sol = solve_static_ocp(small_ops, z, cfg)
        assert sol.reason == reason
        assert sol.converged == (reason == "tol")
    assert len(sol.history) == 1 and sol.history[0].step_size == 0.0
