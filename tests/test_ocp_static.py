import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import densctl as dc
from densctl import cli, ocp_static, presets
from densctl.adjoint import solve_adjoint_static
from densctl.ocp_dynamic import _lbfgs_direction, lbfgs_directions
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

from conftest import _delaunay_meshes, random_control
from test_sweep import _meshes


def test_config_validation():
    with pytest.raises(ValueError):
        OcpConfig(alpha=0.0)
    with pytest.raises(ValueError):
        OcpConfig(beta=-1.0)
    for theta in (-0.1, 1.5):
        with pytest.raises(ValueError, match="theta"):
            OcpConfig(theta=theta)
    with pytest.raises(ValueError):
        ArmijoParams(c1=1.5)
    with pytest.raises(ValueError):
        ArmijoParams(shrink=1.0)


@pytest.mark.parametrize("make, field", [
    (lambda: OcpConfig(max_iter=2.5), "max_iter"),
    (lambda: OcpConfig(max_iter=True), "max_iter"),
    (lambda: OcpConfig(lumped="no"), "lumped"),
    (lambda: OcpConfig(lumped=1), "lumped"),
    (lambda: OcpConfig(alpha=float("nan")), "alpha"),
    (lambda: OcpConfig(tol=float("inf")), "tol"),
    (lambda: OcpConfig(dt="0.03"), "dt"),
    (lambda: OcpConfig(T=None), "T"),
    (lambda: ArmijoParams(max_backtracks=-1), "max_backtracks"),
    (lambda: ArmijoParams(max_backtracks=1.5), "max_backtracks"),
    (lambda: ArmijoParams(max_backtracks=False), "max_backtracks"),
])
def test_config_types_are_checked_at_construction(make, field):
    with pytest.raises(ValueError, match=field):
        make()


def test_config_accepts_numpy_scalars_and_zero_backtracks():
    cfg = OcpConfig(max_iter=np.int64(5), alpha=np.float64(2.0), T=0.3, dt=np.float64(0.1))
    assert cfg.max_iter == 5 and cfg.alpha == 2.0
    assert ArmijoParams(max_backtracks=0).max_backtracks == 0


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

    cf0 = dc.ControlField.from_stacked(u0)
    grad, _ = reduced_gradient(ops, cf0, z, cfg, dc.solve_equilibrium(ops, cf0))
    for _ in range(10):
        d = rng.standard_normal(2 * ops.n)
        d /= np.linalg.norm(d)
        slope = grad @ d
        best = np.inf
        for h in (1e-3, 1e-4, 1e-5, 1e-6):
            fd = (j_of(u0 + h * d) - j_of(u0 - h * d)) / (2 * h)
            best = min(best, abs(fd - slope) / max(abs(fd), 1e-300))
        assert best < 1e-5


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    mesh=st.one_of(_meshes(), _delaunay_meshes()),
    drift=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.0, 3.0),
)
def test_hessian_product_matches_central_differences(mesh, drift, seed, scale):
    ops = dc.assemble_operators(mesh, mu=1.0, drift=dc.DRIFT_PRESETS["swirl"] if drift else None)
    rng = np.random.default_rng(seed)
    cfg = OcpConfig(alpha=1.0, beta=1e-3, beta_g=1e-5)
    z = dc.normalized_density(ops, rng.random(ops.n) + 0.1)
    u = random_control(ops, rng, scale).stacked()

    def gradient(vec):
        cf = dc.ControlField.from_stacked(vec)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", dc.state.NegativeDensityWarning)
            equilibrium = dc.solve_equilibrium(ops, cf)
        return reduced_gradient(ops, cf, z, cfg, equilibrium) + (equilibrium,)

    _, adj, equilibrium = gradient(u)
    v, w = rng.standard_normal((2, u.size))
    Hv = ocp_static.hessian_product(ops, cfg, equilibrium, adj, v)
    Hw = ocp_static.hessian_product(ops, cfg, equilibrium, adj, w)
    best = np.inf
    for eps in (1e-3, 1e-4, 1e-5):
        fd = (gradient(u + eps * v)[0] - gradient(u - eps * v)[0]) / (2 * eps)
        best = min(best, np.linalg.norm(fd - Hv) / np.linalg.norm(Hv))
    assert best < 1e-7
    # the reduced Hessian is symmetric: w.Hv = v.Hw up to the rounding of the products
    assert abs(w @ Hv - v @ Hw) <= 1e-12 * np.linalg.norm(w) * np.linalg.norm(Hv)


def test_hessian_product_reuses_the_equilibrium_factor(small_ops, base_config, rng, counts):
    u = random_control(small_ops, rng, scale=0.5)
    z = dc.gaussian_density(small_ops, (0.6, 0.4), 0.2)
    equilibrium = dc.solve_equilibrium(small_ops, u)
    _, adj = reduced_gradient(small_ops, u, z, base_config, equilibrium)
    before = dict(counts)
    ocp_static.hessian_product(
        small_ops, base_config, equilibrium, adj, rng.standard_normal(2 * small_ops.n)
    )
    assert counts["lu_factor"] == before["lu_factor"]
    assert counts["bordered_solve"] == before["bordered_solve"] + 2


def test_gradient_contraction_term_only(small_ops, rng):
    # beta_g = 0 and u = 0: gradient reduces to the adjoint-state contraction
    cfg = OcpConfig(alpha=1.0, beta=1e-3, beta_g=0.0)
    z = dc.gaussian_density(small_ops, (0.3, 0.7), 0.2)
    u = dc.ControlField.zeros(small_ops.n)
    equilibrium = dc.solve_equilibrium(small_ops, u)
    q = equilibrium[0]
    grad, adj = reduced_gradient(small_ops, u, z, cfg, equilibrium)
    g = small_ops.tensor.gradient_contraction(adj.values, q.values)
    assert_allclose(grad, g, rtol=0, atol=1e-15)


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


def test_static_ocp_factorization_count(small_ops, monkeypatch, counts):
    # H once, the equilibrium at u0 once, then one bordered factorization per
    # Armijo trial; the accepted trial's factor serves the next gradient and
    # every Hessian product at it
    trials, products = [], []
    armijo, hessian_product = ocp_static.armijo_backtracking, ocp_static.hessian_product

    def counted_armijo(j_fun, *args, **kwargs):
        return armijo(lambda v: trials.append(1) or j_fun(v), *args, **kwargs)

    def counted_product(*args):
        products.append(1)
        return hessian_product(*args)

    monkeypatch.setattr(ocp_static, "armijo_backtracking", counted_armijo)
    monkeypatch.setattr(ocp_static, "hessian_product", counted_product)
    z = dc.gaussian_density(small_ops, (0.7, 0.3), 0.15)
    cfg = OcpConfig(alpha=1.0, beta=1e-3, beta_g=1e-5, tol=1e-5, max_iter=150)
    sol = solve_static_ocp(small_ops, z, cfg)
    assert sol.reason == "tol"
    iterations = len(sol.history) - 1
    assert (iterations, len(trials), len(products)) == (8, 9, 25)
    assert counts["lu_factor"] == 1 + 1 + len(trials)
    # an equilibrium per trial and at u0, an adjoint per gradient, two per product
    assert counts["bordered_solve"] == len(trials) + 1 + iterations + 1 + 2 * len(products)
    # only equilibria build a state matrix: a gradient reads the factor's, and
    # a product contracts the tensor with its direction alone
    assert counts["contract"] == 1 + len(trials) + len(products)

    equilibrium = dc.solve_equilibrium(small_ops, sol.u_star)
    before = counts["lu_factor"]
    reduced_gradient(small_ops, sol.u_star, z, cfg, equilibrium)
    assert counts["lu_factor"] == before


@pytest.mark.parametrize("with_drift", [False, True])
def test_adjoint_on_the_equilibrium_factor(small_mesh, with_drift, rng):
    drift = dc.DRIFT_PRESETS["swirl"] if with_drift else None
    ops = dc.assemble_operators(small_mesh, mu=1.0, drift=drift)
    u = random_control(ops, rng, scale=0.5)
    z = dc.gaussian_density(ops, (0.3, 0.6), 0.2)
    q, factor = dc.solve_equilibrium(ops, u)
    shared = solve_adjoint_static(ops, (q, factor), z, 1.0)
    # the same q with a second factorization of the same bordered matrix
    alone = solve_adjoint_static(ops, (q, dc.solve_equilibrium(ops, u)[1]), z, 1.0)
    # reference: factorize the bordered matrix of L^T itself; with lambda_m
    # in the right-hand side, its border multiplier nu vanishes
    rhs = ops.M @ (q.values - z.values) + alone.lambda_m * ops.F
    lam, nu = dc.bordered_solve(dc.bordered_lu(dc.state_matrix(ops, u).T, ops.F), rhs, 0.0)
    scale = np.abs(lam).max()
    for adj in (shared, alone):
        assert np.abs(adj.values - lam).max() <= 1e-12 * scale
    assert abs(nu) <= 1e-12 * scale
    assert shared.lambda_m == alone.lambda_m


# Factorizations and final J of the desk-scale static solves when every
# direction is -H^-1 grad (L-BFGS memory 0), at the preset tol.
SURROGATE_STEP = {1: (2526, 0.17768249298), 2: (4460, 0.32969765298), 3: (5711, 0.24902614601)}


@pytest.mark.parametrize("number", [1, 2, 3])
def test_preset_static_solve_budget(number, counts):
    cfg = presets.testcase_config(number)
    _, ops, z, _ = cli.build_problem(cfg)
    counts["lu_factor"] = 0
    sol = solve_static_ocp(ops, z, cli.parse_config(cfg).ocp)
    factorizations, J = SURROGATE_STEP[number]
    assert sol.converged
    assert counts["lu_factor"] <= factorizations / 5
    assert sol.history[-1].J <= J * (1 + 1e-6)


def test_static_stop_reasons(small_ops):
    z = dc.gaussian_density(small_ops, (0.7, 0.3), 0.15)
    runs = {
        "tol": OcpConfig(tol=1e-5, max_iter=150),
        "max_iter": OcpConfig(tol=1e-12, max_iter=3),
        # a Newton step decreases a quadratic by half its slope, so a
        # sufficient decrease of 0.9 of the slope needs a step below 0.2
        "line_search": OcpConfig(tol=1e-12, armijo=ArmijoParams(c1=0.9, max_backtracks=2)),
    }
    for reason, cfg in runs.items():
        sol = solve_static_ocp(small_ops, z, cfg)
        assert sol.reason == reason
        assert sol.converged == (reason == "tol")
    assert len(sol.history) == 1 and sol.history[0].step_size == 0.0


def test_rejected_negative_trials_do_not_warn(small_ops, monkeypatch):
    # unit Newton steps overshoot to controls whose equilibria dip below
    # zero; the line search rejects them and q* is positive
    minima = []

    def spy(ops, u):
        equilibrium = dc.solve_equilibrium(ops, u)
        minima.append(equilibrium[0].values.min())
        return equilibrium

    monkeypatch.setattr(ocp_static, "solve_equilibrium", spy)
    z = dc.gaussian_density(small_ops, (0.7, 0.3), 0.15)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = solve_static_ocp(small_ops, z, OcpConfig(tol=1e-6, max_iter=100))
    assert sol.converged and sol.q_star.values.min() > 0
    assert min(minima) < 0
    assert [w.category for w in caught] == []


def test_negative_returned_density_warns_once(tiny_ops, rng):
    # start at a control whose equilibrium is negative and fail every search
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", dc.state.NegativeDensityWarning)
        u0 = next(
            u for u in (random_control(tiny_ops, rng, scale=8.0) for _ in range(20))
            if dc.solve_equilibrium(tiny_ops, u)[0].values.min() < 0
        )
    cfg = OcpConfig(tol=1e-12, armijo=ArmijoParams(c1=0.9, max_backtracks=2))
    z = dc.uniform_density(tiny_ops)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = solve_static_ocp(tiny_ops, z, cfg, u0=u0)
    assert sol.reason == "line_search" and sol.q_star.values.min() < 0
    assert [w.category for w in caught] == [dc.state.NegativeDensityWarning]


def test_unsolvable_trial_is_rejected(small_ops, monkeypatch):
    # the first trial's equilibrium cannot be solved: the trial costs inf,
    # the line search shrinks the step, and the solve goes on
    z = dc.gaussian_density(small_ops, (0.5, 0.5), 0.3)
    cfg = OcpConfig(alpha=1.0, beta=1e-3, beta_g=1e-5, tol=1e-7, max_iter=150)
    assert solve_static_ocp(small_ops, z, cfg).history[0].step_size == 1.0  # unspied
    calls = []

    def spy(ops, u):
        calls.append(u)
        if len(calls) == 2:  # the first call is the start, the second the first trial
            raise dc.SolverError("injected")
        return dc.solve_equilibrium(ops, u)

    monkeypatch.setattr(ocp_static, "solve_equilibrium", spy)
    sol = solve_static_ocp(small_ops, z, cfg)
    assert sol.history[0].step_size < 1.0
    J = np.array([r.J for r in sol.history])
    assert np.isfinite(J).all() and (np.diff(J) <= 0).all()
    assert sol.converged


def test_inaccurate_equilibrium_solve_raises(small_ops, monkeypatch):
    bordered_solve = dc.state.bordered_solve
    monkeypatch.setattr(
        dc.state, "bordered_solve", lambda *args: (bordered_solve(*args)[0], 1e-6)
    )
    with pytest.raises(dc.SolverError, match="lost accuracy"):
        dc.solve_equilibrium(small_ops, dc.ControlField.zeros(small_ops.n))


def test_unsolvable_start_raises(small_ops, monkeypatch):
    def fail(ops, u):
        raise dc.SolverError("no equilibrium")

    monkeypatch.setattr(ocp_static, "solve_equilibrium", fail)
    with pytest.raises(dc.SolverError, match="no equilibrium"):
        solve_static_ocp(small_ops, dc.uniform_density(small_ops), OcpConfig())


# A convex quadratic J(u) = 1/2 u^T A u - b^T u with a Jacobi h_inv, for descend
# with the dynamic OCP's L-BFGS directions.
QUAD_A = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, -0.8], [0.5, -0.8, 2.0]])
QUAD_B = np.array([1.0, -2.0, 3.0])


def _quad_cost(u):
    return float(0.5 * u @ (QUAD_A @ u) - QUAD_B @ u)


def _quad_gradient(u, state):
    return QUAD_A @ u - QUAD_B, None


def _jacobi(scale=1.0):
    return lambda v: scale * v / np.diag(QUAD_A)


def _all_free(u, grad):
    return np.ones(u.size, dtype=bool)


def _lbfgs(h_inv, memory):
    """Unprojected L-BFGS directions for descend."""
    return lbfgs_directions(h_inv, memory, _all_free)


def test_descend_without_memory_is_preconditioned_steepest_descent():
    cfg = OcpConfig(tol=1e-300, max_iter=12)
    iterates = []

    def gradient(u, state):
        iterates.append(u.copy())
        return _quad_gradient(u, state)

    def evaluate(u):
        return u, _quad_cost(u), None

    u0 = np.array([3.0, 2.0, -1.0])
    u, _, history, reason, _ = ocp_static.descend(
        evaluate, gradient, evaluate(u0), _lbfgs(_jacobi(4.0), 0), cfg, armijo_backtracking,
    )
    assert reason == "max_iter"
    # the same iteration written out: d = -h_inv(grad), then Armijo
    ref = [u0]
    for _ in range(cfg.max_iter):
        v = ref[-1]
        g, _ = _quad_gradient(v, None)
        d = -_jacobi(4.0)(g)
        tau, _ = armijo_backtracking(_quad_cost, v, d, g, cfg.armijo, f0=_quad_cost(v))
        ref.append(v + tau * d)
    assert len(iterates) == len(ref) == len(history)
    for got, want, rec in zip(iterates, ref, history):
        assert np.array_equal(got, want)
        assert rec.J == _quad_cost(want)
    assert np.array_equal(u, ref[-1])


def test_descend_accepts_the_projected_trial():
    # the unconstrained minimizer lies outside the box |u_i| <= 0.3
    cfg = OcpConfig(tol=1e-10, max_iter=40)
    iterates = []

    def evaluate(u):
        p = np.clip(u, -0.3, 0.3)
        return p, _quad_cost(p), None

    def gradient(u, state):
        iterates.append(u.copy())
        return _quad_gradient(u, state)

    u, _, history, _, _ = ocp_static.descend(
        evaluate, gradient, evaluate(np.zeros(3)), _lbfgs(_jacobi(), 0), cfg, armijo_backtracking,
    )
    assert len(history) > 2
    for v, rec in zip(iterates, history):
        assert np.array_equal(v, np.clip(v, -0.3, 0.3))
        assert rec.J == _quad_cost(v)  # the accepted trial's J, not a recomputation
    costs = [rec.J for rec in history]
    assert all(b <= a for a, b in zip(costs, costs[1:]))
    assert np.array_equal(u, iterates[-1])


@pytest.mark.parametrize("memory", [0, 10])
def test_descend_holds_no_state_while_it_evaluates(memory):
    # each state stands for an iterate's or a trial's factors: none may be
    # alive while the next trial is evaluated
    import weakref

    class State:
        pass

    cfg = OcpConfig(tol=1e-10, max_iter=30)
    made, alive_at_evaluation = [], []

    def evaluate(u):
        alive_at_evaluation.append(sum(r() is not None for r in made))
        state = State()
        made.append(weakref.ref(state))
        return u, _quad_cost(u), state

    # an overlong first direction makes the line searches backtrack
    _, _, history, _, _ = ocp_static.descend(
        evaluate, _quad_gradient, evaluate(np.array([3.0, 2.0, -1.0])),
        _lbfgs(_jacobi(8.0), memory), cfg, armijo_backtracking,
    )
    assert len(made) > len(history) + 1  # some trials were rejected
    assert alive_at_evaluation == [0] * len(made)


def _masked_bfgs_reference(grad, pairs, h_inv_matrix, free):
    """The free-set direction from explicit masked copies: the BFGS inverse
    update (Nocedal & Wright, eq. 6.17) applied pair by pair, oldest first,
    to gamma P H^-1 P, with P the projection onto the free entries."""
    free = free.astype(float)
    P = np.diag(free)
    masked = [(free * s, free * y) for s, y in pairs]
    masked = [(s, y) for s, y in masked if s @ y > 0]
    H = P @ h_inv_matrix @ P
    if masked:
        s, y = masked[-1]
        H = (s @ y) / (y @ H @ y) * H
    eye = np.eye(grad.size)
    for s, y in masked:
        rho = 1.0 / (s @ y)
        V = eye - rho * np.outer(y, s)
        H = V.T @ H @ V + rho * np.outer(s, s)
    return H @ (free * grad)


def test_free_set_two_loop_matches_a_dense_reference():
    rng = np.random.default_rng(7)
    skipped = 0
    for _ in range(40):
        n = int(rng.integers(4, 30))
        B = rng.standard_normal((n, n))
        h_inv_matrix = np.linalg.inv(B @ B.T + n * np.eye(n))
        pairs = [(rng.standard_normal(n), rng.standard_normal(n))
                 for _ in range(int(rng.integers(0, 5)))]
        # most pairs get positive curvature, as descend keeps them
        pairs = [(s, y + 3.0 * s) if rng.random() < 0.8 else (s, y) for s, y in pairs]
        free = rng.random(n) >= rng.uniform(0.0, 0.5)
        skipped += sum((free * s) @ (free * y) <= 0 for s, y in pairs)
        grad = rng.standard_normal(n)
        got = _lbfgs_direction(grad, pairs, lambda v: h_inv_matrix @ v, free)
        want = _masked_bfgs_reference(grad, pairs, h_inv_matrix, free)
        assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    assert skipped > 0  # the skip rule was exercised


def test_free_set_direction_is_zero_on_bound_entries():
    rng = np.random.default_rng(8)
    n = 50
    pairs = [(s, rng.standard_normal(n) + 2.0 * s) for s in rng.standard_normal((3, n))]
    bound = np.array([3, 17, 18, 42])
    free = np.ones(n, dtype=bool)
    free[bound] = False
    d = _lbfgs_direction(rng.standard_normal(n), pairs, lambda v: 0.5 * v, free)
    assert np.all(d[bound] == 0.0)
    assert np.count_nonzero(d) == n - bound.size


def test_failed_quasi_newton_search_restarts_along_steepest_descent():
    cfg = OcpConfig(tol=1e-300, max_iter=6)
    directions, failures, iterates = [], [], []

    def flaky(j_fun, u, d, grad, params, f0=None):
        directions.append((d.copy(), grad.copy()))
        if len(directions) == 3 and not failures:  # a quasi-Newton direction
            failures.append(len(directions))
            raise LineSearchError("injected")
        return armijo_backtracking(j_fun, u, d, grad, params, f0=f0)

    def evaluate(u):
        return u, _quad_cost(u), None

    def gradient(u, state):
        iterates.append(u.copy())
        return _quad_gradient(u, state)

    _, _, history, reason, restarts = ocp_static.descend(
        evaluate, gradient, evaluate(np.array([3.0, 2.0, -1.0])), _lbfgs(_jacobi(), 10), cfg,
        flaky,
    )
    assert reason == "max_iter" and restarts == 1 and len(history) == cfg.max_iter + 1
    failed_d, grad = directions[2]
    restart_d, same_grad = directions[3]
    assert np.array_equal(grad, same_grad)
    assert not np.array_equal(failed_d, -_jacobi()(grad))
    assert np.array_equal(restart_d, -_jacobi()(grad))
    # the memory was dropped: the next direction is built from the one pair
    # of the restart step
    (u2, u3), (g2, g3) = iterates[2:4], (directions[3][1], directions[4][1])
    pair = [(u3 - u2, g3 - g2)]
    all_free = np.ones(g3.size, dtype=bool)
    assert np.array_equal(directions[4][0], -_lbfgs_direction(g3, pair, _jacobi(), all_free))
