import numpy as np
import pytest
from numpy.testing import assert_allclose

import densctl as dc
from densctl.adjoint import solve_adjoint_dynamic
from densctl.ocp_dynamic import (
    _dynamic_gradient,
    evaluate_dynamic_cost,
    project_to_magnitude_ball,
    solve_dynamic_ocp,
)
from densctl.ocp_static import ArmijoParams, OcpConfig, solve_static_ocp
from densctl.state import theta_sweep

from conftest import random_control


@pytest.fixture(scope="module")
def static_solution(small_ops):
    z = dc.gaussian_density(small_ops, (0.7, 0.7), 0.2)
    cfg = OcpConfig(alpha=1.0, beta=1e-3, beta_g=1e-5, tol=1e-7, max_iter=200)
    return solve_static_ocp(small_ops, z, cfg)


def test_dynamic_cost_zero_at_turnpike(small_ops, static_solution):
    cfg = OcpConfig(theta=0.5, lumped=False, dt=0.05, T=0.5)
    traj = dc.simulate(
        small_ops, static_solution.q_star, static_solution.u_star, T=0.5, dt=0.05,
        theta=0.5, lumped=False,
    )
    assert evaluate_dynamic_cost(small_ops, traj, static_solution, cfg) == pytest.approx(0.0, abs=1e-18)


def test_dynamic_cost_zero_weights(small_ops, static_solution, rng):
    cfg = OcpConfig(alpha=1e-300, beta=1e-300, beta_g=0.0, dt=0.05, T=0.5)
    q0 = dc.gaussian_density(small_ops, (0.3, 0.3), 0.2)
    u = random_control(small_ops, rng, 0.2)
    traj = dc.simulate(small_ops, q0, u, T=0.5, dt=0.05)
    assert evaluate_dynamic_cost(small_ops, traj, static_solution, cfg) < 1e-200


def test_dynamic_cost_trapezoid_oracle(small_ops, static_solution, rng):
    cfg = OcpConfig(alpha=1.3, beta=2e-3, beta_g=1e-4, dt=0.1, T=0.3)
    q0 = dc.gaussian_density(small_ops, (0.4, 0.6), 0.25)
    U = np.stack([random_control(small_ops, rng, 0.3).stacked() for _ in range(4)])
    traj = dc.simulate(small_ops, q0, U, T=0.3, dt=0.1, theta=0.5, lumped=False)
    got = evaluate_dynamic_cost(small_ops, traj, static_solution, cfg)

    n = small_ops.n
    qs, us = static_solution.q_star.values, static_solution.u_star.stacked()
    Md, Mu, Au = small_ops.M.toarray(), small_ops.M.toarray(), small_ops.A_u.toarray()
    expected = 0.0
    for i, w in enumerate([0.5, 1.0, 1.0, 0.5]):
        dq = traj.states[i] - qs
        du = U[i] - us
        term = 1.3 * dq @ Md @ dq
        term += 2e-3 * (du[:n] @ Mu @ du[:n] + du[n:] @ Mu @ du[n:])
        term += 1e-4 * (du[:n] @ Au @ du[:n] + du[n:] @ Au @ du[n:])
        expected += 0.5 * w * 0.1 * term
    assert got == pytest.approx(expected, rel=1e-12)


def test_projection_magnitudes(small_ops, rng):
    n = small_ops.n
    U = 3.0 * rng.standard_normal((4, 2 * n))
    P = project_to_magnitude_ball(U.copy(), n, radius=1.0)
    mags = np.hypot(P[:, :n], P[:, n:])
    assert mags.max() <= 1.0 + 1e-12
    # directions preserved where clipped, values preserved where feasible
    inside = np.hypot(U[:, :n], U[:, n:]) <= 1.0
    assert_allclose(P[:, :n][inside], U[:, :n][inside], rtol=0, atol=0)


@pytest.mark.parametrize("theta,lumped", [(1.0, True), (0.5, False)])
def test_dynamic_gradient_matches_finite_differences(
    tiny_ops, rng, theta, lumped
):
    # space-time gradient exactness on a tiny instance
    z = dc.gaussian_density(tiny_ops, (0.7, 0.7), 0.3)
    scfg = OcpConfig(alpha=1.0, beta=1e-3, beta_g=1e-5, tol=1e-8, max_iter=100)
    static = solve_static_ocp(tiny_ops, z, scfg)
    cfg = OcpConfig(
        alpha=1.0, beta=1e-3, beta_g=1e-5, dt=0.05, T=0.25, theta=theta, lumped=lumped
    )
    n = tiny_ops.n
    n_steps = 5
    q0 = dc.gaussian_density(tiny_ops, (0.3, 0.3), 0.25)
    U = np.tile(static.u_star.stacked(), (n_steps + 1, 1)) + 0.4 * rng.standard_normal(
        (n_steps + 1, 2 * n)
    )

    def jt(u_flat):
        Um = u_flat.reshape(n_steps + 1, 2 * n)
        traj = theta_sweep(tiny_ops, q0.values, Um, cfg.dt, theta, lumped)
        return evaluate_dynamic_cost(tiny_ops, traj, static, cfg)

    traj = theta_sweep(tiny_ops, q0.values, U, cfg.dt, theta, lumped)
    lams = solve_adjoint_dynamic(tiny_ops, traj, static.q_star, cfg.alpha)
    G = _dynamic_gradient(tiny_ops, traj, lams, static, cfg)
    for _ in range(10):
        D = rng.standard_normal(U.shape)
        D /= np.linalg.norm(D)
        slope = float((G * D).sum())
        best = np.inf
        for h in (1e-3, 1e-4, 1e-5, 1e-6):
            fd = (jt((U + h * D).ravel()) - jt((U - h * D).ravel())) / (2 * h)
            best = min(best, abs(fd - slope) / max(abs(fd), 1e-300))
        assert best < 1e-5


def test_warm_start_is_optimal(small_ops, static_solution):
    cfg = OcpConfig(
        alpha=1.0, beta=1e-3, beta_g=1e-5, tol=1e-6, max_iter=10,
        theta=0.5, lumped=False, dt=0.05, T=0.5,
    )
    dyn = solve_dynamic_ocp(small_ops, static_solution.q_star, static_solution, cfg)
    assert dyn.converged
    assert len(dyn.history) == 1
    assert dyn.history[0].grad_norm < cfg.tol
    assert_allclose(
        dyn.control,
        np.tile(static_solution.u_star.stacked(), (11, 1)),
        rtol=0,
        atol=0,
    )


def test_dynamic_ocp_descends_and_respects_box(small_ops, static_solution):
    cfg = OcpConfig(
        alpha=1.0, beta=1e-3, beta_g=1e-5, tol=1e-9, max_iter=8,
        theta=0.5, lumped=False, dt=0.05, T=1.0,
    )
    q0 = dc.gaussian_density(small_ops, (0.25, 0.25), 0.15)
    dyn = solve_dynamic_ocp(small_ops, q0, static_solution, cfg)
    costs = [h.J for h in dyn.history]
    assert all(b <= a + 1e-15 for a, b in zip(costs, costs[1:]))
    assert costs[-1] < costs[0]
    radius = static_solution.control_magnitude_bound()
    n = small_ops.n
    assert np.hypot(dyn.control[:, :n], dyn.control[:, n:]).max() <= radius + 1e-12
    # improvement over the constant static control on the same cost
    traj_const = dc.simulate(
        small_ops, q0, static_solution.u_star, T=1.0, dt=0.05, theta=0.5, lumped=False
    )
    j_const = evaluate_dynamic_cost(small_ops, traj_const, static_solution, cfg)
    assert costs[-1] <= j_const
    # turnpike tail: final-node control distance no bigger than the first
    assert dyn.control_distances[-1] <= dyn.control_distances[0]


def test_dynamic_solution_mass_conserved(small_ops, static_solution):
    cfg = OcpConfig(
        alpha=1.0, beta=1e-3, beta_g=1e-5, tol=1e-9, max_iter=3,
        theta=0.5, lumped=False, dt=0.05, T=0.5,
    )
    q0 = dc.gaussian_density(small_ops, (0.3, 0.6), 0.2)
    dyn = solve_dynamic_ocp(small_ops, q0, static_solution, cfg)
    assert dyn.trajectory.mass_errors().max() < 1e-11


def test_dynamic_stop_reasons(small_ops, static_solution):
    q0 = dc.gaussian_density(small_ops, (0.25, 0.25), 0.15)
    grid = dict(alpha=1.0, beta=1e-3, beta_g=1e-5, theta=0.5, lumped=False, dt=0.05, T=0.25)
    runs = {
        "tol": (static_solution.q_star, OcpConfig(tol=1e-6, **grid)),
        "max_iter": (q0, OcpConfig(tol=1e-12, max_iter=2, **grid)),
        # no convex cost decreases by the full first-order prediction
        "line_search": (q0, OcpConfig(
            tol=1e-12, armijo=ArmijoParams(c1=1.0 - 1e-9, max_backtracks=1), **grid
        )),
    }
    for reason, (start, cfg) in runs.items():
        dyn = solve_dynamic_ocp(small_ops, start, static_solution, cfg)
        assert dyn.reason == reason
        assert dyn.converged == (reason == "tol")


def _restart_run(small_ops, static_solution, fail_calls):
    """A dynamic solve whose line searches number ``fail_calls`` raise; the
    directions searched, with their gradients, and the solution."""
    import densctl.ocp_dynamic as ocp_dynamic
    from densctl.ocp_static import LineSearchError, armijo_backtracking

    cfg = OcpConfig(
        alpha=1.0, beta=1e-3, beta_g=1e-5, tol=1e-12, max_iter=4,
        theta=0.5, lumped=False, dt=0.05, T=0.5,
    )
    searched = []

    def flaky(j_fun, u, d, grad, params, f0=None):
        searched.append((d, grad))
        if len(searched) in fail_calls:
            raise LineSearchError("injected")
        return armijo_backtracking(j_fun, u, d, grad, params, f0=f0)

    q0 = dc.gaussian_density(small_ops, (0.25, 0.25), 0.15)
    mp = pytest.MonkeyPatch()
    with mp.context() as m:
        m.setattr(ocp_dynamic, "armijo_backtracking", flaky)
        dyn = solve_dynamic_ocp(small_ops, q0, static_solution, cfg)
    return searched, dyn


def test_failed_line_search_restarts_once_along_steepest_descent(small_ops, static_solution):
    from densctl.ocp_static import h_inv_of

    searched, dyn = _restart_run(small_ops, static_solution, {3})
    assert dyn.restarts == 1 and dyn.reason == "max_iter"
    assert len(dyn.history) == 5 and len(searched) == 5  # iteration 2 searched twice
    cfg = OcpConfig(alpha=1.0, beta=1e-3, beta_g=1e-5)
    h_inv = h_inv_of(small_ops, cfg)
    (failed, grad), (restart, same) = searched[2], searched[3]
    assert np.array_equal(grad, same)
    assert not np.allclose(failed, -h_inv(grad))
    assert_allclose(restart, -h_inv(grad), rtol=1e-12, atol=0)
    costs = [h.J for h in dyn.history]
    assert all(b <= a for a, b in zip(costs, costs[1:]))


def test_a_failed_restart_stops_the_run(small_ops, static_solution):
    searched, dyn = _restart_run(small_ops, static_solution, {3, 4})
    assert dyn.restarts == 1 and dyn.reason == "line_search"
    assert len(searched) == 4 and len(dyn.history) == 3


def test_binding_holds_the_outward_speeds_on_the_ball(small_ops, static_solution, monkeypatch):
    import densctl.ocp_dynamic as ocp_dynamic

    captured = []
    directions = ocp_dynamic.lbfgs_directions
    monkeypatch.setattr(
        ocp_dynamic, "lbfgs_directions",
        lambda *args: captured.append(args[-1]) or directions(*args),
    )
    cfg = OcpConfig(
        alpha=1.0, beta=1e-3, beta_g=1e-5, tol=1e-12, max_iter=1,
        theta=0.5, lumped=False, dt=0.05, T=0.25,
    )
    solve_dynamic_ocp(small_ops, static_solution.q_star, static_solution, cfg)
    binding, n = captured[0], small_ops.n
    U = np.tile(static_solution.u_star.stacked(), (6, 1))
    U[2] *= 0.5  # a time node inside the ball
    U[3] *= 1 - 1e-6  # just inside: free
    U[4] *= 1 - 1e-12  # on the ball up to round-off: held
    on_ball = np.hypot(U[:, :n], U[:, n:]) >= static_solution.control_magnitude_bound() * (1 - 1e-9)
    i, j = np.nonzero(on_ball)
    free = np.ones(U.size, dtype=bool)
    free[np.concatenate([i * 2 * n + j, i * 2 * n + n + j])] = False
    assert not on_ball[2:4].any() and on_ball[4].any()
    # -G along u points outward: every speed on the ball is held, both components
    assert np.array_equal(binding(U.ravel(), -U.ravel()), free)
    assert binding(U.ravel(), U.ravel()).all()


def test_no_iterate_trajectory_lives_through_a_line_search(small_ops, static_solution, monkeypatch):
    # the iterate's trajectory is let go of once its direction is taken, so
    # every trial sweep starts with no earlier trajectory alive
    import weakref

    import densctl.ocp_dynamic as ocp_dynamic

    made, alive = [], []
    sweep = ocp_dynamic.theta_sweep

    def spy(*args):
        alive.append(sum(r() is not None for r in made))
        traj = sweep(*args)
        made.append(weakref.ref(traj))
        return traj

    monkeypatch.setattr(ocp_dynamic, "theta_sweep", spy)
    cfg = OcpConfig(
        alpha=1.0, beta=1e-3, beta_g=1e-5, tol=1e-12, max_iter=5,
        theta=0.5, lumped=False, dt=0.05, T=0.5,
    )
    q0 = dc.gaussian_density(small_ops, (0.25, 0.25), 0.15)
    dyn = solve_dynamic_ocp(small_ops, q0, static_solution, cfg)
    assert dyn.reason == "max_iter" and len(alive) >= 6
    assert alive == [0] * len(alive)


def test_a_line_search_stop_sweeps_its_iterate_once_more(small_ops, static_solution, monkeypatch):
    import densctl.ocp_dynamic as ocp_dynamic

    kept = []
    sweep = ocp_dynamic.theta_sweep
    monkeypatch.setattr(
        ocp_dynamic, "theta_sweep", lambda *args: kept.append(sweep(*args)) or kept[-1]
    )
    _, dyn = _restart_run(small_ops, static_solution, {3, 4})
    assert dyn.reason == "line_search" and dyn.trajectory is kept[-1]
    # the iterate's own sweep, which the run let go of: the same bits again
    (first,) = [t for t in kept[:-1] if np.array_equal(t.controls, dyn.control)]
    assert np.array_equal(dyn.trajectory.states, first.states)
    assert np.array_equal(dyn.trajectory.controls, dyn.control)


def test_dynamic_solve_peak_memory_in_control_stacks(small_ops, static_solution):
    # held by design at the peak, while a gradient is formed: 3 L-BFGS pairs,
    # the last iterate and its gradient, the iterate with its states and
    # adjoint, and the gradient itself, 11 control stacks (a state stack is
    # half of one); 11.9 are measured, against 13.7 with the iterate's
    # trajectory held through the line search and whole-stack temporaries
    import tracemalloc

    cfg = OcpConfig(
        alpha=1.0, beta=1e-3, beta_g=1e-5, tol=1e-12, max_iter=5,
        theta=0.5, lumped=False, dt=0.05, T=10.0,
    )
    q0 = dc.gaussian_density(small_ops, (0.25, 0.25), 0.15)
    solve_dynamic_ocp(small_ops, q0, static_solution, cfg)  # fills the caches
    tracemalloc.start()
    try:
        dyn = solve_dynamic_ocp(small_ops, q0, static_solution, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dyn.reason == "max_iter" and len(dyn.control) == 201
    assert peak < 12.5 * dyn.control.nbytes


@pytest.mark.parametrize("rows", [1, 15, 16, 17, 101])
def test_h_inv_is_the_one_shot_solve_bitwise(small_ops, rng, rows):
    # in 16-row blocks (32 right-hand sides per SuperLU call), into one
    # output: the bits of one solve of every length-n block, with at most
    # 1.7 stacks traced (2.04 for the one-shot solve through the permuted LU)
    import tracemalloc

    from densctl.linalg import lu_factor
    from densctl.ocp_static import control_metric, h_inv_of

    cfg = OcpConfig(alpha=1.0, beta=1e-3, beta_g=1e-5)
    n = small_ops.n
    H_lu = lu_factor(control_metric(small_ops, cfg))
    h_inv = h_inv_of(small_ops, cfg)  # the pattern is known: the permuted LU
    for v in (rng.standard_normal(2 * n), rng.standard_normal((rows, 2 * n))):
        want = H_lu.solve(v.reshape(-1, n).T).T.ravel()
        tracemalloc.start()
        try:
            got = h_inv(v)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.shape == (v.size,) and np.array_equal(got, want)
        if rows == 101 and v.ndim == 2:
            assert peak < 1.7 * v.nbytes
