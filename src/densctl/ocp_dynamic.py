"""Time-varying control optimization that tracks the static optimum.

The cost integrates (trapezoidal in time) the M-weighted distance of the
state to the static equilibrium and the distance of the control to the
static control in the static OCP's control metric H = beta M + beta_g A_u,
so the optimal time-varying control converges to the static one instead of
developing a terminal transient; its terms and the turnpike distances are
:func:`fem.sq_norms` of the stacks.  Controls are (n_t, 2n) stacks of
[ux, uy] rows; a forward sweep's :class:`state.Trajectory` holds the stack
it swept, so the cost, the adjoint sweep and the gradient read the controls
and the scheme from it.  The optimizer is :func:`ocp_static.descend` on forward sweeps of
the theta scheme and backward sweeps of its exact discrete adjoint; every
trial control is projected onto the pointwise magnitude ball of the static
control before it is evaluated.  Its directions are projected L-BFGS ones
(Bertsekas 1982; Byrd, Lu, Nocedal & Zhu 1995) in the metric H: the speeds
on the ball whose gradient points outward are held, and the two-loop
recursion over the last ``DYNAMIC_LBFGS_MEMORY`` curvature pairs runs on
vectors times the 0/1 mask of the free entries.  Every sweep, forward or
adjoint, runs GMRES against the warm start's one LU, which each trajectory
carries.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .adjoint import solve_adjoint_dynamic, trapezoid_weights
from .fem import _ROW_BLOCK, FemOperators, per_component, sq_norms
from .ocp_static import (
    IterationRecord,
    OcpConfig,
    StaticSolution,
    armijo_backtracking,
    control_metric,
    descend,
    h_inv_of,
)
from .state import Trajectory, _n_steps, _vals, theta_sweep

__all__ = [
    "DynamicSolution",
    "evaluate_dynamic_cost",
    "solve_dynamic_ocp",
    "project_to_magnitude_ball",
]

# Pairs kept by the dynamic OCP.  Each pair holds two (n_t, 2n) stacks, 3.2 MB
# on the benchmark's dynamic workload, and three pairs already take its line
# searches to one trial per iteration.
DYNAMIC_LBFGS_MEMORY = 3


@dataclass(frozen=True)
class DynamicSolution:
    control: np.ndarray  # (n_t, 2n) stack of [ux, uy] rows
    trajectory: Trajectory
    history: list[IterationRecord]
    control_distances: np.ndarray  # per-node M-norm of u(t) - u_static, both components
    state_distances: np.ndarray  # per-node ||q(t) - q_static||_M
    reason: str  # why the iteration stopped: "tol", "max_iter" or "line_search"
    fallbacks: int = 0  # sweep steps GMRES missed, over the accepted sweeps
    restarts: int = 0  # quasi-Newton line searches that failed and restarted along -H^-1 G

    @property
    def converged(self) -> bool:
        return self.reason == "tol"


def evaluate_dynamic_cost(
    ops: FemOperators,
    trajectory: Trajectory,
    static_solution: StaticSolution,
    config: OcpConfig,
) -> float:
    """Trapezoidal time quadrature of the tracking cost of a trajectory and
    the (n_t, 2n) control stack that it holds."""
    q_star, u_star = static_solution.q_star.values, static_solution.u_star.stacked()
    terms = config.alpha * sq_norms(ops.M, trajectory.states, q_star)
    terms += sq_norms(control_metric(ops, config), trajectory.controls, u_star)
    return 0.5 * trajectory.dt * float(trapezoid_weights(trajectory.n_steps) @ terms)


def project_to_magnitude_ball(U: np.ndarray, n: int, radius: float) -> np.ndarray:
    """Scale the per-node (ux, uy) pairs of the (n_t, 2n) stack U radially,
    in place, so magnitudes stay <= radius; returns U."""
    mag = np.hypot(U[:, :n], U[:, n:])
    factor = np.ones_like(mag)
    over = mag > radius
    factor[over] = radius / mag[over]
    U[:, :n] *= factor
    U[:, n:] *= factor
    return U


def _lbfgs_direction(grad, memory, h_inv, free):
    """Inverse-Hessian estimate times grad by the two-loop recursion
    (Nocedal & Wright, Algorithm 7.4) over the (s, y) pairs in ``memory``,
    oldest first, with the initial operator gamma h_inv and gamma =
    s^T y / (y^T h_inv y) from the newest pair.

    The recursion runs on vectors projected by P = diag(free), ``free`` the
    0/1 mask of the free entries: r is multiplied by it after each update,
    a pair is skipped unless its curvature s^T P y is positive, and gamma's
    solve takes P y.  Gamma is found before r exists, so at most two
    stack-sized temporaries are alive at once.
    """
    used = [(s, y, sy) for s, y in memory if (sy := s @ (free * y)) > 0]
    gamma = 1.0
    if used:
        py = free * used[-1][1]
        gamma = used[-1][2] / (py @ h_inv(py))
        del py
    r = free * grad
    alphas = []
    for s, y, sy in reversed(used):
        alphas.append((s @ r) / sy)
        r -= alphas[-1] * y
        r *= free
    r = h_inv(r)
    r *= free
    r *= gamma
    for (s, y, sy), a in zip(used, reversed(alphas)):
        r += (a - (y @ r) / sy) * s
        r *= free
    return r


def lbfgs_directions(h_inv, memory, binding):
    """Projected L-BFGS directions for :func:`ocp_static.descend`.

    The step and gradient change between successive iterates are kept as a
    pair when their curvature is positive, at most ``memory`` pairs.  A
    direction is :func:`_lbfgs_direction` on the free set, the boolean mask
    ``binding(u, grad)``, with a restart along -h_inv(grad) that drops the
    pairs; it is -h_inv(grad), with the pairs dropped and no restart, when
    the recursion has nothing to add or does not descend.
    """
    pairs, last = deque(maxlen=memory), []

    def direction(u, grad, state, result):
        if last:  # the last iterate and gradient go as each difference is made
            s, y = u - last.pop(0), grad - last.pop()
            if s @ y > 0:
                pairs.append((s, y))
            del s, y
        last[:] = u, grad
        free = binding(u, grad)
        d = -_lbfgs_direction(grad, pairs, h_inv, free)
        if grad @ d < 0 and (pairs or not free.all()):
            return d, lambda: pairs.clear() or -h_inv(grad)
        pairs.clear()
        return -h_inv(grad), None

    return direction


def _dynamic_gradient(ops, traj, lams, static_solution, config):
    """Stacked gradient (n_nodes_t, 2n) of the discrete cost w.r.t. the
    control stack of ``traj``; its metric term is formed ``_ROW_BLOCK`` rows
    at a time, so no whole-stack temporary is made."""
    w_dt = trapezoid_weights(traj.n_steps) * traj.dt
    H, us = control_metric(ops, config), static_solution.u_star.stacked()
    G = np.empty(traj.controls.shape)
    for i in range(0, len(G), _ROW_BLOCK):
        rows = slice(i, i + _ROW_BLOCK)
        G[rows] = w_dt[rows, None] * per_component(H, traj.controls[rows] - us)
    # node j's control enters the steps into node j (implicitly, multiplier
    # lam_{j-1}) and out of it (explicitly, lam_j); the terminal lam is zero
    lam, theta = lams.values, traj.theta
    for j, (g, q) in enumerate(zip(G, traj.states)):
        c = (1.0 - theta) * lam[j]
        if j:
            c += theta * lam[j - 1]
        g += ops.tensor.gradient_contraction(c, q)
    return G


def solve_dynamic_ocp(
    ops: FemOperators,
    q0,
    static_solution: StaticSolution,
    config: OcpConfig,
) -> DynamicSolution:
    """Optimize a time-varying control, warm-started from the static optimum.

    :func:`ocp_static.descend` with projected L-BFGS directions: a speed
    is held when |u| >= radius (1 - 1e-9), on the ball, and u . g < 0, a
    gradient pointing outward; the free set masks out both components of
    the held speeds, and the two-loop recursion runs over at most
    ``DYNAMIC_LBFGS_MEMORY`` (3) pairs on vectors times the mask.  Three pairs
    already bring the line searches to about one trial per iteration, and
    each pair holds two (n_t, 2n) stacks.  ``restarts`` counts the line
    searches along such a direction that failed and were run again along
    -H^-1 G, steepest descent in the control metric, with the pairs
    dropped; a failed restart stops the run with "line_search".  Each
    Armijo trial is one forward sweep of a projected control; a gradient is
    one adjoint sweep.  Every sweep runs GMRES against the LU of the first,
    the warm start's (``fallbacks`` counts their missed steps); a trial is
    projected in place.  No trajectory but the trial's is alive during a
    sweep, so a run that stops on "line_search" sweeps its last iterate
    once more for its trajectory, with the same bits.  ``reason`` says why
    the iteration stopped; the tol test reads |G|_2, held speeds included,
    which stays positive at an optimum on the ball.
    """
    n = ops.n
    dt, theta, lumped = config.dt, config.theta, config.lumped
    n_nodes = _n_steps(config.T, dt) + 1
    q0v = _vals(q0)
    radius = static_solution.control_magnitude_bound()
    us = static_solution.u_star.stacked()
    fallbacks, lu = [], None

    def sweep(U):
        nonlocal lu
        traj = theta_sweep(ops, q0v, U, dt, theta, lumped, lu)
        lu = traj.lu
        J = evaluate_dynamic_cost(ops, traj, static_solution, config)
        return traj.controls.ravel(), J, traj

    def evaluate(u):  # u is a fresh trial, projected in place
        return sweep(project_to_magnitude_ball(u.reshape(n_nodes, 2 * n), n, radius))

    def gradient(u, traj):
        lams = solve_adjoint_dynamic(ops, traj, static_solution.q_star, config.alpha)
        fallbacks.append(traj.fallbacks + lams.fallbacks)
        G = _dynamic_gradient(ops, traj, lams, static_solution, config)
        return G.ravel(), traj

    def binding(u, grad):
        """The free set: False at both components of the speeds on the
        magnitude ball whose gradient points outward, u . g < 0."""
        U, G = u.reshape(n_nodes, 2, n), grad.reshape(n_nodes, 2, n)
        on_ball = np.hypot(U[:, 0], U[:, 1]) >= radius * (1.0 - 1e-9)
        held = on_ball & (np.einsum("icj,icj->ij", U, G) < 0)
        return np.repeat(~held[:, None], 2, axis=1).ravel()

    directions = lbfgs_directions(h_inv_of(ops, config), DYNAMIC_LBFGS_MEMORY, binding)
    u, traj, history, reason, restarts = descend(
        evaluate, gradient, sweep(np.broadcast_to(us, (n_nodes, 2 * n))), directions, config,
        armijo_backtracking,
    )
    U = u.reshape(n_nodes, 2 * n)
    traj = traj or sweep(U)[2]  # a "line_search" stop let go of the iterate's trajectory
    return DynamicSolution(
        control=U,
        trajectory=traj,
        history=history,
        control_distances=np.sqrt(sq_norms(ops.M, U, us)),
        state_distances=np.sqrt(sq_norms(ops.M, traj.states, static_solution.q_star.values)),
        reason=reason,
        fallbacks=sum(fallbacks),
        restarts=restarts,
    )
