"""Time-varying control optimization that tracks the static optimum.

The cost integrates (trapezoidal in time) the M-weighted distance of the
state to the static equilibrium and the distance of the control to the
static control in the static OCP's control metric H = beta M + beta_g A_u,
so the optimal time-varying control converges to the static one instead of
developing a terminal transient.  Controls are (n_t, 2n) stacks of [ux, uy]
rows; a forward sweep's :class:`state.Trajectory` holds the stack it swept,
so the cost, the adjoint sweep and the gradient read the controls and the
scheme from it.  The optimizer is :func:`ocp_static.descend` on forward sweeps of
the theta scheme and backward sweeps of its exact discrete adjoint; every
trial control is projected onto the pointwise magnitude ball of the static
control before it is evaluated.  Its directions are projected L-BFGS ones
(Bertsekas 1982; Byrd, Lu, Nocedal & Zhu 1995) in the metric H: the speeds
on the ball whose gradient points outward are held, and the two-loop
recursion over the last ``DYNAMIC_LBFGS_MEMORY`` curvature pairs runs on
the free entries.  Sweeps run GMRES against the warm start's one LU and
keep no per-step factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjoint import AdjointTrajectory, solve_adjoint_dynamic, trapezoid_weights
from .fem import FemOperators
from .ocp_static import (
    IterationRecord,
    OcpConfig,
    StaticSolution,
    armijo_backtracking,
    control_metric,
    descend,
    h_inv_of,
    per_component,
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
    adjoint: AdjointTrajectory
    history: list[IterationRecord]
    control_distances: np.ndarray  # per-node M-norm of u(t) - u_static, both components
    state_distances: np.ndarray  # per-node ||q(t) - q_static||_M
    reason: str  # why the iteration stopped: "tol", "max_iter" or "line_search"
    fallbacks: int = 0  # sweep steps GMRES missed, over the accepted sweeps
    restarts: int = 0  # quasi-Newton line searches that failed and restarted along -H^-1 G

    @property
    def converged(self) -> bool:
        return self.reason == "tol"


def _sq_norms(H, X: np.ndarray) -> np.ndarray:
    """Per time node, the squared H-norm of row X[i], summed over its blocks."""
    return np.einsum("ij,ij->i", X, per_component(H, X))


def evaluate_dynamic_cost(
    ops: FemOperators,
    trajectory: Trajectory,
    static_solution: StaticSolution,
    config: OcpConfig,
) -> float:
    """Trapezoidal time quadrature of the tracking cost of a trajectory and
    the (n_t, 2n) control stack that it holds."""
    dQ = trajectory.states - static_solution.q_star.values
    dU = trajectory.controls - static_solution.u_star.stacked()
    terms = config.alpha * _sq_norms(ops.M, dQ) + _sq_norms(control_metric(ops, config), dU)
    return 0.5 * trajectory.dt * float(trapezoid_weights(trajectory.n_steps) @ terms)


def project_to_magnitude_ball(U: np.ndarray, n: int, radius: float) -> np.ndarray:
    """Scale per-node (ux, uy) pairs radially so magnitudes stay <= radius."""
    out = U.copy()
    flat = out.reshape(-1, 2 * n)
    mag = np.hypot(flat[:, :n], flat[:, n:])
    factor = np.ones_like(mag)
    over = mag > radius
    factor[over] = radius / mag[over]
    flat[:, :n] *= factor
    flat[:, n:] *= factor
    return out


def _dynamic_gradient(ops, traj, lams, static_solution, config):
    """Stacked gradient (n_nodes_t, 2n) of the discrete cost w.r.t. the
    control stack of ``traj``."""
    w_dt = trapezoid_weights(traj.n_steps) * traj.dt
    G = w_dt[:, None] * per_component(
        control_metric(ops, config), traj.controls - static_solution.u_star.stacked()
    )
    # node j's control enters the steps into node j (implicitly, multiplier
    # lam_{j-1}) and out of it (explicitly, lam_j); the terminal lam is zero
    lam, theta = lams.values, traj.theta
    combo = (1.0 - theta) * lam
    combo[1:] += theta * lam[:-1]
    for g, c, q in zip(G, combo, traj.states):
        g += np.concatenate(ops.tensor.gradient_contraction(c, q))
    return G


def solve_dynamic_ocp(
    ops: FemOperators,
    q0,
    static_solution: StaticSolution,
    config: OcpConfig,
) -> DynamicSolution:
    """Optimize a time-varying control, warm-started from the static optimum.

    :func:`ocp_static.descend` with projected L-BFGS directions: the bound
    set is the (time node, node) speeds with |u| >= radius (1 - 1e-9), on
    the ball, and u . g < 0, a gradient pointing outward; the direction is
    zero there and the two-loop recursion runs over at most
    ``DYNAMIC_LBFGS_MEMORY`` (3) pairs on the other entries.  Three pairs
    already bring the line searches to about one trial per iteration, and
    each pair holds two (n_t, 2n) stacks.  ``restarts`` counts the line
    searches along such a direction that failed and were run again along
    -H^-1 G, steepest descent in the control metric, with the pairs
    dropped; a failed restart stops the run with "line_search".  Each
    Armijo trial is one forward sweep of a projected control; a gradient is
    one adjoint sweep.  Both run GMRES against the warm start's LU
    (``fallbacks`` counts their missed steps).  ``reason`` says why the
    iteration stopped.
    """
    n = ops.n
    dt, theta, lumped = config.dt, config.theta, config.lumped
    n_nodes = _n_steps(config.T, dt) + 1
    q0v = _vals(q0)
    radius = static_solution.control_magnitude_bound()
    # the warm start's one LU (a constant control) preconditions every sweep
    us = static_solution.u_star.stacked()
    warm = np.broadcast_to(us, (n_nodes, 2 * n))
    traj, precond = theta_sweep(ops, q0v, warm, dt, theta, lumped)
    fallbacks = []

    def evaluated(traj):
        J = evaluate_dynamic_cost(ops, traj, static_solution, config)
        return traj.controls.ravel(), J, traj

    def evaluate(u):
        U = project_to_magnitude_ball(u.reshape(n_nodes, 2 * n), n, radius)
        return evaluated(theta_sweep(ops, q0v, U, dt, theta, lumped, precond)[0])

    def gradient(u, traj):
        lams = solve_adjoint_dynamic(
            ops, traj, static_solution.q_star, config.alpha, precond=precond
        )
        fallbacks.append(traj.fallbacks + lams.fallbacks)
        G = _dynamic_gradient(ops, traj, lams, static_solution, config)
        return G.ravel(), (traj, lams)

    def binding(u, grad):
        """Flat indices of both components of the speeds on the magnitude
        ball whose gradient points outward, u . g < 0."""
        U, G = u.reshape(n_nodes, 2, n), grad.reshape(n_nodes, 2, n)
        on_ball = np.hypot(U[:, 0], U[:, 1]) >= radius * (1.0 - 1e-9)
        i, j = np.nonzero(on_ball & (np.einsum("icj,icj->ij", U, G) < 0))
        return np.concatenate([i * 2 * n + j, i * 2 * n + n + j])

    u, (traj, lams), history, reason, restarts = descend(
        evaluate, gradient, evaluated(traj), h_inv_of(ops, config), config,
        armijo_backtracking, DYNAMIC_LBFGS_MEMORY, binding,
    )
    U = u.reshape(n_nodes, 2 * n)
    return DynamicSolution(
        control=U,
        trajectory=traj,
        adjoint=lams,
        history=history,
        control_distances=np.sqrt(_sq_norms(ops.M, U - us)),
        state_distances=np.sqrt(
            _sq_norms(ops.M, traj.states - static_solution.q_star.values)
        ),
        reason=reason,
        fallbacks=sum(fallbacks),
        restarts=restarts,
    )
