"""Time-varying control optimization that tracks the static optimum.

The cost integrates (trapezoidal in time) the M-weighted distance of the
state to the static equilibrium and the M_u / A_u weighted distance of the
control to the static control, so the optimal time-varying control converges
to the static one instead of developing a terminal transient.  Iterations
run forward/backward sweeps of the theta scheme and its exact discrete
adjoint, take preconditioned quasi-Newton steps, and keep every time node
inside the pointwise magnitude ball of the static control (trial points are
projected before they are evaluated, so accepted costs are nonincreasing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjoint import AdjointTrajectory, solve_adjoint_dynamic, trapezoid_weights
from .fem import ControlField, FemOperators
from .linalg import lu_factor
from .ocp_static import (
    IterationRecord,
    LineSearchError,
    OcpConfig,
    StaticSolution,
    armijo_backtracking,
)
from .state import DensityField, Trajectory, theta_sweep

__all__ = [
    "TimeVaryingControl",
    "DynamicSolution",
    "evaluate_dynamic_cost",
    "solve_dynamic_ocp",
    "project_to_magnitude_ball",
]


@dataclass(frozen=True)
class TimeVaryingControl:
    """One ControlField per time node on a uniform grid."""

    controls: list[ControlField]
    dt: float
    T: float

    def __post_init__(self):
        n_steps = round(self.T / self.dt)
        if len(self.controls) != n_steps + 1:
            raise ValueError(
                f"{len(self.controls)} control nodes for T/dt = {n_steps} steps"
            )

    @property
    def n_steps(self) -> int:
        return len(self.controls) - 1

    def stacked(self) -> np.ndarray:
        return np.stack([c.stacked() for c in self.controls])

    @classmethod
    def from_stacked(cls, arr: np.ndarray, dt: float, T: float) -> "TimeVaryingControl":
        return cls([ControlField.from_stacked(row) for row in arr], dt=dt, T=T)


@dataclass(frozen=True)
class DynamicSolution:
    control: TimeVaryingControl
    trajectory: Trajectory
    adjoint: AdjointTrajectory
    history: list[IterationRecord]
    control_distances: np.ndarray  # per-node ||u(t) - u_static||_{M_u}
    state_distances: np.ndarray  # per-node ||q(t) - q_static||_M
    converged: bool


def _control_norm_sq(ops: FemOperators, du_x, du_y, beta, beta_g):
    val = beta * (du_x @ (ops.M_u @ du_x) + du_y @ (ops.M_u @ du_y))
    if beta_g:
        val += beta_g * (du_x @ (ops.A_u @ du_x) + du_y @ (ops.A_u @ du_y))
    return val


def evaluate_dynamic_cost(
    ops: FemOperators,
    trajectory: Trajectory,
    control: TimeVaryingControl | np.ndarray,
    static_solution: StaticSolution,
    config: OcpConfig,
) -> float:
    """Trapezoidal time quadrature of the tracking cost."""
    U = control.stacked() if isinstance(control, TimeVaryingControl) else np.asarray(control)
    n_steps = trajectory.n_steps
    if U.shape[0] != n_steps + 1:
        raise ValueError(
            f"control grid has {U.shape[0]} nodes, trajectory has {n_steps + 1}"
        )
    n = ops.n
    qs = static_solution.q_star.values
    us = static_solution.u_star.stacked()
    w = trapezoid_weights(n_steps)

    J = 0.0
    for i in range(n_steps + 1):
        dq = trajectory.states[i] - qs
        du = U[i] - us
        term = config.alpha * float(dq @ (ops.M @ dq))
        term += _control_norm_sq(ops, du[:n], du[n:], config.beta, config.beta_g)
        J += 0.5 * w[i] * trajectory.dt * term
    return J


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


def _dynamic_gradient(ops, traj, lams, U, static_solution, config):
    """Stacked gradient (n_nodes_t, 2n) of the discrete cost w.r.t. the control."""
    n = ops.n
    n_steps = traj.n_steps
    us = static_solution.u_star.stacked()
    w = trapezoid_weights(n_steps)
    G = np.empty_like(U)
    for j in range(n_steps + 1):
        du = U[j] - us
        gx = config.beta * (ops.M_u @ du[:n])
        gy = config.beta * (ops.M_u @ du[n:])
        if config.beta_g:
            gx = gx + config.beta_g * (ops.A_u @ du[:n])
            gy = gy + config.beta_g * (ops.A_u @ du[n:])
        combo = np.zeros(n)
        if j >= 1:
            combo = combo + config.theta * lams.values[j - 1]
        if j <= n_steps - 1 and config.theta < 1.0:
            combo = combo + (1.0 - config.theta) * lams.values[j]
        tx, ty = ops.tensor.gradient_contraction(combo, traj.states[j])
        G[j, :n] = w[j] * traj.dt * gx + tx
        G[j, n:] = w[j] * traj.dt * gy + ty
    return G


def solve_dynamic_ocp(
    ops: FemOperators,
    q0,
    static_solution: StaticSolution,
    config: OcpConfig,
    max_iter: int | None = None,
) -> DynamicSolution:
    """Optimize a time-varying control, warm-started from the static optimum.

    Per iteration: backward discrete-adjoint sweep, gradient assembly,
    quasi-Newton direction and Armijo search over projected trial controls.
    The accepted trial, with its forward sweep, factors and cost, is the next
    iterate.  Terminates when the gradient norm falls below config.tol or
    after max_iter iterations.
    """
    n = ops.n
    dt, T, theta, lumped = config.dt, config.T, config.theta, config.lumped
    n_steps = round(T / dt)
    if abs(n_steps * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"T={T} is not an integer multiple of dt={dt}")
    q0v = q0.values if isinstance(q0, DensityField) else np.asarray(q0, dtype=float)
    radius = static_solution.control_magnitude_bound()
    max_iter = config.max_iter if max_iter is None else max_iter

    H = (config.beta * ops.M_u + config.beta_g * ops.A_u).tocsc()
    H_lu = lu_factor(H)

    def sweep(U):
        traj, factors = theta_sweep(ops, q0v, U, dt, theta, lumped)
        return U, traj, factors, evaluate_dynamic_cost(ops, traj, U, static_solution, config)

    # Armijo returns on the first trial it accepts, so the last trial swept
    # is the next iterate: its sweep is kept instead of being repeated.
    trial = []

    def j_of_flat(u_flat):
        trial.clear()
        U_trial = project_to_magnitude_ball(u_flat.reshape(n_steps + 1, 2 * n), n, radius)
        trial.extend(sweep(U_trial))
        return trial[-1]

    U, traj, factors, J = sweep(np.tile(static_solution.u_star.stacked(), (n_steps + 1, 1)))
    history: list[IterationRecord] = []
    converged = False
    for it in range(max_iter + 1):
        controls = [ControlField.from_stacked(row) for row in U]
        lams = solve_adjoint_dynamic(
            ops,
            traj,
            controls,
            static_solution.q_star,
            config.alpha,
            dt,
            theta,
            lumped,
            factors=factors,
        )
        factors = None  # only the adjoint needs them; free before the trials
        G = _dynamic_gradient(ops, traj, lams, U, static_solution, config)
        gnorm = float(np.linalg.norm(G))
        if gnorm < config.tol:
            history.append(IterationRecord(it, J, gnorm, 0.0))
            converged = True
            break
        if it == max_iter:
            history.append(IterationRecord(it, J, gnorm, 0.0))
            break
        # one multi-RHS solve: the rows of G.reshape(-1, n) are the x and y
        # halves of each time node's gradient
        D = -H_lu.solve(G.reshape(-1, n).T).T.reshape(G.shape)
        try:
            tau, _ = armijo_backtracking(
                j_of_flat, U.ravel(), D.ravel(), G.ravel(), config.armijo, f0=J
            )
        except LineSearchError:
            history.append(IterationRecord(it, J, gnorm, 0.0))
            break
        history.append(IterationRecord(it, J, gnorm, tau))
        U, traj, factors, J = trial

    qs = static_solution.q_star.values
    us = static_solution.u_star.stacked()
    u_dist = np.empty(n_steps + 1)
    q_dist = np.empty(n_steps + 1)
    for j in range(n_steps + 1):
        du = U[j] - us
        u_dist[j] = np.sqrt(
            du[:n] @ (ops.M_u @ du[:n]) + du[n:] @ (ops.M_u @ du[n:])
        )
        dq = traj.states[j] - qs
        q_dist[j] = np.sqrt(dq @ (ops.M @ dq))

    return DynamicSolution(
        control=TimeVaryingControl(
            [ControlField.from_stacked(row) for row in U], dt=dt, T=T
        ),
        trajectory=traj,
        adjoint=lams,
        history=history,
        control_distances=u_dist,
        state_distances=q_dist,
        converged=converged,
    )
