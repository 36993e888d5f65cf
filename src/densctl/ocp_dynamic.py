"""Time-varying control optimization that tracks the static optimum.

The cost integrates (trapezoidal in time) the M-weighted distance of the
state to the static equilibrium and the distance of the control to the
static control in the static OCP's control metric H = beta M + beta_g A_u,
so the optimal time-varying control converges to the static one instead of
developing a terminal transient.  Controls are (n_t, 2n) stacks of [ux, uy]
rows.  Iterations run forward/backward sweeps of the theta scheme and its
exact discrete adjoint, take steps preconditioned by H^-1, and keep every
time node inside the pointwise magnitude ball of the static control (trial
points are projected before they are evaluated, so accepted costs are
nonincreasing).
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
    control_metric,
    per_component,
)
from .state import Trajectory, _vals, theta_sweep

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


@dataclass(frozen=True)
class DynamicSolution:
    control: TimeVaryingControl
    trajectory: Trajectory
    adjoint: AdjointTrajectory
    history: list[IterationRecord]
    control_distances: np.ndarray  # per-node M-norm of u(t) - u_static, both components
    state_distances: np.ndarray  # per-node ||q(t) - q_static||_M
    reason: str  # why the iteration stopped: "tol", "max_iter" or "line_search"

    @property
    def converged(self) -> bool:
        return self.reason == "tol"


def _sq_norms(H, X: np.ndarray) -> np.ndarray:
    """Per time node, the squared H-norm of row X[i], summed over its blocks."""
    return np.einsum("ij,ij->i", X, per_component(H, X))


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
    dQ = trajectory.states - static_solution.q_star.values
    dU = U - static_solution.u_star.stacked()
    terms = config.alpha * _sq_norms(ops.M, dQ) + _sq_norms(control_metric(ops, config), dU)
    return 0.5 * trajectory.dt * float(trapezoid_weights(n_steps) @ terms)


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
    w_dt = trapezoid_weights(traj.n_steps) * traj.dt
    G = w_dt[:, None] * per_component(
        control_metric(ops, config), U - static_solution.u_star.stacked()
    )
    # node j's control enters the steps into node j (implicitly, multiplier
    # lam_{j-1}) and out of it (explicitly, lam_j); the terminal lam is zero
    lam, theta = lams.values, config.theta
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
    max_iter: int | None = None,
) -> DynamicSolution:
    """Optimize a time-varying control, warm-started from the static optimum.

    Per iteration: backward discrete-adjoint sweep, gradient assembly,
    quasi-Newton direction and Armijo search over projected trial controls.
    The accepted trial, with its forward sweep, factors and cost, is the next
    iterate.  Terminates when the gradient norm falls below config.tol,
    after max_iter iterations, or when the line search fails; ``reason``
    says which.
    """
    n = ops.n
    dt, T, theta, lumped = config.dt, config.T, config.theta, config.lumped
    n_steps = round(T / dt)
    if abs(n_steps * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"T={T} is not an integer multiple of dt={dt}")
    q0v = _vals(q0)
    radius = static_solution.control_magnitude_bound()
    max_iter = config.max_iter if max_iter is None else max_iter

    H_lu = lu_factor(control_metric(ops, config))

    def sweep(U, controls):
        traj, factors = theta_sweep(ops, q0v, controls, dt, theta, lumped)
        return U, traj, factors, evaluate_dynamic_cost(ops, traj, U, static_solution, config)

    # Armijo returns on the first trial it accepts, so the last trial swept
    # is the next iterate: its sweep is kept instead of being repeated.
    trial = []

    def j_of_flat(u_flat):
        trial.clear()
        U_trial = project_to_magnitude_ball(u_flat.reshape(n_steps + 1, 2 * n), n, radius)
        trial.extend(sweep(U_trial, U_trial))
        return trial[-1]

    # the warm start is one control object at every node: factorized once
    us = static_solution.u_star.stacked()
    U, traj, factors, J = sweep(np.tile(us, (n_steps + 1, 1)), [us] * (n_steps + 1))
    history: list[IterationRecord] = []
    for it in range(max_iter + 1):
        lams = solve_adjoint_dynamic(
            ops,
            traj,
            U,
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
        if gnorm < config.tol or it == max_iter:
            reason = "tol" if gnorm < config.tol else "max_iter"
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
            reason = "line_search"
            history.append(IterationRecord(it, J, gnorm, 0.0))
            break
        history.append(IterationRecord(it, J, gnorm, tau))
        U, traj, factors, J = trial

    return DynamicSolution(
        control=TimeVaryingControl(
            [ControlField.from_stacked(row) for row in U], dt=dt, T=T
        ),
        trajectory=traj,
        adjoint=lams,
        history=history,
        control_distances=np.sqrt(_sq_norms(ops.M, U - us)),
        state_distances=np.sqrt(
            _sq_norms(ops.M, traj.states - static_solution.q_star.values)
        ),
        reason=reason,
    )
