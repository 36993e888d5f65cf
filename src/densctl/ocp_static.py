"""Static velocity-field optimization by L-BFGS on the reduced cost.

The reduced cost of a control u is

    J(u) = alpha/2 (q(u) - z)^T M (q(u) - z) + 1/2 (ux^T H ux + uy^T H uy)

where q(u) is the unit-mass equilibrium and H = beta M + beta_g A_u is the
control metric (L2 plus H1 per velocity component) that the dynamic OCP
shares.  The gradient is H u per component plus the tensor contraction of
the static adjoint with q.  L-BFGS directions start from gamma H^-1, with H
factorized once, and Armijo backtracking safeguards the steps.  Each trial
factorizes one bordered equilibrium matrix; the accepted trial's factor also
serves its adjoint (transposed), so a gradient costs no further
factorization.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .adjoint import AdjointField, solve_adjoint_static
from .fem import ControlField, FemOperators
from .linalg import SolverError, lu_factor
from .state import DensityField, _vals, solve_equilibrium

__all__ = [
    "ArmijoParams",
    "OcpConfig",
    "IterationRecord",
    "StaticSolution",
    "LineSearchError",
    "NotDescentError",
    "evaluate_cost",
    "reduced_gradient",
    "armijo_backtracking",
    "solve_static_ocp",
]


class LineSearchError(SolverError):
    """Backtracking exhausted without satisfying the Armijo condition."""


class NotDescentError(ValueError):
    """The supplied direction is not a descent direction."""


@dataclass(frozen=True)
class ArmijoParams:
    c1: float = 1e-4
    shrink: float = 0.5
    max_backtracks: int = 30

    def __post_init__(self):
        if not 0.0 < self.c1 < 1.0:
            raise ValueError(f"c1 must lie in (0, 1), got {self.c1}")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError(f"shrink must lie in (0, 1), got {self.shrink}")


@dataclass(frozen=True)
class OcpConfig:
    """Weights, tolerances, and discretization settings shared by both OCPs."""

    alpha: float = 1.0
    beta: float = 1e-3
    beta_g: float = 1e-5
    tol: float = 1e-6
    max_iter: int = 200
    armijo: ArmijoParams = field(default_factory=ArmijoParams)
    theta: float = 1.0
    dt: float = 0.03
    T: float = 3.0
    mu: float = 1.0
    lumped: bool = True

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0 or self.beta_g < 0:
            raise ValueError(
                f"weights must satisfy alpha>0, beta>0, beta_g>=0, got "
                f"({self.alpha}, {self.beta}, {self.beta_g})"
            )
        if self.tol <= 0 or self.max_iter < 1:
            raise ValueError("tol must be positive and max_iter at least 1")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    J: float
    grad_norm: float
    step_size: float


@dataclass(frozen=True)
class StaticSolution:
    q_star: DensityField
    u_star: ControlField
    adjoint: AdjointField
    history: list[IterationRecord]
    reason: str  # why the iteration stopped: "tol", "max_iter" or "line_search"

    @property
    def converged(self) -> bool:
        return self.reason == "tol"

    @property
    def lambda_m(self) -> float:
        return self.adjoint.lambda_m

    def control_magnitude_bound(self) -> float:
        return float(self.u_star.magnitudes().max())


@lru_cache(maxsize=1)  # cached: the sparse sum costs more than a cost evaluation
def control_metric(ops: FemOperators, config: OcpConfig):
    """H = beta M + beta_g A_u, the cost metric of each velocity component."""
    return config.beta * ops.M + config.beta_g * ops.A_u


def per_component(H, U: np.ndarray) -> np.ndarray:
    """H applied to every length-n block of U, a stacked [ux, uy] vector or an
    (n_t, 2n) stack of them, in one sparse matmat."""
    return (H @ U.reshape(-1, H.shape[0]).T).T.reshape(U.shape)


def evaluate_cost(ops: FemOperators, q, z, u: ControlField, config: OcpConfig) -> float:
    dq = _vals(q) - _vals(z)
    us = u.stacked()
    H = control_metric(ops, config)
    return 0.5 * (config.alpha * float(dq @ (ops.M @ dq)) + float(us @ per_component(H, us)))


def reduced_gradient(
    ops: FemOperators, u: ControlField, z, config: OcpConfig, equilibrium=None
):
    """Gradient of the reduced cost at u.

    Returns (grad, J, q, adjoint) with grad stacked as [gx, gy].  The
    gradient of each component c is H u_c plus the tensor contraction of the
    adjoint with the equilibrium.  ``equilibrium`` may hold the (q, bordered
    factor) pair of an earlier solve at u; the adjoint then reuses that
    factor.
    """
    if equilibrium is None:
        q, _, factor = solve_equilibrium(ops, u, return_factor=True)
    else:
        q, factor = equilibrium
    adj = solve_adjoint_static(ops, u, q, z, config.alpha, factor=factor)
    grad = per_component(control_metric(ops, config), u.stacked())
    grad += np.concatenate(ops.tensor.gradient_contraction(adj.values, q.values))
    return grad, evaluate_cost(ops, q, z, u, config), q, adj


def armijo_backtracking(j_fun, u, d, grad, params: ArmijoParams, f0=None):
    """Largest step tau in {1, shrink, shrink^2, ...} passing the Armijo test.

    ``j_fun`` maps a stacked control vector to a cost value.  Returns
    (tau, f_new).  Raises NotDescentError when grad.d >= 0 and
    LineSearchError when max_backtracks trials all fail.
    """
    slope = float(np.dot(grad, d))
    if slope >= 0:
        raise NotDescentError(f"direction has nonnegative slope {slope:.3e}")
    if f0 is None:
        f0 = j_fun(u)
    tau = 1.0
    for _ in range(params.max_backtracks + 1):
        f_new = j_fun(u + tau * d)
        if np.isfinite(f_new) and f_new <= f0 + params.c1 * tau * slope:
            return tau, f_new
        tau *= params.shrink
    raise LineSearchError(
        f"no Armijo step after {params.max_backtracks} backtracks (slope {slope:.3e})"
    )


# Number of (s, y) pairs kept by the L-BFGS memory.
LBFGS_MEMORY = 10


def _lbfgs_direction(grad, memory, h_inv):
    """Inverse-Hessian estimate times grad by the two-loop recursion
    (Nocedal & Wright, Algorithm 7.4) over the (s, y) pairs in ``memory``,
    oldest first, with the initial operator gamma h_inv and gamma =
    s^T y / (y^T h_inv y) from the newest pair."""
    r = grad.copy()
    alphas = []
    for s, y in reversed(memory):
        alphas.append((s @ r) / (s @ y))
        r -= alphas[-1] * y
    r = h_inv(r)
    if memory:
        s, y = memory[-1]
        r *= (s @ y) / (y @ h_inv(y))
    for (s, y), a in zip(memory, reversed(alphas)):
        r += (a - (y @ r) / (s @ y)) * s
    return r


def solve_static_ocp(
    ops: FemOperators, z, config: OcpConfig, u0: ControlField | None = None
) -> StaticSolution:
    """L-BFGS iteration on the reduced cost.

    Pairs with s^T y <= 0 are skipped; a direction that is not a descent
    direction clears the memory and falls back to -H^-1 grad.  The accepted
    Armijo trial, with its equilibrium and bordered factor, is the next
    iterate, so accepted costs are nonincreasing.  Stops when the Euclidean
    norm of the stacked gradient drops below config.tol, after max_iter
    iterations, or when the line search fails; ``reason`` says which.
    """
    n = ops.n
    zv = _vals(z)
    u = u0.stacked() if u0 is not None else np.zeros(2 * n)
    H_lu = lu_factor(control_metric(ops, config))

    def h_inv(v):  # both halves in one multi-RHS solve
        return H_lu.solve(v.reshape(2, n).T).T.ravel()

    # Armijo returns on the first trial it accepts, so the last trial
    # evaluated is the next iterate.
    trial = []

    def j_of(u_vec):
        cf = ControlField.from_stacked(u_vec)
        q, _, factor = solve_equilibrium(ops, cf, return_factor=True)
        trial[:] = [u_vec, (q, factor)]
        return evaluate_cost(ops, q, zv, cf, config)

    history: list[IterationRecord] = []
    memory = deque(maxlen=LBFGS_MEMORY)
    equilibrium = step = grad_old = None
    for it in range(config.max_iter + 1):
        cf = ControlField.from_stacked(u)
        grad, J, q, adj = reduced_gradient(ops, cf, zv, config, equilibrium)
        gnorm = float(np.linalg.norm(grad))
        if gnorm < config.tol or it == config.max_iter:
            reason = "tol" if gnorm < config.tol else "max_iter"
            history.append(IterationRecord(it, J, gnorm, 0.0))
            break
        if step is not None and step @ (grad - grad_old) > 0:
            memory.append((step, grad - grad_old))
        d = -_lbfgs_direction(grad, memory, h_inv)
        if not grad @ d < 0:
            memory.clear()
            d = -h_inv(grad)
        try:
            tau, _ = armijo_backtracking(j_of, u, d, grad, config.armijo, f0=J)
        except LineSearchError:
            reason = "line_search"
            history.append(IterationRecord(it, J, gnorm, 0.0))
            break
        history.append(IterationRecord(it, J, gnorm, tau))
        u_new, equilibrium = trial
        step, grad_old, u = u_new - u, grad, u_new

    return StaticSolution(
        q_star=q,
        u_star=ControlField.from_stacked(u),
        adjoint=adj,
        history=history,
        reason=reason,
    )
