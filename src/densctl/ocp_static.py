"""Static velocity-field optimization by line-search Newton-CG on the reduced cost.

The reduced cost of a control u is

    J(u) = alpha/2 (q(u) - z)^T M (q(u) - z) + 1/2 (ux^T H ux + uy^T H uy)

where q(u) is the unit-mass equilibrium and H = beta M + beta_g A_u is the
control metric (L2 plus H1 per velocity component) that the dynamic OCP
shares.  The gradient is H u per component plus the tensor contraction of
the static adjoint with q.  Both OCPs run one loop, :func:`descend`:
gradient, stop test, a direction from a callback, Armijo backtracking from
a unit step, and the accepted trial, with its cost and state, as the next
iterate.  A static trial factorizes one bordered equilibrium matrix; the
accepted trial's (q, factor) pair is what its gradient takes, and the
factor serves the adjoint and mass multiplier (one transposed solve) and
every reduced-Hessian product at the iterate (two solves each), so neither
builds a state matrix or factorizes.  The static direction is truncated CG
on those products, preconditioned by H^-1 (H factorized once); the dynamic
OCP's is projected L-BFGS (:mod:`ocp_dynamic`).
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .adjoint import AdjointField, solve_adjoint_static
from .fem import ControlField, FemOperators, per_component
from .linalg import SolverError, bordered_solve, lu_factor
from .state import (
    DensityField,
    NegativeDensityWarning,
    _n_steps,
    _vals,
    _warn_if_negative,
    solve_equilibrium,
)

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
    "hessian_product",
    "solve_static_ocp",
]


class LineSearchError(SolverError):
    """Backtracking exhausted without satisfying the Armijo condition."""


class NotDescentError(ValueError):
    """The supplied direction is not a descent direction."""


def _real(value) -> bool:
    """A real number, not a bool, with a finite float value."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an integer beyond the float range
        return False


def _integer(value, least) -> bool:
    """An integer, not a bool, of at least ``least``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


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
        if not _integer(self.max_backtracks, 0):
            raise ValueError(f"max_backtracks must be an int >= 0, got {self.max_backtracks!r}")


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
    lumped: bool = True

    def __post_init__(self):
        for name in ("alpha", "beta", "beta_g", "tol", "theta", "dt", "T"):
            if not _real(value := getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.alpha <= 0 or self.beta <= 0 or self.beta_g < 0:
            raise ValueError(
                f"weights must satisfy alpha>0, beta>0, beta_g>=0, got "
                f"({self.alpha}, {self.beta}, {self.beta_g})"
            )
        if self.tol <= 0 or not _integer(self.max_iter, 1):
            raise ValueError("tol must be positive and max_iter an integer of at least 1")
        if not isinstance(self.lumped, bool):
            raise ValueError(f"lumped must be a bool, got {self.lumped!r}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        _n_steps(self.T, self.dt)


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

    def control_magnitude_bound(self) -> float:
        return float(self.u_star.magnitudes().max())


@lru_cache(maxsize=1)  # cached: the sparse sum costs more than a cost evaluation
def control_metric(ops: FemOperators, config: OcpConfig):
    """H = beta M + beta_g A_u, the cost metric of each velocity component."""
    return config.beta * ops.M + config.beta_g * ops.A_u


def evaluate_cost(ops: FemOperators, q, z, u: ControlField, config: OcpConfig) -> float:
    dq = _vals(q) - _vals(z)
    us = u.stacked()
    H = control_metric(ops, config)
    return 0.5 * (config.alpha * float(dq @ (ops.M @ dq)) + float(us @ per_component(H, us)))


def reduced_gradient(ops: FemOperators, u: ControlField, z, config: OcpConfig, equilibrium):
    """Gradient of the reduced cost at u.

    ``equilibrium`` is the (q, bordered factor) pair of
    ``solve_equilibrium(ops, u)``.  Returns (grad, adjoint) with grad
    stacked as [gx, gy].  The gradient of each component c is H u_c plus the
    tensor contraction of the adjoint with q; the adjoint and its mass
    multiplier come from one transposed solve with the factor, so the
    gradient neither factorizes nor builds L(u).
    """
    adj = solve_adjoint_static(ops, equilibrium, z, config.alpha)
    grad = per_component(control_metric(ops, config), u.stacked())
    grad += ops.tensor.gradient_contraction(adj.values, equilibrium[0].values)
    return grad, adj


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


def h_inv_of(ops: FemOperators, config: OcpConfig):
    """H^-1 on every length-n block of a vector: H is factorized once, and
    each call is one multi-RHS solve."""
    n, H_lu = ops.n, lu_factor(control_metric(ops, config))
    return lambda v: H_lu.solve(v.reshape(-1, n).T).T.ravel()


def descend(evaluate, gradient, start, direction, config, line_search):
    """Armijo-safeguarded descent, the one loop of the static and dynamic OCPs.

    ``evaluate(u)`` returns (u', J, state) for the point u' it evaluated (u
    or its projection), ``gradient(u, state)`` returns (grad, result), and
    ``start`` is an evaluated triple, passed inline so that only this call
    holds it.  ``direction(u, grad, state, result)`` returns (d, restart):
    the direction to search along, and None or a callable that gives the
    direction to search once more along when that search fails (a
    restart).  The last trial that ``line_search`` evaluates is the one it
    accepts: it is the next iterate, with its J and state.  An iterate's
    state is dropped once its direction is taken, a direction once its
    search ends, and no trial is held while the next is evaluated; the
    gradient's ``result`` is held until the next gradient, so a state it
    holds (the dynamic OCP's result is its trajectory) lives on.  Stops
    with ``reason`` "tol" once |grad| < config.tol, "max_iter" after
    config.max_iter iterations or "line_search", and returns (u, result,
    history, reason, restarts) at the last iterate.
    """
    u, J, state = start
    del start
    trial = []

    def j_of(v):
        trial.clear()
        trial.extend(evaluate(v))
        return trial[1]

    def search(d):
        try:
            return line_search(j_of, u, d, grad, config.armijo, f0=J)[0]
        except LineSearchError:
            return None

    history: list[IterationRecord] = []
    restarts = 0
    for it in range(config.max_iter + 1):
        grad, result = gradient(u, state)
        gnorm = float(np.linalg.norm(grad))
        if gnorm < config.tol or it == config.max_iter:
            reason = "tol" if gnorm < config.tol else "max_iter"
            break
        d, restart = direction(u, grad, state, result)
        state = None
        tau = search(d)
        if tau is None and restart is not None:
            restarts += 1
            tau = search(restart())
        d = restart = None
        if tau is None:
            reason = "line_search"
            break
        history.append(IterationRecord(it, J, gnorm, tau))
        u, J, state = trial
    history.append(IterationRecord(it, J, gnorm, 0.0))
    return u, result, history, reason, restarts


def hessian_product(ops: FemOperators, config: OcpConfig, equilibrium, adj: AdjointField, v):
    """The reduced Hessian of the cost at a control times a stacked direction v.

    ``equilibrium`` is the control's (q, bordered factor) pair and ``adj``
    its adjoint.  With C = C(v), the linearized equilibrium
    K [dq; ds] = [C q; 0] and the linearized adjoint
    K^T [dlam; dnu] = [alpha M dq + C^T lam; 0] take one solve each with the
    factor, and Hv = H v + g(dlam, q) + g(lam, dq) per component, g the
    tensor's gradient contraction: no factorization, and no state matrix.
    """
    (q, factor), lam = equilibrium, adj.values
    C = ops.tensor.csr(ops.tensor.contract_data(v))
    dq, _ = bordered_solve(factor, C @ q.values, 0.0)
    dlam, _ = bordered_solve(factor, config.alpha * (ops.M @ dq) + C.T @ lam, 0.0, trans="T")
    g = ops.tensor.gradient_contraction
    Hv = per_component(control_metric(ops, config), v)
    return Hv + g(dlam, q.values) + g(lam, dq)


def _truncated_cg(hess, grad, h_inv, forcing):
    """An inexact Newton direction d: CG on hess(d) = -grad from d = 0,
    preconditioned by h_inv, until |hess(d) + grad| <= forcing |grad|.  On a
    direction p of nonpositive curvature it returns the iterate so far, or p
    = -h_inv(grad) at the first step (Nocedal & Wright, Algorithm 7.1)."""
    d, r = np.zeros_like(grad), grad.copy()
    z = h_inv(r)
    p, rz = -z, r @ z
    tol = forcing * np.linalg.norm(grad)
    for j in range(grad.size):
        Hp = hess(p)
        curvature = p @ Hp
        if curvature <= 0:
            return p if j == 0 else d
        a = rz / curvature
        d += a * p
        r += a * Hp
        if np.linalg.norm(r) <= tol:
            break
        z = h_inv(r)
        rz, rz_old = r @ z, rz
        p = rz / rz_old * p - z
    return d


def solve_static_ocp(
    ops: FemOperators, z, config: OcpConfig, u0: ControlField | None = None
) -> StaticSolution:
    """Line-search Newton-CG on the reduced cost, by :func:`descend`.

    Each direction is :func:`_truncated_cg` on :func:`hessian_product` at
    the iterate, with the forcing term min(0.5, sqrt(|g| / |g_0|))
    (Eisenstat & Walker 1996), g_0 the first gradient; it searches from a
    unit step.  Each trial solves one bordered equilibrium; the accepted
    trial's equilibrium, factor and cost serve the next gradient and its
    Hessian products, so accepted costs are nonincreasing.  A trial whose
    equilibrium cannot be solved (SolverError) costs inf, so the line search
    rejects it and shrinks the step; the start's SolverError is raised.
    Trials do not warn NegativeDensityWarning; the returned q* does, once,
    if it is negative beyond round-off.  ``reason`` says why the iteration
    stopped.
    """
    zv = _vals(z)
    h_inv, gnorms = h_inv_of(ops, config), []

    def evaluate(u):
        cf = ControlField.from_stacked(u)
        equilibrium = solve_equilibrium(ops, cf)
        return u, evaluate_cost(ops, equilibrium[0], zv, cf, config), equilibrium

    def evaluate_trial(u):
        try:
            return evaluate(u)
        except SolverError:  # rejected like a trial that fails the Armijo test
            return u, math.inf, None

    def gradient(u, equilibrium):
        grad, adj = reduced_gradient(ops, ControlField.from_stacked(u), zv, config, equilibrium)
        return grad, (equilibrium[0], adj)

    def direction(u, grad, equilibrium, result):
        gnorms.append(np.linalg.norm(grad))
        d = _truncated_cg(
            lambda v: hessian_product(ops, config, equilibrium, result[1], v),
            grad, h_inv, min(0.5, math.sqrt(gnorms[-1] / gnorms[0])),
        )
        return d, None

    u = u0.stacked() if u0 is not None else np.zeros(2 * ops.n)
    with warnings.catch_warnings():  # a rejected trial's density says nothing of q*
        warnings.simplefilter("ignore", NegativeDensityWarning)
        u, (q, adj), history, reason, _ = descend(
            evaluate_trial, gradient, evaluate(u), direction, config, armijo_backtracking
        )
    _warn_if_negative(q.values)
    return StaticSolution(
        q_star=q,
        u_star=ControlField.from_stacked(u),
        adjoint=adj,
        history=history,
        reason=reason,
    )
