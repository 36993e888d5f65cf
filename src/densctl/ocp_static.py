"""Static velocity-field optimization by L-BFGS on the reduced cost.

The reduced cost of a control u is

    J(u) = alpha/2 (q(u) - z)^T M (q(u) - z) + 1/2 (ux^T H ux + uy^T H uy)

where q(u) is the unit-mass equilibrium and H = beta M + beta_g A_u is the
control metric (L2 plus H1 per velocity component) that the dynamic OCP
shares.  The gradient is H u per component plus the tensor contraction of
the static adjoint with q.  Both OCPs run one loop, :func:`descend`:
gradient, stop test, L-BFGS direction from gamma H^-1 (H factorized once;
on the free entries only when a ``binding`` callback names bound ones, as
the dynamic OCP's does), Armijo backtracking with one restart along
-H^-1 grad, and the accepted trial, with its cost and state, as the next
iterate.  A static trial factorizes one bordered equilibrium
matrix; the accepted trial's (q, factor) pair is what its gradient takes,
and the factor serves the adjoint and mass multiplier (one transposed
solve), so a gradient builds no state matrix and costs no further
factorization.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .adjoint import AdjointField, solve_adjoint_static
from .fem import ControlField, FemOperators
from .linalg import SolverError, lu_factor
from .state import DensityField, _n_steps, _vals, solve_equilibrium

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


def per_component(H, U: np.ndarray) -> np.ndarray:
    """H applied to every length-n block of U, a stacked [ux, uy] vector or an
    (n_t, 2n) stack of them, in one sparse matmat."""
    return (H @ U.reshape(-1, H.shape[0]).T).T.reshape(U.shape)


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
    grad += np.concatenate(ops.tensor.gradient_contraction(adj.values, equilibrium[0].values))
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


# Number of (s, y) pairs kept by the L-BFGS memory.
LBFGS_MEMORY = 10

_NO_BOUND = np.zeros(0, dtype=np.intp)


def _lbfgs_direction(grad, memory, h_inv, bound=_NO_BOUND):
    """Inverse-Hessian estimate times grad by the two-loop recursion
    (Nocedal & Wright, Algorithm 7.4) over the (s, y) pairs in ``memory``,
    oldest first, with the initial operator gamma h_inv and gamma =
    s^T y / (y^T h_inv y) from the newest pair.

    The recursion runs on the free entries only: the entries ``bound`` (an
    index array) of grad, of every curvature product and of the result are
    zero, and a pair whose free curvature s_F^T y_F is not positive is
    skipped.  Pairs are stored whole; each product drops the bound entries'
    share, so no masked copy of a pair is made.
    """
    used = [(s, y, sy) for s, y in memory if (sy := s @ y - s[bound] @ y[bound]) > 0]
    r = grad.copy()
    r[bound] = 0.0
    alphas = []
    for s, y, sy in reversed(used):
        alphas.append((s @ r) / sy)
        r -= alphas[-1] * y
        r[bound] = 0.0
    r = h_inv(r)
    r[bound] = 0.0
    if used:
        s, y, sy = used[-1]
        y_free = y.copy()
        y_free[bound] = 0.0
        r *= sy / (y_free @ h_inv(y_free))
    for (s, y, sy), a in zip(used, reversed(alphas)):
        r += (a - (y @ r) / sy) * s
        r[bound] = 0.0
    return r


def h_inv_of(ops: FemOperators, config: OcpConfig):
    """H^-1 on every length-n block of a vector: H is factorized once, and
    each call is one multi-RHS solve."""
    n, H_lu = ops.n, lu_factor(control_metric(ops, config))
    return lambda v: H_lu.solve(v.reshape(-1, n).T).T.ravel()


def descend(evaluate, gradient, start, h_inv, config, line_search, memory, binding=None):
    """Armijo-safeguarded L-BFGS descent, shared by the static and dynamic OCPs.

    ``evaluate(u)`` returns (u', J, state) for the point u' it evaluated (u
    or its projection), ``gradient(u, state)`` returns (grad, result), and
    ``start`` is an evaluated triple, passed inline so that only this call
    holds it.  Directions are :func:`_lbfgs_direction` over at most
    ``memory`` (s, y) pairs, restricted to the entries that
    ``binding(u, grad)`` does not return when it is given (projected
    L-BFGS); -h_inv(grad) when they do not descend.  When the line search
    along such a direction fails, the pairs are dropped and the search runs
    once more along -h_inv(grad), a restart.  The last trial that
    ``line_search`` evaluates is the one it accepts: it is the next iterate,
    with its J and state.  An iterate's state is dropped once its gradient
    is taken, and no trial is held while the next is evaluated.  Stops with
    ``reason`` "tol" once |grad| < config.tol, "max_iter" after
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
    pairs = deque(maxlen=memory)
    step = grad_old = None
    restarts = 0
    for it in range(config.max_iter + 1):
        grad, result = gradient(u, state)
        state = None
        gnorm = float(np.linalg.norm(grad))
        if gnorm < config.tol or it == config.max_iter:
            reason = "tol" if gnorm < config.tol else "max_iter"
            break
        if step is not None:
            y = grad - grad_old
            if step @ y > 0:
                pairs.append((step, y))
            step = grad_old = y = None  # the pairs hold what is still needed
        bound = _NO_BOUND if binding is None else binding(u, grad)
        d = -_lbfgs_direction(grad, pairs, h_inv, bound)
        steepest = not pairs and not bound.size
        if not grad @ d < 0:
            pairs.clear()
            d, steepest = -h_inv(grad), True
        tau = search(d)
        if tau is None and not steepest:
            pairs.clear()
            restarts += 1
            tau = search(-h_inv(grad))
        if tau is None:
            reason = "line_search"
            break
        history.append(IterationRecord(it, J, gnorm, tau))
        u_new, J, state = trial
        step, grad_old, u = u_new - u, grad, u_new
    history.append(IterationRecord(it, J, gnorm, 0.0))
    return u, result, history, reason, restarts


def solve_static_ocp(
    ops: FemOperators, z, config: OcpConfig, u0: ControlField | None = None
) -> StaticSolution:
    """L-BFGS iteration on the reduced cost, by :func:`descend`.

    Each trial solves one bordered equilibrium; the accepted trial's
    equilibrium, factor and cost serve the next gradient, so accepted costs
    are nonincreasing.  ``reason`` says why the iteration stopped.
    """
    zv = _vals(z)

    def evaluate(u):
        cf = ControlField.from_stacked(u)
        equilibrium = solve_equilibrium(ops, cf)
        return u, evaluate_cost(ops, equilibrium[0], zv, cf, config), equilibrium

    def gradient(u, equilibrium):
        grad, adj = reduced_gradient(ops, ControlField.from_stacked(u), zv, config, equilibrium)
        return grad, (equilibrium[0], adj)

    u = u0.stacked() if u0 is not None else np.zeros(2 * ops.n)
    u, (q, adj), history, reason, _ = descend(
        evaluate, gradient, evaluate(u), h_inv_of(ops, config), config, armijo_backtracking,
        LBFGS_MEMORY,
    )
    return StaticSolution(
        q_star=q,
        u_star=ControlField.from_stacked(u),
        adjoint=adj,
        history=history,
        reason=reason,
    )
