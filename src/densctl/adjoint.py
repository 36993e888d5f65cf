"""Static and dynamic adjoint solves for the reduced-gradient computation.

The static adjoint solves L(u)^T lam = alpha M (q - z) + lam_m F on the
zero-mean subspace F.lam = 0.  L(u)^T is singular, and the mass multiplier
lam_m is the scalar that makes the system solvable.  The equilibrium's
bordered matrix K = [[L, F], [F^T, 0]] gives both at once: the solution of
K^T [lam; nu] = [alpha M (q - z); 0] has L^T lam + nu F = alpha M (q - z)
and F.lam = 0.  The dot product of the first block row with the kernel
vector v of L is 0 + nu v.F = alpha v.M (q - z), because v.L^T lam =
(L v).lam = 0; so nu = -lam_m, with lam_m = -alpha v.M (q - z) / v.F.
The solve takes the (q, factor) pair of :func:`state.solve_equilibrium`
whole, so the transposed matrix is the one that made q.

The dynamic adjoint is the exact discrete adjoint of the forward theta
scheme, marched backward from a zero terminal multiplier; this makes the
assembled control gradient exact for the fully discrete cost.  Each time
slice is gauge-fixed to zero mean (shifts along the constant vector are in
the kernel of the transposed operator and do not change the gradient).
The scheme (dt, theta, mass matrix) and the control stack are read from the
forward :class:`state.Trajectory`, so the adjoint transposes the very steps
that were taken.  The optimizer's adjoint sweeps run GMRES against its
forward sweeps' LU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import FemOperators
from .linalg import SolverError, bordered_solve, gmres_solve, lu_factor
from .state import Trajectory, _vals

__all__ = [
    "AdjointField",
    "AdjointTrajectory",
    "solve_adjoint_static",
    "solve_adjoint_dynamic",
    "trapezoid_weights",
]


@dataclass(frozen=True)
class AdjointField:
    """Zero-mean static adjoint with the mass multiplier lambda_m, the
    negated border multiplier nu of the transposed bordered solve."""

    values: np.ndarray
    lambda_m: float


@dataclass(frozen=True)
class AdjointTrajectory:
    """Backward-in-time multipliers on the forward trajectory's time grid.

    ``values[i]`` is the multiplier of the step from node i to node i + 1
    (zero-mean gauge); ``values[-1]`` is the zero terminal condition.
    """

    values: np.ndarray  # (n_steps + 1, n_nodes)
    fallbacks: int = 0  # steps that GMRES missed, solved directly


def solve_adjoint_static(ops: FemOperators, equilibrium, z, alpha: float) -> AdjointField:
    """Zero-mean adjoint and mass multiplier at an equilibrium.

    ``equilibrium`` is the (q, factor) pair of :func:`state.solve_equilibrium`,
    the factor (K, lu) of :func:`linalg.bordered_lu`.  Solves
    K^T [lam; nu] = [alpha M (q - z); 0] once with it and returns lam with
    lambda_m = -nu (see the module docstring).  Both checks read K: q must
    be a nonzero kernel vector of L, |L q| <= 1e-10 |L| |q| (a stale q, the
    equilibrium of another control paired with this factor, fails it), and
    the transposed solve's residual must stay below 1e-10 of its scale;
    else SolverError.
    """
    q, factor = equilibrium
    qv = _vals(q)
    K, n = factor[0], ops.n
    head = K.indptr[n]  # L's columns, each with its border entry in row n
    L_max, q_max = np.abs(K.data[:head][K.indices[:head] < n]).max(), np.abs(qv).max()
    residual = np.abs((K @ np.append(qv, 0.0))[:n]).max()  # K [q; 0] = [L q; F.q]
    if not (q_max > 0 and residual <= 1e-10 * L_max * q_max):
        raise SolverError(
            f"|L q| = {residual:.3e} exceeds 1e-10 * |L| |q| = {1e-10 * L_max * q_max:.3e}: "
            "q is not the equilibrium of this state matrix (stale q?)"
        )
    rhs = alpha * (ops.M @ (qv - _vals(z)))
    lam, nu = bordered_solve(factor, rhs, 0.0, trans="T")
    x = np.append(lam, nu)
    residual = np.abs(K.T @ x - np.append(rhs, 0.0)).max()
    scale = np.abs(K.data).max() * np.abs(x).max() + np.abs(rhs).max()
    if residual > 1e-10 * max(scale, 1e-300):
        raise SolverError(f"static adjoint residual {residual:.3e} exceeds 1e-10 * {scale:.3e}")
    return AdjointField(values=lam, lambda_m=-nu)


def trapezoid_weights(n_steps: int) -> np.ndarray:
    w = np.ones(n_steps + 1)
    w[0] = w[-1] = 0.5
    return w


def solve_adjoint_dynamic(
    ops: FemOperators, trajectory: Trajectory, q_ref, alpha: float, precond=None
) -> AdjointTrajectory:
    """Discrete adjoint of the theta scheme for the tracking cost.

    The scheme (dt, theta, lumped) and the (n_t, 2n) control stack are the
    forward ``trajectory``'s own.  The source at node i is
    w_i * dt * alpha * M (q_i - q_ref) with trapezoidal weights w_i.  Each
    transposed step is factorized, or, given ``precond`` (the LU of a nearby
    step matrix), solved by :func:`linalg.gmres_solve` from the next step's
    multiplier, with its misses counted in ``fallbacks``.  The transposed
    explicit and implicit step matrices are built once per sweep; each step
    overwrites their data.
    """
    n_steps, dt, theta = trajectory.n_steps, trajectory.dt, trajectory.theta
    controls = trajectory.controls
    w = trapezoid_weights(n_steps)
    qref = _vals(q_ref)
    mass = ops.mass_data(trajectory.lumped) / dt
    f_total = float(ops.F.sum())

    values = np.zeros((n_steps + 1, ops.n))
    lam_next = np.zeros(ops.n)
    fallbacks = 0
    explicit_T = ops.tensor.csr(np.empty_like(mass)).T
    implicit_T = ops.tensor.csc(np.empty_like(mass)).T  # A^T as CSR: A's CSC arrays
    for i in range(n_steps, 0, -1):
        L_i = ops.state_data(controls[i])
        source = w[i] * dt * alpha * (ops.M @ (trajectory.states[i] - qref))
        explicit_T.data[:] = mass - (1.0 - theta) * L_i
        rhs = explicit_T @ lam_next + source
        if precond is not None:
            implicit_T.data[:] = (mass + theta * L_i)[ops.tensor.transpose]
            lam, missed = gmres_solve(implicit_T, rhs, precond, lam_next, trans="T")
            fallbacks += missed
        else:
            lam = lu_factor(ops.tensor.csr(mass + theta * L_i).T).solve(rhs)
        if not np.isfinite(lam).all():
            raise SolverError(f"dynamic adjoint solve failed at step {i}")
        values[i - 1] = lam_next = lam - float(ops.F @ lam) / f_total
    return AdjointTrajectory(values, fallbacks)
