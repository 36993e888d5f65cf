"""Static and dynamic adjoint solves for the reduced-gradient computation.

The static adjoint solves L(u)^T lam = alpha M (q - z) + lam_m F on the
zero-mean subspace F.lam = 0, where the scalar lam_m is fixed by requiring
the right-hand side to be orthogonal to the kernel vector of L(u) (the
solvability condition of the singular transposed system).

The dynamic adjoint is the exact discrete adjoint of the forward theta
scheme, marched backward from a zero terminal multiplier; this makes the
assembled control gradient exact for the fully discrete cost.  Each time
slice is gauge-fixed to zero mean (shifts along the constant vector are in
the kernel of the transposed operator and do not change the gradient).
The optimizer's adjoint sweeps run GMRES against its forward sweeps' LU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import ControlField, FemOperators, state_matrix
from .linalg import SolverError, bordered_lu, bordered_solve, gmres_solve, lu_factor
from .state import Trajectory, _controls_for_grid, _vals

__all__ = [
    "AdjointField",
    "AdjointTrajectory",
    "compute_lambda_m",
    "solve_adjoint_static",
    "solve_adjoint_dynamic",
    "trapezoid_weights",
]


@dataclass(frozen=True)
class AdjointField:
    """Zero-mean adjoint state with its scalar multipliers."""

    values: np.ndarray
    lambda_m: float
    lagrange_nu: float


@dataclass(frozen=True)
class AdjointTrajectory:
    """Backward-in-time multipliers on the forward time grid.

    ``values[i]`` is the multiplier of the step from node i to node i + 1
    (zero-mean gauge); ``values[-1]`` is the zero terminal condition.
    """

    times: np.ndarray
    values: np.ndarray  # (n_steps + 1, n_nodes)
    fallbacks: int = 0  # steps that GMRES missed, solved directly


def compute_lambda_m(v, ops: FemOperators, q, z, alpha: float) -> float:
    """Mass multiplier lam_m = -alpha v.M(q - z) / v.F.

    ``v`` is any vector spanning the kernel of the state matrix; the result
    makes alpha M (q - z) + lam_m F orthogonal to v.
    """
    v = np.asarray(v, dtype=float)
    denom = float(v @ ops.F)
    scale = float(np.abs(v).max() * np.abs(ops.F).sum())
    if abs(denom) <= 1e-12 * max(scale, 1e-300):
        raise SolverError(
            "kernel vector is orthogonal to the mass vector; the computed "
            "kernel is corrupted (a valid equilibrium has positive mass)"
        )
    return -alpha * float(v @ (ops.M @ (_vals(q) - _vals(z)))) / denom


def solve_adjoint_static(
    ops: FemOperators, u: ControlField, q, z, alpha: float, factor=None
) -> AdjointField:
    """Zero-mean solution of the transposed state system.

    ``q`` must be the equilibrium for ``u`` so that the compatibility
    condition holds after the lam_m correction.  The adjoint's bordered
    matrix is the transpose of the equilibrium's, so ``factor`` may hold the
    equilibrium's (``solve_equilibrium(..., return_factor=True)``); without
    it that factor is computed.  Returns the adjoint values, lam_m, and the
    bordered multiplier nu (which must be ~0).
    """
    qv = _vals(q)
    zv = _vals(z)
    lam_m = compute_lambda_m(qv, ops, qv, zv, alpha)
    rhs = alpha * (ops.M @ (qv - zv)) + lam_m * ops.F
    L = state_matrix(ops, u)
    lam, nu = bordered_solve(factor or bordered_lu(L, ops.F), rhs, 0.0, trans="T")

    residual = np.abs(L.T @ lam - rhs).max()
    scale = np.abs(L.data).max() * max(np.abs(lam).max(), 1e-300) + np.abs(rhs).max()
    if residual > 1e-10 * max(scale, 1e-300):
        raise SolverError(
            f"static adjoint residual {residual:.3e} exceeds tolerance; "
            "the right-hand side is incompatible (stale lam_m or wrong q?)"
        )
    return AdjointField(values=lam, lambda_m=lam_m, lagrange_nu=nu)


def trapezoid_weights(n_steps: int) -> np.ndarray:
    w = np.ones(n_steps + 1)
    w[0] = w[-1] = 0.5
    return w


def solve_adjoint_dynamic(
    ops: FemOperators,
    trajectory: Trajectory,
    controls,
    q_ref,
    alpha: float,
    dt: float,
    theta: float,
    lumped: bool = True,
    precond=None,
) -> AdjointTrajectory:
    """Discrete adjoint of the theta scheme for the tracking cost.

    ``controls`` is an (n_t, 2n) stack of [ux, uy] rows, one per time
    node.  The source at node i is w_i * dt * alpha * M (q_i - q_ref) with
    trapezoidal weights w_i.  Each transposed step is factorized, or,
    given ``precond`` (the LU of a nearby step matrix), solved by
    :func:`linalg.gmres_solve` from the next step's multiplier, with its
    misses counted in ``fallbacks``.  The transposed explicit and implicit
    step matrices are built once per sweep; each step overwrites their data.
    """
    n_steps = trajectory.n_steps
    if abs(trajectory.dt - dt) > 1e-12 * max(1.0, dt):
        raise ValueError(f"trajectory dt {trajectory.dt} does not match dt {dt}")
    controls = _controls_for_grid(controls, n_steps)
    w = trapezoid_weights(n_steps)
    qref = _vals(q_ref)
    mass = ops.mass_data(lumped) / dt
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
    return AdjointTrajectory(trajectory.times.copy(), values, fallbacks)
