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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import ControlField, FemOperators, state_matrix
from .linalg import SolverError, bordered_lu, bordered_solve, lu_factor
from .state import DensityField, Trajectory

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


def _vals(x):
    return x.values if isinstance(x, DensityField) else np.asarray(x, dtype=float)


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
    lam, nu, _ = bordered_solve(factor or bordered_lu(L, ops.F), rhs, 0.0, trans="T")

    residual = np.abs(L.T @ lam - rhs).max()
    scale = np.abs(L).max() * max(np.abs(lam).max(), 1e-300) + np.abs(rhs).max()
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


def _project_zero_mean(lam, F, f_total):
    return lam - (float(F @ lam) / f_total)


def solve_adjoint_dynamic(
    ops: FemOperators,
    trajectory: Trajectory,
    controls,
    q_ref,
    alpha: float,
    dt: float,
    theta: float,
    lumped: bool = True,
    weights=None,
    factors=None,
) -> AdjointTrajectory:
    """Discrete adjoint of the theta scheme for the tracking cost.

    The source at node i is w_i * dt * alpha * M (q_i - q_ref) with
    trapezoidal weights by default.  ``factors`` may hold precomputed LU
    factorizations of the implicit step matrices (index i for the step into
    node i), which are then reused in transposed solves.
    """
    n_steps = trajectory.n_steps
    if abs(trajectory.dt - dt) > 1e-12 * max(1.0, dt):
        raise ValueError(f"trajectory dt {trajectory.dt} does not match dt {dt}")
    controls = list(getattr(controls, "controls", controls))
    if isinstance(controls[0], float):
        raise TypeError("controls must be ControlField instances")
    if len(controls) != n_steps + 1:
        raise ValueError(
            f"control grid has {len(controls)} nodes, trajectory has {n_steps + 1}"
        )
    w = trapezoid_weights(n_steps) if weights is None else np.asarray(weights, float)
    qref = _vals(q_ref)
    mass = ops.mass_data(lumped) / dt
    f_total = float(ops.F.sum())

    values = np.zeros((n_steps + 1, ops.n))
    lam_next = np.zeros(ops.n)
    for i in range(n_steps, 0, -1):
        L_i = ops.state_data(controls[i])
        source = w[i] * dt * alpha * (ops.M @ (trajectory.states[i] - qref))
        rhs = ops.tensor.csr(mass - (1.0 - theta) * L_i).T @ lam_next + source
        if factors is not None:
            lam = factors[i].solve(rhs, trans="T")
        else:
            lam = lu_factor(ops.tensor.csr(mass + theta * L_i).T).solve(rhs)
        if not np.isfinite(lam).all():
            raise SolverError(f"dynamic adjoint solve failed at step {i}")
        lam = _project_zero_mean(lam, ops.F, f_total)
        values[i - 1] = lam
        lam_next = lam
    return AdjointTrajectory(times=trajectory.times.copy(), values=values)
