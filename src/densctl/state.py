"""Equilibrium densities and time integration of the density dynamics.

The semi-discrete dynamics are M dq/dt + L(u) q = 0 with the state matrix
L(u) from :mod:`densctl.fem`.  Equilibria solve L(u) q = 0 with unit mass
F.q = 1 and are computed through a bordered system that exploits the 1-D
kernel.  Transients use the one-parameter theta scheme; theta = 1 with the
lumped mass matrix preserves nonnegativity on strict-Delaunay meshes, while
theta = 1/2 (Crank-Nicolson) with the consistent mass is second order.
Single steps, simulations and optimizer sweeps all run :func:`theta_sweep`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .fem import ControlField, FemOperators, state_matrix
from .linalg import SolverError, bordered_lu, bordered_solve, lu_factor

__all__ = [
    "DensityField",
    "Trajectory",
    "NegativeDensityWarning",
    "density_from_values",
    "normalized_density",
    "solve_equilibrium",
    "theta_sweep",
    "step_theta",
    "simulate",
]


class NegativeDensityWarning(UserWarning):
    """A computed density has negative entries beyond round-off."""


@dataclass(frozen=True)
class DensityField:
    """Nodal density coefficients together with their total mass F.values."""

    values: np.ndarray
    mass: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def min_value(self) -> float:
        return float(self.values.min())


def density_from_values(ops: FemOperators, values) -> DensityField:
    values = np.asarray(values, dtype=float)
    return DensityField(values=values, mass=float(ops.F @ values))


def normalized_density(ops: FemOperators, values) -> DensityField:
    """Scale nodal values to unit mass; errors on nonpositive total mass."""
    values = np.asarray(values, dtype=float)
    total = float(ops.F @ values)
    if not total > 0:
        raise ValueError(f"cannot normalize density with total mass {total:g}")
    return DensityField(values=values / total, mass=1.0)


@dataclass(frozen=True)
class Trajectory:
    """States of a theta-method run on a uniform time grid."""

    times: np.ndarray
    states: np.ndarray  # (n_steps + 1, n_nodes)
    masses: np.ndarray
    min_values: np.ndarray
    dt: float
    theta: float
    lumped: bool
    control: object = field(repr=False, default=None)

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    def state(self, i: int) -> np.ndarray:
        return self.states[i]

    def mass_errors(self) -> np.ndarray:
        return np.abs(self.masses - self.masses[0])


def solve_equilibrium(ops: FemOperators, u: ControlField, return_factor: bool = False):
    """Unit-mass equilibrium density of L(u) q = 0.

    Solves the bordered system [[L, F], [F^T, 0]] [q; s] = [0; 1].  Because
    the columns of L sum to zero and 1^T F = |Omega| != 0, the auxiliary
    scalar s must vanish; |s| > 1e-8 signals inconsistent assembly.  Returns
    (density, kernel_vector) where the kernel vector is the raw solve result
    before the explicit renormalization to F.q = 1.  With ``return_factor``
    the bordered factor of :func:`linalg.bordered_lu` comes third; its
    transposed solves are the static adjoint's.
    """
    L = state_matrix(ops, u)
    factor = bordered_lu(L, ops.F)
    raw, s, _ = bordered_solve(factor, np.zeros(ops.n), 1.0)
    if abs(s) > 1e-8:
        raise SolverError(
            f"bordered equilibrium solve returned s={s:.3e}; "
            "the state matrix does not conserve mass (assembly inconsistency)"
        )
    total = float(ops.F @ raw)
    if not np.isfinite(total) or abs(total) < 1e-300:
        raise SolverError("equilibrium solve produced a zero-mass kernel vector")
    q = raw / total

    residual = np.abs(L @ q).max()
    scale = np.abs(L).max() * max(np.abs(q).max(), 1e-300)
    if residual > 1e-10 * scale:
        raise SolverError(
            f"equilibrium residual {residual:.3e} exceeds 1e-10 * {scale:.3e}"
        )
    if q.min() < -1e-9 * max(q.max(), 1e-300):
        # fixed message so the default warning filter collapses repeats;
        # the magnitude is available from the returned field
        warnings.warn(
            "equilibrium density has negative nodal entries beyond round-off",
            NegativeDensityWarning,
        )
    density = DensityField(values=q, mass=1.0)
    return (density, raw, factor) if return_factor else (density, raw)


def theta_sweep(
    ops: FemOperators,
    q0: np.ndarray | DensityField,
    controls,
    dt: float,
    theta: float = 1.0,
    lumped: bool = True,
    keep_factors: bool = True,
):
    """Theta-method sweep of M dq/dt + L(u) q = 0 on a uniform time grid.

    ``controls`` holds one entry per time node, each a ControlField or a
    stacked (ux, uy) vector.  Step i solves
    (M/dt + theta L_{i+1}) q_{i+1} = (M/dt - (1-theta) L_i) q_i with one step
    of iterative refinement.  The operators are data arrays on the tensor's
    sparsity pattern, and each node's L data serves as the implicit part of
    the step into it and the explicit part of the step out of it.  A control
    given as the same object at every node is factorized once.  Returns
    (trajectory, factors) where ``factors[i]`` is the LU of the step into
    node i (``factors[0]`` is None, and so is every entry when
    ``keep_factors`` is false, which bounds the memory of long sweeps).
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    controls = list(controls)
    n_steps = len(controls) - 1
    constant = all(c is controls[0] for c in controls)
    tensor = ops.tensor
    mass = ops.mass_data(lumped) / dt

    def state_data(c):
        return ops.state_data(c if isinstance(c, ControlField) else ControlField.from_stacked(c))

    states = np.empty((n_steps + 1, ops.n))
    states[0] = q0.values if isinstance(q0, DensityField) else q0
    factors = [None] * (n_steps + 1)
    L = state_data(controls[0])
    for i in range(n_steps):
        if i == 0 or not constant:
            explicit = tensor.csr(mass - (1.0 - theta) * L)
            if not constant:
                L = state_data(controls[i + 1])
            implicit = tensor.csc(mass + theta * L)
            lu = lu_factor(implicit)
        if keep_factors:
            factors[i + 1] = lu
        rhs = explicit @ states[i]
        qn = lu.solve(rhs)
        states[i + 1] = qn + lu.solve(rhs - implicit @ qn)
    if not np.isfinite(states).all():
        raise SolverError(
            "theta sweep produced non-finite states; the implicit matrix is "
            "numerically singular (dt may be too large)"
        )
    traj = Trajectory(
        times=np.arange(n_steps + 1) * dt,
        states=states,
        masses=states @ ops.F,
        min_values=states.min(axis=1),
        dt=float(dt),
        theta=float(theta),
        lumped=bool(lumped),
    )
    return traj, factors


def step_theta(
    ops: FemOperators,
    q: np.ndarray | DensityField,
    u_old: ControlField,
    u_new: ControlField,
    dt: float,
    theta: float = 1.0,
    lumped: bool = True,
) -> DensityField:
    """One theta-method step of M dq/dt + L(u) q = 0.

    Solves (M/dt + theta L(u_new)) q1 = (M/dt - (1-theta) L(u_old)) q0.
    """
    traj, _ = theta_sweep(ops, q, [u_old, u_new], dt, theta, lumped)
    return density_from_values(ops, traj.states[1])


def _controls_for_grid(control, n_steps):
    """Normalize a control argument to a per-node list of length n_steps + 1."""
    if isinstance(control, ControlField):
        return [control] * (n_steps + 1)
    controls = getattr(control, "controls", control)
    controls = list(controls)
    if len(controls) != n_steps + 1:
        raise ValueError(
            f"time-varying control has {len(controls)} nodes, grid needs {n_steps + 1}"
        )
    return controls


def simulate(
    ops: FemOperators,
    q0: np.ndarray | DensityField,
    control,
    T: float,
    dt: float,
    theta: float = 1.0,
    lumped: bool = True,
) -> Trajectory:
    """Integrate the density dynamics over [0, T] with uniform steps.

    ``control`` is either a single ControlField (held constant, so factorized
    once) or a sequence of ControlField with one entry per time node.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_steps = round(T / dt)
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(1.0, abs(T)):
        raise ValueError(f"T={T} is not an integer multiple of dt={dt}")
    controls = _controls_for_grid(control, n_steps)
    traj, _ = theta_sweep(ops, q0, controls, dt, theta, lumped, keep_factors=False)
    return replace(traj, control=control)
