"""Equilibrium densities and time integration of the density dynamics.

The semi-discrete dynamics are M dq/dt + L(u) q = 0 with the state matrix
L(u) from :mod:`densctl.fem`.  Equilibria solve L(u) q = 0 with unit mass
F.q = 1 and are computed through a bordered system that exploits the 1-D
kernel; each comes with that system's factor, which the static adjoint
solves transposed.  Transients use the one-parameter theta scheme; theta = 1
with the lumped mass matrix preserves nonnegativity on strict-Delaunay
meshes, while theta = 1/2 (Crank-Nicolson) with the consistent mass is
second order.
Single steps, simulations and optimizer sweeps all run :func:`theta_sweep`,
which solves every step by GMRES against the sweep's one LU.  A sweep's
:class:`Trajectory` keeps its scheme, the control stack it swept and that
LU, all that the discrete dynamic adjoint transposes and solves against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fem import ControlField, FemOperators, state_matrix
from .linalg import SolverError, bordered_lu, bordered_solve, gmres_solve, lu_factor

__all__ = [
    "DensityField",
    "Trajectory",
    "NegativeDensityWarning",
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
    """Nodal density coefficients, read-only."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def _vals(x) -> np.ndarray:
    """Nodal values of a DensityField or of a plain array."""
    return x.values if isinstance(x, DensityField) else np.asarray(x, dtype=float)


def normalized_density(ops: FemOperators, values) -> DensityField:
    """Scale nodal values to unit mass; errors on nonpositive total mass."""
    values = np.asarray(values, dtype=float)
    total = float(ops.F @ values)
    if not total > 0:
        raise ValueError(f"cannot normalize density with total mass {total:g}")
    return DensityField(values=values / total)


@dataclass(frozen=True)
class Trajectory:
    """States of a theta-method run on a uniform time grid, with the scheme
    (dt, theta, lumped), the (n_steps + 1, 2n) control stack that made them
    and the LU every step was solved against.  ``controls`` is the swept
    stack itself: a constant control's stays a read-only broadcast view."""

    times: np.ndarray
    states: np.ndarray  # (n_steps + 1, n_nodes)
    masses: np.ndarray
    min_values: np.ndarray
    dt: float
    theta: float
    lumped: bool
    controls: np.ndarray  # (n_steps + 1, 2n) stack of [ux, uy] rows
    lu: object
    fallbacks: int = 0  # steps that GMRES missed, solved by a refined LU

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    def mass_errors(self) -> np.ndarray:
        return np.abs(self.masses - self.masses[0])


def solve_equilibrium(ops: FemOperators, u: ControlField):
    """Unit-mass equilibrium density of L(u) q = 0 and its bordered factor.

    Solves the bordered system K [q; s] = [0; 1], K = [[L, F], [F^T, 0]].
    Because the columns of L sum to zero and 1^T F = |Omega| != 0, the
    auxiliary scalar s must vanish; |s| > 1e-8 signals a solve that lost
    accuracy.  The solution is renormalized to F.q = 1.  Returns (density,
    factor) with the factor (K, lu) of :func:`linalg.bordered_lu`: the pair
    is what :func:`adjoint.solve_adjoint_static` takes, whose one transposed
    solve reuses the factor.
    """
    L = state_matrix(ops, u)
    factor = bordered_lu(L, ops.F)
    raw, s = bordered_solve(factor, np.zeros(ops.n), 1.0)
    if abs(s) > 1e-8:
        raise SolverError(
            f"bordered equilibrium solve returned s={s:.3e}, not 0: "
            "the solve lost accuracy"
        )
    total = float(ops.F @ raw)
    if not np.isfinite(total) or abs(total) < 1e-300:
        raise SolverError("equilibrium solve produced a zero-mass kernel vector")
    q = raw / total

    residual = np.abs(L @ q).max()
    scale = np.abs(L.data).max() * max(np.abs(q).max(), 1e-300)
    if residual > 1e-10 * scale:
        raise SolverError(
            f"equilibrium residual {residual:.3e} exceeds 1e-10 * {scale:.3e}"
        )
    _warn_if_negative(q)
    return DensityField(values=q), factor


def _warn_if_negative(q: np.ndarray) -> None:
    """Warn NegativeDensityWarning when q has entries below -1e-9 max(q)."""
    if q.min() < -1e-9 * max(q.max(), 1e-300):
        # fixed message so the default warning filter collapses repeats;
        # the magnitude is available from the density itself
        warnings.warn(
            "equilibrium density has negative nodal entries beyond round-off",
            NegativeDensityWarning,
        )


def theta_sweep(
    ops: FemOperators,
    q0: np.ndarray | DensityField,
    controls,
    dt: float,
    theta: float = 1.0,
    lumped: bool = True,
    precond=None,
) -> Trajectory:
    """Theta-method sweep of M dq/dt + L(u) q = 0 on a uniform time grid.

    ``controls`` is an (n_t, 2n) stack of [ux, uy] rows, one per time node.
    Step i solves
    (M/dt + theta L_{i+1}) q_{i+1} = (M/dt - (1-theta) L_i) q_i by
    :func:`linalg.gmres_solve` from q_i, preconditioned by one LU: ``precond``
    (a nearby step matrix's LU) or else the LU of the last step matrix.
    The operators are CSR data on the tensor's pattern (only the LU's matrix
    is laid out as CSC); each node's L data is the implicit part of the step
    into it and the explicit part of the step out of it (the last node's
    makes the LU too).  The two step matrices are built once per sweep and
    each step overwrites their data, unless all rows equal row 0.  Returns
    the trajectory, which holds ``controls`` by reference and the LU.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    n_steps = len(controls) - 1
    constant = bool((controls == controls[0]).all())
    tensor = ops.tensor
    mass = ops.mass_data(lumped) / dt
    explicit, implicit = (tensor.csr(np.empty_like(mass)) for _ in range(2))

    states = np.empty((n_steps + 1, ops.n))
    states[0] = _vals(q0)
    lu, L_last = precond, ops.state_data(controls[-1])
    if lu is None:
        lu = lu_factor(tensor.csc(mass + theta * L_last))
    fallbacks, L = 0, L_last if constant else ops.state_data(controls[0])
    for i in range(n_steps):
        if i == 0 or not constant:
            explicit.data[:] = mass - (1.0 - theta) * L
            L = L_last if constant or i + 1 == n_steps else ops.state_data(controls[i + 1])
            implicit.data[:] = mass + theta * L
        states[i + 1], missed = gmres_solve(implicit, explicit @ states[i], lu, states[i])
        fallbacks += missed
    if not np.isfinite(states).all():
        raise SolverError(
            "theta sweep produced non-finite states; the implicit matrix is "
            "numerically singular (dt may be too large)"
        )
    return Trajectory(
        times=np.arange(n_steps + 1) * dt,
        states=states,
        masses=states @ ops.F,
        min_values=states.min(axis=1),
        dt=float(dt),
        theta=float(theta),
        lumped=lumped,
        controls=controls,
        lu=lu,
        fallbacks=fallbacks,
    )


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
    controls = np.stack([u_old.stacked(), u_new.stacked()])
    return DensityField(values=theta_sweep(ops, q, controls, dt, theta, lumped).states[1])


def _n_steps(T: float, dt: float) -> int:
    """Number of uniform steps of size dt in [0, T]; raises ValueError unless
    dt > 0 and T is a positive integer multiple of dt."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_steps = round(T / dt) if np.isfinite(T / dt) else 0
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(1.0, abs(T)):
        raise ValueError(f"T={T} is not a positive integer multiple of dt={dt}")
    return n_steps


def _controls_for_grid(control, n_steps):
    """The (n_steps + 1, 2n) stack of a control: a ControlField's row as a
    read-only broadcast view, or a time-varying stack checked against the grid."""
    if isinstance(control, ControlField):
        row = control.stacked()
        return np.broadcast_to(row, (n_steps + 1, row.size))
    controls = np.asarray(control, dtype=float)
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

    ``control`` is either a single ControlField, held constant, or an
    (n_t, 2n) stack of [ux, uy] rows, one per time node.
    """
    controls = _controls_for_grid(control, _n_steps(T, dt))
    return theta_sweep(ops, q0, controls, dt, theta, lumped)
