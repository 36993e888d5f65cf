"""Velocity-field density control on 2D triangular finite-element meshes.

Computes static velocity fields whose induced equilibrium density tracks a
target distribution, time-varying fields that accelerate convergence toward
that equilibrium, and validates the controlled dynamics both at the PDE
level (mass conservation, positivity, Lyapunov decay) and with particle
simulations of the underlying stochastic agents.
"""

from .adjoint import (
    AdjointField,
    AdjointTrajectory,
    solve_adjoint_dynamic,
    solve_adjoint_static,
)
from .analysis import (
    certify_kernel,
    certify_spectral_positivity,
    convergence_report,
    l2_distance,
    lyapunov_values,
)
from .fem import (
    AdvectionTensor,
    ControlField,
    FemOperators,
    assemble_operators,
    state_matrix,
)
from .fields import DRIFT_PRESETS, gaussian_density, indicator_density, uniform_density
from .linalg import SolverError, bordered_lu, bordered_solve
from .mesh import (
    Circle,
    GeometryError,
    Mesh,
    MeshFormatError,
    MeshQualityReport,
    MeshTopologyError,
    Rect,
    check_mesh_quality,
    generate_rect_mesh,
    load_mesh,
    validate_mesh,
    write_mesh,
)
from .ocp_dynamic import DynamicSolution, evaluate_dynamic_cost, solve_dynamic_ocp
from .ocp_static import (
    ArmijoParams,
    OcpConfig,
    StaticSolution,
    armijo_backtracking,
    evaluate_cost,
    reduced_gradient,
    solve_static_ocp,
)
from .particles import (
    MeshDomain,
    ParticleEnsemble,
    TriangleLocator,
    empirical_density,
    sample_initial,
    step_particles,
)
from .state import (
    DensityField,
    Trajectory,
    normalized_density,
    simulate,
    solve_equilibrium,
    step_theta,
)

__version__ = "0.1.0"
