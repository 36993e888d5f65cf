"""Numerical certificates for the structural properties of the dynamics.

Checks, with explicit margins: the 1-D kernel of the state matrix and the
constant left kernel of its transpose, positivity of the kernel vector,
spectral positivity of the symmetric part on the zero-mean subspace, and
monotone decay of the quadratic Lyapunov function along trajectories.
Everything here reports computed numbers; nothing is assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fem import ControlField, FemOperators, state_matrix
from .mesh import Mesh, boundary_edge_normals
from .state import Trajectory, _vals

__all__ = [
    "KernelCertificate",
    "CertificateReport",
    "certify_kernel",
    "certify_spectral_positivity",
    "zero_mean_basis",
    "l2_distance",
    "lyapunov_values",
    "convergence_report",
    "certify",
    "boundary_node_normals",
    "tangency_report",
]

DENSE_LIMIT = 2000


@dataclass(frozen=True)
class KernelCertificate:
    dim: int | None  # numerical kernel dimension (dense path only)
    kernel_vector: np.ndarray | None
    left_kernel_residual: float  # ||1^T L||_inf / ||L||_inf
    adjoint_kernel_residual: float  # ||L^T 1||_inf / ||L||_inf
    gap_ratio: float | None  # sigma_{n-2} / sigma_{n-1}
    kernel_min_entry: float | None  # after sign normalization
    dense_path: bool


@dataclass(frozen=True)
class CertificateReport:
    kernel_dim_state: int | None
    left_kernel_residual: float
    min_symmetric_eigenvalue_on_M0: float | None
    lyapunov_monotone: bool | None
    details: dict = field(default_factory=dict)


def certify_kernel(
    ops: FemOperators, u: ControlField, dense_limit: int = DENSE_LIMIT
) -> KernelCertificate:
    """Kernel structure of the state matrix for one control.

    Always verifies the algebraic left/right kernel residuals of L(u) and
    L(u)^T against the constant vector.  On meshes up to ``dense_limit``
    nodes it additionally runs a dense SVD to certify that the numerical
    rank is n-1 (singular-value gap ratio) and that the kernel vector is
    strictly one-signed.
    """
    L = state_matrix(ops, u)
    norm = np.abs(L).max() if L.nnz else 1.0
    ones = np.ones(ops.n)
    left_res = float(np.abs(ones @ L).max() / norm)
    adj_res = float(np.abs(L.T @ ones).max() / norm)

    if ops.n > dense_limit:
        return KernelCertificate(
            dim=None,
            kernel_vector=None,
            left_kernel_residual=left_res,
            adjoint_kernel_residual=adj_res,
            gap_ratio=None,
            kernel_min_entry=None,
            dense_path=False,
        )

    dense = L.toarray()
    _, svals, vt = np.linalg.svd(dense)
    tiny = np.finfo(float).tiny
    gap = float(svals[-2] / max(svals[-1], tiny))
    # rank n-1 is certified by one singular value separated from the rest;
    # an ambiguous gap is reported as dim=None, never silently passed
    dim = 1 if gap > 1e3 else None
    v = vt[-1]
    v = v * np.sign(v[np.argmax(np.abs(v))])
    return KernelCertificate(
        dim=dim,
        kernel_vector=v,
        left_kernel_residual=left_res,
        adjoint_kernel_residual=adj_res,
        gap_ratio=gap,
        kernel_min_entry=float(v.min()),
        dense_path=True,
    )


def zero_mean_basis(F: np.ndarray) -> np.ndarray:
    """Orthonormal basis of {w : F.w = 0} from the spanning set e_1 - (F_1/F_k) e_k."""
    n = F.size
    raw = np.zeros((n, n - 1))
    raw[0, :] = 1.0
    for k in range(1, n):
        raw[k, k - 1] = -F[0] / F[k]
    Q, _ = np.linalg.qr(raw)
    return Q


def certify_spectral_positivity(
    ops: FemOperators, u: ControlField, dense_limit: int = DENSE_LIMIT
) -> float:
    """Smallest eigenvalue of sym(B^T L(u) B) on the zero-mean subspace.

    A positive value certifies exponential decay of the quadratic Lyapunov
    function; a negative value is reported as-is (trajectory monotonicity is
    the sharper check in that case).
    """
    if ops.n > dense_limit:
        raise ValueError(f"dense spectral certificate limited to {dense_limit} nodes")
    B = zero_mean_basis(ops.F)
    reduced = B.T @ (state_matrix(ops, u).toarray() @ B)
    sym = 0.5 * (reduced + reduced.T)
    return float(np.linalg.eigvalsh(sym)[0])


def l2_distance(a, b, M) -> float:
    """M-weighted distance sqrt((a-b)^T M (a-b))."""
    d = _vals(a) - _vals(b)
    return float(np.sqrt(max(d @ (M @ d), 0.0)))


def lyapunov_values(trajectory: Trajectory, reference, M) -> np.ndarray:
    """l(q_i) = 1/2 (q_i - ref)^T M (q_i - ref) along a trajectory."""
    ref = _vals(reference)
    diffs = trajectory.states - ref
    return 0.5 * np.einsum("ij,ij->i", diffs, (M @ diffs.T).T)


def convergence_report(trajectory: Trajectory, reference, ops: FemOperators):
    """Per-step distances to a reference density.

    Returns (rows, monotone, final) where rows are
    (step, time, l2_distance, lyapunov) tuples.
    """
    ref = _vals(reference)
    lyap = lyapunov_values(trajectory, ref, ops.M)
    dists = np.sqrt(2.0 * lyap)
    rows = [
        (i, float(trajectory.times[i]), float(dists[i]), float(lyap[i]))
        for i in range(len(dists))
    ]
    monotone = bool(np.all(np.diff(lyap) <= 1e-12 * max(lyap[0], 1.0)))
    return rows, monotone, float(dists[-1])


def certify(
    ops: FemOperators,
    u: ControlField,
    trajectory: Trajectory | None = None,
    reference=None,
    dense_limit: int = DENSE_LIMIT,
) -> CertificateReport:
    """Aggregate certificate used by the command-line runner."""
    kc = certify_kernel(ops, u, dense_limit)
    details = {
        "adjoint_kernel_residual": kc.adjoint_kernel_residual,
        "gap_ratio": kc.gap_ratio,
        "kernel_min_entry": kc.kernel_min_entry,
        "dense_path": kc.dense_path,
    }
    min_eig = None
    if ops.n <= dense_limit:
        min_eig = certify_spectral_positivity(ops, u, dense_limit)
    monotone = None
    if trajectory is not None and reference is not None:
        _, monotone, final = convergence_report(trajectory, reference, ops)
        details["final_l2_distance"] = final
    return CertificateReport(
        kernel_dim_state=kc.dim,
        left_kernel_residual=kc.left_kernel_residual,
        min_symmetric_eigenvalue_on_M0=min_eig,
        lyapunov_monotone=monotone,
        details=details,
    )


def boundary_node_normals(mesh: Mesh):
    """Outward unit normals at boundary vertices (length-weighted edge average).

    Returns (node_indices, normals).
    """
    half = 0.5 * boundary_edge_normals(mesh)
    acc = np.zeros((mesh.n_vertices, 2))
    for ends in mesh.boundary_edges.T:
        np.add.at(acc, ends, half)
    nodes = np.unique(mesh.boundary_edges).astype(np.int64)
    normals = acc[nodes] / np.linalg.norm(acc[nodes], axis=1, keepdims=True)
    return nodes, normals


def tangency_report(mesh: Mesh, u: ControlField):
    """max |u.n| / max |u| over boundary nodes (control tangency diagnostic)."""
    nodes, normals = boundary_node_normals(mesh)
    un = u.ux[nodes] * normals[:, 0] + u.uy[nodes] * normals[:, 1]
    umax = float(u.magnitudes().max())
    if umax == 0.0:
        return 0.0, umax
    return float(np.abs(un).max() / umax), umax
