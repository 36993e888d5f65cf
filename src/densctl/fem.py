"""P1 finite-element operators on triangular meshes.

Assembles the diffusion-scaled stiffness matrix A, the consistent and lumped
mass matrices, the nodal integral vector F (row sums of M), the sparse rank-3
advection coupling tensors, the unscaled stiffness A_u of the control's H1
cost (the control shares the state space, so M also serves it), and
optionally the transport matrix of an analytic drift field.

Sign and index conventions are pinned by two properties that the assembled
system must satisfy for every control u (both are enforced by tests):

* columns of the advected state matrix L(u) sum to zero, so that the total
  mass F.q is conserved by the dynamics;
* the control gradient assembled from the tensor matches finite differences
  of the reduced cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh

__all__ = [
    "ControlField",
    "AdvectionTensor",
    "FemOperators",
    "assemble_operators",
    "state_matrix",
]


@dataclass(frozen=True)
class ControlField:
    """Nodal velocity coefficients, one pair (ux, uy) per control node."""

    ux: np.ndarray
    uy: np.ndarray

    def __post_init__(self):
        ux = np.asarray(self.ux, dtype=float)
        uy = np.asarray(self.uy, dtype=float)
        if ux.shape != uy.shape or ux.ndim != 1:
            raise ValueError("ux and uy must be 1-D arrays of equal length")
        object.__setattr__(self, "ux", ux)
        object.__setattr__(self, "uy", uy)

    @classmethod
    def zeros(cls, n: int) -> "ControlField":
        return cls(np.zeros(n), np.zeros(n))

    @classmethod
    def from_stacked(cls, vec: np.ndarray) -> "ControlField":
        vec = np.asarray(vec, dtype=float)
        if vec.ndim != 1 or vec.size % 2:
            raise ValueError("stacked control must have even length")
        n = vec.size // 2
        return cls(vec[:n].copy(), vec[n:].copy())

    @property
    def n(self) -> int:
        return self.ux.size

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.ux, self.uy])

    def magnitudes(self) -> np.ndarray:
        return np.hypot(self.ux, self.uy)


class AdvectionTensor:
    """Sparse rank-3 tensors T_c with entries ∫ (∂phi_i/∂c) phi_j phi_k, c in {x, y}.

    The (i, j) sparsity pattern (nodes sharing a triangle) is stored once in
    CSR order; per-component matrices map a control vector to the pattern
    data, so both the contraction to an (n, n) advection matrix and the
    control-space gradient contraction run in O(nnz).  A, M and B_drift live
    on the same pattern, so every state-space operator is a data array on it.
    """

    def __init__(self, n_state, rows, cols, kx, ky):
        self.n_state = int(n_state)
        self.pattern_rows = rows
        self.pattern_cols = cols
        self.kx = kx  # (n_pattern, n_state) CSR
        self.ky = ky
        self._indptr = np.searchsorted(rows, np.arange(n_state + 1)).astype(np.int32)
        self._indices = cols.astype(np.int32)
        # the pattern is symmetric: position of (j, i) for each (i, j)
        self.transpose = np.searchsorted(rows * n_state + cols, cols * n_state + rows)

    def contract_data(self, u: ControlField) -> np.ndarray:
        """Pattern data of C(u) with C_ij = sum_k (Tx_ijk ux_k + Ty_ijk uy_k)."""
        if u.n != self.n_state:
            raise ValueError(f"control has {u.n} nodes, tensor expects {self.n_state}")
        return self.kx @ u.ux + self.ky @ u.uy

    def contract(self, u: ControlField) -> sp.csr_matrix:
        return self.csr(self.contract_data(u))

    def csr(self, data: np.ndarray) -> sp.csr_matrix:
        """The matrix with the given pattern data, in CSR form."""
        n = self.n_state
        return sp.csr_matrix((data, self._indices, self._indptr), shape=(n, n))

    def csc(self, data: np.ndarray) -> sp.csc_matrix:
        """The same matrix in CSC form (the CSR arrays of its transpose)."""
        n = self.n_state
        return sp.csc_matrix(
            (data[self.transpose], self._indices, self._indptr), shape=(n, n)
        )

    def on_pattern(self, mat) -> np.ndarray:
        """Pattern data of a sparse matrix whose nonzeros lie on the pattern."""
        return np.asarray(sp.csr_matrix(mat)[self.pattern_rows, self.pattern_cols]).ravel()

    def gradient_contraction(self, lam: np.ndarray, q: np.ndarray):
        """Vectors g_c with g_ck = sum_ij lam_i T_c,ijk q_j, for c in {x, y}."""
        lam = np.asarray(lam, dtype=float)
        q = np.asarray(q, dtype=float)
        if lam.shape != (self.n_state,) or q.shape != (self.n_state,):
            raise ValueError("lambda and q must be state-space vectors")
        w = lam[self.pattern_rows] * q[self.pattern_cols]
        return self.kx.T @ w, self.ky.T @ w

    def dense(self):
        """Dense (n, n, n) arrays (Tx, Ty); only for small oracle meshes."""
        tx = np.zeros((self.n_state,) * 3)
        ty = np.zeros_like(tx)
        for mat, out in ((self.kx.tocoo(), tx), (self.ky.tocoo(), ty)):
            out[
                self.pattern_rows[mat.row], self.pattern_cols[mat.row], mat.col
            ] += mat.data
        return tx, ty


@dataclass(frozen=True, eq=False)
class FemOperators:
    """All assembled operators for one mesh and diffusion coefficient.

    A is the mu-scaled pure-Neumann stiffness matrix, M the consistent mass
    matrix, M_lumped its row-sum diagonal, and F = M 1 the nodal integrals of
    the basis functions (so F.q is the mass of a FEM function).  M and the
    unscaled stiffness A_u act on each control component; the control space
    equals the state space.
    L0_data, M_data and M_lumped_data are A - B_drift, M and M_lumped as data
    on the tensor's pattern.  Compared and hashed by identity.
    """

    mesh: Mesh
    A: sp.csr_matrix
    M: sp.csr_matrix
    M_lumped: sp.dia_matrix
    F: np.ndarray
    tensor: AdvectionTensor
    A_u: sp.csr_matrix
    B_drift: sp.csr_matrix | None
    L0_data: np.ndarray
    M_data: np.ndarray
    M_lumped_data: np.ndarray

    @property
    def n(self) -> int:
        return self.F.size

    def mass_data(self, lumped: bool) -> np.ndarray:
        return self.M_lumped_data if lumped else self.M_data

    def state_data(self, u) -> np.ndarray:
        """Pattern data of the state matrix L(u) = A - C(u) - B_drift, for a
        ControlField or a stacked [ux, uy] vector."""
        if not isinstance(u, ControlField):
            u = ControlField.from_stacked(u)
        return self.L0_data - self.tensor.contract_data(u)


def _triangle_geometry(mesh: Mesh):
    verts = mesh.vertices
    tris = mesh.triangles
    p1, p2, p3 = (verts[tris[:, a]] for a in range(3))
    area2 = (p2[:, 0] - p1[:, 0]) * (p3[:, 1] - p1[:, 1]) - (p2[:, 1] - p1[:, 1]) * (
        p3[:, 0] - p1[:, 0]
    )
    gx = np.stack(
        [p2[:, 1] - p3[:, 1], p3[:, 1] - p1[:, 1], p1[:, 1] - p2[:, 1]], axis=1
    ) / area2[:, None]
    gy = np.stack(
        [p3[:, 0] - p2[:, 0], p1[:, 0] - p3[:, 0], p2[:, 0] - p1[:, 0]], axis=1
    ) / area2[:, None]
    return 0.5 * area2, gx, gy


# 7-point degree-5 quadrature rule in barycentric coordinates
_Q7_A = (6.0 - np.sqrt(15.0)) / 21.0
_Q7_B = (6.0 + np.sqrt(15.0)) / 21.0
_Q7_POINTS = np.array(
    [
        [1 / 3, 1 / 3, 1 / 3],
        [_Q7_A, _Q7_A, 1 - 2 * _Q7_A],
        [_Q7_A, 1 - 2 * _Q7_A, _Q7_A],
        [1 - 2 * _Q7_A, _Q7_A, _Q7_A],
        [_Q7_B, _Q7_B, 1 - 2 * _Q7_B],
        [_Q7_B, 1 - 2 * _Q7_B, _Q7_B],
        [1 - 2 * _Q7_B, _Q7_B, _Q7_B],
    ]
)
_Q7_WEIGHTS = np.array(
    [9.0 / 40.0]
    + [(155.0 - np.sqrt(15.0)) / 1200.0] * 3
    + [(155.0 + np.sqrt(15.0)) / 1200.0] * 3
)


def assemble_operators(mesh: Mesh, mu: float, drift=None) -> FemOperators:
    """Assemble every discrete operator for the given mesh.

    Parameters
    ----------
    mesh : validated Mesh
    mu : diffusion coefficient (> 0), folded into A
    drift : optional callable (x, y) -> (bx, by), evaluated with a 7-point
        degree-5 rule to build the transport matrix B with
        B_ij = ∫ (b . grad phi_i) phi_j
    """
    if mu <= 0:
        raise ValueError(f"diffusion coefficient must be positive, got {mu}")
    n = mesh.n_vertices
    tris = mesh.triangles
    areas, gx, gy = _triangle_geometry(mesh)

    rows, cols, m_data, k_data = [], [], [], []
    for a in range(3):
        for b in range(3):
            rows.append(tris[:, a])
            cols.append(tris[:, b])
            m_data.append(areas / 12.0 * (2.0 if a == b else 1.0))
            k_data.append(areas * (gx[:, a] * gx[:, b] + gy[:, a] * gy[:, b]))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    M = sp.coo_matrix((np.concatenate(m_data), (rows, cols)), shape=(n, n)).tocsr()
    K = sp.coo_matrix((np.concatenate(k_data), (rows, cols)), shape=(n, n)).tocsr()

    F = np.asarray(M.sum(axis=1)).ravel()
    M_lumped = sp.diags(F).todia()
    A = (mu * K).tocsr()

    tensor = _assemble_tensor(mesh, areas, gx, gy)
    B_drift = _assemble_drift(mesh, areas, gx, gy, drift) if drift is not None else None
    L0 = A if B_drift is None else A - B_drift

    return FemOperators(
        mesh=mesh,
        A=A,
        M=M,
        M_lumped=M_lumped,
        F=F,
        tensor=tensor,
        A_u=K,
        B_drift=B_drift,
        L0_data=tensor.on_pattern(L0),
        M_data=tensor.on_pattern(M),
        M_lumped_data=tensor.on_pattern(M_lumped),
    )


def _assemble_tensor(mesh: Mesh, areas, gx, gy) -> AdvectionTensor:
    # entry (i, j, k): the basis gradient is constant per triangle, so
    # ∫ (d phi_a / dc) phi_b phi_c = g_ac * area/12 * (1 + delta_bc), exact
    tris = mesh.triangles
    n = mesh.n_vertices
    ti, tj, tk, vx, vy = [], [], [], [], []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                w = areas / 12.0 * (2.0 if b == c else 1.0)
                ti.append(tris[:, a])
                tj.append(tris[:, b])
                tk.append(tris[:, c])
                vx.append(gx[:, a] * w)
                vy.append(gy[:, a] * w)
    ti = np.concatenate(ti)
    tj = np.concatenate(tj)
    tk = np.concatenate(tk)
    vx = np.concatenate(vx)
    vy = np.concatenate(vy)

    pair_key = ti * n + tj
    uniq, pair_id = np.unique(pair_key, return_inverse=True)
    rows = (uniq // n).astype(np.int64)
    cols = (uniq % n).astype(np.int64)
    npat = uniq.size
    kx = sp.coo_matrix((vx, (pair_id, tk)), shape=(npat, n)).tocsr()
    ky = sp.coo_matrix((vy, (pair_id, tk)), shape=(npat, n)).tocsr()
    # np.unique sorts keys, so (rows, cols) are already in CSR order
    return AdvectionTensor(n, rows, cols, kx, ky)


def _assemble_drift(mesh: Mesh, areas, gx, gy, drift) -> sp.csr_matrix:
    tris = mesh.triangles
    n = mesh.n_vertices
    corners = mesh.vertices[tris]  # (nt, 3, 2)
    pts = np.einsum("qa,tad->tqd", _Q7_POINTS, corners)  # (nt, 7, 2)
    bx, by = drift(pts[..., 0], pts[..., 1])
    bx = np.broadcast_to(np.asarray(bx, dtype=float), pts[..., 0].shape)
    by = np.broadcast_to(np.asarray(by, dtype=float), pts[..., 0].shape)
    if not (np.isfinite(bx).all() and np.isfinite(by).all()):
        bad = np.argwhere(~(np.isfinite(bx) & np.isfinite(by)))[0]
        x, y = pts[bad[0], bad[1]]
        raise ValueError(f"drift field is not finite at quadrature point ({x:g}, {y:g})")

    rows, cols, data = [], [], []
    for a in range(3):
        # b . grad phi_a at each quadrature point of each triangle
        flux = bx * gx[:, a, None] + by * gy[:, a, None]
        for b in range(3):
            w = (_Q7_WEIGHTS[None, :] * flux * _Q7_POINTS[None, :, b]).sum(axis=1)
            rows.append(tris[:, a])
            cols.append(tris[:, b])
            data.append(areas * w)
    B = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()
    B.eliminate_zeros()
    return B


def state_matrix(ops: FemOperators, u: ControlField) -> sp.csr_matrix:
    """State operator L(u) = A - C(u) - B_drift.

    Columns of L(u) sum to zero (1^T L = 0), so F.q is invariant under the
    dynamics M dq/dt = -L(u) q, and the equilibrium spans its 1-D kernel.
    """
    return ops.tensor.csr(ops.state_data(u))
