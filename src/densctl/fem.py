"""P1 finite-element operators on triangular meshes.

Assembles, once each and straight onto the triangle-adjacency pattern (pairs
of nodes that share a triangle): the consistent mass matrix M, its lumped
diagonal, the nodal integral vector F (row sums of M), the unscaled stiffness
A_u of the control's H1 cost (the control shares the state space, so M also
serves it), the drift-free state operator mu A_u - B of an optional analytic
drift field's transport matrix B, and the sparse rank-3 advection coupling
tensor as one [T_x | T_y] matrix, all as CSR pattern data (CSC only for
the sparse LU); and :func:`sq_norms`, the row-block metric-norm kernel of
every state and control stack.

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

    The (i, j) sparsity pattern (nodes sharing a triangle) is stored once as
    the CSR arrays (indptr, indices).  K = [T_x | T_y], one (n_pattern, 2n)
    CSR matrix, maps stacked [ux, uy] controls to pattern data and K^T maps
    it back, so each contraction is one sparse product, O(nnz).  Operators
    are pattern data in CSR order; :meth:`csc` lays one out as CSC for the LU.
    """

    def __init__(self, n_state, indptr, indices, K):
        self.n_state = int(n_state)
        self._indptr = indptr
        self._indices = indices
        self.pattern_rows = np.repeat(np.arange(self.n_state), np.diff(indptr))
        self.pattern_cols = indices.astype(np.int64)
        self.K = K
        self._K_T = K.T.tocsr()  # for the gradient
        # the pattern is symmetric: position of (j, i) for each (i, j)
        rows, cols = self.pattern_rows, self.pattern_cols
        self.transpose = np.searchsorted(rows * n_state + cols, cols * n_state + rows)

    def contract_data(self, u: np.ndarray) -> np.ndarray:
        """Pattern data of C(u) with C_ij = sum_k (Tx_ijk ux_k + Ty_ijk uy_k),
        for a stacked [ux, uy] vector u (K's shape rejects any other)."""
        return self.K @ u

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

    def gradient_contraction(self, lam: np.ndarray, q: np.ndarray) -> np.ndarray:
        """The stacked [gx, gy] vector, g_ck = sum_ij lam_i T_c,ijk q_j."""
        lam = np.asarray(lam, dtype=float)
        q = np.asarray(q, dtype=float)
        if lam.shape != (self.n_state,) or q.shape != (self.n_state,):
            raise ValueError("lambda and q must be state-space vectors")
        return self._K_T @ (lam[self.pattern_rows] * q[self.pattern_cols])


@dataclass(frozen=True, eq=False)
class FemOperators:
    """All assembled operators for one mesh and diffusion coefficient, one
    copy each, on the tensor's pattern.

    M is the consistent mass matrix and A_u the unscaled pure-Neumann
    stiffness matrix; both are CSR matrices whose data is pattern data, and
    both act on each control component (the control space equals the state
    space).  L0_data = mu A_u - B (B the transport matrix of the drift, if
    any) and M_lumped_data (the row sums of M on the diagonal) are pattern
    data only.  F = M 1 holds the nodal integrals of the basis functions, so
    F.q is the mass of a FEM function.  Compared and hashed by identity.
    """

    mesh: Mesh
    M: sp.csr_matrix
    F: np.ndarray
    tensor: AdvectionTensor
    A_u: sp.csr_matrix
    L0_data: np.ndarray
    M_lumped_data: np.ndarray

    @property
    def n(self) -> int:
        return self.F.size

    def mass_data(self, lumped: bool) -> np.ndarray:
        return self.M_lumped_data if lumped else self.M.data

    def state_data(self, u: np.ndarray) -> np.ndarray:
        """Pattern data of the state matrix L(u) = mu A_u - C(u) - B, for a
        stacked [ux, uy] vector u."""
        return self.L0_data - self.tensor.contract_data(u)


def _triangle_geometry(mesh: Mesh):
    """Areas and the constant basis gradients (gx, gy), each (nt, 3)."""
    areas = mesh.triangle_areas()
    x, y = (mesh.vertices[mesh.triangles, d] for d in range(2))
    area2 = (2.0 * areas)[:, None]
    # grad phi_a = (y_{a+1} - y_{a+2}, x_{a+2} - x_{a+1}) / (2 area), indices mod 3
    gx = (np.roll(y, -1, axis=1) - np.roll(y, -2, axis=1)) / area2
    gy = (np.roll(x, -2, axis=1) - np.roll(x, -1, axis=1)) / area2
    return areas, gx, gy


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

# local index pairs (a, b), a-major: the rows of every (9, nt) element-entry array
_A, _B = np.divmod(np.arange(9), 3)


def assemble_operators(mesh: Mesh, mu: float, drift=None) -> FemOperators:
    """Assemble every discrete operator for the given mesh.

    Parameters
    ----------
    mesh : validated Mesh
    mu : diffusion coefficient (> 0), folded into L0_data
    drift : optional callable (x, y) -> (bx, by), evaluated with a 7-point
        degree-5 rule to build the transport matrix B with
        B_ij = ∫ (b . grad phi_i) phi_j
    """
    if mu <= 0:
        raise ValueError(f"diffusion coefficient must be positive, got {mu}")
    n = mesh.n_vertices
    tris = mesh.triangles
    areas, gx, gy = _triangle_geometry(mesh)
    rows, cols = tris[:, _A].T.ravel(), tris[:, _B].T.ravel()

    def on_pattern(local):
        # summing element entries from COO keeps explicit zeros, so every
        # operator comes out on exactly the same pattern
        return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()

    M = on_pattern(areas / 12.0 * np.where(_A == _B, 2.0, 1.0)[:, None])
    K = on_pattern(areas * (gx[:, _A] * gx[:, _B] + gy[:, _A] * gy[:, _B]).T)
    F = np.asarray(M.sum(axis=1)).ravel()
    L0_data = mu * K.data
    if drift is not None:
        L0_data = L0_data - on_pattern(_drift_entries(mesh, areas, gx, gy, drift)).data

    tensor = _assemble_tensor(mesh, areas, gx, gy, M.indptr, M.indices)
    diagonal = tensor.pattern_rows == tensor.pattern_cols
    return FemOperators(
        mesh=mesh,
        M=tensor.csr(M.data),
        F=F,
        tensor=tensor,
        A_u=tensor.csr(K.data),
        L0_data=L0_data,
        M_lumped_data=np.where(diagonal, F[tensor.pattern_rows], 0.0),
    )


def _assemble_tensor(mesh: Mesh, areas, gx, gy, indptr, indices) -> AdvectionTensor:
    # entry (i, j, k): the basis gradient is constant per triangle, so
    # ∫ (d phi_a / dc) phi_b phi_c = g_ac * area/12 * (1 + delta_bc), exact
    tris = mesh.triangles
    n = mesh.n_vertices
    # CSR order sorts the pattern's keys i n + j, so a search locates each (i, j);
    # the 27 rows of the element entries run over (a, b, c), a-major
    keys = np.repeat(np.arange(n), np.diff(indptr)) * n + indices
    pos = np.repeat(np.searchsorted(keys, (tris[:, _A] * n + tris[:, _B]).T), 3, axis=0)
    a, b, c = np.repeat(_A, 3), np.repeat(_B, 3), np.tile(np.arange(3), 9)
    w = areas / 12.0 * np.where(b == c, 2.0, 1.0)[:, None]
    data = np.concatenate([gx[:, a].T * w, gy[:, a].T * w]).ravel()
    # K = [T_x | T_y], the y columns offset by n; int32 coordinates, scipy's
    # index type here, spare tocsr a converted copy (0.8 MB at n 1014)
    rows, k = pos.ravel().astype(np.int32), tris[:, c].T.ravel().astype(np.int32)
    index = (np.tile(rows, 2), np.concatenate([k, k + n]))
    K = sp.coo_matrix((data, index), shape=(keys.size, 2 * n)).tocsr()
    return AdvectionTensor(n, indptr, indices, K)


def _drift_entries(mesh: Mesh, areas, gx, gy, drift) -> np.ndarray:
    """(9, nt) element entries of B, rows in the order of (_A, _B)."""
    corners = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    pts = np.einsum("qa,tad->tqd", _Q7_POINTS, corners)  # (nt, 7, 2)
    bx, by = drift(pts[..., 0], pts[..., 1])
    bx = np.broadcast_to(np.asarray(bx, dtype=float), pts[..., 0].shape)
    by = np.broadcast_to(np.asarray(by, dtype=float), pts[..., 0].shape)
    if not (np.isfinite(bx).all() and np.isfinite(by).all()):
        bad = np.argwhere(~(np.isfinite(bx) & np.isfinite(by)))[0]
        x, y = pts[bad[0], bad[1]]
        raise ValueError(f"drift field is not finite at quadrature point ({x:g}, {y:g})")
    # b . grad phi_a at each quadrature point of each triangle, (3, nt, 7)
    flux = bx * gx.T[:, :, None] + by * gy.T[:, :, None]
    return areas * (_Q7_WEIGHTS * flux[_A] * _Q7_POINTS.T[_B, None, :]).sum(axis=2)


# Rows per block of sq_norms: about 2 MB per temporary at paper scale (n ~ 3800).
_ROW_BLOCK = 64


def per_component(H, U: np.ndarray) -> np.ndarray:
    """H applied to every length-n block of U, a stacked [ux, uy] vector or an
    (n_t, 2n) stack of them, in one sparse matmat."""
    return (H @ U.reshape(-1, H.shape[0]).T).T.reshape(U.shape)


def sq_norms(H, X: np.ndarray, ref=0.0) -> np.ndarray:
    """Per row of X - ref, its squared H-norm summed over its length-n blocks,
    ``_ROW_BLOCK`` rows at a time: no copy of the whole stack is made, and
    each row has the bits of one einsum over the whole stack."""
    blocks = (X[i : i + _ROW_BLOCK] - ref for i in range(0, len(X), _ROW_BLOCK))
    return np.concatenate([np.einsum("ij,ij->i", D, per_component(H, D)) for D in blocks])


def state_matrix(ops: FemOperators, u: ControlField) -> sp.csc_matrix:
    """State operator L(u) = mu A_u - C(u) - B, in CSC form: the form that
    :func:`linalg.bordered_lu` and :func:`linalg.lu_factor` take, so it is
    factorized with no conversion.

    Columns of L(u) sum to zero (1^T L = 0), so F.q is invariant under the
    dynamics M dq/dt = -L(u) q, and the equilibrium spans its 1-D kernel.
    """
    return ops.tensor.csc(ops.state_data(u.stacked()))
