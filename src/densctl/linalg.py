"""Sparse solves shared by the equilibrium, adjoint, and stepping code."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

__all__ = ["SolverError", "lu_factor", "bordered_lu", "bordered_solve", "gmres_solve"]


class SolverError(Exception):
    """A linear solve failed or produced an inconsistent result."""


# Column orders kept, one per sparsity pattern, most recently used last.
# Few patterns recur in a run: the bordered state matrix, and the mesh
# pattern that the step matrices and H share.
_ORDERS_KEPT = 8
_orders = {}


class _ColumnOrder:
    """SuperLU's column order of one sparsity pattern, with the gather that
    lays a matrix's CSC data out as A[order][:, order]."""

    def __init__(self, A, perm_c):
        # column (and row) j of A[order][:, order] is column (row) order[j] of A
        self.perm_c, self.order = perm_c, np.argsort(perm_c)
        starts, ends = A.indptr[self.order], A.indptr[self.order + 1]
        sizes = ends - starts
        self.indptr = np.concatenate([[0], np.cumsum(sizes)]).astype(A.indptr.dtype)
        self.gather = np.arange(A.nnz) - np.repeat(self.indptr[:-1] - starts, sizes)
        # Rows are relabelled like the columns, so A's diagonal stays on the
        # diagonal, towards which SuperLU breaks ties between equal pivots.
        # Each column keeps A's storage order (unsorted in the new labels):
        # SuperLU visits a column's rows in storage order, so it then does
        # the same arithmetic as splu(A).
        self.indices = perm_c[A.indices[self.gather]].astype(A.indices.dtype)

    def factor(self, A):
        """The LU of A in the kept order, with SuperLU's ordering step off."""
        B = sp.csc_matrix((A.data[self.gather], self.indices, self.indptr), shape=A.shape)
        B.has_canonical_format = True  # so splu keeps the storage order
        return _PermutedLU(_splu(B, permc_spec="NATURAL"), self.order, self.perm_c)


@dataclass(frozen=True)
class _PermutedLU:
    """The LU of A[order][:, order], solving with A exactly as ``splu(A)`` does."""

    lu: object  # SuperLU
    order: np.ndarray
    perm_c: np.ndarray

    def solve(self, b, trans="N"):
        return self.lu.solve(np.asarray(b)[self.order], trans=trans)[self.perm_c]


def _splu(A, **options):
    try:
        return splu(A, **options)
    except RuntimeError as exc:  # SuperLU signals singularity this way
        raise SolverError(f"sparse LU factorization failed: {exc}") from exc


def lu_factor(matrix):
    """Sparse LU of a square matrix; raises SolverError when singular.

    SuperLU's COLAMD column order depends only on the sparsity pattern, so it
    is computed once per pattern: the first matrix of a pattern is factorized
    by ``splu`` as is and its ``perm_c`` kept (for the last ``_ORDERS_KEPT``
    patterns, keyed by the pattern's content).  A later matrix of the pattern
    is permuted symmetrically into that order and factorized with no ordering
    step, which gives the same L and U up to the row and column labels; its
    ``solve(b, trans)`` undoes the order and returns bit for bit what
    ``splu(A).solve`` does.
    """
    A = sp.csc_matrix(matrix)
    A.sum_duplicates()  # as splu does; the key is the canonical pattern
    key = (A.shape, A.indptr.tobytes(), A.indices.tobytes())
    order = _orders.pop(key, None)
    first = order is None
    if first:
        lu = _splu(A)
        order = _ColumnOrder(A, lu.perm_c)
    _orders[key] = order
    if len(_orders) > _ORDERS_KEPT:
        del _orders[next(iter(_orders))]
    return lu if first else order.factor(A)


def bordered_lu(matrix, border):
    """The bordered matrix K = [[A, f], [f^T, 0]] and its sparse LU, as (K, lu).

    A may be singular with a 1-D kernel; the border restores unique
    solvability.  K^T = [[A^T, f], [f^T, 0]], so the same LU also solves the
    bordered system of A^T.  K is built from A's canonical CSC arrays: the
    nonzero f_j goes after column j's entries, in row n, and f's nonzeros
    make column n; it equals ``sp.bmat`` of the blocks array for array.
    """
    A = sp.csc_matrix(matrix)
    A.sum_duplicates()
    n, f = A.shape[0], np.asarray(border, dtype=float)
    nz = np.flatnonzero(f)
    ends = A.indptr[nz + 1]
    indptr = A.indptr + np.concatenate([[0], np.cumsum(f != 0)]).astype(A.indptr.dtype)
    K = sp.csc_matrix(
        (
            np.concatenate([np.insert(A.data, ends, f[nz]), f[nz]]),
            np.concatenate([np.insert(A.indices, ends, n), nz]).astype(A.indices.dtype),
            np.append(indptr, indptr[-1] + len(nz)),
        ),
        shape=(n + 1, n + 1),
    )
    return K, lu_factor(K)


def bordered_solve(factor, rhs, rhs_scalar, trans="N"):
    """Solve K [x; s] = [rhs; rhs_scalar], or K^T [x; s] = ... when trans="T".

    ``factor`` is the (K, lu) pair of :func:`bordered_lu`.  One step of
    iterative refinement is applied against the matrix solved with.  Returns
    (x, s).
    """
    K, lu = factor
    if trans == "T":
        K = K.T
    b = np.concatenate([np.asarray(rhs, dtype=float), [float(rhs_scalar)]])
    x = lu.solve(b, trans=trans)
    r = b - K @ x
    x = x + lu.solve(r, trans=trans)
    if not np.isfinite(x).all():
        raise SolverError("bordered solve produced non-finite values")
    return x[:-1], float(x[-1])


def gmres_solve(A, b, lu, x0, trans="N"):
    """Solve A x = b by one GMRES cycle from x0, preconditioned on the right
    by ``lu.solve(., trans)``; returns (x, missed).  Arnoldi (Gram-Schmidt
    done twice) stops at a residual estimate of 1e-14 |b| or after 60 steps.
    GMRES has missed unless |b - A x| <= 1e-13 |b|; then A is factorized
    and solved directly, with one step of refinement.
    """
    m = 60  # Arnoldi steps of the one cycle: no restart
    bnorm, r = np.linalg.norm(b), b - A @ x0
    V, Z = np.empty((m + 1, len(b))), np.empty((m, len(b)))
    R, g, rotations = np.zeros((m, m)), [np.linalg.norm(r)], []
    V[0] = r / max(g[0], 1e-300)
    for k in range(m):
        if abs(g[k]) <= 1e-14 * bnorm:
            break
        Z[k] = lu.solve(V[k], trans=trans)
        w = A @ Z[k]
        h = V[: k + 1] @ w
        w -= h @ V[: k + 1]
        dh = V[: k + 1] @ w  # Gram-Schmidt again, for orthogonality
        w -= dh @ V[: k + 1]
        col, beta = (h + dh).tolist(), np.linalg.norm(w)
        V[k + 1] = w / max(beta, 1e-300)
        for i, (c, s) in enumerate(rotations):  # the earlier Givens rotations
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
        rho = max(np.hypot(col[k], beta), 1e-300)
        rotations.append((col[k] / rho, beta / rho))
        R[: k + 1, k] = col[:k] + [rho]
        g[k:] = [col[k] / rho * g[k], -beta / rho * g[k]]
    k = len(rotations)
    x = x0 + np.linalg.solve(R[:k, :k], g[:k]) @ Z[:k]
    if np.isfinite(x).all() and np.linalg.norm(b - A @ x) <= 1e-13 * bnorm:
        return x, False
    direct = lu_factor(A)
    x = direct.solve(b)
    return x + direct.solve(b - A @ x), True
