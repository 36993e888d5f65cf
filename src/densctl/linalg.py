"""Sparse solves shared by the equilibrium, adjoint, and stepping code."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

__all__ = ["SolverError", "lu_factor", "bordered_lu", "bordered_solve"]


class SolverError(Exception):
    """A linear solve failed or produced an inconsistent result."""


def lu_factor(matrix):
    """Sparse LU of a square matrix; raises SolverError when singular."""
    try:
        return splu(sp.csc_matrix(matrix))
    except RuntimeError as exc:  # SuperLU signals singularity this way
        raise SolverError(f"sparse LU factorization failed: {exc}") from exc


def bordered_lu(matrix, border):
    """The bordered matrix K = [[A, f], [f^T, 0]] and its sparse LU, as (K, lu).

    A may be singular with a 1-D kernel; the border restores unique
    solvability.  K^T = [[A^T, f], [f^T, 0]], so the same LU also solves the
    bordered system of A^T.
    """
    f = np.asarray(border, dtype=float)
    K = sp.bmat([[sp.csc_matrix(matrix), f[:, None]], [f[None, :], None]], format="csc")
    return K, lu_factor(K)


def bordered_solve(factor, rhs, rhs_scalar, trans="N"):
    """Solve K [x; s] = [rhs; rhs_scalar], or K^T [x; s] = ... when trans="T".

    ``factor`` is the (K, lu) pair of :func:`bordered_lu`.  One step of
    iterative refinement is applied against the matrix solved with.  Returns
    (x, s, residual_norm).
    """
    K, lu = factor
    if trans == "T":
        K = K.T
    b = np.concatenate([np.asarray(rhs, dtype=float), [float(rhs_scalar)]])
    x = lu.solve(b, trans=trans)
    r = b - K @ x
    x = x + lu.solve(r, trans=trans)
    r = b - K @ x
    scale = max(np.abs(b).max(), np.abs(x).max(), 1e-300)
    if not np.isfinite(x).all():
        raise SolverError("bordered solve produced non-finite values")
    return x[:-1], float(x[-1]), float(np.abs(r).max() / scale)
