"""Sparse solves shared by the equilibrium, adjoint, and stepping code."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

__all__ = ["SolverError", "lu_factor", "bordered_lu", "bordered_solve", "gmres_solve"]


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
