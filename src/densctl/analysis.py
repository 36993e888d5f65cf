"""Numerical certificates for the structural properties of the dynamics.

Checks, with explicit margins: the 1-D kernel of the state matrix and its
constant left kernel, positivity of the kernel vector,
spectral positivity of the symmetric part on the zero-mean subspace, and
whether the quadratic Lyapunov function, the states' row-block
:func:`fem.sq_norms`, decays monotonically along a trajectory.  One sparse
path serves every mesh size: solves go through the bordered LU of
:mod:`linalg`, and extreme eigenvalues come from ARPACK's Lanczos iteration
(``eigsh``) started from a fixed vector, so repeated runs give the same bits.  Everything here reports computed numbers; nothing is
assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh

from .fem import ControlField, FemOperators, sq_norms, state_matrix
from .linalg import bordered_lu, bordered_solve
from .state import Trajectory, _vals

__all__ = [
    "KernelCertificate",
    "certify_kernel",
    "certify_spectral_positivity",
    "l2_distance",
    "convergence_report",
]


@dataclass(frozen=True)
class KernelCertificate:
    dim: int | None  # numerical kernel dimension; None when the gap is ambiguous
    kernel_vector: np.ndarray  # unit 2-norm, sign-normalized
    left_kernel_residual: float  # ||1^T L||_inf / ||L||_inf
    gap_ratio: float  # sigma_{n-2} / ||L v||_2 <= sigma_{n-2} / sigma_{n-1}
    kernel_min_entry: float  # after sign normalization


def _extreme_eigenvalue(apply, n, project, which, tol=0.0) -> float:
    """One eigenvalue of the symmetric n x n operator ``apply`` by ARPACK.

    The start vector is fixed, a seeded Gaussian vector passed through
    ``project``, so the result repeats bit for bit.
    """
    op = LinearOperator((n, n), matvec=apply, dtype=float)
    v0 = project(np.random.default_rng(0).standard_normal(n))
    return float(eigsh(op, k=1, which=which, tol=tol, v0=v0, return_eigenvectors=False)[0])


def certify_kernel(ops: FemOperators, equilibrium) -> KernelCertificate:
    """Kernel structure of the state matrix at an equilibrium.

    ``equilibrium`` is the (q, factor) pair of :func:`state.solve_equilibrium`;
    L(u) is the leading block of the factor's bordered matrix K.  Verifies
    the algebraic left kernel residual of L(u) against the constant vector.
    The kernel vector v is the bordered equilibrium solve, unit-normalized
    and sign-fixed.  The smallest nonzero singular value
    sigma_{n-2} = 1/||L^+|| comes from the top eigenvalue of L^+^T L^+,
    where L^+ b solves L x = P_1 b through the same bordered LU and is then
    projected off v (and L^T^+ y solves L^T z = P_v y, projected off 1).
    The rank is n-1 when sigma_{n-2} / ||L v|| exceeds 1e3, which in exact
    arithmetic bounds sigma_{n-2} / sigma_{n-1} from below.
    """
    _, factor = equilibrium
    L = factor[0][: ops.n, : ops.n]
    norm = np.abs(L.data).max() if L.nnz else 1.0
    left_res = float(np.abs(np.ones(ops.n) @ L).max() / norm)

    v = bordered_solve(factor, np.zeros(ops.n), 1.0)[0]
    v = v / np.linalg.norm(v)
    v = v * np.sign(v[np.argmax(np.abs(v))])

    def pinv(b):
        x = bordered_solve(factor, b - b.mean(), 0.0)[0]
        return x - v * (v @ x)

    def pinv_transpose(y):
        z = bordered_solve(factor, y - v * (v @ y), 0.0, trans="T")[0]
        return z - z.mean()

    top = _extreme_eigenvalue(
        lambda b: pinv_transpose(pinv(b)), ops.n, lambda w: w - w.mean(), "LA"
    )
    gap = float(1.0 / np.sqrt(top) / max(np.linalg.norm(L @ v), np.finfo(float).tiny))
    # rank n-1 is certified by one singular value separated from the rest;
    # an ambiguous gap is reported as dim=None, never silently passed
    return KernelCertificate(
        dim=1 if gap > 1e3 else None,
        kernel_vector=v,
        left_kernel_residual=left_res,
        gap_ratio=gap,
        kernel_min_entry=float(v.min()),
    )


def certify_spectral_positivity(ops: FemOperators, u: ControlField) -> float:
    """Smallest eigenvalue of S = sym(L(u)) on the zero-mean subspace F^perp.

    A Lanczos estimate (tol 1e-6) on P S P + c f f^T, with P the orthogonal
    projector onto F^perp, f = F/|F| and c >= ||S||_2 lifting the exact zero
    that P S P has at f, is refined by shift-invert just below it: the
    bordered LU of (S - sigma I, F) is the inverse of S - sigma I on F^perp.
    A positive value certifies exponential decay of the quadratic Lyapunov
    function; a negative value is reported as-is (trajectory monotonicity is
    the sharper check in that case).
    """
    L = state_matrix(ops, u)
    S = 0.5 * (L + L.T)
    f = ops.F / np.linalg.norm(ops.F)
    c = float(np.abs(S).sum(axis=0).max())  # largest column abs-sum >= ||S||_2

    def project(w):
        return w - f * (f @ w)

    def lifted(w):
        return project(S @ project(w)) + c * f * (f @ w)

    est = _extreme_eigenvalue(lifted, ops.n, project, "SA", tol=1e-6)
    shift = est - 1e-3 * max(abs(est), 1e-8 * c)
    factor = bordered_lu(S - shift * sp.identity(ops.n), ops.F)
    top = _extreme_eigenvalue(
        lambda w: bordered_solve(factor, project(w), 0.0)[0], ops.n, project, "LM"
    )
    return float(shift + 1.0 / top)


def l2_distance(a, b, M) -> float:
    """M-weighted distance sqrt((a-b)^T M (a-b))."""
    d = _vals(a) - _vals(b)
    return float(np.sqrt(max(d @ (M @ d), 0.0)))


def convergence_report(trajectory: Trajectory, reference, ops: FemOperators):
    """Per-step distances to a reference density.

    Returns (rows, monotone, final) where rows is the (n_steps + 1, 4) float
    array of (step, time, l2_distance, lyapunov) rows, the Lyapunov value
    being l(q_i) = 1/2 (q_i - ref)^T M (q_i - ref).
    """
    lyap = 0.5 * sq_norms(ops.M, trajectory.states, _vals(reference))
    rows = np.column_stack((np.arange(len(lyap)), trajectory.times, np.sqrt(2.0 * lyap), lyap))
    monotone = bool(np.all(np.diff(lyap) <= 1e-12 * max(lyap[0], 1.0)))
    return rows, monotone, float(rows[-1, 2])
