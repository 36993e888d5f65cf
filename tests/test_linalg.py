"""Sparse LU with a column order kept per sparsity pattern, and the bordered
build: each must give bit for bit what plain ``splu`` and ``sp.bmat`` give."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

import densctl as dc
from densctl import linalg
from densctl.linalg import SolverError, bordered_lu, lu_factor
from densctl.ocp_static import OcpConfig, control_metric

from conftest import _delaunay_meshes, random_control
from test_sweep import _meshes


@pytest.fixture(autouse=True)
def no_kept_orders():
    linalg._orders.clear()
    yield
    linalg._orders.clear()


def assert_solves_like_splu(A, rng):
    """lu_factor(A) solves byte for byte as splu(A), both ways, 1-D and 2-D."""
    lu, ref = lu_factor(A), splu(sp.csc_matrix(A))
    n = A.shape[0]
    for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        for trans in ("N", "T"):
            assert lu.solve(b, trans=trans).tobytes() == ref.solve(b, trans=trans).tobytes()


def _matrices(ops, rng, dt, theta):
    """A step matrix, H and the bordered K of a random control and metric."""
    u = random_control(ops, rng, 3.0)
    step = ops.tensor.csc(ops.mass_data(False) / dt + theta * ops.state_data(u.stacked()))
    H = control_metric(ops, OcpConfig(beta=rng.uniform(1e-3, 1.0), beta_g=rng.uniform(1e-5, 1e-2)))
    return step, H, bordered_lu(dc.state_matrix(ops, u), ops.F)[0]


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    mesh=st.one_of(_meshes(), _delaunay_meshes()),
    seed=st.integers(0, 2**32 - 1),
    dt=st.floats(1e-3, 1.0),
    theta=st.floats(0.5, 1.0),
)
def test_factors_solve_bitwise_like_splu(mesh, seed, dt, theta):
    linalg._orders.clear()
    rng = np.random.default_rng(seed)
    ops = dc.assemble_operators(mesh, mu=1.0)
    first, again = _matrices(ops, rng, dt, theta), _matrices(ops, rng, dt, theta)
    for A in first:  # first sight: plain splu, order kept
        assert_solves_like_splu(A, rng)
    assert len(linalg._orders) == 2  # the step matrix and H share the mesh pattern
    for A in again:  # same patterns, other values: the kept order
        assert_solves_like_splu(A, rng)
    assert len(linalg._orders) == 2  # the step matrix and H share the mesh pattern


def test_tied_pivots_solve_like_splu():
    """Entries of equal magnitude tie for the pivot; where the kept order
    would break a tie another way, the factor is splu's own."""
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(300):
        n = int(rng.integers(3, 25))
        A = sp.random(n, n, density=0.3, random_state=rng, format="csc",
                      data_rvs=lambda k: rng.choice([-2.0, -1.0, 1.0, 2.0], k))
        A = (A + sp.identity(n)).tocsc()
        B = A.copy()
        B.data = rng.choice([-2.0, -1.0, 1.0, 3.0], B.nnz)
        linalg._orders.clear()
        try:
            splu(A), splu(B)
        except RuntimeError:
            continue
        assert_solves_like_splu(A, rng)
        assert_solves_like_splu(B, rng)
        checked += 1
    assert checked > 200


def test_patterns_of_equal_shape_keep_their_own_order(small_ops, rng):
    H = control_metric(small_ops, OcpConfig(beta=1e-2, beta_g=1e-4))
    step = small_ops.tensor.csc(small_ops.mass_data(True) + small_ops.state_data(
        random_control(small_ops, rng).stacked()))
    tridiag = sp.diags([np.ones(small_ops.n - 1), 4.0 * np.ones(small_ops.n),
                        np.ones(small_ops.n - 1)], [-1, 0, 1], format="csc")
    assert H.shape == step.shape == tridiag.shape
    for A in (H, tridiag, step, 2.0 * H, 3.0 * tridiag, 0.5 * step):
        assert_solves_like_splu(A, rng)
    assert len(linalg._orders) == 2  # H and the step matrix share the mesh pattern
    for key, order in linalg._orders.items():
        indptr = np.frombuffer(key[1], dtype=np.int32)
        indices = np.frombuffer(key[2], dtype=np.int32)
        pattern = sp.csc_matrix((np.ones(len(indices)), indices, indptr), shape=key[0])
        assert np.array_equal(np.argsort(splu(pattern).perm_c), order.order)


def test_kept_orders_stay_within_their_bound(rng):
    for k in range(linalg._ORDERS_KEPT + 5):
        A = sp.diags([np.ones(19 - k), 5.0 * np.ones(20), np.ones(19 - k)],
                     [-1 - k, 0, 1 + k], format="csc")
        assert_solves_like_splu(A, rng)
        assert len(linalg._orders) == min(k + 1, linalg._ORDERS_KEPT)


def test_singular_matrix_raises_on_first_sight_and_on_reuse(rng):
    A = sp.csc_matrix(np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]]))
    singular = A.copy()
    singular.data[singular.indices == 2] = 0.0  # row 2 is zero
    with pytest.raises(SolverError):
        lu_factor(singular)
    assert not linalg._orders  # nothing kept from a failed factorization
    assert_solves_like_splu(A, rng)
    with pytest.raises(SolverError):
        lu_factor(singular)
    assert len(linalg._orders) == 1


@pytest.mark.parametrize("fmt", ["csr", "csc"])
def test_bordered_matrix_equals_bmat(small_ops, rng, fmt):
    L = dc.state_matrix(small_ops, random_control(small_ops, rng))
    f = small_ops.F.copy()
    zeros = L.tocoo(copy=True)
    zeros.data[::7] = 0.0  # explicit zeros stay in the pattern
    f[3] = 0.0  # a zero border entry is not stored
    for A in (L, zeros):
        A = A.asformat(fmt)
        K = bordered_lu(A, f)[0]
        ref = sp.bmat([[A, f[:, None]], [f[None, :], None]], format="csc")
        for name in ("indptr", "indices", "data"):
            got, want = getattr(K, name), getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert (zeros.asformat(fmt).data == 0.0).any()
