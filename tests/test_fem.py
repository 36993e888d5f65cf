import numpy as np
import pytest
from numpy.testing import assert_allclose

import densctl as dc
from densctl.analysis import l2_distance
from densctl.fem import per_component, sq_norms

from conftest import random_control


def dense_tensor(tensor):
    """Dense (n, n, n) arrays (Tx, Ty) of an AdvectionTensor; only for small
    oracle meshes."""
    tx = np.zeros((tensor.n_state,) * 3)
    ty = np.zeros_like(tx)
    n = tensor.n_state
    for mat, out in ((tensor.K[:, :n].tocoo(), tx), (tensor.K[:, n:].tocoo(), ty)):
        out[tensor.pattern_rows[mat.row], tensor.pattern_cols[mat.row], mat.col] += mat.data
    return tx, ty


def dense_contract(tx, ty, u):
    n = tx.shape[0]
    out = np.zeros((n, n))
    for k in range(tx.shape[2]):
        out += tx[:, :, k] * u.ux[k] + ty[:, :, k] * u.uy[k]
    return out


def test_mass_matrix_single_reference_triangle(tmp_path):
    path = tmp_path / "ref.txt"
    path.write_text("3 1 3\n0 0\n1 0\n0 1\n0 1 2\n0 1 1\n1 2 1\n2 0 1\n")
    ops = dc.assemble_operators(dc.load_mesh(path), mu=1.0)
    area = 0.5
    expected = area / 12.0 * np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]])
    assert_allclose(ops.M.toarray(), expected, rtol=0, atol=1e-15)


def test_unit_square_partition_of_unity(unit_square_mesh):
    ops = dc.assemble_operators(unit_square_mesh, mu=1.0)
    A = ops.tensor.csr(ops.L0_data)  # the stiffness matrix: no drift, mu = 1
    assert np.abs(A @ np.ones(4)).max() < 1e-14
    assert ops.F.sum() == pytest.approx(1.0, abs=1e-14)


def test_operator_invariants(holed_ops):
    ops = holed_ops
    n = ops.n
    # M symmetric positive definite
    assert (ops.M - ops.M.T).nnz == 0 or np.abs((ops.M - ops.M.T).data).max() < 1e-15
    rngv = np.random.default_rng(0).standard_normal(n)
    assert rngv @ (ops.M @ rngv) > 0
    # A symmetric PSD with zero row sums
    A = ops.tensor.csr(ops.L0_data)  # no drift
    assert abs(A - A.T).max() < 1e-12
    assert np.abs(A @ np.ones(n)).max() < 1e-12
    assert rngv @ (A @ rngv) >= -1e-12
    # F = M 1 componentwise, positive, sums to the domain area
    assert_allclose(ops.F, np.asarray(ops.M.sum(axis=1)).ravel(), rtol=0, atol=0)
    assert (ops.F > 0).all()
    assert ops.F.sum() == pytest.approx(ops.mesh.domain_area, rel=1e-12)
    # lumped mass: diagonal, positive, same row sums as M
    lumped = ops.tensor.csr(ops.M_lumped_data)
    lump = lumped.diagonal()
    assert lumped.count_nonzero() == ops.n  # nothing off the diagonal
    assert (lump > 0).all()
    assert_allclose(lump, ops.F, rtol=0, atol=0)


def test_mu_scaling(small_mesh):
    ops1 = dc.assemble_operators(small_mesh, mu=1.0)
    ops3 = dc.assemble_operators(small_mesh, mu=3.0)
    A1, A3 = (ops.tensor.csr(ops.L0_data).toarray() for ops in (ops1, ops3))
    assert_allclose(A3, 3.0 * A1, rtol=1e-14)
    assert_allclose(ops3.A_u.toarray(), ops1.A_u.toarray(), rtol=0, atol=0)


def test_operators_are_data_on_the_tensor_pattern(holed_ops):
    tensor = holed_ops.tensor
    for mat in (holed_ops.M, holed_ops.A_u):
        assert np.array_equal(mat.indptr, tensor._indptr)
        assert np.array_equal(mat.indices, tensor._indices)
    assert holed_ops.mass_data(False) is holed_ops.M.data


def test_bad_mu_rejected(small_mesh):
    with pytest.raises(ValueError):
        dc.assemble_operators(small_mesh, mu=0.0)


def test_tensor_symmetry_last_two_indices(tiny_ops):
    tx, ty = dense_tensor(tiny_ops.tensor)
    assert_allclose(tx, np.swapaxes(tx, 1, 2), rtol=0, atol=1e-15)
    assert_allclose(ty, np.swapaxes(ty, 1, 2), rtol=0, atol=1e-15)


def test_tensor_quadrature_oracle(tiny_ops):
    # entries against a numerical quadrature oracle on each element
    mesh = tiny_ops.mesh
    tx, ty = dense_tensor(tiny_ops.tensor)
    # degree-3-exact rule (4 points) is enough for the quadratic integrand
    pts = np.array(
        [[1 / 3, 1 / 3, 1 / 3], [0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]]
    )
    wts = np.array([-27.0 / 48.0, 25.0 / 48.0, 25.0 / 48.0, 25.0 / 48.0])
    n = mesh.n_vertices
    ref_x = np.zeros((n, n, n))
    ref_y = np.zeros((n, n, n))
    for tri in mesh.triangles:
        p = mesh.vertices[tri]
        area2 = (p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1]) - (p[1, 1] - p[0, 1]) * (
            p[2, 0] - p[0, 0]
        )
        gx = np.array([p[1, 1] - p[2, 1], p[2, 1] - p[0, 1], p[0, 1] - p[1, 1]]) / area2
        gy = np.array([p[2, 0] - p[1, 0], p[0, 0] - p[2, 0], p[1, 0] - p[0, 0]]) / area2
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    val = (wts * pts[:, b] * pts[:, c]).sum() * area2 / 2.0
                    ref_x[tri[a], tri[b], tri[c]] += gx[a] * val
                    ref_y[tri[a], tri[b], tri[c]] += gy[a] * val
    assert_allclose(tx, ref_x, rtol=0, atol=1e-14)
    assert_allclose(ty, ref_y, rtol=0, atol=1e-14)


def test_contract_zero_and_linearity(tiny_ops, rng):
    tensor = tiny_ops.tensor
    zero = tensor.csr(tensor.contract_data(np.zeros(2 * tiny_ops.n)))
    assert np.abs(zero.toarray()).max() == 0.0
    u = random_control(tiny_ops, rng).stacked()
    one = tensor.csr(tensor.contract_data(u)).toarray()
    two = tensor.csr(tensor.contract_data(2 * u)).toarray()
    assert_allclose(two, 2.0 * one, rtol=0, atol=1e-15)


def test_contract_matches_dense_oracle(tiny_ops, rng):
    u = random_control(tiny_ops, rng)
    tx, ty = dense_tensor(tiny_ops.tensor)
    expected = dense_contract(tx, ty, u)
    tensor = tiny_ops.tensor
    got = tensor.csr(tensor.contract_data(u.stacked())).toarray()
    assert_allclose(got, expected, rtol=1e-13, atol=1e-15)
    # the pattern is symmetric, so permuting the data transposes the matrix
    gt = tensor.csr(tensor.contract_data(u.stacked())[tensor.transpose]).toarray()
    assert_allclose(gt, got.T, rtol=0, atol=0)


def test_contract_dimension_mismatch(tiny_ops):
    with pytest.raises(ValueError):
        tiny_ops.tensor.contract_data(np.zeros(2 * (tiny_ops.n + 1)))


def test_gradient_contraction_oracle(tiny_ops, rng):
    n = tiny_ops.n
    lam = rng.standard_normal(n)
    q = rng.standard_normal(n)
    tx, ty = dense_tensor(tiny_ops.tensor)
    ref_x = np.einsum("i,ijk,j->k", lam, tx, q)
    ref_y = np.einsum("i,ijk,j->k", lam, ty, q)
    gx, gy = np.split(tiny_ops.tensor.gradient_contraction(lam, q), 2)
    assert_allclose(gx, ref_x, rtol=1e-13, atol=1e-15)
    assert_allclose(gy, ref_y, rtol=1e-13, atol=1e-15)


def test_gradient_contraction_kernel_cases(tiny_ops, rng):
    n = tiny_ops.n
    q = rng.standard_normal(n)
    g = tiny_ops.tensor.gradient_contraction(np.zeros(n), q)
    assert g.shape == (2 * n,) and np.abs(g).max() == 0.0
    # constants lie in the kernel of the transposed state operator, so a
    # constant multiplier contributes nothing
    g = tiny_ops.tensor.gradient_contraction(np.ones(n), q)
    assert np.abs(g).max() < 1e-14


def test_state_matrix_left_kernel(holed_ops, rng):
    ones = np.ones(holed_ops.n)
    for _ in range(5):
        u = random_control(holed_ops, rng)
        L = dc.state_matrix(holed_ops, u)
        assert np.abs(ones @ L).max() < 1e-12 * np.abs(L).max()
        assert np.abs(L.T @ ones).max() < 1e-12 * np.abs(L).max()


def test_adjoint_is_exact_transpose(holed_ops, rng):
    u = random_control(holed_ops, rng)
    tensor = holed_ops.tensor
    L = dc.state_matrix(holed_ops, u)
    data = holed_ops.state_data(u.stacked())
    # the transposed and the CSC operators the theta sweeps build from data
    D = tensor.csr(data[tensor.transpose])
    assert (L.T - D).nnz == 0
    assert (tensor.csc(data) - L).nnz == 0
    assert (tensor.csr(data).T.tocsr() - D).nnz == 0


def drift_data(mesh, drift):
    """Pattern data of the transport matrix B of a drift field: L0 is A - B."""
    free = dc.assemble_operators(mesh, mu=1.0)
    return free.L0_data - dc.assemble_operators(mesh, mu=1.0, drift=drift).L0_data


def test_drift_zero_field_gives_zero_matrix(small_mesh):
    B = drift_data(small_mesh, lambda x, y: (np.zeros_like(x), np.zeros_like(y)))
    assert np.count_nonzero(B) == 0


def test_drift_constant_field_oracle(tiny_mesh):
    # B_ij = ∫ (b . grad phi_i) phi_j with b = (1, 2): exact linear algebra
    ops = dc.assemble_operators(tiny_mesh, mu=1.0)
    B = drift_data(tiny_mesh, lambda x, y: (np.ones_like(x), 2.0 * np.ones_like(y)))
    tx, ty = dense_tensor(ops.tensor)
    # sum_k T_ijk = ∫ (d phi_i/dc) phi_j, so the constant-drift matrix is the
    # tensor contracted with the all-ones control scaled per component
    expected = tx.sum(axis=2) * 1.0 + ty.sum(axis=2) * 2.0
    assert_allclose(ops.tensor.csr(B).toarray(), expected, rtol=0, atol=1e-14)


def test_drift_left_kernel(holed_mesh, rng):
    ops = dc.assemble_operators(holed_mesh, mu=1.0, drift=dc.DRIFT_PRESETS["swirl"])
    ones = np.ones(ops.n)
    u = random_control(ops, rng)
    L = dc.state_matrix(ops, u)
    assert np.abs(ones @ L).max() < 1e-12 * np.abs(L).max()


def test_nonfinite_drift_rejected(small_mesh):
    def bad(x, y):
        return np.where(x > 0.5, np.inf, 1.0), np.zeros_like(y)

    with pytest.raises(ValueError, match="not finite"):
        dc.assemble_operators(small_mesh, mu=1.0, drift=bad)


@pytest.mark.parametrize("rows", [1, 2, 15, 16, 17, 33, 63, 64, 65, 300])
def test_sq_norms_is_the_whole_stack_einsum(small_ops, rng, rows):
    # row blocks of _ROW_BLOCK (16) rows give each row the bits of one einsum
    # over the whole stack, for a state stack under M and a control stack
    # under the control metric H; 17, 33 and 65 rows end in a row that joins
    # the block before it
    n = small_ops.n
    H = 1e-3 * small_ops.M + 1e-5 * small_ops.A_u
    for metric, width in ((small_ops.M, n), (H, 2 * n)):
        X, ref = rng.standard_normal((rows, width)), rng.standard_normal(width)
        D = X - ref
        whole = np.einsum("ij,ij->i", D, per_component(metric, D))
        assert np.array_equal(sq_norms(metric, X, ref), whole)
        assert np.array_equal(sq_norms(metric, D), whole)
    dists = np.sqrt(sq_norms(small_ops.M, X[:, :n], ref[:n]))
    single = [l2_distance(x, ref[:n], small_ops.M) for x in X[:, :n]]
    assert_allclose(dists, single, rtol=1e-15, atol=0)
