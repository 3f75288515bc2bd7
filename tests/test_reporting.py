import numpy as np
import scipy.sparse

from siplab.graphs import detailed_balance_residual, max_abs
from siplab.reporting import identity_check


def _assert_same_as_dense(lhs, rhs):
    """identity_check and max_abs read the sparse sides as their dense copies."""
    sparse = identity_check("x", lhs, rhs, 1e-10)
    dense = identity_check("x", lhs.toarray(), rhs.toarray(), 1e-10)
    assert (sparse.residual, sparse.tolerance) == (dense.residual, dense.tolerance)
    for side in (lhs, rhs):
        assert max_abs(side) == float(np.abs(side.toarray()).max())


def test_sparse_product_with_unsorted_indices():
    rng = np.random.default_rng(0)
    a = scipy.sparse.random_array((40, 30), density=0.2, format="csr", rng=rng)
    b = scipy.sparse.random_array((30, 40), density=0.2, format="csr", rng=rng)
    lhs, rhs = a @ b, a @ (b * 1.001)
    assert not lhs.has_sorted_indices and not rhs.has_sorted_indices
    _assert_same_as_dense(lhs, rhs)


def test_coo_side_from_a_broadcast_multiply():
    rng = np.random.default_rng(1)
    a = scipy.sparse.random_array((30, 30), density=0.2, format="csr", rng=rng)
    weights = rng.uniform(-2.0, 2.0, 30)
    lhs = a * weights[None, :]
    assert lhs.format == "coo"
    _assert_same_as_dense(lhs, a * (1.0 + 1e-6 * weights[None, :]))
    flux = weights[:, None] * a
    assert detailed_balance_residual(a, weights) == float(np.abs(
        (flux - flux.T).toarray()).max())


def test_coo_with_duplicate_coordinates():
    # (0, 1) holds 5 and -4.5, which sum to 0.5; the largest entry is -2 at (1, 2)
    lhs = scipy.sparse.coo_array((np.array([5.0, -2.0, -4.5]),
                                  (np.array([0, 1, 0]), np.array([1, 2, 1]))), shape=(3, 3))
    assert not lhs.has_canonical_format
    rhs = scipy.sparse.coo_array((np.array([0.25, 0.25, -2.0]),
                                  (np.array([0, 0, 1]), np.array([1, 1, 2]))), shape=(3, 3))
    _assert_same_as_dense(lhs, rhs)
    assert max_abs(lhs) == 2.0
    assert identity_check("x", lhs, rhs, 1e-10).residual == 0.0
