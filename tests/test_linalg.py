import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from arquiver import linalg
from arquiver.linalg import DEFAULT_PRIME as P


def M(rows):
    return np.array(rows, dtype=np.int64)


def test_rref_identity():
    r, piv = linalg.rref(np.eye(2, dtype=np.int64), P)
    assert np.array_equal(r, np.eye(2, dtype=np.int64))
    assert piv == [0, 1]


def test_rref_zero():
    r, piv = linalg.rref(linalg.zeros(3, 2), P)
    assert np.array_equal(r, linalg.zeros(3, 2))
    assert piv == []


def test_rref_rank_one():
    # [[1,2],[2,4]] over F_p: hand elimination gives rank 1, pivot column 0
    r, piv = linalg.rref(M([[1, 2], [2, 4]]), P)
    assert piv == [0]
    assert np.array_equal(r, M([[1, 2], [0, 0]]))


def test_kernel_identity_empty():
    k = linalg.kernel_basis(np.eye(4, dtype=np.int64), P)
    assert k.shape == (4, 0)


def test_kernel_zero_map():
    k = linalg.kernel_basis(linalg.zeros(2, 3), P)
    assert k.shape == (3, 3)


def test_kernel_rank_one():
    # hand elimination: kernel of [[1,2],[2,4]] is spanned by (-2, 1)
    k = linalg.kernel_basis(M([[1, 2], [2, 4]]), P)
    assert k.shape == (2, 1)
    assert np.array_equal(k[:, 0] % P, np.array([P - 2, 1]))


def test_solve_identity():
    b = np.array([5, 7], dtype=np.int64)
    assert np.array_equal(linalg.solve(np.eye(2, dtype=np.int64), b, P), b)


def test_solve_inconsistent():
    assert linalg.solve(linalg.zeros(2, 2), np.array([1, 0]), P) is None


def test_solve_free_variables_zeroed():
    # [[1,1],[0,0]] x = (3,0): free variable set to 0 gives x = (3,0)
    x = linalg.solve(M([[1, 1], [0, 0]]), np.array([3, 0]), P)
    assert np.array_equal(x, np.array([3, 0]))


def test_solve_dimension_mismatch_is_distinct_error():
    with pytest.raises(linalg.DimensionMismatch):
        linalg.solve(linalg.zeros(2, 2), np.array([1, 2, 3]), P)


def test_in_span_zero_vector():
    ok, c = linalg.in_span(M([[1], [0]]), np.array([0, 0]), P)
    assert ok and np.array_equal(c, np.array([0]))


def test_in_span_empty_basis():
    ok, c = linalg.in_span(linalg.zeros(2, 0), np.array([1, 0]), P)
    assert not ok and c is None


def test_in_span_orthogonal_coordinate():
    ok, _ = linalg.in_span(M([[1], [0]]), np.array([0, 1]), P)
    assert not ok


def test_subspace_sum_idempotent():
    b = M([[1, 0], [0, 1]])
    s = linalg.subspace_sum(b, b, P)
    assert linalg.rank(s, P) == 2


def test_subspace_sum_full_plane():
    s = linalg.subspace_sum(M([[1], [0]]), M([[0], [1]]), P)
    assert s.shape == (2, 2)
    assert linalg.rank(s, P) == 2


def test_subspace_sum_scalar_multiple():
    # span{(1,1)} + span{(2,2)} stays 1-dimensional
    s = linalg.subspace_sum(M([[1], [1]]), M([[2], [2]]), P)
    assert s.shape[1] == 1


def test_zero_dimensional_matrices_are_first_class():
    z = linalg.zeros(0, 3)
    assert linalg.rank(z, P) == 0
    assert linalg.kernel_basis(z, P).shape == (3, 3)
    assert linalg.matmul(linalg.zeros(2, 0), linalg.zeros(0, 3), P).shape == (2, 3)
    assert linalg.solve(z, np.zeros((0,), dtype=np.int64), P).shape == (3,)


small_mats = st.integers(0, 4).flatmap(
    lambda r: st.integers(0, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(0, P - 1), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        ).map(lambda rows: np.array(rows, dtype=np.int64).reshape(r, c))
    )
)


@given(small_mats)
def test_rank_nullity(m):
    assert linalg.rank(m, P) + linalg.kernel_basis(m, P).shape[1] == m.shape[1]


@given(small_mats)
def test_rref_idempotent(m):
    r, _ = linalg.rref(m, P)
    r2, _ = linalg.rref(r, P)
    assert np.array_equal(r, r2)


@given(small_mats)
def test_kernel_annihilated(m):
    k = linalg.kernel_basis(m, P)
    assert not linalg.matmul(m, k, P).any()


@given(small_mats, st.integers(0, 10_000))
def test_solve_reproduces_rhs(m, seed):
    rng = np.random.default_rng(seed)
    if m.shape[1]:
        x0 = rng.integers(0, P, size=m.shape[1])
    else:
        x0 = np.zeros(0, dtype=np.int64)
    b = linalg.matmul(m, x0.reshape(-1, 1), P)[:, 0]
    x = linalg.solve(m, b, P)
    assert x is not None
    assert np.array_equal(linalg.matmul(m, x.reshape(-1, 1), P)[:, 0], b)


@given(small_mats)
def test_in_span_witness_exact(m):
    if m.shape[1] == 0:
        return
    v = m[:, 0]
    ok, c = linalg.in_span(m, v, P)
    assert ok
    assert np.array_equal(linalg.matmul(m, c.reshape(-1, 1), P)[:, 0], v % P)


# p = 4294967311 is the first prime above 2**32: (p - 1)**2 > 2**63
BIG_P = 4294967311


def test_matmul_refuses_int64_overflow():
    with pytest.raises(linalg.ModulusTooLarge):
        linalg.matmul(M([[BIG_P - 1]]), M([[BIG_P - 1]]), BIG_P)
    stack = np.full((3, 1, 1), BIG_P - 1, dtype=np.int64)
    with pytest.raises(linalg.ModulusTooLarge):
        linalg.matmul(M([[BIG_P - 1]]), stack, BIG_P)


def test_matmul_bound_counts_the_inner_dimension():
    # (q - 1)**2 < 2**63 <= 2 * (q - 1)**2: one term is exact, two may wrap
    q = 3037000493
    assert linalg.matmul(M([[q - 1]]), M([[q - 1]]), q).tolist() == [[1]]
    with pytest.raises(linalg.ModulusTooLarge):
        linalg.matmul(M([[q - 1, 1]]), M([[q - 1], [1]]), q)


def test_matmul_batched_matches_per_matrix():
    rng = np.random.default_rng(3)
    a = rng.integers(0, P, size=(4, 4))
    stack = rng.integers(0, P, size=(5, 4, 3))
    out = linalg.matmul(a, stack, P)
    assert out.shape == (5, 4, 3)
    for j in range(5):
        assert np.array_equal(out[j], linalg.matmul(a, stack[j], P))


def _first_unit_outside_span_by_membership(basis, p):
    for i in range(basis.shape[0]):
        e = np.zeros(basis.shape[0], dtype=np.int64)
        e[i] = 1
        if not linalg.in_span(basis, e, p)[0]:
            return e
    return None


@given(small_mats, st.sampled_from([2, 3, P]))
def test_first_unit_outside_span_matches_membership_loop(m, p):
    m = m % p
    got = linalg.first_unit_outside_span(m, p)
    want = _first_unit_outside_span_by_membership(m, p)
    if want is None:
        assert got is None
    else:
        assert got.dtype == np.int64 and np.array_equal(got, want)


def test_first_unit_outside_span_examples():
    # span of (1, 1, 0): e_0 is outside; span of e_0, e_1: e_2 is outside
    assert np.array_equal(
        linalg.first_unit_outside_span(M([[1], [1], [0]]), P), [1, 0, 0]
    )
    assert np.array_equal(
        linalg.first_unit_outside_span(M([[1, 0], [0, 1], [0, 0]]), P), [0, 0, 1]
    )
    assert linalg.first_unit_outside_span(np.eye(3, dtype=np.int64), P) is None
    assert np.array_equal(linalg.first_unit_outside_span(linalg.zeros(2, 0), P), [1, 0])
    assert linalg.first_unit_outside_span(linalg.zeros(0, 0), P) is None
