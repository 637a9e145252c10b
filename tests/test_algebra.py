import numpy as np
import pytest

from arquiver.algebra import (
    Algebra,
    MalformedRelation,
    NotFiniteDimensional,
    Quiver,
    Relation,
    path_target,
)
from arquiver.homological import _reversal
from arquiver.linalg import DEFAULT_PRIME


def test_a2_dimension_and_basis(alg_a2):
    # direct path count: e1, e2, a
    assert alg_a2.dim == 3
    assert alg_a2.basis_paths(1, 1) == [(1, ())]
    assert alg_a2.basis_paths(2, 2) == [(2, ())]
    assert alg_a2.basis_paths(1, 2) == [(1, ("a",))]
    assert alg_a2.basis_paths(2, 1) == []


def test_kronecker_dimension(alg_kronecker):
    assert alg_kronecker.dim == 4


def test_loop_algebra_dimension(alg_loop):
    # basis {e, x}: x^2 = 0
    assert alg_loop.dim == 2
    assert alg_loop.basis_paths(1, 1) == [(1, ()), (1, ("x",))]
    assert alg_loop.reduce_path((1, ("x", "x"))) == {}


def test_a3_dimension(alg_a3):
    # paths: e1, e2, e3, a, b, ba
    assert alg_a3.dim == 6
    assert len(alg_a3.basis_paths(1, 3)) == 1


def test_hereditary_dim_matches_path_enumeration():
    # acyclic, no relations: dim = number of paths including trivial ones
    quiver = Quiver(3, [("a", 1, 2), ("b", 2, 3), ("c", 1, 2)])
    alg = Algebra(quiver, [])
    # paths: 3 trivial, a, b, c, ba, bc
    assert alg.dim == 8


def test_multiplication_right_to_left(alg_a3):
    # a then b is the length-2 path 1 -> 3; b then a is no path
    assert alg_a3.reduce_path((1, ("a", "b"))) == {(1, ("a", "b")): 1}
    assert path_target(alg_a3.quiver, (1, ("a", "b"))) == 3
    with pytest.raises(MalformedRelation):
        path_target(alg_a3.quiver, (2, ("b", "a")))


def test_vertex_idempotents(alg_a2):
    # the trivial paths are basis paths, each its own normal form
    for v in (1, 2):
        assert alg_a2.basis_paths(v, v)[0] == (v, ())
        assert alg_a2.reduce_path((v, ())) == {(v, ()): 1}
    assert alg_a2.reduce_path((1, ("a",))) == {(1, ("a",)): 1}
    assert alg_a2.basis_paths(2, 1) == []


def test_opposite_involution(alg_a2, alg_kronecker, alg_loop):
    for alg in (alg_a2, alg_kronecker, alg_loop):
        assert alg.opposite().opposite() is alg
        assert alg.opposite().dim == alg.dim


def test_opposite_a2_reverses_arrow(alg_a2):
    op = alg_a2.opposite()
    arrow = op.quiver.by_name["a"]
    assert (arrow.source, arrow.target) == (2, 1)


def test_opposite_kronecker(alg_kronecker):
    op = alg_kronecker.opposite()
    assert all(a.source == 2 and a.target == 1 for a in op.quiver.arrows)


def _vector(paths, elem):
    return np.array([elem.get(q, 0) for q in paths], dtype=np.int64)


def test_reversal_antimultiplicative(alg_a3, alg_loop):
    # the reversal of q-then-r is reversed-r-then-reversed-q over the opposite
    cube = Algebra(Quiver(1, [("x", 1, 1)]), [Relation([(1, ("x", "x", "x"))])])
    for alg in (alg_a3, alg_loop, cube, _square()):
        op = alg.opposite()
        seen = 0
        for v, q in alg.basis:
            u = path_target(alg.quiver, (v, q))
            for s, r in alg.basis:
                if s != u:
                    continue
                w = path_target(alg.quiver, (s, r))
                product = _vector(alg.basis_paths(v, w), alg.reduce_path((v, q + r)))
                reversed_ = _reversal(alg, v, w) @ product % alg.p
                want = op.reduce_path((w, r[::-1] + q[::-1]))
                assert reversed_.tolist() == _vector(op.basis_paths(w, v), want).tolist()
                seen += 1
        assert seen >= alg.dim


def test_non_admissible_rejected():
    # a loop without relations is infinite dimensional
    with pytest.raises(NotFiniteDimensional):
        Algebra(Quiver(1, [("x", 1, 1)]), [])


def test_short_relation_rejected():
    with pytest.raises(MalformedRelation):
        Algebra(Quiver(1, [("x", 1, 1)]), [Relation([(1, ("x",))])])


def test_non_uniform_relation_rejected():
    q = Quiver(3, [("a", 1, 2), ("b", 2, 3), ("c", 3, 1)])
    with pytest.raises(MalformedRelation):
        Algebra(q, [Relation([(1, ("a", "b")), (1, ("b", "c"))])])


def test_loop_cube_relation():
    alg = Algebra(Quiver(1, [("x", 1, 1)]), [Relation([(1, ("x", "x", "x"))])])
    assert alg.dim == 3
    assert alg.reduce_path((1, ("x", "x"))) == {(1, ("x", "x")): 1}
    assert alg.reduce_path((1, ("x", "x", "x"))) == {}


def _square(p: int = DEFAULT_PRIME) -> Algebra:
    # 1 -a-> 2 -c-> 4, 1 -b-> 3 -d-> 4 with ca = db
    q = Quiver(4, [("a", 1, 2), ("b", 1, 3), ("c", 2, 4), ("d", 3, 4)])
    return Algebra(q, [Relation([(1, ("a", "c")), (-1, ("b", "d"))])], p)


def test_commutative_square_relation():
    alg = _square()
    # 4 trivial + 4 arrows + one length-2 class
    assert alg.dim == 9
    assert len(alg.basis_paths(1, 4)) == 1
    assert alg.reduce_path((1, ("a", "c"))) == alg.reduce_path((1, ("b", "d")))
    assert alg.reduce_path((1, ("a", "c"))) != {}


def test_relation_coefficients_mod_p():
    p = 5
    alg = Algebra(Quiver(1, [("x", 1, 1)]), [Relation([(6, ("x", "x"))])], p=p)
    assert alg.p == 5 and alg.dim == 2


def test_dim_preserved_under_opposite_with_relations(alg_loop):
    assert alg_loop.opposite().dim == 2


@pytest.mark.parametrize("p", [32004, 1, 0, 4294967311])
def test_modulus_must_be_a_prime_with_exact_int64_products(p):
    # 32004 is composite; 4294967311 is prime but (p - 1)**2 > 2**63
    with pytest.raises(ValueError):
        Algebra(Quiver(2, [("a", 1, 2)]), [], p=p)
