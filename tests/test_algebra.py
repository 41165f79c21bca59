import numpy as np
import pytest

from tiltlab.algebra import (
    build_algebra, make_quiver, opposite_algebra, parse_relation,
    path_from_arrows,
)
from tiltlab.errors import MalformedRelation, NonAdmissible

from helpers import presentations_match


@pytest.fixture(scope="module")
def a3():
    """A_3 quiver 1 -a-> 2 -b-> 3 with the zero relation a*b."""
    q = make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])
    return build_algebra(q, ["a*b"], p=2)


def test_dimension_and_basis(a3):
    assert a3.dim == 5
    reprs = [repr(q) for q in a3.path_basis]
    assert set(reprs) == {"e1", "e2", "e3", "a", "b"}


def test_nilpotency_index(a3):
    # rad^2 = 0: every length-2 path lies in the relation ideal
    assert a3.nilpotency == 2


def test_relation_kills_product(a3):
    ia = a3.index[(1, ("a",))]
    ib = a3.index[(2, ("b",))]
    assert not a3.multiply_basis(ia, ib).any()


def test_unit_and_idempotents(a3):
    u = a3.unit()
    for i in range(a3.dim):
        b = a3.basis_vector(i)
        assert np.array_equal(a3.multiply(u, b), b)
        assert np.array_equal(a3.multiply(b, u), b)
    for v in (1, 2, 3):
        e = a3.basis_vector(a3.idempotent_index[v])
        assert np.array_equal(a3.multiply(e, e), e)


def test_associativity_exhaustive(a3):
    n = a3.dim
    for i in range(n):
        for j in range(n):
            ij = a3.multiply_basis(i, j)
            for k in range(n):
                lhs = a3.multiply(ij, a3.basis_vector(k))
                rhs = a3.multiply(a3.basis_vector(i),
                                  a3.multiply_basis(j, k))
                assert np.array_equal(lhs, rhs)


def test_path_algebra_without_relations():
    q = make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])
    alg = build_algebra(q, [], p=2)
    assert alg.dim == 6  # e1, e2, e3, a, b, a*b


def test_one_vertex_algebra():
    alg = build_algebra(make_quiver([7], []), [], p=3)
    assert alg.dim == 1
    assert alg.nilpotency == 1


def test_loop_with_nilpotency_relation():
    q = make_quiver([1], [("x", 1, 1)])
    alg = build_algebra(q, ["x*x*x"], p=2)
    assert alg.dim == 3  # e1, x, x*x
    assert alg.nilpotency == 3


def test_loop_without_relation_is_not_admissible():
    q = make_quiver([1], [("x", 1, 1)])
    with pytest.raises(NonAdmissible):
        build_algebra(q, [], p=2)


def test_non_parallel_relation_rejected():
    q = make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])
    rel = [(1, path_from_arrows(q, ("a", "b"))),
           (1, path_from_arrows(q, ("b",)))]
    with pytest.raises(MalformedRelation):
        build_algebra(q, [rel], p=2)


def test_short_relation_rejected():
    q = make_quiver([1, 2], [("a", 1, 2)])
    with pytest.raises(MalformedRelation):
        build_algebra(q, ["a"], p=2)


def test_parse_relation_with_signs():
    q = make_quiver([1, 2], [("a", 1, 2), ("b", 1, 2), ("c", 2, 2)])
    # c is a loop; just exercise the parser, not admissibility
    rel = parse_relation(q, "a*c - b*c")
    assert len(rel) == 2
    assert rel[0][0] == 1 and rel[1][0] == -1
    assert repr(rel[0][1]) == "a*c"


def test_commutativity_square():
    # commuting square: two paths 1 -> 4 identified
    q = make_quiver([1, 2, 3, 4],
                    [("a", 1, 2), ("b", 2, 4), ("c", 1, 3), ("d", 3, 4)])
    alg = build_algebra(q, ["a*b - c*d"], p=5)
    assert alg.dim == 4 + 4 + 1  # vertices, arrows, one class of length-2 paths
    ia = alg.index[(1, ("a",))]
    ib = alg.index[(2, ("b",))]
    ic = alg.index[(1, ("c",))]
    idd = alg.index[(3, ("d",))]
    assert np.array_equal(alg.multiply_basis(ia, ib),
                          alg.multiply_basis(ic, idd))


def test_opposite_round_trip(a3):
    op = opposite_algebra(a3)
    assert op.dim == a3.dim
    assert {(a.name, a.source, a.target) for a in op.quiver.arrows} == {
        ("a", 2, 1), ("b", 3, 2)}
    opop = opposite_algebra(op)
    assert opop.table.keys() == a3.table.keys()
    assert all(np.array_equal(opop.table[k], a3.table[k])
               for k in a3.table)


def test_opposite_multiplication_reverses(a3):
    op = opposite_algebra(a3)
    for i in range(a3.dim):
        pi = a3.path_basis[i]
        for j in range(a3.dim):
            pj = a3.path_basis[j]
            oi = op.index[(pi.target, tuple(reversed(pi.arrows)))]
            oj = op.index[(pj.target, tuple(reversed(pj.arrows)))]
            fwd = a3.multiply_basis(i, j)
            back = op.multiply_basis(oj, oi)
            # compare through the path reversal bijection
            mirrored = np.zeros_like(fwd)
            for k in np.nonzero(fwd)[0]:
                pk = a3.path_basis[int(k)]
                mirrored[op.index[(pk.target, tuple(reversed(pk.arrows)))]] \
                    = fwd[k]
            assert np.array_equal(back, mirrored)


def test_presentations_match(a3):
    q = make_quiver([4, 5, 6], [("c", 4, 5), ("d", 5, 6)])
    b = build_algebra(q, ["c*d"], p=2)
    assert presentations_match(a3, b)
    q2 = make_quiver([4, 5, 6], [("c", 4, 5), ("d", 5, 6)])
    b2 = build_algebra(q2, [], p=2)
    assert not presentations_match(a3, b2)
