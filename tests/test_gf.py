import numpy as np
import pytest

from tiltlab import gf


def M(rows):
    return np.array(rows, dtype=np.int64)


def test_rref_identity():
    r, piv = gf.rref(gf.eye(3), 2)
    assert np.array_equal(r, gf.eye(3))
    assert piv == [0, 1, 2]


def test_rref_mod2():
    a = M([[1, 1, 0], [1, 1, 1]])
    r, piv = gf.rref(a, 2)
    assert np.array_equal(r, M([[1, 1, 0], [0, 0, 1]]))
    assert piv == [0, 2]


def test_rank_and_nullspace():
    a = M([[1, 2, 3], [2, 4, 6]])
    assert gf.rank(a, 5) == 1
    ns = gf.nullspace(a, 5)
    assert ns.shape == (3, 2)
    assert not (gf.mul(a, ns, 5)).any()


def test_nullspace_of_invertible_is_trivial():
    a = M([[1, 1], [0, 1]])
    assert gf.nullspace(a, 3).shape == (2, 0)


def test_solve_consistent_and_inconsistent():
    a = M([[1, 0], [0, 0]])
    b = M([[1], [0]])
    x = gf.solve(a, b, 2)
    assert x is not None and np.array_equal(gf.mul(a, x, 2), b)
    assert gf.solve(a, M([[0], [1]]), 2) is None


@pytest.mark.parametrize("p", [2, 3, 5])
def test_inverse_round_trip(p):
    a = M([[1, 1], [1, 2]]) % p
    if not gf.is_invertible(a, p):
        return
    inv = gf.inverse(a, p)
    assert np.array_equal(gf.mul(a, inv, p), gf.eye(2))
    assert np.array_equal(gf.mul(inv, a, p), gf.eye(2))


def test_inverse_of_singular_is_none():
    assert gf.inverse(M([[1, 1], [1, 1]]), 2) is None


def test_column_space_canonical():
    a = M([[1, 1], [1, 1], [0, 1]])
    c = gf.column_space(a, 2)
    assert c.shape == (3, 2)
    # canonical: echelonized, so identical for any spanning set
    c2 = gf.column_space(M([[0, 1], [0, 1], [1, 1]]), 2)
    assert np.array_equal(c, c2)


def test_span_predicates():
    basis = M([[1], [0]])
    assert gf.in_span(basis, M([1, 0]), 2)
    assert not gf.in_span(basis, M([0, 1]), 2)
    assert np.array_equal(gf.column_space(basis, 2),
                          gf.column_space(M([[1, 1], [0, 0]]), 2))


def test_quotient_map_properties():
    sub = M([[1], [1], [0]])
    proj, sec = gf.quotient_map(sub, 3, 2)
    assert proj.shape == (2, 3)
    assert not gf.mul(proj, sub, 2).any()
    assert np.array_equal(gf.mul(proj, sec, 2), gf.eye(2))


def test_all_vectors_count():
    vecs = list(gf.all_vectors(2, 3))
    assert len(vecs) == 9
    assert len({tuple(v.tolist()) for v in vecs}) == 9


def test_exact_arithmetic_large_entries():
    # entries stay exact under int64 modular reduction
    p = 97
    a = M([[96, 95], [1, 96]])
    b = gf.mul(a, a, p)
    assert b.dtype == np.int64
    assert (b < p).all() and (b >= 0).all()
