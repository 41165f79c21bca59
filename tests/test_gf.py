import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiltlab import gf

from helpers import (column_space_by_rows, greedy_quotient_map,
                     inverse_by_rows, nullspace_by_rows, quotient_map_by_rows,
                     rref_by_rows, solve_by_rows)


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


@st.composite
def matrices(draw, rows=None, cols=None):
    """(p, a): a matrix over F_p with 0-10 rows and columns, entries
    unreduced and possibly negative, and often of low rank."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m = draw(st.integers(0, 10)) if rows is None else rows
    n = draw(st.integers(0, 10)) if cols is None else cols

    def block(r, c):
        return np.array(draw(st.lists(st.integers(-3 * p, 3 * p),
                                      min_size=r * c, max_size=r * c)),
                        dtype=np.int64).reshape(r, c)

    if draw(st.booleans()):
        r = draw(st.integers(0, min(m, n)))
        return p, block(m, r) @ block(r, n)
    return p, block(m, n)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(matrices())
def test_rref_matches_the_row_by_row_oracle(pa):
    p, a = pa
    r, pivots = gf.rref(a, p)
    r_old, pivots_old = rref_by_rows(a, p)
    assert pivots == pivots_old
    assert r.shape == r_old.shape and r.dtype == r_old.dtype
    assert np.array_equal(r, r_old)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(matrices())
def test_quotient_map_matches_the_greedy_oracle(pa):
    p, sub = pa
    n = sub.shape[0]
    proj, sec = gf.quotient_map(sub, n, p)
    proj_old, sec_old = greedy_quotient_map(sub, n, p)
    assert proj.shape == proj_old.shape and np.array_equal(proj, proj_old)
    assert sec.shape == sec_old.shape and np.array_equal(sec, sec_old)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_multi_column_solve_matches_column_solves(data):
    p, a = data.draw(matrices())
    k = data.draw(st.integers(1, 4))
    _, x = data.draw(matrices(rows=a.shape[1], cols=k))
    b = a @ x
    if data.draw(st.booleans()):
        # a drawn column, consistent or not
        b[:, data.draw(st.integers(0, k - 1))] = data.draw(
            matrices(rows=a.shape[0], cols=1))[1][:, 0]
    cols = [gf.solve(a, b[:, [j]], p) for j in range(k)]
    both = gf.solve(a, b, p)
    if any(c is None for c in cols):
        assert both is None
    else:
        assert both is not None
        assert np.array_equal(both, np.concatenate(cols, axis=1))


def same(got, want):
    if want is None or got is None:
        return got is None and want is None
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.array_equal(got, want))


def check_against_the_array_route(p, a, b, sq):
    """Every routine on the row-list kernel against the same routine built
    on rref_by_rows: a any matrix, b right-hand sides for a, sq square."""
    m = a.shape[0]
    r, pivots = gf.rref(a, p)
    r_old, pivots_old = rref_by_rows(a, p)
    assert same(r, r_old) and pivots == pivots_old
    assert gf.rank(a, p) == len(pivots_old)
    assert same(gf.nullspace(a, p), nullspace_by_rows(a, p))
    assert same(gf.column_space(a, p), column_space_by_rows(a, p))
    proj, sec = gf.quotient_map(a, m, p)
    proj_old, sec_old = quotient_map_by_rows(a, m, p)
    assert same(proj, proj_old) and same(sec, sec_old)
    assert same(gf.solve(a, b, p), solve_by_rows(a, b, p))
    assert same(gf.inverse(sq, p), inverse_by_rows(sq, p))
    assert gf.is_invertible(sq, p) == (inverse_by_rows(sq, p) is not None)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_kernel_routines_match_the_array_route(data):
    p, a = data.draw(matrices())
    m, n = a.shape
    k = data.draw(st.integers(0, 4))
    _, x = data.draw(matrices(rows=n, cols=k))
    b = a @ x
    if k and data.draw(st.booleans()):
        # a drawn column, consistent or not
        b[:, data.draw(st.integers(0, k - 1))] = data.draw(
            matrices(rows=m, cols=1))[1][:, 0]
    s = data.draw(st.integers(0, 5))
    sq = a if m == n else data.draw(matrices(rows=s, cols=s))[1]
    check_against_the_array_route(p, a, b, sq)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("m,n,k", [(0, 3, 2), (4, 0, 1), (0, 0, 0),
                                   (3, 2, 0), (0, 2, 0), (2, 0, 0)])
def test_empty_systems_match_the_array_route(p, m, n, k):
    a = np.arange(m * n, dtype=np.int64).reshape(m, n)
    b = np.ones((m, k), dtype=np.int64)
    check_against_the_array_route(p, a, b, gf.zeros(min(m, n), min(m, n)))


def test_quotient_map_is_one_elimination(monkeypatch):
    calls = []
    original = gf._eliminate

    def counted(rows, ncols, p):
        calls.append((len(rows), ncols))
        return original(rows, ncols, p)

    monkeypatch.setattr(gf, "_eliminate", counted)
    counts = []
    for n in range(1, 9):
        calls.clear()
        gf.quotient_map(M([[1] * n]).T, n, 3)
        counts.append(len(calls))
    assert counts == [1] * 8
