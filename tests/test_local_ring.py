"""gf.local_ring and the splitting, radical and isomorphism tests built on
it, cross-checked against the exhaustive scans in helpers.py."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiltlab import algebra, derived, gf, rep

from helpers import (change_of_basis, is_derived_isomorphic_by_scan,
                     is_isomorphic_by_scan, local_radical_by_scan,
                     splitting_idempotent_by_scan)


def kronecker(p):
    return algebra.build_algebra(
        algebra.make_quiver([1, 2], [("a", 1, 2), ("b", 1, 2)]), [], p)


def running(p):
    return algebra.build_algebra(
        algebra.make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)]),
        ["a*b"], p)


def jordan_blocks(p, sizes):
    """The modules F_p[x]/(x^j) over the loop algebra F_p[x]/(x^3)."""
    loop = algebra.build_algebra(algebra.make_quiver([1], [("x", 1, 1)]),
                                 ["x*x*x"], p)
    return [rep.check_module(loop, {1: j}, {"x": np.eye(j, k=-1)})
            for j in sizes]


def f4_module(k2):
    """The module (2, 2) over the Kronecker algebra k2 over F_2 with a = 1
    and b the companion matrix of x^2 + x + 1: its End is F_4."""
    return rep.check_module(k2, {1: 2, 2: 2},
                            {"a": [[1, 0], [0, 1]], "b": [[0, 1], [1, 1]]})


@pytest.fixture(scope="module")
def families():
    """Lists of indecomposables over one algebra each, over F_2 and F_3,
    small enough for the scans: sums of two have End of dimension at most
    12 over F_2 and 8 over F_3."""
    k2 = kronecker(2)
    return [rep.enumerate_indecomposable_modules(running(2), 3),
            rep.enumerate_indecomposable_modules(running(3), 2),
            rep.enumerate_indecomposable_modules(k2, 3) + [f4_module(k2)],
            rep.enumerate_indecomposable_modules(kronecker(3), 2),
            jordan_blocks(2, (1, 2, 3)),
            jordan_blocks(3, (1, 2))]


def check_against_scans(m):
    """local_ring on End(m) agrees with the idempotent and radical scans,
    and a split it returns is one."""
    endos = rep.hom_space(m, m)
    e, rad, k = gf.local_ring([f.total() for f in endos], m.p)
    assert (e is None) == (splitting_idempotent_by_scan(endos, m.p) is None)
    assert rep.is_indecomposable(m) == (e is None)
    if e is None:
        got = (np.stack([r.flatten() for r in rad], axis=1) if rad
               else gf.zeros(m.total_dim ** 2, 0))
        assert np.array_equal(got, local_radical_by_scan(endos, m.p))
        assert k == len(endos) - len(rad)
    else:
        flat = np.stack([f.total().flatten() for f in endos], axis=1)
        assert gf.in_span(flat, e.flatten(), m.p)
        r = gf.rank(e, m.p)
        assert 0 < r < m.total_dim and gf.rank(gf.mul(e, e, m.p), m.p) == r
    return e, rad, k


def check_iso_against_scan(m, n):
    w = rep.is_isomorphic(m, n)
    assert (w is None) == (is_isomorphic_by_scan(m, n) is None)
    if w is not None:
        w.verify()
        assert w.is_iso()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_kernel_matches_scans_on_random_sums(families, data):
    mods = data.draw(st.sampled_from(families))
    picks = data.draw(st.lists(st.sampled_from(mods), min_size=1,
                               max_size=2))
    m = change_of_basis(data.draw, rep.direct_sum(picks)[0])
    check_against_scans(m)
    others = data.draw(st.one_of(
        st.permutations(picks),
        st.lists(st.sampled_from(mods), min_size=1, max_size=2)))
    check_iso_against_scan(m, change_of_basis(data.draw,
                                              rep.direct_sum(others)[0]))


def test_fitting_counterexample_splits():
    m = rep.check_module(kronecker(3), {1: 2, 2: 2},
                         {"a": [[0, 2], [2, 1]], "b": [[2, 1], [0, 2]]})
    e, _, _ = check_against_scans(m)
    assert e is not None
    check_iso_against_scan(m, m)


def test_residue_field_f4_is_local_of_degree_two():
    m = f4_module(kronecker(2))
    assert check_against_scans(m) == (None, [], 2)
    assert rep.is_indecomposable(m)
    check_iso_against_scan(m, m)
    twice = rep.direct_sum([m, m])[0]
    check_against_scans(twice)
    assert [(s.dim_vector(), k) for s, k in rep.decompose(twice)] == \
        [((2, 2), 2)]


@pytest.mark.parametrize("p", [2, 3])
def test_matrix_ring_splits(p):
    s1 = rep.simple(kronecker(p), 1)
    m = rep.direct_sum([s1, s1])[0]
    e, _, _ = check_against_scans(m)
    assert e is not None
    assert [(s.dim_vector(), k) for s, k in rep.decompose(m)] == \
        [((1, 0), 2)]
    check_iso_against_scan(m, m)


@pytest.mark.parametrize("p", [2, 3])
def test_noncommutative_local_ring(p):
    # End(P) for F_p<x, y>/(x^2, y^2, yx) is local, with [x, y] = xy
    alg = algebra.build_algebra(
        algebra.make_quiver([1], [("x", 1, 1), ("y", 1, 1)]),
        ["x*x", "y*y", "y*x"], p)
    e, rad, k = check_against_scans(rep.projective(alg, 1))
    assert e is None and len(rad) == 3 and k == 1


def test_matrix_ring_split_found_in_the_radical_candidate():
    # no element of this basis of M_2(F_2) splits, the commutators generate
    # all of it, and an element of that non-nilpotent ideal splits
    basis = [gf.eye(2)] + [np.array(m) for m in (
        [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 1], [1, 0]])]
    assert all(gf._split_element(b, 2, 4) is None for b in basis)
    e, _, _ = gf.local_ring(basis, 2)
    assert gf.rank(e, 2) == 1 and gf.rank(gf.mul(e, e, 2), 2) == 1


@pytest.fixture(scope="module")
def six():
    objs = derived.enumerate_indecomposable_complexes(running(2), 2, 4)
    assert len(objs) == 6
    return objs


def test_derived_indecomposables_match_scans(six):
    for i, x in enumerate(six):
        mx = derived.minimal_replacement(x)
        assert derived.is_indecomposable_complex(x)
        assert splitting_idempotent_by_scan(derived.chain_maps(mx, mx),
                                            2) is None
        for j, y in enumerate(six):
            assert derived.is_derived_isomorphic(x, y) == (i == j) == \
                is_derived_isomorphic_by_scan(x, y)


def test_sums_of_derived_indecomposables_match_scans(six):
    for i, x in enumerate(six):
        for j, y in enumerate(six[i:], start=i):
            s, _ = derived.direct_sum_complexes([x, y])
            ms = derived.minimal_replacement(s)
            assert not derived.is_indecomposable_complex(s)
            assert splitting_idempotent_by_scan(derived.chain_maps(ms, ms),
                                                2) is not None
            parts = derived.decompose_complex(s)
            assert sorted(six.index(next(z for z in six if
                                         derived.is_derived_isomorphic(z, q)))
                          for q in parts) == [i, j]
            flipped, _ = derived.direct_sum_complexes([y, x])
            assert derived.is_derived_isomorphic(s, flipped)
            doubled, _ = derived.direct_sum_complexes([x, x])
            assert derived.is_derived_isomorphic(s, doubled) == (i == j) \
                == is_derived_isomorphic_by_scan(s, doubled)
