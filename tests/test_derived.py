"""Bounded derived category over the three-vertex running algebra."""

import contextlib
import io
from importlib import resources
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tiltlab import algebra, cli, derived, gf, homology, rep, tilting
from tiltlab.errors import SearchExhausted

from helpers import (complex_change_of_basis, cone_triangle,
                     derived_hom_dim_by_replacement, enumerate_by_full_hom,
                     has_invertible_block, has_invertible_component,
                     has_projective_terms, identity_chain,
                     is_derived_isomorphic_by_scan, is_nullhomotopic,
                     is_quasi_iso, part_blocks, rebuilt_over, uncached,
                     visibly_splits)

RUNNING = str(resources.files("tiltlab").joinpath("data/running.tilt"))


@pytest.fixture(scope="module")
def a3():
    q = algebra.make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])
    return algebra.build_algebra(q, ["a*b"], 2)


@pytest.fixture(scope="module")
def mods(a3):
    return {
        "1": rep.simple(a3, 1),
        "2": rep.simple(a3, 2),
        "3": rep.simple(a3, 3),
        "12": rep.projective(a3, 1),
        "23": rep.projective(a3, 2),
    }


@pytest.fixture(scope="module")
def tilt(mods):
    return rep.direct_sum([mods["23"], mods["12"], mods["1"]])[0]


def stalk(m, d=0):
    return derived.stalk_complex(m, d)


def test_shift_convention(mods, a3):
    g = rep.hom_space(mods["23"], mods["12"])[0]
    x = derived.Complex(a3, {-1: mods["23"], 0: mods["12"]}, {-1: g})
    y = derived.shift(x, 1)
    assert y.support == [-2, -1]
    # odd shift negates the differential
    assert np.array_equal(y.diff(-2).total(), (-g.total()) % 2)
    z = derived.shift(y, -1)
    assert z.encode() == x.encode()


def test_two_term_cohomology(mods, a3):
    g = rep.hom_space(mods["23"], mods["12"])[0]
    x = derived.Complex(a3, {-1: mods["23"], 0: mods["12"]}, {-1: g})
    assert derived.cohomology(x, 0).dim_vector() == (1, 0, 0)
    assert derived.cohomology(x, -1).dim_vector() == (0, 0, 1)


def test_cone_of_surjection_is_shifted_kernel(mods):
    f = rep.hom_space(mods["23"], mods["2"])[0]
    assert f.is_epi()
    c = derived.cone(derived.ChainMap(stalk(mods["23"]), stalk(mods["2"]),
                                      {0: f}))
    assert derived.cohomology_profile(c) == {-1: (0, 0, 1)}
    assert derived.is_derived_isomorphic(c, derived.shift(stalk(mods["3"]), 1))


def test_cone_of_identity_vanishes(tilt):
    c = derived.cone(identity_chain(stalk(tilt)))
    assert derived.is_zero_in_derived(c)


def test_cone_of_zero_map_splits(mods, a3):
    z = derived.ChainMap(stalk(mods["3"]), stalk(mods["2"]), {})
    c = derived.cone(z)
    split = derived.Complex(a3, {-1: mods["3"], 0: mods["2"]}, {})
    assert derived.is_derived_isomorphic(c, split)


def test_triangle_euler_characteristic(mods):
    f = rep.hom_space(mods["23"], mods["12"])[0]
    tri = cone_triangle(derived.ChainMap(stalk(mods["23"]),
                                         stalk(mods["12"]), {0: f}))
    c, inc, proj = tri
    inc.verify()
    proj.verify()

    def euler(x):
        return sum((-1) ** n * sum(h)
                   for n, h in derived.cohomology_profile(x).items())

    assert euler(c) == euler(stalk(mods["12"])) - euler(stalk(mods["23"]))


def test_projective_replacement_of_simple(mods):
    px, qis = derived.projective_replacement(stalk(mods["2"]))
    assert {n: px.terms[n].dim_vector() for n in px.support} == \
        {-1: (0, 0, 1), 0: (0, 1, 1)}
    assert is_quasi_iso(qis)
    assert has_projective_terms(px)


def test_projective_replacement_preserves_cohomology(mods, a3):
    g = rep.hom_space(mods["23"], mods["12"])[0]
    x = derived.Complex(a3, {-1: mods["23"], 0: mods["12"]}, {-1: g})
    px, qis = derived.projective_replacement(x)
    assert derived.cohomology_profile(px) == derived.cohomology_profile(x)
    assert is_quasi_iso(qis)


def test_derived_hom_matches_ext(tilt, mods, a3):
    tc = stalk(tilt)
    for name in ("1", "2", "3", "12", "23"):
        for i in range(4):
            d = derived.derived_hom_dim(
                tc, derived.shift(stalk(mods[name]), i))
            assert d == homology.ext_dim(tilt, mods[name], i), (name, i)


def test_derived_hom_shift_detection(tilt, mods):
    tc = stalk(tilt)
    assert derived.derived_hom_dim(
        tc, derived.shift(stalk(mods["3"]), 1)) == 0
    assert derived.derived_hom_dim(
        tc, derived.shift(stalk(mods["3"]), 2)) == 1


def test_nullhomotopy_detection(mods):
    p23 = stalk(mods["23"])
    px, _ = derived.projective_replacement(stalk(mods["2"]))
    # the inclusion of the degree-0 term composed with nothing: build the
    # chain map px -> px given by d in degree -1 followed by inclusion
    endos = derived.chain_maps(px, px)
    ident = identity_chain(px)
    assert not is_nullhomotopic(ident)
    classes = derived.hom_homotopy(px, px)
    # End of an indecomposable complex over F_2 modulo homotopy is local
    assert len(classes) >= 1
    assert len(derived.chain_maps(p23, p23)) == 1


def test_minimize_cancels_iso_component(mods, a3):
    p2 = mods["23"]
    tot, incs, _ = rep.direct_sum([p2, mods["2"]])
    f = rep.compose(incs[0], rep.identity_map(p2))
    x = derived.Complex(a3, {0: p2, 1: tot}, {0: f})
    m = derived.minimize_complex(x)
    assert {n: m.terms[n].dim_vector() for n in m.support} == {1: (0, 1, 0)}


def test_decompose_complex(mods, a3):
    tot = rep.direct_sum([mods["23"], mods["2"]])[0]
    parts = derived.decompose_complex(derived.Complex(a3, {0: tot}, {}))
    profiles = sorted(tuple(sorted(derived.cohomology_profile(c).items()))
                      for c in parts)
    assert profiles == [(((0, (0, 1, 0)),)), (((0, (0, 1, 1)),))]


def _two_term(a3, data, degree):
    """A random complex T0 -> T1 in degrees degree, degree + 1, each term a
    sum of one or two enumerated indecomposables of dimension at most 2."""
    indecs = rep.enumerate_indecomposable_modules(a3, 2)
    terms = [rep.direct_sum(data.draw(st.lists(st.sampled_from(indecs),
                                               min_size=1, max_size=2)))[0]
             for _ in range(2)]
    d = rep.zero_map(*terms)
    for f in rep.hom_space(*terms):
        d = d + f.scale(data.draw(st.integers(0, a3.p - 1)))
    # check=True verifies d o d = 0 and that d is a module map
    return derived.Complex(a3, {degree: terms[0], degree + 1: terms[1]},
                           {degree: d})


@settings(max_examples=15, derandomize=True, deadline=None)
@given(data=st.data())
def test_early_exit_indecomposability_matches_decomposition(a3, data):
    x = _two_term(a3, data, -1)
    assert derived.is_indecomposable_complex(x) == (
        len(derived.decompose_complex(x)) == 1)


def _check_chain_maps_by_scan(x, y):
    p = x.p
    basis = derived.chain_maps(x, y)
    for f in basis:
        f.verify()
        back = derived.ChainMap.from_total(x, y, f.total())
        assert all(np.array_equal(back.map_at(n).blocks[v],
                                  f.map_at(n).blocks[v])
                   for n in set(x.support) | set(y.support)
                   for v in f.map_at(n).blocks)
    if basis:
        flat = np.stack([f.total().flatten() for f in basis], axis=1)
        assert gf.rank(flat, p) == len(basis)
    # every tuple of degreewise maps, kept when it commutes with d
    gens = [derived.ChainMap(x, y, {n: g}, check=False)
            for n in sorted(set(x.support) & set(y.support))
            for g in rep.hom_space(x.terms[n], y.terms[n])]
    commuting = 0 if gens else 1  # all_maps([]) omits the zero map
    for f in rep.all_maps(gens, p):
        try:
            f.verify()
        except ValueError:
            continue
        commuting += 1
    assert commuting == p ** len(basis)
    classes = derived.hom_homotopy(x, y)
    null = derived.homotopy_span(x, y, basis)
    assert len(classes) + gf.rank(null, p) == len(basis)
    if classes:
        coords = homology.coords_in_basis(basis, classes)
        both = np.concatenate([null, coords], axis=1)
        assert gf.rank(both, p) == gf.rank(null, p) + len(classes)


@settings(max_examples=15, derandomize=True, deadline=None)
@given(data=st.data())
def test_chain_maps_match_exhaustive_scan(a3, data):
    x = _two_term(a3, data, -1)
    # x itself, or supports equal or overlapping in one degree only
    degree = data.draw(st.sampled_from([None, -2, -1, 0]))
    _check_chain_maps_by_scan(
        x, x if degree is None else _two_term(a3, data, degree))


@pytest.mark.parametrize("p", [2, 3])
def test_chain_maps_match_exhaustive_scan_on_resolutions(p):
    alg = algebra.build_algebra(
        algebra.make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)]),
        ["a*b"], p)
    proj = {v: rep.projective(alg, v) for v in (1, 2, 3)}
    # P3 -> P2 and P2 -> P1 with nonzero differentials, the first shifted
    cplx = [derived.Complex(alg, {-1: proj[s], 0: proj[t]},
                            {-1: rep.hom_space(proj[s], proj[t])[0]})
            for s, t in ((3, 2), (2, 1))]
    cplx.append(derived.shift(cplx[0], 1))
    for x in cplx:
        for y in cplx:
            _check_chain_maps_by_scan(x, y)


def _linear_a2():
    return algebra.build_algebra(
        algebra.make_quiver([1, 2], [("a", 1, 2)]), [], 2)


def test_candidate_differential_refusal_names_its_size(monkeypatch):
    # drop every candidate, so that the search reaches the first choice of
    # terms whose radical coordinates exceed the cap: 2 (+) 2 -> 12
    monkeypatch.setattr(derived, "is_indecomposable_complex",
                        lambda x: False)
    with pytest.raises(SearchExhausted) as info:
        derived.enumerate_indecomposable_complexes(_linear_a2(), 2, 4, cap=2)
    assert str(info.value) == (
        "derived enumeration: differentials of the complex with terms "
        "[(0, 2), (1, 1)]: 2^2 exceeds cap 2")


def test_candidate_differential_cap_is_reached_unstubbed():
    # the stalks need no coordinate; 2 -> 12 has one radical coordinate
    with pytest.raises(SearchExhausted) as info:
        derived.enumerate_indecomposable_complexes(_linear_a2(), 2, 3, cap=1)
    assert str(info.value) == (
        "derived enumeration: differentials of the complex with terms "
        "[(0, 1), (1, 1)]: 2^1 exceeds cap 1")


@pytest.fixture(scope="module")
def interval_modules(a3):
    """(algebra, its interval modules) for the running example over F_2
    and the path algebra of linear A3 over F_2 and F_3."""
    out = [(a3, rep.enumerate_indecomposable_modules(a3, 3))]
    q = algebra.make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])
    for p in (2, 3):
        alg = algebra.build_algebra(q, [], p)
        out.append((alg, rep.enumerate_indecomposable_modules(alg, 3)))
    return out


def _candidate(data, interval_modules):
    """A two-term candidate built as the enumeration builds it: each term
    the direct sum of one or two interval modules (a lone part is the term
    itself), the differential a random combination of a Hom basis."""
    alg, indecs = data.draw(st.sampled_from(interval_modules))
    combo = [data.draw(st.lists(st.sampled_from(indecs), min_size=1,
                                max_size=2)) for _ in range(2)]
    terms = [rep.direct_sum(parts)[0] if len(parts) > 1 else parts[0]
             for parts in combo]
    d = rep.zero_map(*terms)
    for f in rep.hom_space(*terms):
        d = d + f.scale(data.draw(st.integers(0, alg.p - 1)))
    return alg, combo, derived.Complex(alg, dict(enumerate(terms)), {0: d})


def _to_minimize(data, a3, interval_modules):
    """A two- or three-term complex over one algebra of interval_modules:
    a _two_term (running example only) or a _candidate complex in degrees
    0, 1, or M^2 -> N^2 with random blocks, N = M or not; a three-term one
    is the cone of a random chain map between two of them."""
    alg, indecs = data.draw(st.sampled_from(interval_modules))

    def two_term():
        kind = data.draw(st.sampled_from(
            ["candidate", "repeated"] + (["two_term"] if alg is a3 else [])))
        if kind == "two_term":
            return _two_term(a3, data, 0)
        if kind == "candidate":
            return _candidate(data, [(alg, indecs)])[2]
        m, n = (data.draw(st.sampled_from(indecs)) for _ in range(2))
        n = m if data.draw(st.booleans()) else n
        terms = [rep.direct_sum([m, m])[0], rep.direct_sum([n, n])[0]]
        d = rep.zero_map(*terms)
        for f in rep.hom_space(*terms):
            d = d + f.scale(data.draw(st.integers(0, alg.p - 1)))
        return derived.Complex(alg, dict(enumerate(terms)), {0: d})

    x = two_term()
    if not data.draw(st.booleans()):
        return x
    y = two_term()
    f = derived.ChainMap(x, y, {}, check=False)
    for g in derived.chain_maps(x, y):
        f = f + g.scale(data.draw(st.integers(0, alg.p - 1)))
    return derived.cone(f)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(data=st.data())
def test_minimize_complex_leaves_no_invertible_component(a3, interval_modules,
                                                         data):
    x = _to_minimize(data, a3, interval_modules)
    m = derived.minimize_complex(x)
    assert not any(has_invertible_component(d) for d in m.diffs.values())
    # x itself exactly when it has nothing to cancel
    assert (m is x) == (not any(has_invertible_component(d)
                                for d in x.diffs.values()))
    assert derived.cohomology_profile(m) == derived.cohomology_profile(x)
    # the scan may try all p^dim Hom(x, m) maps, up to 2^20 on these inputs
    assume(x.p ** len(derived.hom_homotopy(
        derived.projective_replacement(x)[0], m)) <= 1024)
    assert is_derived_isomorphic_by_scan(x, m)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_visible_split_is_a_decomposition(interval_modules, data):
    alg, combo, cand = _candidate(data, interval_modules)
    blocks = part_blocks(combo, cand.diffs)
    if visibly_splits(alg, combo, blocks):
        assert len(derived.decompose_complex(cand)) >= 2


@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_invertible_block_matches_decomposition_oracle(interval_modules,
                                                       data):
    alg, combo, cand = _candidate(data, interval_modules)
    blocks = part_blocks(combo, cand.diffs)
    assert has_invertible_block(blocks, alg.p) == \
        has_invertible_component(cand.diffs[0])


def test_acyclic_group_is_not_a_visible_summand(a3, mods):
    # 0 -> 2 -> 12 -> 1 -> 0 is exact, so this is the stalk 3 in D^b
    combo = [[mods["2"], mods["3"]], [mods["12"]], [mods["1"]]]
    terms = {i: rep.direct_sum(parts)[0] if len(parts) > 1 else parts[0]
             for i, parts in enumerate(combo)}
    diffs = {i: rep.hom_space(terms[i], terms[i + 1])[0] for i in (0, 1)}
    cand = derived.Complex(a3, terms, diffs)
    blocks = part_blocks(combo, diffs)
    assert not has_invertible_block(blocks, a3.p)
    assert not visibly_splits(a3, combo, blocks)
    assert derived.cohomology_profile(cand) == {0: (0, 0, 1)}
    assert derived.is_indecomposable_complex(cand)
    # the enumeration skips the disconnected pattern and finds the stalk
    assert derived._spanning_tree([2, 1, 1], sorted(blocks)) is None
    assert any(derived.is_derived_isomorphic(cand, x) for x in
               derived.enumerate_indecomposable_complexes(a3, 3, 4))


def _enumeration_inputs():
    """(algebra, width bound, dim bound): the running example, the
    perfbench A4_DA and linear A3, at width 2 and at width 3."""
    q3 = algebra.make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])
    q4 = algebra.make_quiver([1, 2, 3, 4],
                             [("a", 1, 2), ("b", 2, 3), ("c", 3, 4)])
    algs = [algebra.build_algebra(q, rels, p)
            for q, rels in ((q3, ["a*b"]), (q3, []))
            for p in (2, 3, 5)]
    algs.append(algebra.build_algebra(q4, ["a*b", "b*c"], 2))
    return [(alg, 2, 4) for alg in algs] + [(alg, 3, 3) for alg in algs]


@settings(max_examples=14, derandomize=True, deadline=None)
@given(st.sampled_from(_enumeration_inputs()))
def test_radical_enumeration_matches_the_full_hom_oracle(case):
    alg, width, dim = case
    new = derived.enumerate_indecomposable_complexes(alg, width, dim)
    old = enumerate_by_full_hom(alg, width, dim)
    assert len(new) == len(old)
    for x in new:
        assert sum(derived.is_derived_isomorphic(x, y) for y in old) == 1


@pytest.fixture(scope="module")
def split_inputs(interval_modules):
    """(algebra, its indecomposables, the pairs (M, N) of two of them with
    Hom(M, N) nonzero) for the running example over F_2 and F_3 and A4
    with a*b and b*c over F_2, of global dimension 2 and 3, where the Ext
    test decides; and for linear A3 over F_3."""
    q3 = algebra.make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])
    q4 = algebra.make_quiver([1, 2, 3, 4],
                             [("a", 1, 2), ("b", 2, 3), ("c", 3, 4)])
    algs = [algebra.build_algebra(q3, ["a*b"], 3),
            algebra.build_algebra(q4, ["a*b", "b*c"], 2)]
    out = interval_modules[:1] + interval_modules[2:] + [
        (alg, rep.enumerate_indecomposable_modules(alg, 4)) for alg in algs]
    return [(alg, indecs, [(m, n) for m, n in product(indecs, repeat=2)
                           if m is not n and rep.hom_space(m, n)])
            for alg, indecs in out]


@settings(max_examples=80, derandomize=True, deadline=None)
@given(data=st.data())
def test_a_candidate_decided_by_its_cohomology_is_not_new(split_inputs, data):
    """Random width-2 candidates x: a map between two indecomposables with
    maps between them, each term perhaps with one more summand, and a
    random differential."""
    alg, indecs, pairs = data.draw(st.sampled_from(split_inputs))
    terms = [rep.direct_sum([m] + data.draw(
        st.lists(st.sampled_from(indecs), max_size=1)))[0]
        for m in data.draw(st.sampled_from(pairs))]
    d = rep.zero_map(*terms)
    for f in rep.hom_space(*terms):
        d = d + f.scale(data.draw(st.integers(0, alg.p - 1)))
    cand = derived.Complex(alg, dict(enumerate(terms)), {0: d})
    prof = derived.cohomology_profile(cand)
    if prof and derived._splits_by_cohomology(cand, prof):
        assert len(derived.decompose_complex(cand)) >= 2 or any(
            derived.is_derived_isomorphic(cand, stalk(m, k))
            for m in indecs for k in prof)


def test_the_two_term_object_is_not_decided_by_its_cohomology(a3, mods):
    # 2/3 -> 1/2 has H^-1 = 3 and H^0 = 1, and Ext^2(1, 3) is not zero
    g = rep.hom_space(mods["23"], mods["12"])[0]
    x = derived.Complex(a3, {-1: mods["23"], 0: mods["12"]}, {-1: g})
    assert not derived._splits_by_cohomology(x, derived.cohomology_profile(x))
    # 1 -> 2/3 with the zero differential: Ext^2(2/3, 1) = 0
    y = derived.Complex(a3, {-1: mods["1"], 0: mods["23"]}, {})
    assert derived._splits_by_cohomology(y, derived.cohomology_profile(y))


def test_the_cohomology_skip_keeps_the_enumeration(monkeypatch):
    """The same objects, in the same order, with and without the skip, on
    fresh algebras: the inputs of the full-Hom oracle test and A4 at width
    3 and dim 4."""
    def run():
        cases = _enumeration_inputs()
        cases.append((cases[-1][0], 3, 4))
        return [[x.encode() for x in
                 derived.enumerate_indecomposable_complexes(*case)]
                for case in cases]

    skipped = run()
    monkeypatch.setattr(derived, "_splits_by_cohomology", lambda x, prof: False)
    assert skipped == run()


def test_one_candidate_per_rescaling_orbit():
    """Over F_5, every radical differential on a connected pattern of two
    terms of total dimension at most 5, one of them with two or more parts,
    is chain-isomorphic by rescaling the parts to exactly one candidate of
    the enumeration."""
    alg = algebra.build_algebra(
        algebra.make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)]),
        ["a*b"], 5)
    p, indecs = alg.p, rep.enumerate_indecomposable_modules(alg, 4)
    sums = [s for s in tilting._sums_with_dim_bound(indecs, 4) if s]
    scanned = 0
    for combo in product(sums, repeat=2):
        if max(map(len, combo)) < 2 or \
                sum(m.total_dim for parts in combo for m in parts) > 5:
            continue
        sizes = [len(parts) for parts in combo]
        radical = {}   # every non-invertible map, by the exhaustive scan
        for a, m in enumerate(combo[0]):
            for b, n in enumerate(combo[1]):
                maps = [f.total() for f in rep.all_maps(
                    rep.hom_space(m, n), p, skip_zero=True) if not f.is_iso()]
                if maps:
                    radical[0, a, b] = maps
        edges = [(key, None, *derived._radical_maps(
            combo[0][key[1]], combo[1][key[2]], 10 ** 6)[1:])
            for key in sorted(radical)]
        reps = list(derived._candidate_blocks(sizes, edges, p))
        for pattern in product((False, True), repeat=len(radical)):
            keys = [k for k, on in zip(sorted(radical), pattern) if on]
            if derived._spanning_tree(sizes, keys) is None:
                continue
            for mats in product(*(radical[k] for k in keys)):
                scanned += 1
                assert sum(_rescaled(dict(zip(keys, mats)), r, sizes, p)
                           for r in reps) == 1
    assert scanned == 416


def _rescaled(d: dict, r: dict, sizes: list, p: int) -> bool:
    """Whether units on the parts turn the blocks d into the blocks r: the
    block from part a of term i to part b becomes l(i + 1, b) l(i, a)^-1
    times itself."""
    if d.keys() != r.keys():
        return False
    nodes = [(i, a) for i, n in enumerate(sizes) for a in range(n)]
    for units in product(range(1, p), repeat=len(nodes)):
        unit = dict(zip(nodes, units))
        if all(np.array_equal(r[i, a, b], unit[i + 1, b] * pow(
                unit[i, a], p - 2, p) * d[i, a, b] % p) for i, a, b in d):
            return True
    return False


def test_running_example_enumeration_scans_few_candidates(monkeypatch):
    calls = []
    original = derived.is_indecomposable_complex

    def counted(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(derived, "is_indecomposable_complex", counted)
    bundled = str(resources.files("tiltlab").joinpath("data/running.tilt"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["derived-indec", bundled]) == 0
    # 94 before candidates that visibly split were skipped
    assert len(calls) <= 14


def test_running_example_enumeration_replaces_each_candidate_once(
        monkeypatch):
    calls = []
    original = derived.projective_replacement

    def counted(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(derived, "projective_replacement", counted)
    bundled = str(resources.files("tiltlab").joinpath("data/running.tilt"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["derived-indec", bundled]) == 0
    # 28 while record and the deduplication replaced again, 14 while
    # candidates whose cohomology decides them were tested
    assert len(calls) == 6


@pytest.fixture(scope="module")
def universes(a3):
    """The enumerated universes of the running example and of the path
    algebra of linear A3."""
    hereditary = algebra.build_algebra(a3.quiver, [], 2)
    return [derived.enumerate_indecomposable_complexes(alg, 2, 4)
            for alg in (a3, hereditary)]


@pytest.fixture(scope="module")
def universe_f3(a3):
    """The enumerated universe of the running example over F_3, where the
    sign of an odd shift shows in the encoding."""
    return derived.enumerate_indecomposable_complexes(
        algebra.build_algebra(a3.quiver, ["a*b"], 3), 2, 4)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_derived_hom_dim_matches_the_unshifted_replacement(universes,
                                                            universe_f3, data):
    # over F_3 the homotopy rows d sigma + sigma d differ from the
    # unsigned rows that derived_hom_dim ranks
    universe = data.draw(st.sampled_from(universes + [universe_f3]))
    u, v = data.draw(st.sampled_from(universe)), \
        data.draw(st.sampled_from(universe))
    x = derived.shift(u, data.draw(st.integers(-2, 2)))
    y = derived.shift(v, data.draw(st.integers(-2, 2)))
    assert derived.derived_hom_dim(x, y) == \
        derived_hom_dim_by_replacement(x, y)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_shift_carries_the_shift_class_key(universes, universe_f3, data):
    x = derived.shift(data.draw(st.sampled_from(data.draw(
        st.sampled_from(universes + [universe_f3])))),
        data.draw(st.integers(-2, 2)))
    xk = derived.shift(x, data.draw(st.integers(-3, 3)))
    assert xk.shift_key() == x.shift_key() == uncached(xk).shift_key() \
        == uncached(derived.shift(uncached(x), x.top())).encode()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_shift_carries_the_cohomology_profile(universes, data):
    x = uncached(data.draw(st.sampled_from(data.draw(
        st.sampled_from(universes)))))
    derived.cohomology_profile(x)
    xk = derived.shift(x, data.draw(st.integers(-3, 3)))
    assert xk._profile is not None
    assert derived.cohomology_profile(xk) \
        == derived.cohomology_profile(uncached(xk))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_cohomology_profile_matches_the_cohomology_modules(universes,
                                                           universe_f3, data):
    """The profile read from ranks against the cohomology modules, on
    universe objects under a change of basis and a shift, and on up to two
    nested cones of chain maps into such objects."""
    universe = data.draw(st.sampled_from(universes + [universe_f3]))

    def draw_object(top):
        x = complex_change_of_basis(data.draw, data.draw(
            st.sampled_from(universe)))
        return derived.shift(x, x.top() - top)

    x = draw_object(data.draw(st.integers(-2, 2)))
    for _ in range(data.draw(st.integers(0, 2))):
        # y ends where x does: chain maps x -> y are likely, and the cone
        # is wider than x
        y = draw_object(x.top())
        basis = derived.chain_maps(x, y)
        if basis:
            coeffs = data.draw(st.lists(st.integers(0, x.p - 1),
                                        min_size=len(basis),
                                        max_size=len(basis)))
            f = basis[0].scale(coeffs[0])
            for c, g in zip(coeffs[1:], basis[1:]):
                f = f + g.scale(c)
            x = derived.cone(f)
    x = uncached(x)
    assert derived.cohomology_profile(x) == {
        n: h.dim_vector() for n in x.support
        if (h := derived.cohomology(x, n)).total_dim}


@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_derived_hom_dim_of_a_common_shift_matches_a_fresh_algebra(
        universes, data):
    x, y = (derived.shift(data.draw(st.sampled_from(universes[0])),
                          data.draw(st.integers(-2, 2))) for _ in range(2))
    s = data.draw(st.integers(-3, 3))
    fresh = cli.parse_workspace(RUNNING).algebra
    assert derived.derived_hom_dim(derived.shift(x, s), derived.shift(y, s)) \
        == derived.derived_hom_dim(rebuilt_over(fresh, x),
                                   rebuilt_over(fresh, y))


def test_adjacent_shifts_share_a_hom_complex_rank(universes, monkeypatch):
    # Hom(x, y[s]) reads the relative degrees j and j - 1, j = top(x) -
    # top(y) + s, so five adjacent shifts need at most six (dim, rank)
    # pairs where a memo per shift would rank ten systems
    calls = []
    rank = derived.hom_complex_rank

    def counted(*args):
        calls.append(args[-1])
        return rank(*args)

    monkeypatch.setattr(derived, "hom_complex_rank", counted)
    for u, v in product(universes[0], repeat=2):
        fresh = algebra.build_algebra(u.algebra.quiver, ["a*b"], 2)
        x, y = rebuilt_over(fresh, u), rebuilt_over(fresh, v)
        calls.clear()
        for s in range(-2, 3):
            ys = derived.shift(y, s)
            assert derived.derived_hom_dim(x, ys) == \
                derived_hom_dim_by_replacement(x, ys), (u, v, s)
        assert len(calls) <= 6, (u, v, calls)


def test_verify_builds_hom_complexes_only_where_degrees_meet(monkeypatch):
    # derived_hom_dim answers (0, 0) from the supports of the replacement
    # and of y where no degree n has both P^n and y^(n+k) nonzero: 336
    # map_system calls, 302 of them with no unknowns, when every relative
    # degree built its system; the output is the recorded one
    calls = []
    map_system = homology.map_system

    def counted(*args):
        out = map_system(*args)
        calls.append(bool(out[0]))
        return out

    monkeypatch.setattr(homology, "map_system", counted)
    monkeypatch.setattr(derived, "map_system", counted)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["verify", RUNNING, "--format", "machine"]) == 0
    golden = Path(__file__).parent / "golden" / "verify.out"
    assert out.getvalue() == golden.read_text()
    assert len(calls) <= 59, (len(calls), calls.count(False))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_minimal_replacement_of_a_shift_is_the_shifted_replacement(
        universes, data):
    x = data.draw(st.sampled_from(data.draw(st.sampled_from(universes))))
    s = data.draw(st.integers(-3, 3))
    xs = derived.shift(x, s)
    mxs = derived.minimal_replacement(xs)
    assert derived.cohomology_profile(mxs) == {
        n - s: h for n, h in derived.cohomology_profile(x).items()}
    assert has_projective_terms(mxs)
    assert not any(has_invertible_component(d) for d in mxs.diffs.values())
    # universe objects are indecomposable, so _minimal_iso decides
    for other in (derived.shift(derived.minimal_replacement(x), s),
                  derived.minimize_complex(
                      derived.projective_replacement(xs)[0])):
        assert derived._minimal_iso(mxs, other) is not None


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(st.integers(1, 5), max_size=6), st.integers(0, 3),
       st.integers(0, 12), st.sets(st.tuples(st.integers(0, 5),
                                             st.integers(0, 5))))
def test_budget_pruned_picks_follow_the_product_order(sizes, width, budget,
                                                      links):
    want = [pick for pick in product(range(len(sizes)), repeat=width)
            if sum(sizes[k] for k in pick) <= budget
            and all(pair in links for pair in zip(pick, pick[1:]))]
    assert list(derived._picks_within(sizes, width, budget,
                                      lambda k, l: (k, l) in links)) == want


@pytest.mark.parametrize("rels, p, width, dim", [
    (["a*b"], 2, 3, 4), (["a*b"], 3, 3, 4), (["a*b", "b*c"], 2, 3, 5)])
def test_linked_picks_are_the_unpruned_picks_that_join_their_parts(
        monkeypatch, rels, p, width, dim):
    """The enumeration extends a pick only by a term with a nonzero
    radical from the previous term; the picks it yields that join their
    parts are those of the unpruned product order."""
    arrows = [("a", 1, 2), ("b", 2, 3), ("c", 3, 4)][:len(rels) + 1]
    alg = algebra.build_algebra(algebra.make_quiver(
        list(range(1, len(arrows) + 2)), arrows), rels, p)
    yielded, picks = {}, derived._picks_within

    def recorded(sizes, width, budget, linked):
        yielded[width] = list(picks(sizes, width, budget, linked))
        return iter(yielded[width])

    monkeypatch.setattr(derived, "_picks_within", recorded)
    derived.enumerate_indecomposable_complexes(alg, width, dim)
    choices = [s for s in tilting._sums_with_dim_bound(
        rep.enumerate_indecomposable_modules(alg, dim), dim) if s]
    sizes = [sum(m.total_dim for m in parts) for parts in choices]

    def joins(pick):
        combo = [choices[k] for k in pick]
        keys = [(i, a, b) for i in range(len(pick) - 1)
                for (a, m), (b, n) in product(enumerate(combo[i]),
                                              enumerate(combo[i + 1]))
                if derived._radical_maps(m, n, 1)[0]]
        return derived._spanning_tree([len(c) for c in combo],
                                      keys) is not None

    for w in range(1, width + 1):
        every = list(picks(sizes, w, dim, lambda k, l: True))
        assert [pick for pick in yielded[w] if joins(pick)] == \
            [pick for pick in every if joins(pick)]
        if w > 1:
            assert len(yielded[w]) < len(every)


def test_a4_dim_bound_five_finds_the_dim_bound_four_profiles():
    q = algebra.make_quiver([1, 2, 3, 4],
                            [("a", 1, 2), ("b", 2, 3), ("c", 3, 4)])
    alg = algebra.build_algebra(q, ["a*b", "b*c"], 2)

    def profiles(dim_bound):
        return sorted(tuple(sorted(derived.cohomology_profile(c).items()))
                      for c in derived.enumerate_indecomposable_complexes(
                          alg, 2, dim_bound))

    four = profiles(4)
    assert len(four) == 9
    assert profiles(5) == four


def test_indecomposable_complexes_running_example(a3, mods):
    objs = derived.enumerate_indecomposable_complexes(a3, 2, 4)
    assert len(objs) == 6
    profiles = sorted(tuple(sorted(derived.cohomology_profile(c).items()))
                      for c in objs)
    expected = sorted([
        ((0, (1, 0, 0)),),
        ((0, (0, 1, 0)),),
        ((0, (0, 0, 1)),),
        ((0, (1, 1, 0)),),
        ((0, (0, 1, 1)),),
        ((-1, (0, 0, 1)), (0, (1, 0, 0))),
    ])
    assert profiles == expected
    # the genuinely two-term object is the cone direction 2/3 -> 1/2
    two_term = [c for c in objs if len(derived.cohomology_profile(c)) == 2]
    assert len(two_term) == 1
    g = rep.hom_space(mods["23"], mods["12"])[0]
    x = derived.Complex(a3, {-1: mods["23"], 0: mods["12"]}, {-1: g})
    assert derived.is_derived_isomorphic(two_term[0], x)


def test_enumeration_dedups_shifts(a3, mods):
    objs = derived.enumerate_indecomposable_complexes(a3, 2, 4)
    for c in objs:
        assert max(derived.cohomology_profile(c)) == 0
        assert derived.is_indecomposable_complex(c)


def test_enumeration_computes_global_dimension_once(monkeypatch):
    fresh = algebra.build_algebra(
        algebra.make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)]), ["a*b"], 2)
    calls = []
    original = homology.projective_dimension

    def counted(m):
        calls.append(m.dim_vector())
        return original(m)

    monkeypatch.setattr(homology, "projective_dimension", counted)
    derived.enumerate_indecomposable_complexes(fresh, 2, 3)
    # one resolution per simple module: gl.dim A computed a single time
    assert sorted(calls) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_all_maps_skip_zero_over_chain_maps(mods):
    x = stalk(rep.direct_sum([mods["1"], mods["2"]])[0])
    endos = derived.chain_maps(x, x)
    assert len(endos) == 2
    maps = list(rep.all_maps(endos, 2, skip_zero=True))
    assert len(maps) == 3
    totals = {tuple(f.map_at(0).total().flatten().tolist()) for f in maps}
    assert len(totals) == 3 and not any(f.is_zero() for f in maps)


def test_one_vertex_algebra_single_object():
    b = algebra.build_algebra(algebra.make_quiver([1], []), [], 2)
    objs = derived.enumerate_indecomposable_complexes(b, 2, 2)
    assert len(objs) == 1
    assert derived.cohomology_profile(objs[0]) == {0: (1,)}


def test_chain_map_composition(mods):
    f = rep.hom_space(mods["23"], mods["2"])[0]
    cf = derived.ChainMap(stalk(mods["23"]), stalk(mods["2"]), {0: f})
    ident = identity_chain(stalk(mods["23"]))
    comp = derived.compose_chain(cf, ident)
    assert np.array_equal(comp.map_at(0).total(), f.total())


def test_quasi_iso_composed_with_shift(mods):
    px, qis = derived.projective_replacement(stalk(mods["2"]))
    assert derived.is_derived_isomorphic(derived.shift(px, 1),
                                         derived.shift(stalk(mods["2"]), 1))
