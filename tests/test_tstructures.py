"""t-structures, hearts and t-trees over the three-vertex running algebra."""

from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tiltlab import algebra, cli, derived, gf, rep, tilting, tstructures
from tiltlab.errors import LocalityUndecided, ModeUnsupported

from helpers import (change_of_basis, complex_change_of_basis,
                     in_additive_closure_by_decomposition, is_nullhomotopic,
                     rebuilt_over, torsion_decompose_by_search)

SUMS = Path(__file__).parent / "golden" / "sums.tilt"


@pytest.fixture(scope="module")
def a3():
    q = algebra.make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])
    return algebra.build_algebra(q, ["a*b"], 2)


@pytest.fixture(scope="module")
def ctx(a3):
    t = rep.direct_sum([rep.projective(a3, 2), rep.projective(a3, 1),
                        rep.simple(a3, 1)])[0]
    return tilting.TiltingContext(t, 2)


@pytest.fixture(scope="module")
def wb(ctx):
    return tstructures.DerivedWorkbench(ctx)


def profile(c):
    return dict(sorted(derived.cohomology_profile(c).items()))


def profiles(cs):
    return sorted(tuple(sorted(derived.cohomology_profile(c).items()))
                  for c in cs)


S1 = (1, 0, 0)
S2 = (0, 1, 0)
S3 = (0, 0, 1)
M12 = (1, 1, 0)
M23 = (0, 1, 1)
TWO_TERM = ((-1, S3), (0, S1))


def test_universe_is_the_six_objects(wb):
    assert len(wb.universe) == 6


def test_in_additive_closure_propagates_a_refusal(wb, a3, monkeypatch):
    def refuse(x, y):
        raise LocalityUndecided("stub refusal")

    monkeypatch.setattr(derived, "chain_maps", refuse)
    x = derived.stalk_complex(rep.simple(a3, 2), 0)
    with pytest.raises(LocalityUndecided):
        wb.in_additive_closure(x, wb.heart_torsion_pair(0)[1], 0)


@settings(max_examples=15, derandomize=True, deadline=None)
@given(data=st.data())
def test_in_additive_closure_matches_decomposition(wb, data):
    # every pair (X_i, Y_i) and every shift s that t_tree visits at level i
    for i in range(wb.n):
        x_keys, y_keys = wb.heart_torsion_pair(i)
        others = sorted(set(x_keys) | {(ui, t) for ui in range(
            len(wb.universe)) for t in (-1, 0, 1)})
        for s in range(i + 1):
            pool = y_keys if data.draw(st.booleans()) else others
            keys = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                      max_size=3))
            y = derived.direct_sum_complexes(
                [derived.shift(wb.member(k), -s) for k in keys])[0]
            x = complex_change_of_basis(data.draw, y)
            assert (wb.in_additive_closure(x, y_keys, -s)
                    == in_additive_closure_by_decomposition(wb, x, y_keys, -s))


def test_tilting_coaisle_membership(wb, a3):
    tilt = wb.tilting_structure
    s3 = derived.stalk_complex(rep.simple(a3, 3), 0)
    # 3[2] is the leftmost shift of 3 in the coaisle: 3[3] falls out,
    # while 3[1] = 3[2][-1] stays in (coaisles absorb right shifts)
    assert tilt.in_coaisle(derived.shift(s3, 2), 0)
    assert not tilt.in_coaisle(derived.shift(s3, 3), 0)
    assert tilt.in_coaisle(derived.shift(s3, 1), 0)
    # ... but 3[1] is not in the tilting heart (it fails the aisle test)
    assert not tilt.in_aisle(derived.shift(s3, 1), 0)


def test_natural_coaisle_contains_modules(wb, a3):
    nat = wb.structure(0)
    for v in (1, 2, 3):
        assert nat.in_coaisle(derived.stalk_complex(rep.simple(a3, v), 0), 0)


def test_intermediate_coaisle(wb, a3):
    d1 = wb.structure(1)
    s3 = derived.stalk_complex(rep.simple(a3, 3), 0)
    assert d1.in_coaisle(derived.shift(s3, 1), 0)
    assert not d1.in_coaisle(derived.shift(s3, 2), 0)


@pytest.fixture(scope="module")
def fresh_session():
    """A workbench over the running example parsed again, asked only about
    unshifted universe objects, so no answer of its memos comes from
    another shift of the same object."""
    ws = cli.parse_workspace(
        str(resources.files("tiltlab").joinpath("data/running.tilt")))
    return tstructures.DerivedWorkbench(tilting.TiltingContext(
        ws.module("T"), 2))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_coaisle_membership_of_a_shift_matches_a_fresh_workbench(
        wb, fresh_session, data):
    i = data.draw(st.integers(0, wb.n))
    y = data.draw(st.sampled_from(wb.universe))
    k, s = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
    fresh = fresh_session.structure(i)
    assert wb.structure(i).in_coaisle(derived.shift(y, s), k - s) \
        == fresh.in_coaisle(rebuilt_over(fresh.algebra, y), k)


def test_tilting_aisle_membership(wb, a3):
    tilt = wb.tilting_structure
    s2 = derived.stalk_complex(rep.simple(a3, 2), 0)
    s3 = derived.stalk_complex(rep.simple(a3, 3), 0)
    # Ext^1(T, 2) != 0, so the module 2 enters the aisle only at level 1
    assert not tilt.in_aisle(s2, 0)
    assert tilt.in_aisle(s2, 1)
    # Ext^2(T, 3) != 0: 3 enters at level 2
    assert not tilt.in_aisle(s3, 0)
    assert not tilt.in_aisle(s3, 1)
    assert tilt.in_aisle(s3, 2)


def test_natural_heart_is_the_module_category(wb):
    assert profiles(wb.heart(0)) == sorted([
        ((0, S1),), ((0, S2),), ((0, S3),), ((0, M12),), ((0, M23),)])


def test_intermediate_heart(wb):
    assert profiles(wb.heart(1)) == sorted([
        ((0, S1),), ((0, S2),), ((-1, S3),), ((0, M12),), ((0, M23),),
        TWO_TERM])


def test_tilting_heart(wb):
    expected = sorted([
        ((0, S1),), ((-2, S3),), ((0, M12),), ((0, M23),), TWO_TERM])
    assert profiles(wb.heart(2)) == expected
    assert wb.tilting_heart_members() == wb.heart_members(2)


def test_heart_torsion_pairs(wb):
    xk, yk = wb.heart_torsion_pair(0)
    assert profiles(wb.member(k) for k in xk) == sorted([
        ((0, S1),), ((0, S2),), ((0, M12),), ((0, M23),)])
    assert profiles(wb.member(k) for k in yk) == [((0, S3),)]
    xk, yk = wb.heart_torsion_pair(1)
    assert profiles(wb.member(k) for k in xk) == sorted([
        ((0, S1),), ((0, M12),), ((0, M23),), TWO_TERM])
    assert profiles(wb.member(k) for k in yk) == [((-1, S3),)]


def test_torsion_pair_orthogonality(wb):
    for i in (0, 1):
        xk, yk = wb.heart_torsion_pair(i)
        for kx in xk:
            for ky in yk:
                assert derived.derived_hom_dim(wb.member(kx),
                                               wb.member(ky)) == 0


def test_torsion_decompose_trivial_cases(wb, a3):
    s2 = derived.stalk_complex(rep.simple(a3, 2), 0)
    u, _, c = wb.torsion_decompose_in_heart(s2, 0, 0)
    assert profile(u) == {0: S2}
    assert derived.is_zero_in_derived(c)
    s3 = derived.stalk_complex(rep.simple(a3, 3), 0)
    u, _, c = wb.torsion_decompose_in_heart(s3, 0, 0)
    assert derived.is_zero_in_derived(u)
    assert profile(c) == {0: S3}


def test_torsion_decompose_proper_triangle(wb, a3):
    s2 = derived.stalk_complex(rep.simple(a3, 2), 0)
    u, f, c = wb.torsion_decompose_in_heart(s2, 1, 0)
    assert profile(u) == {0: M23}
    assert profile(c) == {-1: S3}
    assert f is not None


def assert_hom_bijective(wb, f, x, i, s):
    """Hom(X_k, f): Hom(X_k, U) -> Hom(X_k, x) is bijective for every
    torsion member X_k of H_i[-s]: no nonzero class goes to a nullhomotopic
    map, and the dimensions agree."""
    for k in wb.heart_torsion_pair(i)[0]:
        m = derived.shift(wb.member(k), -s)
        gs = derived.hom_homotopy(derived.minimal_replacement(m), f.source)
        assert len(gs) == derived.derived_hom_dim(m, x)
        for g in rep.all_maps(gs, wb.algebra.p, skip_zero=True):
            assert not is_nullhomotopic(derived.compose_chain(f, g))


@settings(max_examples=20, derandomize=True, deadline=None)
@given(data=st.data())
def test_torsion_decompose_matches_search(wb, a3, data):
    intervals = rep.enumerate_indecomposable_modules(a3, 3)
    picks = data.draw(st.lists(st.sampled_from(intervals), min_size=1,
                               max_size=2))
    x = change_of_basis(data.draw, rep.direct_sum(picks)[0])
    # every level i and shift s that t_tree visits
    frontier = [((), derived.stalk_complex(x, 0))]
    for i in range(wb.n):
        nxt = []
        for pos, node in frontier:
            s = sum(pos)
            u, f, c = wb.torsion_decompose_in_heart(node, i, s)
            ou, _, oc = torsion_decompose_by_search(wb, node, i, s)
            assert profile(u) == profile(ou)
            assert profile(c) == profile(oc)
            if f is not None:
                assert_hom_bijective(wb, f, node, i, s)
            nxt += [(pos + (0,), u), (pos + (1,), c)]
        frontier = nxt


@pytest.fixture
def fresh_wb(ctx):
    """A workbench whose per-(i, s) torsion members are not yet split, so
    that a stub of gf.local_ring is reached."""
    return tstructures.DerivedWorkbench(ctx)


def test_a_torsion_member_of_residue_degree_two_is_refused(fresh_wb, a3,
                                                           monkeypatch):
    fresh_wb.heart_torsion_pair(0)
    s2 = derived.stalk_complex(rep.simple(a3, 2), 0)
    monkeypatch.setattr(gf, "local_ring", lambda mats, p: (None, [], 2))
    with pytest.raises(ModeUnsupported, match="residue field F_2\\^2"):
        fresh_wb.torsion_decompose_in_heart(s2, 0, 0)


def test_a_splitting_torsion_member_is_refused(fresh_wb, a3, monkeypatch):
    fresh_wb.heart_torsion_pair(0)
    s2 = derived.stalk_complex(rep.simple(a3, 2), 0)
    monkeypatch.setattr(gf, "local_ring",
                        lambda mats, p: (gf.eye(len(mats[0])), None, 0))
    with pytest.raises(ModeUnsupported, match="splits"):
        fresh_wb.torsion_decompose_in_heart(s2, 0, 0)


def test_an_undecided_top_propagates(fresh_wb, a3, monkeypatch):
    def undecided(mats, p):
        raise LocalityUndecided("stub refusal")

    fresh_wb.heart_torsion_pair(0)
    s2 = derived.stalk_complex(rep.simple(a3, 2), 0)
    monkeypatch.setattr(gf, "local_ring", undecided)
    with pytest.raises(LocalityUndecided, match="stub refusal"):
        fresh_wb.torsion_decompose_in_heart(s2, 0, 0)


def test_t_tree_of_a_sum_certifies_each_split_once(wb, a3, monkeypatch):
    calls = []
    original = tstructures.DerivedWorkbench.in_additive_closure

    def counted(self, x, keys, extra_shift):
        calls.append(x)
        return original(self, x, keys, extra_shift)

    monkeypatch.setattr(tstructures.DerivedWorkbench, "in_additive_closure",
                        counted)
    m12, m23 = rep.projective(a3, 1), rep.projective(a3, 2)
    tree = wb.t_tree(rep.direct_sum([m12, m12, m23])[0])
    # 1,422 when every multiplicity vector and map was tried
    assert len(calls) <= len(tree.triangles)
    assert profile(tree.node((0, 0))) == {0: (2, 3, 1)}


@pytest.fixture(scope="module")
def sums():
    ws = cli.parse_workspace(str(SUMS))
    return ws, tstructures.DerivedWorkbench(tilting.TiltingContext(
        ws.module("T"), 2))


def k0_class(c):
    """The class of c in K_0: the alternating sum of its cohomology."""
    return tuple(sum((-1) ** n * h[v] for n, h
                     in derived.cohomology_profile(c).items())
                 for v in range(len(c.algebra.quiver.vertices)))


def add_profiles(profs):
    out = {}
    for prof in profs:
        for n, h in prof.items():
            out[n] = tuple(a + b for a, b in zip(out.get(n, (0,) * len(h)),
                                                  h))
    return out


@pytest.mark.parametrize("summands", [["12"] * 5, ["12"] * 4, ["T", "T"]])
def test_t_tree_of_a_large_sum_adds_up(sums, summands):
    ws, wb = sums
    m = rep.direct_sum([ws.module(name) for name in summands])[0]
    tree = wb.t_tree(m)
    leaves = tree.leaves()
    assert tuple(map(sum, zip(*(k0_class(c) for c in leaves.values())))) \
        == m.dim_vector()
    parts = [wb.t_tree(ws.module(name)).leaves() for name in summands]
    for pos, leaf in leaves.items():
        assert profile(leaf) == add_profiles(
            derived.cohomology_profile(part[pos]) for part in parts)


def test_t_tree_of_simple_2(wb, a3):
    tree = wb.t_tree(rep.simple(a3, 2))
    assert profile(tree.node((0,))) == {0: S2}
    assert derived.is_zero_in_derived(tree.node((1,)))
    assert profile(tree.node((0, 0))) == {0: M23}
    assert profile(tree.node((0, 1))) == {-1: S3}
    assert derived.is_zero_in_derived(tree.node((1, 0)))
    assert derived.is_zero_in_derived(tree.node((1, 1)))
    assert "X_00" in tree.render()


def test_t_tree_of_ke0_member_is_single_leaf(wb, a3):
    tree = wb.t_tree(rep.projective(a3, 2))
    assert profile(tree.node((0, 0))) == {0: M23}
    for pos in ((0, 1), (1, 0), (1, 1)):
        assert derived.is_zero_in_derived(tree.node(pos))


def test_t_tree_of_ke2_member(wb, a3):
    tree = wb.t_tree(rep.simple(a3, 3))
    assert profile(tree.node((1, 1))) == {0: S3}
    for pos in ((0, 0), (0, 1), (1, 0)):
        assert derived.is_zero_in_derived(tree.node(pos))


def test_t_tree_triangle_cohomology(wb, a3):
    tree = wb.t_tree(rep.simple(a3, 2))
    for pos, (u, f, c) in tree.triangles.items():
        node = tree.node(pos)

        def euler(x):
            return sum((-1) ** n * sum(h) for n, h
                       in derived.cohomology_profile(x).items())

        assert euler(node) == euler(u) + euler(c)


def test_structural_sweep(wb):
    report = wb.verify_structural_claims()
    assert report, "empty report"
    for name, (ok, detail) in report.items():
        assert ok, (name, detail)


def test_verify_asks_the_t2_coaisle_once_per_object(wb, monkeypatch):
    # the t2-orthogonality check asks the tilting structure for S^{>= 1}
    # once per object, not once per pair of objects
    asked = []
    in_coaisle = tstructures.GeneratedTStructure.in_coaisle

    def counted(self, y, k=0):
        if self is wb.tilting_structure and k == 1:
            asked.append(y)
        return in_coaisle(self, y, k)

    monkeypatch.setattr(tstructures.GeneratedTStructure, "in_coaisle",
                        counted)
    assert all(ok for ok, _ in wb.verify_structural_claims().values())
    assert len(asked) == len(wb.shifted_universe())


def test_leaf_placement_matches_tilting_class(wb, ctx, a3):
    for m in ctx.indecomposables:
        cls = tilting.miyashita_class(ctx.t, m, 2)
        if cls is None:
            continue
        tree = wb.t_tree(m)
        for pos, leaf in tree.leaves().items():
            if derived.is_zero_in_derived(leaf):
                continue
            assert sum(pos) == cls
            assert derived.is_derived_isomorphic(
                leaf, derived.stalk_complex(m, 0))


def test_second_workbench_reuses_the_algebra_memo(wb, ctx):
    again = tstructures.DerivedWorkbench(ctx)
    assert ([u.encode() for u in again.universe]
            == [u.encode() for u in wb.universe])
    for i in range(ctx.n + 1):
        assert again.heart_members(i) == wb.heart_members(i)
    for i in range(ctx.n):
        assert again.heart_torsion_pair(i) == wb.heart_torsion_pair(i)


def test_requires_representation_finite(a3):
    kron = algebra.build_algebra(
        algebra.make_quiver([1, 2], [("x", 1, 2), ("y", 1, 2)]), [], 2)
    t = rep.regular_module(kron)
    ctx = tilting.TiltingContext(t, 0, dim_bound=3)
    with pytest.raises(ModeUnsupported):
        tstructures.DerivedWorkbench(ctx)


def test_running_session_replaces_each_shift_class_once(monkeypatch):
    calls = {}
    original = derived.projective_replacement

    def counted(x):
        # the shift class of x: x shifted so that its top degree is 0
        key = derived.shift(x, max(x.support, default=0)).encode()
        calls[key] = calls.get(key, 0) + 1
        return original(x)

    monkeypatch.setattr(derived, "projective_replacement", counted)
    ws = cli.parse_workspace(
        str(resources.files("tiltlab").joinpath("data/running.tilt")))
    wb = tstructures.DerivedWorkbench(tilting.TiltingContext(
        ws.module("T"), 2))
    for i in range(wb.n + 1):
        wb.heart_members(i)
    for name in ws.modules:
        wb.t_tree(ws.module(name))
    assert all(ok for ok, _ in wb.verify_structural_claims().values())
    # 73 calls on 17 classes when replacements were keyed by encoding
    assert calls and max(calls.values()) == 1


A4_DA = """\
tiltlab-format 1

[algebra]
vertices 1 2 3 4
field 2
arrow a: 1 -> 2
arrow b: 2 -> 3
arrow c: 3 -> 4
relation a*b
relation b*c

# D(A) = I_1 + I_2 + I_3 + I_4, 3-tilting
[module T]
dims 1:2 2:2 3:2 4:1
map a [[0,1],[0,0]]
map b [[0,1],[0,0]]
map c [[0,1]]
"""


def test_verify_on_a_three_tilting_module(tmp_path, capsys):
    path = tmp_path / "a4_da.tilt"
    path.write_text(A4_DA)
    assert cli.main(["verify", str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    # the object that Ext^1 flagged: in the aisle, with Ext^1(T, H^0) != 0
    ws = cli.parse_workspace(str(path))
    wb = tstructures.DerivedWorkbench(tilting.TiltingContext(
        ws.module("T"), 3))
    s2, s4 = (0, 1, 0, 0), (0, 0, 0, 1)
    flagged = [o for o in wb.shifted_universe()
               if profile(o) == {-1: s4, 0: s2}]
    assert flagged and all(wb.tilting_structure.in_aisle(o, 0)
                           for o in flagged)
    assert wb.ctx.ext_row(derived.cohomology(flagged[0], 0))[1]
