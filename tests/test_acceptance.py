"""Acceptance gate: one test per criterion, one printed pass line each.

Criterion 4 is implemented in corrected form: the second Tor obstruction of
the simple module 2 lives over Ext^1(T,2) (the cokernel of the counit
chain), not over Hom(T,2) -- Hom(T,2) is a projective module over End(T),
so its Tor_2 vanishes identically.  Both facts are asserted.
"""

import pytest

from tiltlab import algebra, derived, rep, tilting, tstructures
from tiltlab.errors import NotSequentiallyStatic
from tiltlab.homology import (ext_as_b_module,
                              ext_dim, hom_as_b_module, t_as_right_module,
                              tor_over_b)

from helpers import presentations_match


@pytest.fixture(scope="module")
def a3():
    q = algebra.make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])
    return algebra.build_algebra(q, ["a*b"], 2)


@pytest.fixture(scope="module")
def mods(a3):
    return {
        "1": rep.simple(a3, 1), "2": rep.simple(a3, 2),
        "3": rep.simple(a3, 3),
        "12": rep.projective(a3, 1), "23": rep.projective(a3, 2),
    }


@pytest.fixture(scope="module")
def ctx(a3, mods):
    t = rep.direct_sum([mods["23"], mods["12"], mods["1"]])[0]
    return tilting.TiltingContext(t, 2)


@pytest.fixture(scope="module")
def wb(ctx):
    return tstructures.DerivedWorkbench(ctx)


def done(k, text):
    print(f"criterion {k}: PASS ({text})")


def summand_dims(m):
    return sorted(s.dim_vector() for s, mult in rep.decompose(m)
                  for _ in range(mult))


def profiles(cs):
    return sorted(tuple(sorted(derived.cohomology_profile(c).items()))
                  for c in cs)


def test_criterion_1_ext_table(ctx, mods):
    assert ext_dim(ctx.t, mods["2"], 0) == 1
    assert ext_dim(ctx.t, mods["2"], 1) == 1
    assert ext_dim(ctx.t, mods["2"], 2) == 0
    done(1, "dim Ext^i(T,2) = 1, 1, 0")


def test_criterion_2_miyashita_classes(ctx, mods):
    expected = {"23": 0, "12": 0, "1": 0, "3": 2, "2": None}
    got = {name: tilting.miyashita_class(ctx.t, m, 2)
           for name, m in mods.items()}
    assert got == expected
    done(2, "classes 2/3,1/2,1 -> 0; 3 -> 2; 2 -> mixed")


def test_criterion_3_endomorphism_side(ctx, mods):
    b = ctx.data.b
    expected_b = algebra.build_algebra(
        algebra.make_quiver([4, 5, 6], [("c", 4, 5), ("d", 5, 6)]),
        ["c*d"], 2)
    assert presentations_match(b, expected_b)

    tb = t_as_right_module(ctx.data)
    assert summand_dims(tb) == [(0, 0, 1), (0, 1, 1), (1, 1, 0)]

    hom_12 = hom_as_b_module(ctx.data, mods["12"]).module
    assert rep.is_isomorphic(hom_12, rep.projective(b, 5)) is not None
    hom_1 = hom_as_b_module(ctx.data, mods["1"]).module
    assert rep.is_isomorphic(hom_1, rep.projective(b, 4)) is not None
    ext_2 = ext_as_b_module(ctx.data, mods["2"], 1)
    assert rep.is_isomorphic(ext_2, rep.simple(b, 4)) is not None
    done(3, "B = (4 -> 5 -> 6, composite zero); T_B and transports match")


def test_criterion_4_static_failure_witness(ctx, mods):
    # corrected statement: the obstruction is Tor_2 of Ext^1(T,2)
    ext1 = ext_as_b_module(ctx.data, mods["2"], 1)
    tor2 = tor_over_b(ctx.data, ext1, 2)
    assert tor2.dim_vector() == (0, 0, 1)
    # the literal Hom-side Tor_2 vanishes: Hom(T,2) is projective over B
    hom0 = hom_as_b_module(ctx.data, mods["2"]).module
    assert rep.is_isomorphic(hom0, rep.simple(ctx.data.b, 6)) is not None
    assert tor_over_b(ctx.data, hom0, 2).total_dim == 0
    ok, witness = tilting.is_sequentially_static(ctx, mods["2"])
    assert not ok and witness[:2] == (2, 1)
    assert witness[2].dim_vector() == (0, 0, 1)
    with pytest.raises(NotSequentiallyStatic):
        tilting.static_filtration(ctx, mods["2"])
    done(4, "Tor_2(T, Ext^1(T,2)) = simple 3; Hom-side Tor_2 = 0")


def test_criterion_5_tilting_certificate(ctx):
    cert = ctx.certificate
    assert cert.n == 2
    terms = [summand_dims(t) for t in cert.resolution_terms]
    assert terms == [
        [(0, 1, 1), (1, 1, 0), (1, 1, 0)],   # P(2) + P(1)^2
        [(0, 1, 1)],                          # P(2)
        [(0, 0, 1)],                          # P(3)
    ]
    assert cert.rigidity == [0, 0]
    done(5, "p_2 resolution terms match after decomposition")


def test_criterion_6_derived_enumeration(a3, mods):
    objs = derived.enumerate_indecomposable_complexes(a3, 2, 4)
    expected = sorted([
        ((0, (1, 0, 0)),), ((0, (0, 1, 0)),), ((0, (0, 0, 1)),),
        ((0, (1, 1, 0)),), ((0, (0, 1, 1)),),
        ((-1, (0, 0, 1)), (0, (1, 0, 0))),
    ])
    assert profiles(objs) == expected
    done(6, "exactly six indecomposables up to shift")


def test_criterion_7_hearts_and_torsion_pairs(wb):
    S1, S2, S3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    M12, M23 = (1, 1, 0), (0, 1, 1)
    W = ((-1, S3), (0, S1))
    assert profiles(wb.heart(0)) == sorted([
        ((0, S1),), ((0, S2),), ((0, S3),), ((0, M12),), ((0, M23),)])
    assert profiles(wb.heart(1)) == sorted([
        ((0, S1),), ((0, S2),), ((-1, S3),), ((0, M12),), ((0, M23),), W])
    tilting_heart = sorted([
        ((0, S1),), ((-2, S3),), ((0, M12),), ((0, M23),), W])
    assert profiles(wb.heart(2)) == tilting_heart
    assert wb.heart_members(2) == wb.tilting_heart_members()

    xk, yk = wb.heart_torsion_pair(0)
    assert profiles(wb.member(k) for k in xk) == sorted([
        ((0, S1),), ((0, S2),), ((0, M12),), ((0, M23),)])
    assert profiles(wb.member(k) for k in yk) == [((0, S3),)]
    xk, yk = wb.heart_torsion_pair(1)
    assert profiles(wb.member(k) for k in xk) == sorted([
        ((0, S1),), ((0, M12),), ((0, M23),), W])
    assert profiles(wb.member(k) for k in yk) == [((-1, S3),)]
    done(7, "H_0, H_1, H_2 = H_T, (X_0,Y_0), (X_1,Y_1) all match")


def test_criterion_8_t_tree_of_2(wb, a3):
    tree = wb.t_tree(rep.simple(a3, 2))
    prof = derived.cohomology_profile
    assert prof(tree.node((0,))) == {0: (0, 1, 0)}
    assert derived.is_zero_in_derived(tree.node((1,)))
    assert prof(tree.node((0, 0))) == {0: (0, 1, 1)}
    assert prof(tree.node((0, 1))) == {-1: (0, 0, 1)}
    assert derived.is_zero_in_derived(tree.node((1, 0)))
    assert derived.is_zero_in_derived(tree.node((1, 1)))
    # the bottom-left triangle is 2/3 -> 2 -> 3[1], built as a cone
    u, f, c = tree.triangles[(0,)]
    assert f is not None
    assert prof(u) == {0: (0, 1, 1)}
    assert prof(c) == {-1: (0, 0, 1)}
    assert derived.is_derived_isomorphic(
        c, derived.shift(derived.stalk_complex(rep.simple(a3, 3), 0), 1))
    assert derived.is_derived_isomorphic(derived.cone(f), c)
    done(8, "t-tree of 2 with triangle 2/3 -> 2 -> 3[1]")


def test_criterion_9_jms_agreement(ctx, mods):
    filt = tilting.jms_filtration(ctx, mods["2"])
    kind, (u, v, g) = filt.witnesses[0]
    assert kind == "extension-closure"
    assert u.dim_vector() == (0, 0, 1)
    assert v.dim_vector() == (0, 1, 1)
    assert g.is_mono()
    coker, _ = rep.cokernel(g)
    assert rep.is_isomorphic(coker, mods["2"]) is not None

    for m in ctx.indecomposables:
        lo = tilting.lo_filtration(ctx, m)
        jms = tilting.jms_filtration(ctx, m)
        lo_chain = [i.source.encode() for i in lo.inclusions]
        jms_chain = [i.source.encode() for i in jms.inclusions]
        assert lo_chain == jms_chain
    done(9, "2 in E_0 via coker(3 -> 2/3); jms == lo on all modules")


def test_criterion_10_property_suites(ctx, wb, a3, mods):
    # (a) torsion-pair axioms on a derived 1-tilting instance
    a2 = algebra.build_algebra(
        algebra.make_quiver([1, 2], [("u", 1, 2)]), [], 2)
    t1 = rep.direct_sum([rep.projective(a2, 1), rep.simple(a2, 1)])[0]
    ctx1 = tilting.TiltingContext(t1, 1, dim_bound=3)
    ke0 = ctx1.ke_members(0)
    ke1 = ctx1.ke_members(1)
    assert sorted(m.dim_vector() for m in ke0) == [(1, 0), (1, 1)]
    assert [m.dim_vector() for m in ke1] == [(0, 1)]
    for u in ke0:
        for v in ke1:
            assert rep.hom_dim(u, v) == 0
    for m in ctx1.indecomposables:
        gen = ctx1.torsion_class_generators(1)
        sub, _ = tilting.torsion_radical(gen, m)
        assert sub.total_dim in (0, m.total_dim)

    # torsion-pair axioms for every (T_i, F_i) of the running example
    for i in range(ctx.n + 2):
        gens = ctx.torsion_class_generators(i)
        torsion, free = [], []
        for m in ctx.indecomposables:
            sub, incl = tilting.torsion_radical(gens, m)
            again, _ = tilting.torsion_radical(gens, rep.cokernel(incl)[0])
            assert again.total_dim == 0
            (torsion if sub.total_dim == m.total_dim else free).append(m)
        for u in torsion:
            for v in free:
                assert rep.hom_dim(u, v) == 0

    # (b) Miyashita round trip on every KE_e member
    for e in range(ctx.n + 1):
        for m in ctx.ke_members(e):
            back = tor_over_b(ctx.data, ext_as_b_module(ctx.data, m, e), e)
            assert rep.is_isomorphic(back, m) is not None

    # (c) module-level Ext vanishing agrees with aisle membership
    for m in ctx.indecomposables:
        for e in range(ctx.n + 1):
            tilting.ke_membership_via_aisle(ctx, m, e)

    # (d) structural sweep: inclusions, coaisle agreement, H^0 in KE_0
    report = wb.verify_structural_claims()
    assert all(ok for ok, _ in report.values()), report

    # (e) t-tree leaf placement for every enumerated module
    for m in ctx.indecomposables:
        tree = wb.t_tree(m)   # raises if a leaf escapes its shifted heart
        cls = tilting.miyashita_class(ctx.t, m, ctx.n)
        leaves = {pos: leaf for pos, leaf in tree.leaves().items()
                  if not derived.is_zero_in_derived(leaf)}
        if cls is not None:
            assert set(map(sum, leaves)) == {cls}
    done(10, "torsion axioms, round trips, sweeps, leaf placement")
