import pytest
from hypothesis import given, settings, strategies as st

from tiltlab.algebra import build_algebra, make_quiver
from tiltlab import homology as hl, rep, tilting as tl
from tiltlab.errors import (ModeUnsupported, NotSequentiallyStatic,
                            NotTilting)

from helpers import change_of_basis, in_add_by_decomposition


@pytest.fixture(scope="module")
def setup():
    q = make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])
    alg = build_algebra(q, ["a*b"], p=2)
    projs = {v: rep.projective(alg, v) for v in (1, 2, 3)}
    simples = {v: rep.simple(alg, v) for v in (1, 2, 3)}
    tilt, _, _ = rep.direct_sum([projs[2], projs[1], rep.injective(alg, 1)])
    return alg, projs, simples, tilt


@pytest.fixture(scope="module")
def ctx(setup):
    _, _, _, tilt = setup
    return tl.TiltingContext(tilt, 2, dim_bound=3)


def test_certificate_for_running_tilting_module(setup):
    _, _, _, tilt = setup
    cert = tl.check_classical_tilting(tilt, 2)
    assert [t.dim_vector() for t in cert.resolution_terms] == [
        (2, 3, 1), (0, 1, 1), (0, 0, 1)]
    assert cert.rigidity == [0, 0]
    assert len(cert.coresolution_terms) <= 3


def test_progenerator_is_zero_tilting(setup):
    alg = setup[0]
    cert = tl.check_classical_tilting(rep.regular_module(alg), 0)
    assert cert.rigidity == []
    assert len(cert.coresolution_terms) == 1


def test_simple_socle_is_not_tilting(setup):
    _, _, simples, _ = setup
    with pytest.raises(NotTilting) as exc:
        tl.check_classical_tilting(simples[3], 2)
    assert exc.value.axiom == "g_n"


def test_non_rigid_module_fails_e_n(setup):
    alg, projs, simples, _ = setup
    # 2/3 + 2 has Ext^1 (the non-split extension 3 -> 2/3 -> 2)
    m, _, _ = rep.direct_sum([projs[2], simples[2], projs[1],
                              rep.injective(alg, 1)])
    with pytest.raises(NotTilting) as exc:
        tl.check_classical_tilting(m, 2)
    assert exc.value.axiom == "e_n"


def test_miyashita_classification(setup):
    alg, projs, simples, tilt = setup
    assert tl.miyashita_class(tilt, projs[2], 2) == 0
    assert tl.miyashita_class(tilt, projs[1], 2) == 0
    assert tl.miyashita_class(tilt, rep.injective(alg, 1), 2) == 0
    assert tl.miyashita_class(tilt, simples[3], 2) == 2
    assert tl.miyashita_class(tilt, simples[2], 2) is None
    assert tl.miyashita_class(tilt, tilt, 2) == 0
    assert tl.miyashita_class(tilt, rep.zero_module(alg), 2) == 0


def test_ke_member_lists(ctx):
    assert sorted(m.dim_vector() for m in ctx.ke_members(0)) == [
        (0, 1, 1), (1, 0, 0), (1, 1, 0)]
    assert ctx.ke_members(1) == []
    assert [m.dim_vector() for m in ctx.ke_members(2)] == [(0, 0, 1)]


def test_sequential_static_witness(ctx, setup):
    _, _, simples, _ = setup
    ok, witness = tl.is_sequentially_static(ctx, simples[2])
    assert not ok
    i, j, tor = witness
    assert (i, j) == (2, 1)
    assert tor.dim_vector() == (0, 0, 1)


def test_class_members_are_sequentially_static(ctx):
    for e in (0, 1, 2):
        for m in ctx.ke_members(e):
            ok, _ = tl.is_sequentially_static(ctx, m)
            assert ok
    ok, _ = tl.is_sequentially_static(ctx, rep.zero_module(ctx.t.algebra))
    assert ok


def test_static_filtration_of_class_member(ctx, setup):
    _, projs, _, _ = setup
    f = tl.static_filtration(ctx, projs[2])
    assert f.factors[0].dim_vector() == (0, 1, 1)
    assert all(x.is_zero() for x in f.factors[1:])


def test_static_filtration_of_mixed_sum(ctx, setup):
    _, projs, simples, _ = setup
    m, _, _ = rep.direct_sum([projs[2], simples[3]])
    f = tl.static_filtration(ctx, m)
    assert [x.dim_vector() for x in f.factors] == [
        (0, 1, 1), (0, 0, 0), (0, 0, 1)]


def test_static_filtration_refuses_module_2(ctx, setup):
    _, _, simples, _ = setup
    with pytest.raises(NotSequentiallyStatic):
        tl.static_filtration(ctx, simples[2])


def test_torsion_radical_trivial_cases(ctx, setup):
    _, projs, _, _ = setup
    sub, _ = tl.torsion_radical([], projs[1])
    assert sub.is_zero()
    sub, _ = tl.torsion_radical(list(ctx.indecomposables), projs[1])
    assert sub.total_dim == projs[1].total_dim


def test_torsion_radical_of_simple_2(ctx, setup):
    _, _, simples, _ = setup
    gens = ctx.torsion_class_generators(1)  # Ker Ext^1 и Ker Ext^2 members
    sub, _ = tl.torsion_radical(gens, simples[2])
    assert sub.total_dim == 1  # 2 is a quotient of 2/3


def test_lo_filtration_of_simple_2(ctx, setup):
    _, _, simples, _ = setup
    f = tl.lo_filtration(ctx, simples[2])
    assert [i.source.dim_vector() for i in f.inclusions] == [
        (0, 0, 0), (0, 1, 0), (0, 1, 0), (0, 1, 0)]


def test_lo_filtration_stage_for_class_members(ctx):
    # degree-e members show up exactly at stage e+1
    for e in (0, 1, 2):
        for m in ctx.ke_members(e):
            f = tl.lo_filtration(ctx, m)
            dims = [i.source.total_dim for i in f.inclusions]
            assert dims[e] == 0 and dims[e + 1] == m.total_dim


def test_jms_filtration_of_simple_2(ctx, setup):
    _, _, simples, _ = setup
    f = tl.jms_filtration(ctx, simples[2])
    assert [i.source.dim_vector() for i in f.inclusions] == [
        (0, 0, 0), (0, 1, 0), (0, 1, 0), (0, 1, 0)]
    kind, witness = f.witnesses[0]
    assert kind == "extension-closure"
    u, v, g = witness
    assert u.dim_vector() == (0, 0, 1)   # the socle simple
    assert v.dim_vector() == (0, 1, 1)   # the projective it embeds into
    assert g.is_mono()


def test_jms_agrees_with_lo_on_everything(ctx):
    mods = list(ctx.indecomposables)
    mods.append(rep.direct_sum([mods[0], mods[3]])[0])
    mods.append(rep.direct_sum([mods[2], mods[4]])[0])
    for m in mods:
        lo = tl.lo_filtration(ctx, m)
        jms = tl.jms_filtration(ctx, m)
        for a, b in zip(lo.inclusions, jms.inclusions):
            assert a.source.dim_vector() == b.source.dim_vector()
            assert a.blocks.keys() == b.blocks.keys()
            assert all((a.blocks[v] == b.blocks[v]).all() for v in a.blocks)


def test_jms_requires_degree_two(setup):
    alg = setup[0]
    reg = rep.regular_module(alg)
    ctx0 = tl.TiltingContext(reg, 0, dim_bound=3)
    with pytest.raises(ModeUnsupported):
        tl.jms_filtration(ctx0, rep.simple(alg, 1))


def test_lo_filtration_of_zero(ctx):
    f = tl.lo_filtration(ctx, rep.zero_module(ctx.t.algebra))
    assert all(i.source.is_zero() for i in f.inclusions)


def test_torsion_pair_axioms_for_stage_classes(ctx):
    # t is idempotent and Hom(generators, X/t(X)) = 0 on every test module
    mods = list(ctx.indecomposables)
    mods.append(rep.direct_sum([mods[1], mods[3]])[0])
    for i in (1, 2, 3):
        gens = ctx.torsion_class_generators(i)
        for x in mods:
            sub, incl = tl.torsion_radical(gens, x)
            quot, _ = rep.cokernel(incl)
            assert all(rep.hom_dim(g, quot) == 0 for g in gens)
            sub2, _ = tl.torsion_radical(gens, sub)
            assert sub2.total_dim == sub.total_dim


def test_submodule_enumeration_counts(setup):
    _, projs, simples, _ = setup
    subs = tl.enumerate_submodules(projs[1])
    # 0, the radical simple 2, and the whole of 1/2
    assert sorted(s.dim_vector() for s, _ in subs) == [
        (0, 0, 0), (0, 1, 0), (1, 1, 0)]


def test_one_tilting_brenner_butler_instance():
    q = make_quiver([1, 2], [("a", 1, 2)])
    alg = build_algebra(q, [], p=2)
    p1 = rep.projective(alg, 1)
    i1 = rep.injective(alg, 1)
    tilt, _, _ = rep.direct_sum([p1, i1])
    ctx = tl.TiltingContext(tilt, 1, dim_bound=3)
    ke0 = ctx.ke_members(0)
    ke1 = ctx.ke_members(1)
    assert sorted(m.dim_vector() for m in ke0) == [(1, 0), (1, 1)]
    assert [m.dim_vector() for m in ke1] == [(0, 1)]
    # torsion pair: no maps from the torsion class to the torsion-free class
    for t_mod in ke0:
        for f_mod in ke1:
            assert rep.hom_dim(t_mod, f_mod) == 0
    # every module splits into its trace part and a torsion-free quotient
    for x in ctx.indecomposables:
        sub, incl = tl.torsion_radical(ke0, x)
        quot, _ = rep.cokernel(incl)
        assert all(rep.hom_dim(g, quot) == 0 for g in ke0)


@pytest.fixture(scope="module", params=[2, 3])
def intervals(request):
    """The indecomposables of the running example over F_2 and F_3."""
    q = make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])
    return rep.enumerate_indecomposable_modules(
        build_algebra(q, ["a*b"], p=request.param), 3)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_in_add_matches_the_decomposition_oracle(intervals, data):
    # t and m: sums of 1-3 indecomposables, repeats allowed (t need not be
    # basic), under a change of basis; m is drawn from t's summands half
    # of the time, so members and non-members both occur
    t_picks = data.draw(st.lists(st.sampled_from(intervals), min_size=1,
                                 max_size=3))
    member = data.draw(st.booleans())
    m_picks = data.draw(st.lists(st.sampled_from(
        t_picks if member else intervals), min_size=1, max_size=3))
    t = change_of_basis(data.draw, rep.direct_sum(t_picks)[0])
    m = change_of_basis(data.draw, rep.direct_sum(m_picks)[0])
    got = tl.in_add(t, m)
    assert got == in_add_by_decomposition(t, m)
    assert got or not member


def test_in_add_without_decomposition(setup, monkeypatch):
    alg, projs, simples, _ = setup

    def refuse(m):
        raise AssertionError("in_add decomposed a module")

    monkeypatch.setattr(rep, "decompose_with_maps", refuse)
    t, _, _ = rep.direct_sum([projs[2], projs[2], simples[2]])
    for parts, member in (([projs[2]], True), ([simples[2], projs[2]], True),
                          ([projs[2], projs[2], projs[2]], True),
                          ([projs[1]], False), ([simples[3]], False),
                          ([projs[2], simples[1]], False)):
        assert tl.in_add(t, rep.direct_sum(parts)[0]) is member
    assert tl.in_add(t, rep.zero_module(alg))
    assert not tl.in_add(rep.zero_module(alg), simples[1])


def _linear_a4():
    q = make_quiver([1, 2, 3, 4], [("a", 1, 2), ("b", 2, 3), ("c", 3, 4)])
    return build_algebra(q, ["a*b", "b*c"], p=2)


def test_tilting_check_of_da_never_decomposes_the_regular_module(
        monkeypatch):
    alg = _linear_a4()
    regular = rep.regular_module(alg).encode()
    split, decompose_with_maps = [], rep.decompose_with_maps

    def counted(m):
        split.append(m.encode())
        return decompose_with_maps(m)

    monkeypatch.setattr(rep, "decompose_with_maps", counted)
    da = rep.direct_sum([rep.injective(alg, v) for v in (1, 2, 3, 4)])[0]
    cert = tl.check_classical_tilting(da, 3)
    assert cert.rigidity == [0, 0, 0]
    assert len(cert.coresolution_terms) == 4
    assert split and regular not in split


def test_ext_dim_checked_builds_each_hom_into_an_injective_once(
        monkeypatch):
    # hom_space calls made by the injective route, per (T, I^j) pair
    alg = _linear_a4()
    seen, inside = {}, []
    hom_space, via_injectives = rep.hom_space, hl.ext_dim_via_injectives

    def counted_hom(m, n):
        if inside:
            key = (m.encode(), n.encode())
            seen[key] = seen.get(key, 0) + 1
        return hom_space(m, n)

    def flagged(*args):
        inside.append(True)
        try:
            return via_injectives(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(rep, "hom_space", counted_hom)
    monkeypatch.setattr(hl, "ext_dim_via_injectives", flagged)
    da = rep.direct_sum([rep.injective(alg, v) for v in (1, 2, 3, 4)])[0]
    x = rep.simple(alg, 1)
    # every degree of Ext^i(x, DA) and Ext^i(DA, DA), twice over
    for _ in range(2):
        for i in range(5):
            hl.ext_dim_checked(x, da, i)
            hl.ext_dim_checked(da, da, i)
    tl.check_classical_tilting(da, 3)
    assert seen and max(seen.values()) == 1
