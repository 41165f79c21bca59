import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiltlab.algebra import build_algebra, make_quiver
from tiltlab import gf, homology, rep
from tiltlab.errors import RelationViolated

from helpers import (abstract_map_to_module_map, change_of_basis,
                     hom_space_by_kron)


def _running_example():
    q = make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])
    return build_algebra(q, ["a*b"], p=2)


@pytest.fixture(scope="module")
def a3():
    return _running_example()


@pytest.fixture(scope="module")
def projs(a3):
    return {v: rep.projective(a3, v) for v in (1, 2, 3)}


@pytest.fixture(scope="module")
def tilt(a3, projs):
    """The running tilting module 2/3 + 1/2 + 1."""
    m, _, _ = rep.direct_sum([projs[2], projs[1], rep.injective(a3, 1)])
    return m


def test_projective_dim_vectors(projs):
    assert projs[1].dim_vector() == (1, 1, 0)
    assert projs[2].dim_vector() == (0, 1, 1)
    assert projs[3].dim_vector() == (0, 0, 1)


def test_injective_dim_vectors(a3):
    assert rep.injective(a3, 1).dim_vector() == (1, 0, 0)
    assert rep.injective(a3, 2).dim_vector() == (1, 1, 0)
    assert rep.injective(a3, 3).dim_vector() == (0, 1, 1)


def test_module_rejects_relation_violation(a3):
    # both arrows act by 1 on a one-dimensional space per vertex: a*b != 0
    with pytest.raises(RelationViolated):
        rep.check_module(a3, {1: 1, 2: 1, 3: 1},
                         {"a": [[1]], "b": [[1]]})


def test_module_accepts_uniserial(a3):
    m = rep.check_module(a3, {1: 1, 2: 1, 3: 0}, {"a": [[1]]})
    assert m.total_dim == 2


def test_hom_dims_between_simples_and_projectives(a3, projs):
    s = {v: rep.simple(a3, v) for v in (1, 2, 3)}
    # Hom(P(v), S(w)) = delta_{v,w}
    for v in (1, 2, 3):
        for w in (1, 2, 3):
            assert rep.hom_dim(projs[v], s[w]) == (1 if v == w else 0)
    # the arrow a: 1 -> 2 gives the map P(2) -> P(1) onto the socle
    assert rep.hom_dim(projs[2], projs[1]) == 1
    assert rep.hom_dim(projs[1], projs[2]) == 0


def test_endomorphisms_of_indecomposables_are_local(a3, projs):
    for v in (1, 2, 3):
        assert rep.hom_dim(projs[v], projs[v]) == 1


def test_kernel_image_cokernel_exactness(a3, projs):
    s1 = rep.simple(a3, 1)
    f = rep.hom_space(projs[1], s1)[0]
    ker, incl = rep.kernel(f)
    assert ker.dim_vector() == (0, 1, 0)
    assert incl.is_mono()
    im, im_incl, im_proj = rep.image(f)
    assert im.dim_vector() == (1, 0, 0)
    assert rep.compose(im_incl, im_proj).total().tolist() == f.total().tolist()
    cok, proj = rep.cokernel(f)
    assert cok.is_zero()
    # rank-nullity vertexwise
    for v in (1, 2, 3):
        assert ker.dims[v] + im.dims[v] == projs[1].dims[v]


def test_cokernel_action_is_induced(a3, projs):
    # P(3) -> P(2) includes the socle; quotient is the simple at 2
    f = rep.hom_space(projs[3], projs[2])[0]
    cok, proj = rep.cokernel(f)
    assert cok.dim_vector() == (0, 1, 0)
    assert proj.is_epi()


def test_radical_and_top(a3, projs):
    r, _ = rep.radical_submodule(projs[2])
    assert r.dim_vector() == (0, 0, 1)
    t, _ = rep.top(projs[2])
    assert t.dim_vector() == (0, 1, 0)


def test_direct_sum_maps(a3, projs):
    total, incs, prs = rep.direct_sum([projs[1], projs[3]])
    assert total.dim_vector() == (1, 1, 1)
    for inc, pr in zip(incs, prs):
        comp = rep.compose(pr, inc)
        assert comp.is_iso()
    cross = rep.compose(prs[0], incs[1])
    assert cross.is_zero()


def test_decompose_regular_module(a3, projs):
    reg = rep.regular_module(a3)
    parts = rep.decompose(reg)
    assert sorted(s.dim_vector() for s, _ in parts) == [
        (0, 0, 1), (0, 1, 1), (1, 1, 0)]
    assert all(mult == 1 for _, mult in parts)


def test_decompose_with_maps_reassembles(a3, tilt):
    parts = rep.decompose_with_maps(tilt)
    assert len(parts) == 3
    total = rep.zero_map(tilt, tilt)
    for s, inc, proj in parts:
        assert rep.compose(proj, inc).is_iso()
        total = total + rep.compose(inc, proj)
    assert total.is_iso()  # sum of idempotents is the identity
    ident = rep.identity_map(tilt)
    assert np.array_equal(total.total(), ident.total())


def test_kernel_splits_where_basis_fitting_powers_do_not():
    kronecker = build_algebra(
        make_quiver([1, 2], [("a", 1, 2), ("b", 1, 2)]), [], p=3)
    m = rep.check_module(kronecker, {1: 2, 2: 2},
                         {"a": [[0, 2], [2, 1]], "b": [[2, 1], [0, 2]]})
    # no Fitting power of a basis element of End(m) splits m, and the
    # kernel splits it without a search
    for f in rep.hom_space(m, m):
        t = gf.power(f.total(), m.total_dim, 3)
        assert not t.any() or gf.is_invertible(t, 3)
    assert not rep.is_indecomposable(m)
    parts = rep.decompose_with_maps(m)
    assert [s.dim_vector() for s, _, _ in parts] == [(1, 1)] * 2
    assert rep.iso_of_indecomposables(parts[0][0], parts[1][0]) is None
    # S1^4, with End = M_4(F_3), splits into four simples
    four = rep.direct_sum([rep.simple(kronecker, 1)] * 4)[0]
    assert not rep.is_indecomposable(four)
    parts = rep.decompose_with_maps(four)
    assert [s.dim_vector() for s, _, _ in parts] == [(1, 0)] * 4
    total = rep.zero_map(four, four)
    for _, inc, proj in parts:
        total = total + rep.compose(inc, proj)
    assert np.array_equal(total.total(), rep.identity_map(four).total())


def test_decompose_with_maps_is_memoized(monkeypatch):
    fresh = _running_example()

    def build():
        return rep.direct_sum([rep.projective(fresh, 2), rep.projective(fresh, 1),
                               rep.injective(fresh, 1)])[0]

    first = rep.decompose_with_maps(build())
    calls = []
    original = rep.hom_space

    def counted(m, n):
        calls.append((m.dim_vector(), n.dim_vector()))
        return original(m, n)

    monkeypatch.setattr(rep, "hom_space", counted)
    second = rep.decompose_with_maps(build())  # an equal module, not the same
    assert calls == []  # no new search
    assert second == first
    second.clear()
    third = rep.decompose_with_maps(build())
    third.sort(key=lambda part: part[0].encode(), reverse=True)
    assert rep.decompose_with_maps(build()) == first


@settings(max_examples=12, derandomize=True, deadline=None)
@given(data=st.data())
def test_memoized_splits_of_random_interval_sums(a3, data):
    # every indecomposable of the running example is an interval module
    intervals = rep.enumerate_indecomposable_modules(a3, 3)
    picks = data.draw(st.lists(st.sampled_from(intervals), min_size=1,
                               max_size=3))
    m = change_of_basis(data.draw, rep.direct_sum(picks)[0])
    ident = rep.identity_map(m).total()
    for parts in (rep.decompose_with_maps(m), rep.decompose_with_maps(m)):
        total = rep.zero_map(m, m)
        for s, inc, proj in parts:
            assert np.array_equal(rep.compose(proj, inc).total(),
                                  rep.identity_map(s).total())
            total = total + rep.compose(inc, proj)
        assert np.array_equal(total.total(), ident)
    dims = [s.dim_vector() for s, _, _ in parts]
    assert sorted(dims) == sorted(x.dim_vector() for x in picks)
    fresh = _running_example()
    copy = rep.check_module(fresh, m.dims, m.action)
    assert [s.dim_vector() for s, _, _ in rep.decompose_with_maps(copy)] == dims


@settings(max_examples=12, derandomize=True, deadline=None)
@given(data=st.data())
def test_split_by_idempotent_maps_are_a_decomposition(a3, data):
    intervals = rep.enumerate_indecomposable_modules(a3, 3)
    picks = data.draw(st.lists(st.sampled_from(intervals), min_size=2,
                               max_size=3))
    m = change_of_basis(data.draw, rep.direct_sum(picks)[0])
    endos = rep.hom_space(m, m)
    e = rep.splitting_map(endos, m.p)
    # the blocks read off the kernel's matrix are those of its coordinates
    coords = homology.coords_in_basis(endos, [e])[:, 0]
    by_coords = rep.map_from_coeffs(endos, coords)
    assert all(np.array_equal(e.blocks[v], by_coords.blocks[v])
               for v in m.vertex_order)
    parts = rep.split_by_idempotent(m, e)
    for i, (sub_i, inc_i, _) in enumerate(parts):
        for j, (_, _, proj_j) in enumerate(parts):
            got = rep.compose(proj_j, inc_i)
            if i == j:
                assert np.array_equal(got.total(),
                                      rep.identity_map(sub_i).total())
            else:
                assert got.is_zero()
    (_, inc_im, proj_im), (_, inc_ker, proj_ker) = parts
    total = rep.compose(inc_im, proj_im) + rep.compose(inc_ker, proj_ker)
    assert np.array_equal(total.total(), rep.identity_map(m).total())


def _hom_test_algebras():
    """The running example over F_2 and F_3, linear A3 over F_3, and a
    loop x with x^2 = 0 at the source of an arrow, over F_3."""
    q3 = make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])
    loop = make_quiver([1, 2], [("x", 1, 1), ("y", 1, 2)])
    return [build_algebra(q3, ["a*b"], 2), build_algebra(q3, ["a*b"], 3),
            build_algebra(q3, [], 3), build_algebra(loop, ["x*x"], 3)]


@pytest.fixture(scope="module")
def hom_test_modules():
    return [rep.enumerate_indecomposable_modules(alg, 3)
            for alg in _hom_test_algebras()]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_hom_space_rows_give_the_kronecker_basis(hom_test_modules, data):
    # the row-list system has the unknowns and rows of the Kronecker one,
    # so the same echelon form and the same basis, map for map
    mods = data.draw(st.sampled_from(hom_test_modules))
    m, n = (change_of_basis(data.draw, rep.direct_sum(data.draw(
        st.lists(st.sampled_from(mods), min_size=1, max_size=2)))[0])
        for _ in range(2))
    got = [f.total() for f in rep.hom_space(m, n)]
    want = hom_space_by_kron(m, n)
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_decompose_multiplicities(a3, projs):
    m, _, _ = rep.direct_sum([projs[1], projs[1], projs[3]])
    parts = rep.decompose(m)
    mults = {s.dim_vector(): k for s, k in parts}
    assert mults == {(1, 1, 0): 2, (0, 0, 1): 1}


def test_is_isomorphic_detects_twisted_copy(a3):
    m = rep.check_module(a3, {1: 1, 2: 1}, {"a": [[1]]})
    n = rep.check_module(a3, {1: 1, 2: 1}, {"a": [[1]]})
    assert rep.is_isomorphic(m, n) is not None
    z = rep.check_module(a3, {1: 1, 2: 1}, {"a": [[0]]})
    assert rep.is_isomorphic(m, z) is None


def test_enumerate_indecomposables_is_complete(a3):
    mods = rep.enumerate_indecomposable_modules(a3, 3)
    assert [m.dim_vector() for m in mods] == [
        (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1), (1, 1, 0)]
    finite, _ = rep.is_representation_finite(a3, 3)
    assert finite


def test_enumerate_respects_relations():
    q = make_quiver([1, 2], [("a", 1, 2), ("b", 1, 2)])
    kronecker = build_algebra(q, [], p=2)
    mods = rep.enumerate_indecomposable_modules(kronecker, 2)
    # dim vectors (1,0), (0,1), and three modules (1,1): a=1 b=0; a=0 b=1; a=b=1
    assert [m.dim_vector() for m in mods] == [
        (0, 1), (1, 0), (1, 1), (1, 1), (1, 1)]


def test_trace_of_projectives_is_everything(a3, tilt):
    gens = [rep.projective(a3, v) for v in (1, 2, 3)]
    spaces = rep.trace_submodule(gens, tilt)
    assert all(spaces[v].shape[1] == tilt.dims[v] for v in (1, 2, 3))


def test_trace_of_simple_picks_socle(a3, projs):
    s3 = rep.simple(a3, 3)
    spaces = rep.trace_submodule([s3], projs[2])
    sub, _ = rep.submodule_from_subspaces(projs[2], spaces)
    assert sub.dim_vector() == (0, 0, 1)


def test_dual_module_double_dual(a3, projs):
    op = rep.opposite_of(a3)
    for v in (1, 2, 3):
        dd = rep.dual_module(rep.dual_module(projs[v], op), a3)
        assert rep.is_isomorphic(dd, projs[v]) is not None


def test_opposite_of_opposite_is_the_algebra(a3):
    op = rep.opposite_of(a3)
    assert rep.opposite_of(op) is a3
    assert rep.opposite_of(a3) is op


def test_projective_is_built_once_per_algebra(a3):
    first = rep.projective(a3, 1)
    assert rep.projective(a3, 1) is first
    fresh = build_algebra(make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)]),
                          ["a*b"], p=2)
    assert rep.projective(fresh, 1) is not first
    assert rep.projective(fresh, 1).encode() == first.encode()


def test_rep_from_abstract_recovers_regular(a3):
    def rho(i):
        cols = [a3.multiply_basis(j, i) for j in range(a3.dim)]
        return np.stack(cols, axis=1) % a3.p

    m, bases = rep.rep_from_abstract(a3, a3.dim, rho)
    assert m.total_dim == a3.dim
    reg = rep.regular_module(a3)
    assert rep.is_isomorphic(m, reg) is not None


def test_abstract_map_round_trip(a3, projs):
    # identity on the regular module transports to the identity map
    def rho(i):
        cols = [a3.multiply_basis(j, i) for j in range(a3.dim)]
        return np.stack(cols, axis=1) % a3.p

    m, bases = rep.rep_from_abstract(a3, a3.dim, rho)
    f = abstract_map_to_module_map(m, bases, m, bases,
                                   np.eye(a3.dim, dtype=np.int64))
    assert f.is_iso()


@pytest.mark.parametrize("parts", [["12"] * 4, ["T", "T"], ["12"] * 5])
def test_is_isomorphic_answers_past_the_old_scan_size(parts):
    # over F_3 the scan of Hom(M, M) had 3^16, 3^20 and 3^25 maps to walk
    alg = build_algebra(make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)]),
                        ["a*b"], p=3)
    p12 = rep.projective(alg, 1)
    mods = {"12": p12, "T": rep.direct_sum(
        [rep.projective(alg, 2), p12, rep.injective(alg, 1)])[0]}
    m = rep.direct_sum([mods[name] for name in parts])[0]
    w = rep.is_isomorphic(m, m)
    assert w is not None and w.is_iso()
    w.verify()


def test_kronecker_scan_keeps_the_residue_field_f4_module():
    # the Kronecker algebra does not knit, so its list comes from the scan;
    # the module (2, 2) with a = 1, b of minimal polynomial x^2 + x + 1 has
    # End = F_4, which a kernel that refused residue degree 2 would drop
    kronecker = build_algebra(
        make_quiver([1, 2], [("a", 1, 2), ("b", 1, 2)]), [], p=2)
    finite, mods = rep.is_representation_finite(kronecker, 4)
    assert not finite and len(mods) == 11
    degrees = [gf.local_ring([f.total() for f in rep.hom_space(m, m)], 2)[2]
               for m in mods]
    assert degrees.count(2) == 1
