import functools
import sys
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiltlab.algebra import build_algebra, make_quiver
from tiltlab import cli, gf, homology as hl
from tiltlab import rep
from tiltlab.errors import InfiniteGlobalDimension, NotBasic

from helpers import (abstract_map_to_module_map, change_of_basis, counit_map,
                     ext_dims_by_coordinates, hom_induced_map,
                     presentations_match, tensor_induced_map, tensor_over_b)


@pytest.fixture(scope="module")
def setup():
    q = make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])
    alg = build_algebra(q, ["a*b"], p=2)
    projs = {v: rep.projective(alg, v) for v in (1, 2, 3)}
    simples = {v: rep.simple(alg, v) for v in (1, 2, 3)}
    tilt, _, _ = rep.direct_sum([projs[2], projs[1], rep.injective(alg, 1)])
    return alg, projs, simples, tilt


@pytest.fixture(scope="module")
def end_data(setup):
    _, _, _, tilt = setup
    return hl.endomorphism_algebra(tilt)


def test_projective_cover_of_simple(setup):
    alg, projs, simples, _ = setup
    p0, epi = hl.projective_cover(simples[2])
    assert p0.dim_vector() == projs[2].dim_vector()
    assert epi.is_epi()


def test_minimal_resolution_of_simple(setup):
    alg, _, simples, _ = setup
    terms, diffs, eps = hl.minimal_projective_resolution(simples[2])
    assert [t.dim_vector() for t in terms] == [(0, 1, 1), (0, 0, 1)]
    assert len(diffs) == 1
    assert rep.compose(eps, diffs[0]).is_zero()


def test_minimal_resolution_of_tilting_module(setup):
    _, _, _, tilt = setup
    terms, _, _ = hl.minimal_projective_resolution(tilt)
    assert [t.dim_vector() for t in terms] == [(2, 3, 1), (0, 1, 1), (0, 0, 1)]


def test_global_dimension(setup):
    alg = setup[0]
    assert hl.global_dimension(alg) == 2


def test_injective_coresolution(setup):
    alg, _, simples, _ = setup
    inj, diffs, unit = hl.injective_coresolution(simples[2])
    assert [t.dim_vector() for t in inj] == [(1, 1, 0), (1, 0, 0)]
    assert unit.is_mono()
    assert rep.compose(diffs[0], unit).is_zero()


def test_ext_dims_projective_vanish(setup):
    alg, projs, simples, _ = setup
    for v in (1, 2, 3):
        for w in (1, 2, 3):
            for i in (1, 2, 3):
                assert hl.ext_dim(projs[v], simples[w], i) == 0


def test_ext_via_both_routes_agree(setup):
    alg, _, simples, tilt = setup
    for w in (1, 2, 3):
        for i in range(4):
            assert (hl.ext_dim(tilt, simples[w], i)
                    == hl.ext_dim_via_injectives(tilt, simples[w], i))


def test_ext_table_of_tilting_module(setup):
    _, _, simples, tilt = setup
    assert hl.ext_dim_checked(tilt, simples[2], 0) == 1
    assert hl.ext_dim_checked(tilt, simples[2], 1) == 1
    assert hl.ext_dim_checked(tilt, simples[2], 2) == 0


def test_ext_detects_the_almost_split_sequence(setup):
    alg, projs, simples, _ = setup
    # 0 -> 3 -> 2/3 -> 2 -> 0 does not split
    assert hl.ext_dim(simples[2], simples[3], 1) == 1


def test_endomorphism_algebra_presentation(setup, end_data):
    ref_q = make_quiver([4, 5, 6], [("c", 4, 5), ("d", 5, 6)])
    ref = build_algebra(ref_q, ["c*d"], p=2)
    assert end_data.b.dim == 5
    assert presentations_match(end_data.b, ref)
    # labels follow source-to-sink order: 4 = simple top, 6 = projective 2/3
    dims_by_label = {v: end_data.summands[k][0].dim_vector()
                     for v, k in end_data.vertex_summand.items()}
    assert dims_by_label == {4: (1, 0, 0), 5: (1, 1, 0), 6: (0, 1, 1)}


def test_endomorphism_algebra_rejects_non_basic(setup):
    alg, projs, _, _ = setup
    doubled, _, _ = rep.direct_sum([projs[1], projs[1]])
    with pytest.raises(NotBasic):
        hl.endomorphism_algebra(doubled)


def test_hom_transports_to_expected_b_modules(setup, end_data):
    alg, projs, simples, _ = setup
    h = hl.hom_as_b_module(end_data, projs[1])
    assert h.module.dim_vector() == (0, 1, 1)  # uniserial 5/6
    h = hl.hom_as_b_module(end_data, rep.injective(alg, 1))
    assert h.module.dim_vector() == (1, 1, 0)  # uniserial 4/5
    h = hl.hom_as_b_module(end_data, simples[2])
    assert h.module.dim_vector() == (0, 0, 1)  # simple 6


def _hom_by_columns(data, x):
    """Hom_A(T, x) over B with one solve per Hom basis element: the
    per-column transport, kept as an oracle for hl.hom_as_b_module."""
    p = data.b.p
    basis = rep.hom_space(data.t, x)
    flat = np.stack([h.total().flatten() for h in basis], axis=1) % p

    def rho(i):
        return np.stack(
            [gf.solve(flat, gf.mul(h.total(), data.psi(i), p).reshape(-1, 1),
                      p)[:, 0] for h in basis], axis=1)

    return rep.rep_from_abstract(data.b, len(basis), rho)


def _induced_by_columns(data, src, tgt, f):
    """Hom(T, f) with one solve per source basis element."""
    p = data.b.p
    flat = np.stack([h.total().flatten() for h in tgt.extra], axis=1) % p
    phi = np.stack(
        [gf.solve(flat, rep.compose(f, h).total().reshape(-1, 1), p)[:, 0]
         for h in src.extra], axis=1)
    return abstract_map_to_module_map(src.module, src.bases, tgt.module,
                                      tgt.bases, phi)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(data=st.data())
def test_batched_transport_matches_per_column_solves(setup, end_data, data):
    alg = setup[0]
    intervals = rep.enumerate_indecomposable_modules(alg, 3)

    def draw_module():
        picks = data.draw(st.lists(st.sampled_from(intervals), min_size=1,
                                   max_size=2))
        return change_of_basis(data.draw, rep.direct_sum(picks)[0])

    x, y = draw_module(), draw_module()
    hx, hy = hl.hom_as_b_module(end_data, x), hl.hom_as_b_module(end_data, y)
    for got, m in ((hx, x), (hy, y)):
        if not got.extra:
            continue
        mod, bases = _hom_by_columns(end_data, m)
        assert mod.encode() == got.module.encode()
        assert all(np.array_equal(bases[v], got.bases[v]) for v in bases)
    if not (hx.extra and hy.extra):
        return
    maps = rep.hom_space(x, y)
    coeffs = data.draw(st.lists(st.integers(0, 1), min_size=len(maps),
                                max_size=len(maps)))
    f = rep.zero_map(x, y)
    for c, g in zip(coeffs, maps):
        if c:
            f = f + g
    got = hom_induced_map(end_data, hx, hy, f)
    want = _induced_by_columns(end_data, hx, hy, f)
    assert np.array_equal(got.total(), want.total())


def test_ext_transports_to_simple_b_module(setup, end_data):
    _, _, simples, _ = setup
    e = hl.ext_as_b_module(end_data, simples[2], 1)
    assert e.dim_vector() == (1, 0, 0)  # simple 4
    assert hl.ext_as_b_module(end_data, simples[2], 2).is_zero()


def test_t_as_right_module_decomposition(end_data):
    tb = hl.t_as_right_module(end_data)
    assert tb.dim_vector() == (1, 2, 2)
    parts = sorted(s.dim_vector() for s, _ in rep.decompose(tb))
    assert parts == [(0, 0, 1), (0, 1, 1), (1, 1, 0)]  # 6, 6/5, 5/4


def test_counit_is_iso_on_torsion_class(setup, end_data):
    alg, projs, simples, _ = setup
    for x in (projs[1], projs[2], rep.injective(alg, 1), simples[3]):
        cu = counit_map(end_data, x)
        if rep.hom_dim(end_data.t, x) and hl.ext_dim(end_data.t, x, 1) == 0:
            assert cu.is_iso()


def test_tensor_of_simple_b_module(setup, end_data):
    # T (x)_B S(6) recovers the projective 2/3
    s6 = rep.simple(end_data.b, 6)
    t = tensor_over_b(end_data, s6)
    assert t.module.dim_vector() == (0, 1, 1)


def test_tor_table(setup, end_data):
    _, _, simples, _ = setup
    hs2 = hl.hom_as_b_module(end_data, simples[2]).module
    assert hl.tor_over_b(end_data, hs2, 0).dim_vector() == (0, 1, 1)
    assert hl.tor_over_b(end_data, hs2, 1).is_zero()
    assert hl.tor_over_b(end_data, hs2, 2).is_zero()
    ext1 = hl.ext_as_b_module(end_data, simples[2], 1)
    assert hl.tor_over_b(end_data, ext1, 0).is_zero()
    assert hl.tor_over_b(end_data, ext1, 1).is_zero()
    assert hl.tor_over_b(end_data, ext1, 2).dim_vector() == (0, 0, 1)


def test_homology_at_exact_sequence(setup):
    alg, projs, simples, _ = setup
    # 0 -> P(3) -> P(2) -> S(2) -> 0 is exact in the middle
    f = rep.hom_space(projs[3], projs[2])[0]
    g = rep.hom_space(projs[2], simples[2])[0]
    assert hl.homology_at(f, g).is_zero()
    assert hl.homology_at(None, g).dim_vector() == (0, 0, 1)
    assert hl.homology_at(f, None).dim_vector() == (0, 1, 0)


def test_local_radical_of_p12_and_of_a_uniserial():
    q = make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])
    p12 = rep.projective(build_algebra(q, ["a*b"], 2), 1)
    # End(P12) = e_1 A e_1 = F_2: local, with zero radical
    assert gf.local_ring([f.total() for f in rep.hom_space(p12, p12)],
                         2) == (None, [], 1)
    # End(P) = F_3[x]/(x^3) for the loop algebra: rad = (x), residue F_3
    loop = build_algebra(make_quiver([1], [("x", 1, 1)]), ["x*x*x"], 3)
    p = rep.projective(loop, 1)
    endos = [f.total() for f in rep.hom_space(p, p)]
    e, rad, k = gf.local_ring(endos, 3)
    assert e is None and k == 1
    x = p.action["x"]
    assert np.array_equal(np.stack([r.flatten() for r in rad], axis=1),
                          gf.column_space(np.stack(
                              [x.flatten(), gf.mul(x, x, 3).flatten()],
                              axis=1), 3))


def test_coords_in_basis_one_column_per_map():
    q = make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])
    a = build_algebra(q, ["a*b"], 3)
    m = rep.direct_sum([rep.projective(a, 2), rep.simple(a, 2)])[0]
    basis = rep.hom_space(m, m)
    fs = [basis[0].scale(2) + basis[-1], rep.zero_map(m, m), basis[1]]
    coords = hl.coords_in_basis(basis, fs)
    assert coords.shape == (len(basis), 3)
    for k, f in enumerate(fs):
        assert (rep.map_from_coeffs(basis, coords[:, k]).total()
                == f.total()).all()
    with pytest.raises(ValueError):
        hl.coords_in_basis(basis[1:], [basis[0]])
    assert hl.coords_in_basis([], [rep.zero_map(m, m)]).shape == (0, 1)


def test_resolution_lists_are_fresh_on_every_call(setup):
    _, _, _, tilt = setup
    terms, diffs, eps = hl.minimal_projective_resolution(tilt)
    dims = [t.dim_vector() for t in terms]
    assert eps.target is tilt
    terms.clear()
    diffs.append(None)
    again, again_diffs, _ = hl.minimal_projective_resolution(tilt)
    assert [t.dim_vector() for t in again] == dims
    assert len(again_diffs) == len(dims) - 1
    assert None not in again_diffs


def test_projective_cover_is_computed_once_per_encoding(monkeypatch):
    alg = build_algebra(make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)]),
                        ["a*b"], p=2)
    calls, cover = [], hl._cover
    monkeypatch.setattr(hl, "_cover", lambda m: calls.append(m) or cover(m))
    m = rep.direct_sum([rep.simple(alg, 2), rep.projective(alg, 1)])[0]
    twin = rep.Module(alg, m.dims, m.action)
    assert twin is not m and twin.encode() == m.encode()
    p0, eps = hl.projective_cover(m)
    p1, eps1 = hl.projective_cover(twin)
    assert calls == [m]
    assert p1 is p0 and p0.dim_vector() == (1, 2, 1)   # P_2 (+) P_1
    # eps is rebuilt for each caller, so it lands in the caller's module
    assert eps.target is m and eps1.target is twin
    eps1.verify()
    assert eps1.is_epi()


def test_tor_table_resolves_each_module_once(capsys, monkeypatch):
    seen = {}
    resolve = hl._resolve

    def counted(m):
        key = (id(m.algebra), m.encode())
        seen[key] = seen.get(key, 0) + 1
        return resolve(m)

    monkeypatch.setattr(hl, "_resolve", counted)
    bundled = str(resources.files("tiltlab").joinpath("data/running.tilt"))
    assert cli.main(["tor-table", bundled]) == 0
    capsys.readouterr()
    assert seen and max(seen.values()) == 1


def test_tor_table_builds_no_tor_module(capsys, monkeypatch):
    # the table reads ranks off T (x)_B P_*: no Tor module, no module built
    # from an abstract action (the balance quotient or a Hom solve), and
    # one resolution and one tensored complex per distinct B-module
    seen, tensored, built = {}, [], []
    resolve, tensor_resolution = hl._resolve, hl.tensor_resolution

    def counted(m):
        key = (id(m.algebra), m.encode())
        seen[key] = seen.get(key, 0) + 1
        return resolve(m)

    monkeypatch.setattr(hl, "_resolve", counted)
    monkeypatch.setattr(hl, "tensor_resolution", lambda data, n: (
        tensored.append(n) or tensor_resolution(data, n)))
    monkeypatch.setattr(hl, "_tor_modules", lambda *a: built.append(a))
    monkeypatch.setattr(rep, "rep_from_abstract", lambda *a: built.append(a))
    bundled = str(resources.files("tiltlab").joinpath("data/running.tilt"))
    assert cli.main(["tor-table", bundled]) == 0
    capsys.readouterr()
    assert not built
    b = tensored[0].algebra
    assert all(n.algebra is b for n in tensored)
    on_b = [k for k in seen if k[0] == id(b)]
    assert len(tensored) == len(on_b) == 5
    assert max(seen.values()) == 1


def test_ext_table_builds_each_hom_space_once(capsys, monkeypatch):
    # hom_space calls made from inside ext_dim, per (P_j, y) pair
    seen, inside = {}, []
    hom_space, ext_dim = rep.hom_space, hl.ext_dim

    def counted_hom(m, n):
        if inside:
            key = (m.encode(), n.encode())
            seen[key] = seen.get(key, 0) + 1
        return hom_space(m, n)

    def flagged_ext(*args):
        inside.append(True)
        try:
            return ext_dim(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(rep, "hom_space", counted_hom)
    monkeypatch.setattr(hl, "ext_dim", flagged_ext)
    bundled = str(resources.files("tiltlab").joinpath("data/running.tilt"))
    assert cli.main(["ext-table", bundled]) == 0
    capsys.readouterr()
    # 80 calls on 38 pairs when every degree built its own hom spaces
    assert seen and max(seen.values()) == 1


def test_endomorphism_algebra_builds_each_hom_space_once(capsys,
                                                         monkeypatch):
    # hom_space calls made by endomorphism_algebra itself, per pair
    seen = {}
    hom_space = rep.hom_space

    def counted_hom(m, n):
        if sys._getframe(1).f_code is hl.endomorphism_algebra.__code__:
            key = (m.encode(), n.encode())
            seen[key] = seen.get(key, 0) + 1
        return hom_space(m, n)

    monkeypatch.setattr(rep, "hom_space", counted_hom)
    bundled = str(resources.files("tiltlab").joinpath("data/running.tilt"))
    assert cli.main(["bside", bundled]) == 0
    capsys.readouterr()
    # End(T) and the 3 x 3 pairs of summands of T; each End(s_i) was built
    # twice when the residue-field check built its own
    assert len(seen) == 10 and max(seen.values()) == 1


def test_a_periodic_resolution_is_refused_at_the_cap():
    # the 2-cycle with rad^2 = 0: S_1 <- P_1 <- P_2 <- P_1 <- ... never ends
    q = make_quiver([1, 2], [("a", 1, 2), ("b", 2, 1)])
    alg = build_algebra(q, ["a*b", "b*a"], p=2)
    with pytest.raises(InfiniteGlobalDimension,
                       match=f"exceeds {hl.RESOLUTION_CAP} terms"):
        hl.projective_dimension(rep.simple(alg, 1))


# -- the per-degree computations as they were before the memo, as an oracle ----

def _resolution_per_call(m):
    terms, diffs = [], []
    p0, eps = hl.projective_cover(m)
    terms.append(p0)
    ker, incl = rep.kernel(eps)
    while ker.total_dim > 0:
        assert len(terms) <= hl.RESOLUTION_CAP
        pn, cover = hl.projective_cover(ker)
        diffs.append(rep.compose(incl, cover))
        terms.append(pn)
        ker, incl = rep.kernel(cover)
    return terms, diffs


def _coresolution_per_call(m):
    alg = m.algebra
    terms, diffs = _resolution_per_call(
        rep.dual_module(m, rep.opposite_of(alg)))
    inj = [rep.dual_module(t, alg) for t in terms]
    return inj, [rep.ModuleMap(inj[k], inj[k + 1],
                               {v: b.T.copy() for v, b in d.blocks.items()})
                 for k, d in enumerate(diffs)]


def _ext_per_degree(data, x, i):
    terms, diffs = _coresolution_per_call(x)
    if i >= len(terms):
        return rep.zero_module(data.b)
    homs = [hl.hom_as_b_module(data, term) for term in terms]
    incoming = outgoing = None
    if i > 0:
        incoming = hom_induced_map(data, homs[i - 1], homs[i],
                                   diffs[i - 1])
    if i + 1 < len(terms):
        outgoing = hom_induced_map(data, homs[i], homs[i + 1], diffs[i])
    if outgoing is None and incoming is None:
        return homs[i].module
    return hl.homology_at(incoming, outgoing)


def _tor_per_degree(data, n, i):
    terms, diffs = _resolution_per_call(n)
    if i >= len(terms):
        return rep.zero_module(data.t.algebra)
    tens = [tensor_over_b(data, term) for term in terms]
    incoming = outgoing = None
    if i + 1 < len(terms):
        incoming = tensor_induced_map(data, tens[i + 1], tens[i], diffs[i])
    if i > 0:
        outgoing = tensor_induced_map(data, tens[i], tens[i - 1],
                                      diffs[i - 1])
    if incoming is None and outgoing is None:
        return tens[i].module
    return hl.homology_at(incoming, outgoing)


@functools.cache
def _running_context(p):
    """End(T) of the running tilting module over F_p, and the interval
    modules; one per field, so its memo stays warm across examples."""
    q = make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])
    alg = build_algebra(q, ["a*b"], p)
    tilt, _, _ = rep.direct_sum([rep.projective(alg, 2),
                                 rep.projective(alg, 1),
                                 rep.injective(alg, 1)])
    return hl.endomorphism_algebra(tilt), rep.enumerate_indecomposable_modules(
        alg, 3)


def _assert_isomorphic(m, n):
    assert m.dim_vector() == n.dim_vector()
    assert rep.is_isomorphic(m, n) is not None


@functools.cache
def _knitted(p, relations):
    """The knitted indecomposables of linear A3 over F_p with the given
    relations: the running example with ("a*b",), the path algebra with
    ()."""
    q = make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])
    return rep.enumerate_indecomposable_modules(
        build_algebra(q, list(relations), p), 3)


@pytest.mark.parametrize("p", [2, 3])
@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_ext_dims_match_the_coordinate_route(p, data):
    # both routes rank the one system builder; the oracle solves for the
    # coordinates of every induced map instead
    mods = _knitted(p, data.draw(st.sampled_from([("a*b",), ()])))
    x, y = (change_of_basis(data.draw, rep.direct_sum(data.draw(
        st.lists(st.sampled_from(mods), min_size=1, max_size=2)))[0])
        for _ in range(2))
    ref = ext_dims_by_coordinates(x, y)
    for i in range(len(ref) + 2):
        want = ref[i] if i < len(ref) else 0
        assert hl.ext_dim(x, y, i) == want, i
        assert hl.ext_dim_via_injectives(x, y, i) == want, i


@pytest.mark.parametrize("p", [2, 3])
@settings(max_examples=12, derandomize=True, deadline=None)
@given(data=st.data())
def test_memoized_ext_and_tor_match_per_degree_computation(p, data):
    # the memo is shared across examples; the oracle runs on a fresh B
    warm, intervals = _running_context(p)
    picks = data.draw(st.lists(st.sampled_from(intervals), min_size=1,
                               max_size=2))
    m = change_of_basis(data.draw, rep.direct_sum(picks)[0])
    fresh = hl.endomorphism_algebra(warm.t)
    assert fresh.b.path_basis == warm.b.path_basis
    degrees = range(4)
    exts = [hl.ext_as_b_module(warm, m, j) for j in reversed(degrees)][::-1]
    for j in degrees:
        assert hl.ext_as_b_module(warm, m, j).encode() == exts[j].encode()
        ref = _ext_per_degree(fresh, m, j)
        _assert_isomorphic(exts[j],
                           rep.check_module(warm.b, ref.dims, ref.action))
        ref_on_fresh = rep.check_module(fresh.b, exts[j].dims, exts[j].action)
        for i in degrees:
            _assert_isomorphic(hl.tor_over_b(warm, exts[j], i),
                               _tor_per_degree(fresh, ref_on_fresh, i))


@functools.cache
def _benchmark_context(name):
    """End(T), the indecomposable A-modules and the knitted ind B for the
    tilting modules of the module-side benchmark workspaces: the running
    example over F_2 and F_3, D(A) over linear A4 with rad^2 = 0, and the
    APR tilt 2 + P_2 + P_1 of the path algebra of linear A3."""
    q3 = make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])
    if name == "a4_da":
        q4 = make_quiver([1, 2, 3, 4],
                         [("a", 1, 2), ("b", 2, 3), ("c", 3, 4)])
        alg = build_algebra(q4, ["a*b", "b*c"], 2)
        parts = [rep.injective(alg, v) for v in (1, 2, 3, 4)]
    elif name == "a3_apr":
        alg = build_algebra(q3, [], 2)
        parts = [rep.simple(alg, 2), rep.projective(alg, 2),
                 rep.projective(alg, 1)]
    else:
        alg = build_algebra(q3, ["a*b"], 3 if name == "running_f3" else 2)
        parts = [rep.projective(alg, 2), rep.projective(alg, 1),
                 rep.injective(alg, 1)]
    data = hl.endomorphism_algebra(rep.direct_sum(parts)[0])
    bound = len(alg.quiver.vertices)
    return (data, rep.enumerate_indecomposable_modules(alg, bound),
            rep.enumerate_indecomposable_modules(data.b, bound))


@pytest.mark.parametrize("name", ["running", "running_f3", "a4_da",
                                  "a3_apr"])
@settings(max_examples=15, derandomize=True, deadline=None)
@given(data=st.data())
def test_ext_and_tor_read_off_t_match_the_solving_routes(name, data):
    # Ext against Hom solves on the injective coresolution, Tor against
    # the balance quotient on the projective resolution, in every degree
    end, mods, ind_b = _benchmark_context(name)
    m = change_of_basis(data.draw, rep.direct_sum(data.draw(
        st.lists(st.sampled_from(mods), min_size=1, max_size=2)))[0])
    degrees = range(5)
    exts = [hl.ext_as_b_module(end, m, j) for j in degrees]
    for j in degrees:
        _assert_isomorphic(exts[j], _ext_per_degree(end, m, j))
    n_b = change_of_basis(data.draw, data.draw(st.sampled_from(ind_b)))
    for n in exts + [n_b]:
        dims = hl.tor_dims(end, n)
        for i in degrees:
            want = _tor_per_degree(end, n, i)
            assert (dims[i] if i < len(dims) else (0,) * len(want.dims)) \
                == want.dim_vector(), (n.dim_vector(), i)
            _assert_isomorphic(hl.tor_over_b(end, n, i), want)
