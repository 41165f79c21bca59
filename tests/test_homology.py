import pytest

from tiltlab.algebra import build_algebra, make_quiver, presentations_match
from tiltlab import homology as hl
from tiltlab import rep
from tiltlab.errors import NotBasic, SearchExhausted


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
        cu = hl.counit_map(end_data, x)
        if rep.hom_dim(end_data.t, x) and hl.ext_dim(end_data.t, x, 1) == 0:
            assert cu.is_iso()


def test_tensor_of_simple_b_module(setup, end_data):
    # T (x)_B S(6) recovers the projective 2/3
    s6 = rep.simple(end_data.b, 6)
    t = hl.tensor_over_b(end_data, s6)
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


def test_local_radical_refusal_names_its_size():
    q = make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])
    p12 = rep.projective(build_algebra(q, ["a*b"], 2), 1)
    with pytest.raises(SearchExhausted) as info:
        hl._local_radical(rep.hom_space(p12, p12), p12, cap=1)
    assert str(info.value) == (
        "homology: End of the module with dimension vector (1, 1, 0): "
        "2^1 exceeds cap 1")


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
