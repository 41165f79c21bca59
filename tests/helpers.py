"""Helpers shared by the tests."""

from itertools import permutations, product

import numpy as np
from hypothesis import strategies as st

from tiltlab import derived, gf, homology, rep, tilting
from tiltlab.errors import InternalInconsistency, SearchExhausted
from tiltlab.rep import ModuleMap, compose


def presentations_match(a, b) -> bool:
    """Path-count comparison of two bound quiver algebras: a vertex
    bijection under which every pair of vertices has the same number of
    basis paths of each length.  Equal counts are necessary for an
    isomorphism, not a certificate of one."""
    if a.p != b.p or a.dim != b.dim:
        return False
    va, vb = list(a.quiver.vertices), list(b.quiver.vertices)
    if len(va) != len(vb):
        return False

    def profile(alg, u, v):
        counts = {}
        for q in alg.path_basis:
            if q.source == u and q.target == v:
                counts[len(q)] = counts.get(len(q), 0) + 1
        return tuple(sorted(counts.items()))

    for perm in permutations(vb):
        m = dict(zip(va, perm))
        if all(profile(a, u, v) == profile(b, m[u], m[v])
               for u in va for v in va):
            return True
    return False


def change_of_basis(draw, m):
    """m under a random invertible change of basis g_v at every vertex,
    drawn by hypothesis."""
    return random_change_of_basis(
        lambda lo, hi: draw(st.integers(lo, hi)), m)


def random_change_of_basis(integer, m):
    """m under an invertible change of basis g_v = L_v U_v at every vertex,
    with every entry integer(lo, hi) (for instance random.Random.randint)."""
    return _conjugate(m, random_gl(integer, m))


def random_gl(integer, m):
    """An invertible matrix g_v = L_v U_v for every vertex v of m, with every
    entry integer(lo, hi)."""
    p = m.p
    g = {}
    for v in m.vertex_order:
        n = m.dims[v]
        lower, upper = gf.eye(n), gf.eye(n)
        for i in range(n):
            upper[i, i] = integer(1, p - 1)
            for j in range(i):
                lower[i, j] = integer(0, p - 1)
                upper[j, i] = integer(0, p - 1)
        g[v] = gf.mul(lower, upper, p)
    return g


def _conjugate(m, g):
    """The module with action g_t a g_s^-1 for every arrow a: s -> t."""
    act = {a.name: gf.mulchain(m.p, g[a.target], m.action[a.name],
                               gf.inverse(g[a.source], m.p))
           for a in m.algebra.quiver.arrows}
    return rep.check_module(m.algebra, m.dims, act)


def complex_change_of_basis(draw, x):
    """x under a random invertible change of basis of every term, drawn by
    hypothesis: each differential becomes g^{n+1} d^n (g^n)^-1."""
    p = x.p
    g = {n: random_gl(lambda lo, hi: draw(st.integers(lo, hi)), t)
         for n, t in x.terms.items()}
    terms = {n: _conjugate(t, g[n]) for n, t in x.terms.items()}
    diffs = {n: rep.ModuleMap(terms[n], terms[n + 1], {
        v: gf.mulchain(p, g[n + 1][v], b, gf.inverse(g[n][v], p))
        for v, b in d.blocks.items()}) for n, d in x.diffs.items()}
    return derived.Complex(x.algebra, terms, diffs)


def in_add_by_decomposition(t, m) -> bool:
    """Whether every indecomposable summand of m is isomorphic to one of t,
    comparing Krull-Schmidt decompositions: the decomposition-based test,
    kept as an oracle for tilting.in_add."""
    t_parts = [s for s, _ in rep.decompose(t)]
    return all(any(rep.iso_of_indecomposables(s, u) is not None
                   for u in t_parts) for s, _ in rep.decompose(m))


def has_projective_terms(x) -> bool:
    """Whether every term of the complex x is projective."""
    reg = rep.regular_module(x.algebra)
    return all(tilting.in_add(reg, m) for m in x.terms.values())


def has_invertible_component(d) -> bool:
    """Whether d has an invertible component between the indecomposable
    summands that rep.decompose_with_maps finds in its source and target:
    the decomposition-based test, kept as an oracle for the enumeration's
    block-based one."""
    for _, si, _ in rep.decompose_with_maps(d.source):
        for _, _, tp in rep.decompose_with_maps(d.target):
            if rep.compose(tp, rep.compose(d, si)).is_iso():
                return True
    return False


def splitting_idempotent_by_scan(endos, p):
    """The first idempotent other than 0 and 1 in the span of endos (module
    or chain maps), in rep.all_maps order, or None: the exhaustive scan kept
    as an oracle for rep.splitting_map and gf.local_ring."""
    for f in rep.all_maps(endos, p, skip_zero=True):
        t = f.total()
        if not np.array_equal(t, gf.eye(len(t))) and \
                np.array_equal(gf.mul(t, t, p), t):
            return f
    return None


def is_isomorphic_by_scan(m, n):
    """An invertible map in Hom(m, n), the first in rep.all_maps order, or
    None: the exhaustive scan kept as an oracle for rep.is_isomorphic."""
    if m.dim_vector() != n.dim_vector():
        return None
    if m.total_dim == 0:
        return rep.zero_map(m, n)
    return next((f for f in rep.all_maps(rep.hom_space(m, n), m.p,
                                         skip_zero=True) if f.is_iso()), None)


def local_radical_by_scan(endos, p):
    """Echelon basis, as flattened columns, of the span of the nilpotent
    elements of the span of endos: the radical when that span is a local
    ring.  The exhaustive scan kept as an oracle for gf.local_ring."""
    n = len(endos[0].total())
    nilpotents = [f.total().flatten()
                  for f in rep.all_maps(endos, p, skip_zero=True)
                  if not gf.power(f.total(), n, p).any()]
    if not nilpotents:
        return gf.zeros(n * n, 0)
    return gf.column_space(np.stack(nilpotents, axis=1), p)


def ext_dims_by_coordinates(x, y) -> list:
    """dim Ext^j(x, y) for every term P_j of the minimal projective
    resolution of x, from the matrix of each induced map
    Hom(P_j, y) -> Hom(P_(j+1), y), f -> f d_j, in coordinates over the Hom
    bases: the coordinate route, kept as an oracle for the ranks of
    homology.map_system behind ext_dim and ext_dim_via_injectives."""
    terms, diffs, _ = homology.minimal_projective_resolution(x)
    homs = [rep.hom_space(t, y) for t in terms]
    ranks = [gf.rank(homology.coords_in_basis(
        homs[j + 1], [compose(f, diffs[j]) for f in homs[j]]), x.p)
        if homs[j] and homs[j + 1] else 0 for j in range(len(diffs))]
    return [len(hom) - r_in - r_out for hom, r_in, r_out
            in zip(homs, [0] + ranks, ranks + [0])]


def is_derived_isomorphic_by_scan(x, y):
    """Whether x and y have the same cohomology and some map from the
    projective replacement of x to y is a quasi-isomorphism: the exhaustive
    scan kept as an oracle for derived.is_derived_isomorphic."""
    hx = derived.cohomology_profile(x)
    if hx != derived.cohomology_profile(y):
        return False
    px = derived.projective_replacement(x)[0]
    return not hx or any(is_quasi_iso(f) for f in rep.all_maps(
        derived.hom_homotopy(px, y), x.p, skip_zero=True))


def derived_hom_dim_by_replacement(x, y) -> int:
    """dim Hom(x, y) in D^b from the projective replacement of x itself,
    with no minimization, no shift and no memo: the route keyed by the
    exact encoding of x, kept as an oracle for derived.derived_hom_dim."""
    return len(derived.hom_homotopy(derived.projective_replacement(x)[0], y))


def rebuilt_over(alg, x):
    """x rebuilt over alg, an algebra with the same quiver, relations and
    field: the same complex with none of the caches or memo entries that x
    and its algebra hold."""
    terms = {n: rep.Module(alg, m.dims, m.action) for n, m in x.terms.items()}
    return derived.Complex(alg, terms, {
        n: ModuleMap(terms[n], terms[n + 1], d.blocks)
        for n, d in x.diffs.items()})


def uncached(x):
    """A copy of x that has computed neither its keys nor its profile."""
    return derived.Complex(x.algebra, x.terms, x.diffs, check=False)


def in_additive_closure_by_decomposition(wb, x, keys, extra_shift) -> bool:
    """Whether every Krull-Schmidt summand of x in D^b is isomorphic to some
    wb.member(k)[extra_shift]: the decomposition-based test, kept as an
    oracle for DerivedWorkbench.in_additive_closure."""
    return derived.is_zero_in_derived(x) or all(any(
        derived.is_derived_isomorphic(
            piece, derived.shift(wb.member(k), extra_shift))
        for k in keys) for piece in derived.decompose_complex(x))


def torsion_decompose_by_search(wb, x, i, s):
    """The torsion triangle U -> x -> C of x in H_i[-s] by exhaustive search:
    every multiplicity vector of torsion members up to dim Hom(X_k, x), and
    every map from their sum, until the cone lies in add(Y_i[-s]).  Kept as
    an oracle for DerivedWorkbench.torsion_decompose_in_heart."""
    x_keys, y_keys = wb.heart_torsion_pair(i)
    if derived.is_zero_in_derived(x):
        z = derived.zero_complex(wb.algebra)
        return z, None, z
    if in_additive_closure_by_decomposition(wb, x, y_keys, -s):
        return derived.zero_complex(wb.algebra), None, x
    members = [derived.shift(wb.member(k), -s) for k in x_keys]
    mults = [derived.derived_hom_dim(m, x) for m in members]
    for counts in product(*(range(c + 1) for c in mults)):
        if not any(counts):
            continue
        summands = []
        for m, c in zip(members, counts):
            summands.extend([m] * c)
        u, _ = derived.direct_sum_complexes(summands)
        classes = derived.hom_homotopy(derived.minimal_replacement(u), x)
        for f in rep.all_maps(classes, wb.algebra.p, skip_zero=True,
                              cap=wb.cap):
            cone = derived.cone(f)
            if in_additive_closure_by_decomposition(wb, cone, y_keys, -s):
                return u, f, cone
    raise SearchExhausted(
        "no torsion decomposition found within the multiplicity cap")


def rref_by_rows(a, p):
    """Reduced row echelon form by numpy row operations, one row at a time:
    the original gf.rref, kept as an oracle for the list-row kernel."""
    r = np.mod(a.copy(), p)
    m, n = r.shape
    pivots = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        nz = None
        for i in range(row, m):
            if r[i, col] % p:
                nz = i
                break
        if nz is None:
            continue
        if nz != row:
            r[[row, nz]] = r[[nz, row]]
        r[row] = (r[row] * pow(int(r[row, col]) % p, p - 2, p)) % p
        for i in range(m):
            if i != row and r[i, col]:
                r[i] = (r[i] - r[i, col] * r[row]) % p
        pivots.append(col)
        row += 1
    return r, pivots


def nullspace_by_rows(a, p):
    """The array route of gf.nullspace, on rref_by_rows."""
    n = a.shape[1]
    r, pivots = rref_by_rows(a, p)
    free = [j for j in range(n) if j not in pivots]
    basis = gf.zeros(n, len(free))
    for idx, j in enumerate(free):
        basis[j, idx] = 1
        for rowi, pc in enumerate(pivots):
            basis[pc, idx] = (-r[rowi, j]) % p
    return basis


def solve_by_rows(a, b, p):
    """The array route of gf.solve, on rref_by_rows: one elimination of
    [a | b], inconsistent when a pivot falls in b."""
    n = a.shape[1]
    r, pivots = rref_by_rows(np.concatenate([a, b], axis=1) % p, p)
    x = gf.zeros(n, b.shape[1])
    for rowi, pc in enumerate(pivots):
        if pc >= n:
            return None
        x[pc] = r[rowi, n:]
    return x


def inverse_by_rows(a, p):
    n = a.shape[0]
    if a.shape[1] != n:
        return None
    x = solve_by_rows(a, gf.eye(n), p)
    if x is None or not np.array_equal(np.mod(a @ x, p), gf.eye(n)):
        return None
    return x


def column_space_by_rows(a, p):
    r, pivots = rref_by_rows(a.T % p, p)
    return r[: len(pivots)].T.copy()


def quotient_map_by_rows(sub, n, p):
    """The array route of gf.quotient_map: one elimination of [sub | I_n]."""
    sub = sub if sub.size else gf.zeros(n, 0)
    c = sub.shape[1]
    r, pivots = rref_by_rows(np.concatenate([sub, gf.eye(n)], axis=1), p)
    k = sum(1 for j in pivots if j < c)
    return r[k:, c:], gf.eye(n)[:, [j - c for j in pivots[k:]]]


def greedy_quotient_map(sub, n, p):
    """Quotient of F_p^n by the span of sub, extending a basis of the span
    by standard vectors one rank test at a time: the original
    gf.quotient_map, kept as an oracle for the one-elimination version."""
    s = gf.column_space(sub, p) if sub.size else gf.zeros(n, 0)
    k = s.shape[1]
    basis = s
    for j in range(n):
        e = gf.zeros(n, 1)
        e[j, 0] = 1
        cand = np.concatenate([basis, e], axis=1)
        if gf.rank(cand, p) > basis.shape[1]:
            basis = cand
    binv = gf.inverse(basis, p)
    return binv[k:, :], basis[:, k:]


def part_blocks(combo, diffs: dict) -> dict:
    """The differentials of a candidate whose term i is
    rep.direct_sum(combo[i]), read between parts: part a of term i sits at
    the same offsets at every vertex.  Returns the nonzero components as
    {(i, a, b): {vertex: block}}, the component of diffs[i] from part a of
    term i to part b of term i + 1."""
    offsets = []
    for parts in combo:
        start = dict.fromkeys(parts[0].vertex_order, 0)
        offsets.append([])
        for m in parts:
            offsets[-1].append({v: slice(start[v], start[v] + m.dims[v])
                                for v in start})
            for v in start:
                start[v] += m.dims[v]
    blocks = {}
    for i, d in diffs.items():
        for a, cols in enumerate(offsets[i]):
            for b, rows in enumerate(offsets[i + 1]):
                block = {v: d.blocks[v][rows[v], cols[v]] for v in d.blocks}
                if any(x.any() for x in block.values()):
                    blocks[i, a, b] = block
    return blocks


def has_invertible_block(blocks: dict, p: int) -> bool:
    """Whether a differential has an invertible component between parts:
    exactly when it lies outside the radical (ARS V.7)."""
    return any(all(gf.is_invertible(x, p) for x in block.values())
               for block in blocks.values())


def group_complex(alg, combo, blocks: dict, nodes: list):
    """The subcomplex of a candidate on a group of parts (i, a), each term
    the direct sum of the group's parts in that degree."""
    index = {}
    for i, a in sorted(nodes):
        index.setdefault(i, []).append(a)
    sums = {i: rep.direct_sum([combo[i][a] for a in idx])
            for i, idx in index.items()}
    diffs = {}
    for (i, a, b), block in blocks.items():
        if a not in index.get(i, ()):
            continue
        _, _, projs = sums[i]
        _, incs, _ = sums[i + 1]
        f = compose(incs[index[i + 1].index(b)], compose(
            ModuleMap(combo[i][a], combo[i + 1][b], block, check=False),
            projs[index[i].index(a)]))
        diffs[i] = diffs[i] + f if i in diffs else f
    return derived.Complex(alg, {i: s[0] for i, s in sums.items()}, diffs,
                           check=False)


def visibly_splits(alg, combo, blocks: dict) -> bool:
    """Whether the candidate is a direct sum of two subcomplexes that are
    both nonzero in D^b: parts joined by a nonzero block form the groups of
    a block-diagonal splitting; a one-part group is a stalk of a nonzero
    module, and a longer one may be acyclic, so its cohomology is checked."""
    leader = {(i, a): (i, a)
              for i, parts in enumerate(combo) for a in range(len(parts))}

    def root(node):
        while leader[node] != node:
            node = leader[node]
        return node

    for i, a, b in blocks:
        leader[root((i, a))] = root((i + 1, b))
    groups = {}
    for node in leader:
        groups.setdefault(root(node), []).append(node)
    nonzero = 0
    for nodes in sorted(groups.values(), key=len):
        if len(nodes) == 1 or not derived.is_zero_in_derived(
                group_complex(alg, combo, blocks, nodes)):
            nonzero += 1
            if nonzero == 2:
                return True
    return False


def enumerate_by_full_hom(alg, width_bound: int, dim_bound: int,
                          cap: int = rep.END_ENUM_CAP):
    """The derived enumeration that draws each differential from the whole
    Hom space between the direct sums and discards afterwards the
    candidates with d o d != 0, an unused term, an invertible block or a
    visible splitting: the full-Hom loop, kept as an oracle for
    derived.enumerate_indecomposable_complexes.  Returns the found objects
    in the same order as the enumeration."""
    indec_mods = rep.enumerate_indecomposable_modules(alg, dim_bound, cap)
    found = []   # (minimal replacement, candidate, cohomology profile)
    term_choices = [(parts, rep.direct_sum(list(parts))[0]
                     if len(parts) > 1 else parts[0])
                    for parts in tilting._sums_with_dim_bound(indec_mods,
                                                              dim_bound)
                    if parts]
    term_dims = [sum(m.total_dim for m in parts) for parts, _ in term_choices]
    p = alg.p
    for width in range(1, width_bound + 1):
        for pick in derived._picks_within(term_dims, width, dim_bound,
                                          lambda k, l: True):
            combo = tuple(term_choices[k][0] for k in pick)
            terms = {i: term_choices[k][1] for i, k in enumerate(pick)}
            bases = [rep.hom_space(terms[i], terms[i + 1])
                     for i in range(width - 1)]
            if p ** sum(map(len, bases)) > cap:
                raise SearchExhausted("full-Hom enumeration exceeds its cap")
            for coeffs in product(*(product(range(p), repeat=len(b))
                                    for b in bases)):
                diffs = {i: sum((f.scale(c) for c, f in zip(coeffs[i], b)),
                                rep.zero_map(terms[i], terms[i + 1]))
                         for i, b in enumerate(bases)}
                if any(not compose(diffs[i], diffs[i - 1]).is_zero()
                       for i in range(1, width - 1)):
                    continue
                # every term must meet a nonzero differential
                if width > 1 and any(
                        all(d.is_zero() for d in (diffs.get(i),
                                                  diffs.get(i - 1)) if d)
                        for i in range(width)):
                    continue
                blocks = part_blocks(combo, diffs)
                if has_invertible_block(blocks, p) or \
                        visibly_splits(alg, combo, blocks):
                    continue
                cand = derived.Complex(alg, terms, diffs, check=False)
                prof = derived.cohomology_profile(cand)
                if not prof:
                    continue
                top = max(prof)
                nx = derived.shift(cand, top)
                if not derived.is_indecomposable_complex(nx):
                    continue
                prof = {n - top: h for n, h in prof.items()}
                mnx = derived.minimal_replacement(nx)
                if not any(prof == oprof and
                           derived._minimal_iso(mnx, other) is not None
                           for other, _, oprof in found):
                    found.append((mnx, nx, prof))
    found.sort(key=lambda entry: (entry[0].width(), entry[0].total_dim(),
                                  entry[0].encode()))
    return [nx for _, nx, _ in found]


# -- chain-map and counit constructions only the tests use --------------------

def identity_chain(x):
    return derived.ChainMap(x, x, {n: rep.identity_map(x.terms[n])
                                   for n in x.support}, check=False)


def cone_triangle(f):
    """Returns (cone, inclusion Y -> cone, projection cone -> X[1]), read
    from the inclusions and projections of the cone's terms."""
    c, sums = derived._cone(f)
    x1 = derived.shift(f.source, 1)
    return (c, derived.ChainMap(f.target, c,
                                {n: sums[n][1][1] for n in c.support}),
            derived.ChainMap(c, x1, {n: sums[n][2][0] for n in c.support}))


def is_nullhomotopic(f) -> bool:
    if f.is_zero():
        return True
    basis = derived.chain_maps(f.source, f.target)
    coords = homology.coords_in_basis(basis, [f])
    null = derived.homotopy_span(f.source, f.target, basis)
    return gf.in_span(null, coords, f.p)


def is_quasi_iso(f) -> bool:
    return derived.is_zero_in_derived(derived.cone(f))


def counit_map(data, x):
    """Evaluation T (x)_B Hom(T, x) -> x."""
    p = data.b.p
    hom_mod = homology.hom_as_b_module(data, x)
    tens = tensor_over_b(data, hom_mod.module)
    if tens.module.total_dim == 0:
        return rep.zero_map(tens.module, x)
    proj, sec, n = tens.extra
    dn = n.total_dim
    # module coordinates of Hom(T, x) -> actual linear maps
    emb = np.concatenate([hom_mod.bases[v] for v in hom_mod.module.vertex_order],
                         axis=1) % p
    hom_flat = np.stack([h.total().flatten() for h in hom_mod.extra],
                        axis=1) % p
    maps_flat = gf.mul(hom_flat, emb, p)  # column j: j-th module basis vector
    dt = data.t.total_dim
    dx = x.total_dim
    ev = gf.zeros(dx, dt * dn)
    for i in range(dt):
        for j in range(dn):
            hmat = maps_flat[:, j].reshape(dx, dt)
            ev[:, i * dn + j] = hmat[:, i]
    if gf.mul(ev, gf.column_space(
            (gf.eye(dt * dn) - gf.mul(sec, proj, p)) % p, p),
            p).any():
        raise InternalInconsistency("evaluation does not kill the relations")
    phi = gf.mul(ev, sec, p)
    return abstract_map_to_module_map(tens.module, tens.bases, x,
                                      homology.module_self_bases(x), phi)


# -- Hom(T, -) and T (x)_B - by solves and the balance quotient, as oracles ---

def hom_induced_map(data, src, tgt, f):
    """Hom(T, f) as a map of B-modules, between two results of
    homology.hom_as_b_module, by one solve in the Hom basis of the target."""
    p = data.b.p
    if src.module.total_dim == 0 or tgt.module.total_dim == 0:
        return rep.zero_map(src.module, tgt.module)
    tgt_flat = np.stack([h.total().flatten() for h in tgt.extra], axis=1) % p
    moved = f.total() @ np.stack([h.total() for h in src.extra])
    phi = gf.solve(tgt_flat, moved.reshape(len(src.extra), -1).T % p, p)
    return abstract_map_to_module_map(src.module, src.bases,
                                      tgt.module, tgt.bases, phi)


def tensor_over_b(data, n):
    """T (x)_B n as an A-module (n is a B-module): the quotient of
    T (x)_F n by the balance relations psi(b) t (x) x - t (x) b.x."""
    alg = data.t.algebra
    b = data.b
    p = b.p
    dt, dn = data.t.total_dim, n.total_dim
    if dt == 0 or dn == 0:
        mod = rep.zero_module(alg)
        return homology.TransportedModule(mod, homology.module_self_bases(mod),
                                          None)
    cols = []
    for i in range(b.dim):
        left = np.kron(data.psi(i), gf.eye(dn)) % p
        right = np.kron(gf.eye(dt), element_total(n, b.basis_vector(i))) % p
        diff = (left - right) % p
        if diff.any():
            cols.append(diff)
    relmat = (np.concatenate(cols, axis=1) % p
              if cols else gf.zeros(dt * dn, 0))
    proj, sec = gf.quotient_map(relmat, dt * dn, p)

    def rho(i):
        act = np.kron(element_total(data.t, alg.basis_vector(i)),
                      gf.eye(dn)) % p
        return gf.mulchain(p, proj, act, sec)

    mod, bases = rep.rep_from_abstract(alg, proj.shape[0], rho)
    return homology.TransportedModule(mod, bases, (proj, sec, n))


def tensor_induced_map(data, src, tgt, g):
    """T (x) g for a map g of B-modules, between two results of
    tensor_over_b."""
    p = data.b.p
    if src.module.total_dim == 0 or tgt.module.total_dim == 0:
        return rep.zero_map(src.module, tgt.module)
    proj_s, sec_s, _ = src.extra
    proj_t, _, _ = tgt.extra
    dt = data.t.total_dim
    big = np.kron(gf.eye(dt), g.total()) % p
    phi = gf.mulchain(p, proj_t, big, sec_s)
    return abstract_map_to_module_map(src.module, src.bases,
                                      tgt.module, tgt.bases, phi)


def hom_space_by_kron(m, n) -> list:
    """The basis of Hom(m, n) from one system of Kronecker blocks,
    vec(N_a F_s) = (I (x) N_a) vec(F_s) and vec(F_t M_a) = (M_a^T (x) I)
    vec(F_t), column-major vec, as the total matrices of its maps."""
    p = m.p
    layout, off = [], 0
    for v in m.vertex_order:
        layout.append((v, off, n.dims[v] * m.dims[v]))
        off += n.dims[v] * m.dims[v]
    if off == 0:
        return []
    rows = [gf.zeros(0, off)]
    for a in m.algebra.quiver.arrows:
        s, t = a.source, a.target
        block = gf.zeros(n.dims[t] * m.dims[s], off)
        for v, voff, size in layout:
            if v == s and size:
                block[:, voff:voff + size] += np.kron(
                    gf.eye(m.dims[s]), n.action[a.name])
            if v == t and size:
                block[:, voff:voff + size] -= np.kron(
                    m.action[a.name].T, gf.eye(n.dims[t]))
        rows.append(block % p)
    basis = gf.nullspace(np.concatenate(rows, axis=0), p)
    return [ModuleMap(m, n, {v: basis[voff:voff + size, k].reshape(
        (n.dims[v], m.dims[v]), order="F") for v, voff, size in layout},
        check=False).total() for k in range(basis.shape[1])]


def element_total(m, vec):
    """Total-space matrix on the module m of an algebra element (a vector
    over path_basis)."""
    out = gf.zeros(m.total_dim, m.total_dim)
    for i in np.nonzero(vec)[0]:
        path = m.algebra.path_basis[int(i)]
        blk = m.path_matrix(path.arrows, path.source)
        rows, cols = m.slice(path.target), m.slice(path.source)
        out[rows, cols] = (out[rows, cols] + int(vec[i]) * blk) % m.p
    return out


def abstract_map_to_module_map(src, src_bases, tgt, tgt_bases, phi):
    """The ModuleMap of a total-space linear map phi that commutes with the
    action, between modules given by rep.rep_from_abstract with their
    vertex bases, one solve per vertex."""
    blocks = {}
    for v in src.vertex_order:
        x = gf.solve(tgt_bases[v], gf.mul(phi, src_bases[v], src.p), src.p)
        if x is None:
            raise ValueError(f"map does not respect the vertex split at {v}")
        blocks[v] = x
    return ModuleMap(src, tgt, blocks, check=False)
