"""Projective covers, resolutions, Ext/Tor, and endomorphism algebras.

The endomorphism algebra of a basic module is re-presented as a bound
quiver algebra so that Hom and tensor functors move modules back and
forth between the two module categories with exact arithmetic.
"""

from __future__ import annotations

import numpy as np

from . import gf, rep
from .algebra import (BoundQuiverAlgebra, Path, build_algebra, make_quiver)
from .errors import (InfiniteGlobalDimension, InternalInconsistency,
                     ModeUnsupported, NotBasic)
from .rep import Module, ModuleMap, compose

RESOLUTION_CAP = 32


def module_self_bases(m: Module) -> dict:
    """Vertex components of a module inside its own total space."""
    out = {}
    for v in m.vertex_order:
        cols = gf.zeros(m.total_dim, m.dims[v])
        cols[m.slice(v), :] = gf.eye(m.dims[v])
        out[v] = cols
    return out


def coords_in_basis(basis: list, fs: list) -> np.ndarray:
    """Coordinates of the maps fs (module or chain maps, compared by
    .total()) in a linearly independent basis, one column per map, from one
    solve; raises if some map is outside the span."""
    if not basis:
        if any(not f.is_zero() for f in fs):
            raise ValueError("nonzero map in zero hom space")
        return gf.zeros(0, len(fs))
    p = basis[0].p
    mat = np.stack([b.total().flatten() for b in basis], axis=1) % p
    target = np.stack([f.total().flatten() for f in fs], axis=1) % p
    x = gf.solve(mat, target, p)
    if x is None:
        raise ValueError("map is not in the span of the given basis")
    return x


# -- projective covers and resolutions ----------------------------------------

def projective_cover(m: Module) -> tuple[Module, ModuleMap]:
    """Minimal projective cover P(M) ->> M, computed once per encoding of m;
    P is shared, so never mutate it, and eps lands in the given m."""
    return _cover_of(m)[:2]


def _cover_of(m: Module):
    """(P, eps, tops) for the cover P ->> m, eps landing in m, where P is
    the direct sum of the P(v) for v in tops, in that order."""
    total, epi, tops = m.algebra.memo(("cover", m.encode()),
                                      lambda: _cover(m))
    return total, ModuleMap(total, m, epi.blocks, check=False), tops


def _cover(m: Module):
    alg = m.algebra
    tp, pi = rep.top(m)
    summands, tops = [], []
    blocks_per_summand = []
    for v in m.vertex_order:
        t_v = tp.dims[v]
        if t_v == 0:
            continue
        # lift the top basis back into m
        lifts = gf.solve(pi.blocks[v], gf.eye(t_v), m.p)
        assert lifts is not None
        pv, paths = rep.projective_structure(alg, v)
        for k in range(t_v):
            gen = lifts[:, k]
            blocks = {}
            for w in m.vertex_order:
                cols = [gf.mul(m.path_matrix(q.arrows, v),
                               gen.reshape(-1, 1), m.p)
                        for q in paths.get(w, [])]
                blocks[w] = (np.concatenate(cols, axis=1)
                             if cols else gf.zeros(m.dims[w], 0))
            summands.append(pv)
            tops.append(v)
            blocks_per_summand.append(blocks)
    if not summands:
        z = rep.zero_module(alg)
        return z, rep.zero_map(z, m), ()
    total, _, _ = rep.direct_sum(summands)
    blocks = {w: np.concatenate([b[w] for b in blocks_per_summand], axis=1)
              for w in m.vertex_order}
    epi = ModuleMap(total, m, blocks)
    if not epi.is_epi():
        raise InternalInconsistency("projective cover failed to surject")
    return total, epi, tuple(tops)


def minimal_projective_resolution(m: Module):
    """Returns (terms, diffs, eps): ... -> P_1 -> P_0 -eps-> M -> 0.

    diffs[i] is the map P_{i+1} -> P_i; terms stop at the first zero kernel.
    Computed once per encoding of m; every call gets fresh lists,
    and eps lands in the given m.
    """
    terms, diffs, eps, _ = _resolution(m)
    return list(terms), list(diffs), ModuleMap(eps.source, m, eps.blocks,
                                               check=False)


def _resolution(m: Module):
    """(terms, diffs, eps, tops) of the minimal projective resolution of m,
    computed once per encoding of m: terms[k] is the direct sum of the P(v)
    for v in tops[k], in that order."""
    return m.algebra.memo(("resolution", m.encode()), lambda: _resolve(m))


def _resolve(m: Module):
    terms, diffs, tops = [], [], []
    p0, eps, top = _cover_of(m)
    terms.append(p0)
    tops.append(top)
    current_ker, current_incl = rep.kernel(eps)
    while current_ker.total_dim > 0:
        if len(terms) > RESOLUTION_CAP:
            raise InfiniteGlobalDimension(
                f"projective resolution exceeds {RESOLUTION_CAP} terms")
        pn, cover, top = _cover_of(current_ker)
        diffs.append(compose(current_incl, cover))
        terms.append(pn)
        tops.append(top)
        current_ker, current_incl = rep.kernel(cover)
    return terms, diffs, eps, tops


def _components(alg: BoundQuiverAlgebra, d: ModuleMap, src: tuple,
                tgt: tuple) -> dict:
    """{(a, b): [(c, q)]} for a map d from the direct sum of the P(v) for v
    in src to that of the P(w) for w in tgt, both in that order: d sends
    the trivial path of the a-th summand P(v) to the sum of the c q in the
    b-th summand P(w), over the basis paths q from w to v.  Read off the
    coordinates of d, with nothing solved."""
    paths = {w: rep.projective_structure(alg, w)[1] for w in {*src, *tgt}}
    out, col = {}, dict.fromkeys(alg.quiver.vertices, 0)
    for a, v in enumerate(src):
        j = col[v] + next(k for k, q in enumerate(paths[v][v])
                          if not q.arrows)
        for x in col:
            col[x] += len(paths[v][x])
        image, row = d.blocks[v][:, j].tolist(), 0
        for b, w in enumerate(tgt):
            qs = paths[w][v]
            lin = [(c, q) for c, q in zip(image[row:row + len(qs)], qs) if c]
            row += len(qs)
            if lin:
                out[a, b] = lin
    return out


def resolution_image(alg: BoundQuiverAlgebra, n: Module, out, part, block,
                     dual: bool = False):
    """F(P_*) for the minimal projective resolution P_* of n over alg and
    an additive functor F into modules over out, given on the summands by
    F(P(v)) = part(v) and on the components of the differentials by
    block(lin) (vertex of out -> matrix F(P(v)) -> F(P(w))), for the
    component that sends the trivial path of P(v) to the sum of the c q in
    P(w), lin = [(c, q)] (_components).  Returns (terms, maps) with
    maps[k]: terms[k+1] -> terms[k].  When dual, part(v) is the dual
    D F(P(v)) and maps[k]: terms[k] -> terms[k+1] is the transpose, so the
    result is D F(P_*).  Nothing is solved."""
    _, diffs, _, tops = _resolution(n)
    parts = [[part(v) for v in top] for top in tops]
    terms = [rep.direct_sum(ps)[0] if ps else rep.zero_module(out)
             for ps in parts]
    maps = []
    for k, d in enumerate(diffs):
        comps = {key: block(lin) for key, lin in
                 _components(alg, d, tops[k + 1], tops[k]).items()}
        mats = {v: np.block([[comps[a, b][v] if (a, b) in comps
                              else gf.zeros(tgt.dims[v], src.dims[v])
                              for a, src in enumerate(parts[k + 1])]
                             for b, tgt in enumerate(parts[k])])
                for v in out.quiver.vertices}
        maps.append(ModuleMap(terms[k], terms[k + 1],
                              {v: m.T for v, m in mats.items()}, check=False)
                    if dual else
                    ModuleMap(terms[k + 1], terms[k], mats, check=False))
    return terms, maps


def projective_dimension(m: Module) -> int:
    if m.total_dim == 0:
        return -1
    terms, _, _ = minimal_projective_resolution(m)
    return len(terms) - 1


def global_dimension(alg: BoundQuiverAlgebra) -> int:
    """gl.dim A from the resolutions of the simples, computed once."""
    return alg.memo("global_dimension", lambda: max(
        projective_dimension(rep.simple(alg, v))
        for v in alg.quiver.vertices))


def injective_coresolution(m: Module):
    """Returns (terms, diffs, unit): 0 -> M -unit-> I^0 -> I^1 -> ...

    Computed by dualizing a minimal projective resolution over the
    opposite algebra.
    """
    alg = m.algebra
    op = rep.opposite_of(alg)
    dm = rep.dual_module(m, op)
    terms, diffs, eps = minimal_projective_resolution(dm)
    # dualizing flips all arrows: transpose every block
    inj = [rep.dual_module(t, alg) for t in terms]

    def dual_map(f: ModuleMap, new_src: Module, new_tgt: Module) -> ModuleMap:
        return ModuleMap(new_src, new_tgt,
                         {v: f.blocks[v].T.copy() for v in f.blocks},
                         check=False)

    unit = dual_map(eps, m, inj[0])
    out_diffs = [dual_map(d, inj[i], inj[i + 1]) for i, d in enumerate(diffs)]
    return inj, out_diffs, unit


# -- Ext dimensions ------------------------------------------------------------

def map_system(xt: dict, xd: dict, yt: dict, yd: dict, k: int = 0):
    """(bases, sysmat) for the graded maps f^n: x^n -> y^(n+k) between
    graded modules x and y, each given as degree -> Module (xt, yt) and
    degree n -> differential of degree n to n + 1 (xd, yd, absent where
    zero).  bases[n] is the basis of Hom(x^n, y^(n+k)), kept when nonempty,
    in degree order, and sysmat has a column per basis map in that order
    and a row per entry of d_y f^n - f^(n+1) d_x in Hom_F(x^n, y^(n+k+1)),
    zero rows dropped.  For k = 0 its kernel is the space of chain maps
    x -> y; its rank is that of the coboundary delta^k of the Hom complex
    (hom_complex_rank)."""
    bases = {n: b for n in sorted(xt) if n + k in yt
             if (b := rep.hom_space(xt[n], yt[n + k]))}
    col, nunk = {}, 0
    for n, b in bases.items():
        col[n] = nunk
        nunk += len(b)
    stacks = {n: np.stack([f.total() for f in b]) for n, b in bases.items()}
    rows = [gf.zeros(0, nunk)]
    for n in sorted(xt):
        if n + k + 1 not in yt or (n not in col and n + 1 not in col):
            continue
        # one row per entry of a matrix x^n -> y^(n+k+1)
        block = gf.zeros(yt[n + k + 1].total_dim * xt[n].total_dim, nunk)
        if n in col and n + k in yd:
            lhs = yd[n + k].total() @ stacks[n]
            block[:, col[n]:col[n] + len(lhs)] = lhs.reshape(len(lhs), -1).T
        if n + 1 in col and n in xd:
            rhs = stacks[n + 1] @ xd[n].total()
            block[:, col[n + 1]:col[n + 1] + len(rhs)] -= \
                rhs.reshape(len(rhs), -1).T
        rows.append(block % xt[n].p)
    sysmat = np.concatenate(rows, axis=0)
    return bases, sysmat[sysmat.any(axis=1)]


def hom_complex_rank(xt: dict, xd: dict, yt: dict, yd: dict,
                     k: int) -> tuple[int, int]:
    """(dim Hom^k, rank delta^k) for the Hom complex of graded modules given
    as in map_system: Hom^k = prod_n Hom(x^n, y^(n+k)) and
    delta^k f = d_y f - (-1)^k f d_x, so that
    dim H^k = dim Hom^k - rank delta^k - rank delta^(k-1).  The unsigned
    rows of map_system have the rank of delta^k for every k: the sign
    (-1)^n on the unknowns and rows of degree n turns one into the other
    when k is odd."""
    sysmat = map_system(xt, xd, yt, yd, k)[1]
    if not sysmat.size:
        return sysmat.shape[1], 0
    return sysmat.shape[1], gf.rank(sysmat, next(iter(xt.values())).p)


def _cohomology_dims(xt: dict, xd: dict, yt: dict, yd: dict,
                     degrees: range) -> list:
    """dim H^k of the Hom complex for k in degrees, from consecutive ranks;
    delta^(k-1) is taken as 0 below the first degree."""
    pairs = [hom_complex_rank(xt, xd, yt, yd, k) for k in degrees]
    ranks = [r for _, r in pairs]
    return [n - r - r_in for (n, r), r_in in zip(pairs, [0] + ranks)]


def ext_dim(x: Module, y: Module, i: int) -> int:
    """dim Ext^i(x, y) from a minimal projective resolution of x.

    Every degree is computed at once, from one complex Hom(P_*, y), once
    per encoding of x and y."""
    if i < 0 or x.total_dim == 0 or y.total_dim == 0:
        return 0
    dims = x.algebra.memo(("ext_dims", x.encode(), y.encode()),
                          lambda: _ext_dims(x, y))
    return dims[i] if i < len(dims) else 0


def _ext_dims(x: Module, y: Module) -> list:
    terms, diffs, _ = minimal_projective_resolution(x)
    # P_j sits in degree -j, and d: P_{j+1} -> P_j is its differential
    return _cohomology_dims({-j: t for j, t in enumerate(terms)},
                            {-j - 1: d for j, d in enumerate(diffs)},
                            {0: y}, {}, range(len(terms)))


def ext_dim_via_injectives(x: Module, y: Module, i: int) -> int:
    """Independent route: dim Ext^i(x, y) from an injective coresolution of
    y, every degree from one complex Hom(x, I^*), once per encoding of x
    and y."""
    if i < 0 or x.total_dim == 0 or y.total_dim == 0:
        return 0
    dims = x.algebra.memo(("ext_dims_inj", x.encode(), y.encode()),
                          lambda: _ext_dims_via_injectives(x, y))
    return dims[i] if i < len(dims) else 0


def _ext_dims_via_injectives(x: Module, y: Module) -> list:
    terms, diffs, _ = injective_coresolution(y)
    return _cohomology_dims({0: x}, {}, dict(enumerate(terms)),
                            dict(enumerate(diffs)), range(len(terms)))


def ext_dim_checked(x: Module, y: Module, i: int) -> int:
    a = ext_dim(x, y, i)
    b = ext_dim_via_injectives(x, y, i)
    if a != b:
        raise InternalInconsistency(
            f"Ext^{i} disagrees between resolutions: {a} vs {b}")
    return a


# -- subquotients -------------------------------------------------------------

def homology_at(f: ModuleMap | None, g: ModuleMap | None) -> Module:
    """ker(g)/im(f) for composable maps with g∘f = 0 (either may be None)."""
    if g is not None:
        ker, incl = rep.kernel(g)
        mid = g.source
    else:
        mid = f.target
        ker, incl = mid, rep.identity_map(mid)
    if f is None:
        return ker
    p = mid.p
    sub_blocks = {}
    for v in mid.vertex_order:
        inside = gf.solve(incl.blocks[v], f.blocks[v], p)
        if inside is None:
            raise ValueError("image does not land in the kernel")
        sub_blocks[v] = inside
    sub, sub_incl = rep.submodule_from_subspaces(
        ker, {v: gf.column_space(sub_blocks[v], p) for v in sub_blocks})
    quot, _ = rep.cokernel(sub_incl)
    return quot


# -- endomorphism algebras ----------------------------------------------------

class EndomorphismData:
    """Presentation of B = End(T) as a bound quiver algebra.

    Multiplication in B composes endomorphisms left to right, so the
    stored structure constants follow the same traversal-order convention
    as every other algebra here.  psi(i) gives the total-space matrix on T
    of the i-th path-basis element of B.
    """

    def __init__(self, t: Module, summands, b: BoundQuiverAlgebra,
                 vertex_summand: dict, arrow_matrices: dict):
        self.t = t
        self.summands = summands  # [(module, inc, proj)] in label order
        self.b = b
        self.vertex_summand = vertex_summand  # B-vertex -> summand position
        self.arrow_matrices = arrow_matrices  # arrow name -> total matrix
        self._psi_cache = {}
        self._path_cache = {}

    def psi(self, i: int) -> np.ndarray:
        """Total matrix on T of the i-th path-basis element of B."""
        got = self._psi_cache.get(i)
        if got is not None:
            return got
        path = self.b.path_basis[i]
        if not path.arrows:
            pos = self.vertex_summand[path.source]
            _, inc, proj = self.summands[pos]
            out = compose(inc, proj).total()
        else:
            out = _arrow_product(path.arrows, self.arrow_matrices, self.b.p)
        self._psi_cache[i] = out
        return out

    def summand(self, u: int) -> Module:
        """The summand T_u of T at the vertex u of B."""
        return self.summands[self.vertex_summand[u]][0]

    def path_blocks(self, i: int) -> dict:
        """proj_w psi(q) inc_v: T_v -> T_w for the i-th basis path q of B,
        from w to v, as its block at each vertex of A (a map of A-modules
        between summands of T)."""
        got = self._path_cache.get(i)
        if got is None:
            q = self.b.path_basis[i]
            _, _, proj = self.summands[self.vertex_summand[q.source]]
            _, inc, _ = self.summands[self.vertex_summand[q.target]]
            t, psi = self.t, self.psi(i)
            got = self._path_cache[i] = {
                x: gf.mulchain(self.b.p, proj.blocks[x],
                               psi[t.slice(x), t.slice(x)], inc.blocks[x])
                for x in t.vertex_order}
        return got

    def psi_element(self, vec: np.ndarray) -> np.ndarray:
        out = gf.zeros(self.t.total_dim, self.t.total_dim)
        for i in np.nonzero(vec)[0]:
            out = (out + int(vec[i]) * self.psi(int(i))) % self.b.p
        return out


def _arrow_product(arrows: tuple, arrow_matrices: dict, p: int) -> np.ndarray:
    """Total matrix on T of a nontrivial path of B (traversal order)."""
    out = arrow_matrices[arrows[0]]
    for name in arrows[1:]:
        out = gf.mul(out, arrow_matrices[name], p)
    return out


def endomorphism_algebra(t: Module) -> EndomorphismData:
    """Present End(t) of a basic module as a bound quiver algebra."""
    alg = t.algebra
    p = alg.p
    parts = rep.decompose_with_maps(t)
    parts.sort(key=lambda x: x[0].encode())
    for i, (si, _, _) in enumerate(parts):
        for j in range(i + 1, len(parts)):
            if rep.iso_of_indecomposables(si, parts[j][0]) is not None:
                raise NotBasic("module has repeated indecomposable summands",
                               multiplicities=[s.dim_vector()
                                               for s, _, _ in parts])
    n = len(parts)
    dim_t = t.total_dim
    end_basis = rep.hom_space(t, t)

    # radical components: rad[i][j] spans eps_i . rad(B) . eps_j
    rad = {}
    for i, (si, inci, proji) in enumerate(parts):
        for j, (sj, incj, projj) in enumerate(parts):
            if i == j:
                _, local, k = gf.local_ring(
                    [f.total() for f in rep.hom_space(si, si)], p)
                rad[(i, j)] = [gf.mulchain(p, inci.total(), m, proji.total())
                               for m in local]
                if k != 1:
                    raise ModeUnsupported(
                        "endomorphism ring has a non-prime residue field")
            else:
                rad[(i, j)] = [gf.mulchain(p, inci.total(), f.total(),
                                           projj.total())
                               for f in rep.hom_space(sj, si)]
    rad_all = [m for v in rad.values() for m in v]
    rad2 = {(i, j): gf.column_space(gf.stack_flat(
        [gf.mul(m1, m2, p) for b in range(n) for m1 in rad[(i, b)]
         for m2 in rad[(b, j)]], dim_t), p)
        for i in range(n) for j in range(n)}

    # arrows: basis of rad/rad^2, componentwise
    arrow_reps = {}  # (i, j) -> list of total matrices
    for i in range(n):
        for j in range(n):
            reps_ij = []
            seen = rad2[(i, j)]
            for m in rad[(i, j)]:
                flat = m.flatten()
                if gf.in_span(seen, flat, p):
                    continue
                seen = np.concatenate([seen, flat.reshape(-1, 1)], axis=1)
                seen = gf.column_space(seen, p)
                reps_ij.append(m)
            arrow_reps[(i, j)] = reps_ij

    # label order: sources before targets where possible
    edges = {i: set() for i in range(n)}
    for (i, j), reps_ij in arrow_reps.items():
        if reps_ij and i != j:
            edges[i].add(j)
    order = []
    remaining = set(range(n))
    while remaining:
        ready = sorted(i for i in remaining
                       if not any(i in edges[j] for j in remaining if j != i))
        pick = ready[0] if ready else min(remaining)
        order.append(pick)
        remaining.discard(pick)
    base = max(alg.quiver.vertices) + 1
    label_of = {pos: base + k for k, pos in enumerate(order)}

    arrow_list = []
    arrow_matrices = {}
    counter = 0
    for pos_u in order:
        for pos_v in order:
            for m in arrow_reps[(pos_u, pos_v)]:
                name = f"m{counter}"
                counter += 1
                arrow_list.append((name, label_of[pos_u], label_of[pos_v]))
                arrow_matrices[name] = m
    qb = make_quiver(sorted(label_of.values()), arrow_list)

    nilp = gf.nilpotency_index(rad_all, dim_t, p)
    if nilp is None:
        raise InternalInconsistency("radical fails to be nilpotent")

    # relations: kernel of the evaluation on paths of length 1..nilp
    paths_by_pair = {}
    frontier = [Path(v, (), v) for v in qb.vertices]
    all_paths = []
    for _ in range(nilp):
        nxt = []
        for q in frontier:
            for a in qb.arrows:
                if a.source == q.target:
                    nxt.append(Path(q.source, q.arrows + (a.name,), a.target))
        all_paths.extend(nxt)
        frontier = nxt
    for q in all_paths:
        paths_by_pair.setdefault((q.source, q.target), []).append(q)
    relations = []
    for pair, plist in paths_by_pair.items():
        mat = np.stack([_arrow_product(q.arrows, arrow_matrices, p).flatten()
                        for q in plist], axis=1) % p
        null = gf.nullspace(mat, p)
        for k in range(null.shape[1]):
            rel = [(int(null[r, k]), plist[r])
                   for r in np.nonzero(null[:, k])[0]]
            if any(len(q) < 2 for _, q in rel):
                raise InternalInconsistency(
                    "arrow representatives are dependent modulo rad^2")
            relations.append(rel)

    b = build_algebra(qb, relations, p)
    if b.dim != len(end_basis):
        raise InternalInconsistency(
            f"presented algebra has dim {b.dim}, End(T) has {len(end_basis)}")
    data = EndomorphismData(
        t, [parts[pos] for pos in order], b,
        {label_of[pos]: k for k, pos in enumerate(order)}, arrow_matrices)
    # multiplicativity audit: psi(i) psi(j) = psi(i then j)
    for i in range(b.dim):
        for j in range(b.dim):
            lhs = gf.mul(data.psi(i), data.psi(j), p)
            rhs = data.psi_element(b.multiply_basis(i, j))
            if not np.array_equal(lhs, rhs):
                raise InternalInconsistency("psi is not multiplicative")
    return data


# -- module transport along Hom(T, -) and T (x)_B - ---------------------------

class TransportedModule:
    """A module produced by a functor, with its identification data."""

    def __init__(self, module: Module, bases: dict, extra):
        self.module = module
        self.bases = bases  # vertex -> columns in the abstract total space
        self.extra = extra


def hom_as_b_module(data: EndomorphismData, x: Module) -> TransportedModule:
    """Hom_A(T, x) as a module over B = End(T)."""
    hom_basis = rep.hom_space(data.t, x)
    d = len(hom_basis)
    b = data.b
    p = b.p
    if d == 0:
        mod = rep.zero_module(b)
        return TransportedModule(mod, module_self_bases(mod), [])
    totals = np.stack([h.total() for h in hom_basis])
    flat = totals.reshape(d, -1).T % p

    def rho(i):
        # path-basis element pi acts by h -> h . psi(pi): one solve for all h
        moved = (totals @ data.psi(i)).reshape(d, -1).T % p
        return gf.solve(flat, moved, p)

    mod, bases = rep.rep_from_abstract(b, d, rho)
    return TransportedModule(mod, bases, hom_basis)


def ext_as_b_module(data: EndomorphismData, x: Module, i: int) -> Module:
    """Ext^i_A(T, x) as a B-module, from an injective coresolution of x.

    Every degree is computed at once, once per encoding of x; the
    returned module is shared, so never mutate it."""
    # B is built afresh for every End(T), so its memo already names T.
    exts = data.b.memo(("ext", x.encode()),
                       lambda: _ext_modules(data, x))
    return exts[i] if 0 <= i < len(exts) else rep.zero_module(data.b)


def _ext_modules(data: EndomorphismData, x: Module) -> list:
    """Every Ext^j(T, x): the cohomology of Hom(T, I^*) for I^* = D(Q_*),
    with Q_* the minimal projective resolution of D(x) over A^op, read off
    T with no Hom space solved.  Hom_A(T, D(Q)) = D(Q (x)_A T) naturally
    in Q, and P^op(v) (x)_A T = T_v, the space of T at the vertex v of A,
    so a term Q_k = (+)_a P^op(v_a) gives (+)_a D(T_(v_a)) (_dual_at), and
    a component of a differential, the sum of the c q over paths q of A^op
    from w to v, gives the transpose of the sum of the c q read as paths of
    A from v to w: T_v -> T_w, on every summand of T."""
    alg, b = data.t.algebra, data.b
    summands = {u: data.summand(u) for u in b.quiver.vertices}

    def block(lin):
        return {u: sum(c * s.path_matrix(tuple(reversed(q.arrows)), q.target)
                       for c, q in lin) % b.p for u, s in summands.items()}
    op = rep.opposite_of(alg)
    terms, maps = resolution_image(op, rep.dual_module(x, op), b,
                                   lambda v: _dual_at(data, v), block,
                                   dual=True)
    return _homology_modules(terms, [None] + maps, maps + [None])


def _dual_at(data: EndomorphismData, v: int) -> Module:
    """D(T_v) = Hom_A(T, I(v)) as a B-module, for the space T_v of T at
    the vertex v of A: D((T_u)_v) at the vertex u of B, and a path q acting
    by the transpose of path_blocks(q) at v.  Built once per vertex."""
    b = data.b

    def build():
        act = {a.name: data.path_blocks(
            b.index[(a.source, (a.name,))])[v].T.copy()
            for a in b.quiver.arrows}
        return Module(b, {u: data.summand(u).dims[v]
                          for u in b.quiver.vertices}, act)
    return b.memo(("dual_at", v), build)


def _homology_modules(terms: list, into: list, out_of: list) -> list:
    """Homology at every term of a complex, given the maps into and out of
    each term (None where there is none)."""
    return [term if f is None and g is None else homology_at(f, g)
            for term, f, g in zip(terms, into, out_of)]


def tensor_resolution(data: EndomorphismData, n: Module):
    """T (x)_B P_* for the minimal projective resolution P_* of the
    B-module n, as (terms, maps) with maps[k]: terms[k+1] -> terms[k],
    built with nothing solved.  T (x)_B P(u) = T_u, the summand of T at u,
    so terms[k] is (+)_a T_(u_a) over the summands P(u_a) of P_k, and a
    component P(v) -> P(w) of a differential, sending the trivial path of
    P(v) to c in e_w B e_v, becomes proj_w psi(c) inc_v: T_v -> T_w."""
    alg, b = data.t.algebra, data.b

    def block(lin):
        maps = [(c, data.path_blocks(b.index[(q.source, q.arrows)]))
                for c, q in lin]
        return {x: sum(c * m[x] for c, m in maps) % b.p
                for x in alg.quiver.vertices}
    return resolution_image(b, n, alg, data.summand, block)


def tor_dims(data: EndomorphismData, n: Module) -> list:
    """The dimension vectors of Tor_i^B(T, n) for i = 0 .. pd n (none for
    n = 0), from one rank per vertex block of each map of
    tensor_resolution; no Tor module is built.  Computed once per encoding
    of n."""
    if n.total_dim == 0:
        return []

    def compute():
        terms, maps = tensor_resolution(data, n)
        ranks = [{v: gf.rank(blk, data.b.p) for v, blk in f.blocks.items()}
                 for f in maps]
        return [tuple(t.dims[v] - r_in.get(v, 0) - r_out.get(v, 0)
                      for v in t.vertex_order)
                for t, r_in, r_out in zip(terms, ranks + [{}], [{}] + ranks)]
    # n.algebra is B, built afresh for every End(T), so its memo names T.
    return n.algebra.memo(("tor_dims", n.encode()), compute)


def tor_over_b(data: EndomorphismData, n: Module, i: int) -> Module:
    """Tor_i^B(T, n) as an A-module.

    Every degree is computed at once, once per encoding of n; the
    returned module is shared, so never mutate it."""
    # n.algebra is B, built afresh for every End(T), so its memo names T.
    tors = n.algebra.memo(("tor", n.encode()),
                          lambda: _tor_modules(data, n))
    return tors[i] if 0 <= i < len(tors) else rep.zero_module(data.t.algebra)


def _tor_modules(data: EndomorphismData, n: Module) -> list:
    """Every Tor_i^B(T, n): the homology of T (x)_B P_*."""
    terms, maps = tensor_resolution(data, n)
    return _homology_modules(terms, maps + [None], [None] + maps)


def t_as_right_module(data: EndomorphismData) -> Module:
    """T with its right B-action, as a module over the opposite of B."""
    b = data.b
    bop = rep.opposite_of(b)

    def rho(i):
        q = bop.path_basis[i]
        orig = b.index[(q.target, tuple(reversed(q.arrows)))]
        return data.psi(orig)

    mod, _ = rep.rep_from_abstract(bop, data.t.total_dim, rho)
    return mod
