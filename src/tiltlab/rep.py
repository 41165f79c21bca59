"""Finite-dimensional modules over a bound quiver algebra, as quiver
representations: a vector space per vertex and a matrix per arrow.

A path acts by composing arrow matrices right-to-left in traversal order:
the path ("a", "b") acts as act[b] @ act[a].
"""

from __future__ import annotations

from itertools import product

import numpy as np

from . import gf
from .algebra import BoundQuiverAlgebra, opposite_algebra
from .errors import AlgebraMismatch, RelationViolated, SearchExhausted

END_ENUM_CAP = 2 ** 20


class Module:
    def __init__(self, algebra: BoundQuiverAlgebra, dims: dict,
                 action: dict, check: bool = True):
        """With check=False the action matrices are taken as given: reduced
        int64 arrays that nobody mutates afterwards, as every unchecked
        caller in this module passes; the relations are not checked."""
        self.algebra = algebra
        self.p = algebra.p
        q = algebra.quiver
        self.dims = {v: int(dims.get(v, 0)) for v in q.vertices}
        self.action = {}
        for a in q.arrows:
            m = action.get(a.name)
            shape = (self.dims[a.target], self.dims[a.source])
            if m is None:
                m = gf.zeros(*shape)
            elif check:
                m = gf.asmat(m, self.p)
            if m.shape != shape:
                raise RelationViolated(
                    f"arrow {a.name}: matrix shape {m.shape} != {shape}")
            self.action[a.name] = m
        self.vertex_order = list(q.vertices)
        self.offsets = {}
        off = 0
        for v in self.vertex_order:
            self.offsets[v] = off
            off += self.dims[v]
        self.total_dim = off
        self._encoding = None
        if check:
            self._check_relations()

    def _check_relations(self):
        for rel in self.algebra.relations:
            src = rel[0][1].source
            tgt = rel[0][1].target
            acc = gf.zeros(self.dims[tgt], self.dims[src])
            for c, path in rel:
                acc = (acc + c * self.path_matrix(path.arrows, src)) % self.p
            if acc.any():
                raise RelationViolated(
                    f"relation {rel} acts by a nonzero matrix")

    def path_matrix(self, arrows: tuple, source: int) -> np.ndarray:
        """Matrix of a path given in traversal order."""
        q = self.algebra.quiver
        if not arrows:
            return gf.eye(self.dims[source])
        m = gf.eye(self.dims[source])
        for name in arrows:
            m = gf.mul(self.action[name], m, self.p)
        return m

    def slice(self, v: int) -> slice:
        return slice(self.offsets[v], self.offsets[v] + self.dims[v])

    def dim_vector(self) -> tuple:
        return tuple(self.dims[v] for v in self.vertex_order)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def encode(self) -> tuple:
        """Canonical encoding: dim vector, then row-major action entries;
        computed once."""
        if self._encoding is None:
            self._encoding = (self.dim_vector(), tuple(
                tuple(self.action[a.name].flatten().tolist())
                for a in self.algebra.quiver.arrows))
        return self._encoding

    def __repr__(self):
        return f"Module(dims={{{', '.join(f'{v}:{d}' for v, d in self.dims.items() if d)}}})"


class ModuleMap:
    def __init__(self, source: Module, target: Module, blocks: dict,
                 check: bool = True):
        if source.algebra is not target.algebra:
            raise AlgebraMismatch("map between modules over different algebras")
        self.source = source
        self.target = target
        self.p = source.p
        self.blocks = {}
        for v in source.vertex_order:
            b = blocks.get(v)
            shape = (target.dims[v], source.dims[v])
            if b is None:
                b = gf.zeros(*shape)
            elif check:  # unchecked blocks: reduced int64, never mutated
                b = gf.asmat(b, self.p)
            if b.shape != shape:
                raise ValueError(f"block at {v}: shape {b.shape} != {shape}")
            self.blocks[v] = b
        if check:
            self.verify()

    def verify(self):
        for a in self.source.algebra.quiver.arrows:
            lhs = gf.mul(self.target.action[a.name], self.blocks[a.source], self.p)
            rhs = gf.mul(self.blocks[a.target], self.source.action[a.name], self.p)
            if not np.array_equal(lhs, rhs):
                raise ValueError(f"map does not intertwine arrow {a.name}")

    def total(self) -> np.ndarray:
        m = gf.zeros(self.target.total_dim, self.source.total_dim)
        for v in self.source.vertex_order:
            m[self.target.slice(v), self.source.slice(v)] = self.blocks[v]
        return m

    @classmethod
    def from_total(cls, source: Module, target: Module, m: np.ndarray):
        """The map whose total() is m (reduced, zero off the vertex blocks),
        read block by block."""
        return cls(source, target, {v: m[target.slice(v), source.slice(v)]
                                    for v in source.vertex_order}, check=False)

    def is_zero(self) -> bool:
        return not any(b.any() for b in self.blocks.values())

    def is_mono(self) -> bool:
        return all(gf.rank(b, self.p) == b.shape[1] for b in self.blocks.values())

    def is_epi(self) -> bool:
        return all(gf.rank(b, self.p) == b.shape[0] for b in self.blocks.values())

    def is_iso(self) -> bool:
        return (self.source.dim_vector() == self.target.dim_vector()
                and all(gf.is_invertible(b, self.p) for b in self.blocks.values()))

    def __add__(self, other):
        return ModuleMap(self.source, self.target,
                         {v: (self.blocks[v] + other.blocks[v]) % self.p
                          for v in self.blocks}, check=False)

    def __sub__(self, other):
        return ModuleMap(self.source, self.target,
                         {v: (self.blocks[v] - other.blocks[v]) % self.p
                          for v in self.blocks}, check=False)

    def scale(self, c: int):
        return ModuleMap(self.source, self.target,
                         {v: (c * self.blocks[v]) % self.p for v in self.blocks},
                         check=False)

    def __repr__(self):
        return f"ModuleMap({self.source!r} -> {self.target!r})"


def zero_module(algebra: BoundQuiverAlgebra) -> Module:
    return Module(algebra, {}, {}, check=False)


def zero_map(source: Module, target: Module) -> ModuleMap:
    return ModuleMap(source, target, {}, check=False)


def identity_map(m: Module) -> ModuleMap:
    return ModuleMap(m, m, {v: gf.eye(m.dims[v]) for v in m.vertex_order},
                     check=False)


def compose(f: ModuleMap, g: ModuleMap) -> ModuleMap:
    """f after g (apply g first)."""
    if g.target is not f.source and g.target.dims != f.source.dims:
        raise ValueError("non-composable maps")
    return ModuleMap(g.source, f.target,
                     {v: gf.mul(f.blocks[v], g.blocks[v], f.p)
                      for v in f.blocks}, check=False)


def check_module(algebra: BoundQuiverAlgebra, dims: dict, action: dict) -> Module:
    return Module(algebra, dims, action, check=True)


# -- hom spaces --------------------------------------------------------------

def hom_space(m: Module, n: Module) -> list[ModuleMap]:
    """A basis of Hom(m, n) as intertwiner solutions."""
    if m.algebra is not n.algebra:
        raise AlgebraMismatch("hom between modules over different algebras")
    p = m.p
    off, nunk = {}, 0
    for v in m.vertex_order:
        off[v] = nunk
        nunk += n.dims[v] * m.dims[v]
    if nunk == 0:
        return []
    # unknowns vec(F_v), column by column; one row per entry (i, j) of
    # N_a F_s - F_t M_a, column by column
    rows = []
    for a in m.algebra.quiver.arrows:
        s, t = a.source, a.target
        ns, nt = n.dims[s], n.dims[t]
        na, ma = n.action[a.name].tolist(), m.action[a.name].tolist()
        for j in range(m.dims[s]):
            base = off[s] + j * ns
            for i in range(nt):
                row = [0] * nunk
                row[base:base + ns] = na[i]
                for c, mc in enumerate(ma):
                    if mc[j]:
                        k = off[t] + i + c * nt
                        row[k] = (row[k] - mc[j]) % p
                rows.append(row)
    basis = gf.nullspace_of_rows(rows, nunk, p)
    out = []
    for k in range(basis.shape[1]):
        blocks = {}
        for v in m.vertex_order:
            blocks[v] = basis[off[v]:off[v] + n.dims[v] * m.dims[v],
                              k].reshape((n.dims[v], m.dims[v]), order="F")
        out.append(ModuleMap(m, n, blocks, check=False))
    return out


def hom_dim(m: Module, n: Module) -> int:
    return len(hom_space(m, n))


def map_from_coeffs(basis: list, coeffs):
    out = basis[0].scale(int(coeffs[0]))
    for b, c in zip(basis[1:], coeffs[1:]):
        out = out + b.scale(int(c))
    return out


def all_maps(basis: list, p: int, skip_zero: bool = False,
             cap: int = END_ENUM_CAP):
    """Iterate over all maps in the span of `basis` (finite field).

    The basis may hold module maps or chain maps (anything with .scale and
    +); coefficient tuples come in lexicographic order.
    """
    if not basis:
        return
    if p ** len(basis) > cap:
        raise SearchExhausted(
            f"hom-space enumeration of size {p}^{len(basis)} exceeds cap {cap}")
    for coeffs in product(range(p), repeat=len(basis)):
        if skip_zero and not any(coeffs):
            continue
        yield map_from_coeffs(basis, coeffs)


# -- kernels, images, cokernels ---------------------------------------------

def _restricted_action(m: Module, spaces: dict) -> dict:
    """Action induced on a stable family of subspaces (columns per vertex)."""
    act = {}
    for a in m.algebra.quiver.arrows:
        moved = gf.mul(m.action[a.name], spaces[a.source], m.p)
        x = gf.solve(spaces[a.target], moved, m.p)
        if x is None:
            raise ValueError(f"subspaces not stable under arrow {a.name}")
        act[a.name] = x
    return act


def submodule_from_subspaces(m: Module, spaces: dict) -> tuple[Module, ModuleMap]:
    """Submodule spanned by the given stable subspaces; returns (S, incl)."""
    cols = {v: gf.column_space(spaces.get(v, gf.zeros(m.dims[v], 0)), m.p)
            for v in m.vertex_order}
    act = _restricted_action(m, cols)
    s = Module(m.algebra, {v: cols[v].shape[1] for v in cols}, act, check=False)
    return s, ModuleMap(s, m, cols, check=False)


def kernel(f: ModuleMap) -> tuple[Module, ModuleMap]:
    spaces = {v: gf.nullspace(f.blocks[v], f.p) for v in f.source.vertex_order}
    return submodule_from_subspaces(f.source, spaces)


def image(f: ModuleMap) -> tuple[Module, ModuleMap, ModuleMap]:
    """Returns (im f, inclusion into target, projection from source)."""
    spaces = {v: gf.column_space(f.blocks[v], f.p) for v in f.source.vertex_order}
    im, incl = submodule_from_subspaces(f.target, spaces)
    proj_blocks = {}
    for v in f.source.vertex_order:
        x = gf.solve(incl.blocks[v], f.blocks[v], f.p)
        proj_blocks[v] = x
    return im, incl, ModuleMap(f.source, im, proj_blocks, check=False)


def cokernel(f: ModuleMap) -> tuple[Module, ModuleMap]:
    """Returns (coker f, projection target -> coker)."""
    n = f.target
    projs, secs = {}, {}
    for v in n.vertex_order:
        pr, sec = gf.quotient_map(f.blocks[v], n.dims[v], n.p)
        projs[v], secs[v] = pr, sec
    act = {}
    for a in n.algebra.quiver.arrows:
        act[a.name] = gf.mulchain(n.p, projs[a.target], n.action[a.name],
                                  secs[a.source])
    c = Module(n.algebra, {v: projs[v].shape[0] for v in projs}, act,
               check=False)
    return c, ModuleMap(n, c, projs, check=False)


def direct_sum(mods: list[Module]):
    """Returns (sum, inclusions, projections)."""
    if not mods:
        raise ValueError("empty direct sum needs an algebra; use zero_module")
    alg = mods[0].algebra
    p = alg.p
    dims = {v: sum(m.dims[v] for m in mods) for v in alg.quiver.vertices}
    act = {}
    for a in alg.quiver.arrows:
        blocks = [m.action[a.name] for m in mods]
        mat = gf.zeros(dims[a.target], dims[a.source])
        ro = co = 0
        for m in mods:
            bt, bs = m.dims[a.target], m.dims[a.source]
            mat[ro:ro + bt, co:co + bs] = m.action[a.name]
            ro += bt
            co += bs
        act[a.name] = mat
    total = Module(alg, dims, act, check=False)
    incs, projs = [], []
    offs = {v: 0 for v in alg.quiver.vertices}
    for m in mods:
        ib = {v: np.eye(dims[v], m.dims[v], -offs[v], dtype=np.int64)
              for v in alg.quiver.vertices}
        pb = {v: np.eye(m.dims[v], dims[v], offs[v], dtype=np.int64)
              for v in alg.quiver.vertices}
        incs.append(ModuleMap(m, total, ib, check=False))
        projs.append(ModuleMap(total, m, pb, check=False))
        for v in alg.quiver.vertices:
            offs[v] += m.dims[v]
    return total, incs, projs


# -- canonical modules --------------------------------------------------------

def simple(alg: BoundQuiverAlgebra, v: int) -> Module:
    return Module(alg, {v: 1}, {}, check=False)


def projective_structure(alg: BoundQuiverAlgebra, v: int):
    """P(v) together with its basis paths grouped by endpoint.

    Returns (module, paths) where paths[w] lists, in coordinate order, the
    basis paths from v to w; the k-th basis vector of the w-component is
    the class of paths[w][k].  Built once per algebra and vertex.
    """
    return alg.memo(("projective", v), lambda: _projective_structure(alg, v))


def _projective_structure(alg: BoundQuiverAlgebra, v: int):
    idxs = alg.basis_paths_from(v)
    groups = {}  # target vertex -> ordered list of basis indices
    for i in idxs:
        groups.setdefault(alg.path_basis[i].target, []).append(i)
    dims = {w: len(groups.get(w, [])) for w in alg.quiver.vertices}
    pos = {i: k for w in groups for k, i in enumerate(groups[w])}
    act = {}
    for a in alg.quiver.arrows:
        a_idx = alg.index[(a.source, (a.name,))]
        mat = gf.zeros(dims[a.target], dims[a.source])
        for i in groups.get(a.source, []):
            prod = alg.multiply_basis(i, a_idx)
            for j in np.nonzero(prod)[0]:
                mat[pos[int(j)], pos[i]] = prod[j]
        act[a.name] = mat
    paths = {w: [alg.path_basis[i] for i in groups.get(w, [])]
             for w in alg.quiver.vertices}
    return Module(alg, dims, act, check=False), paths


def projective(alg: BoundQuiverAlgebra, v: int) -> Module:
    """P(v) = (paths starting at v) with arrows acting by concatenation."""
    return projective_structure(alg, v)[0]


def regular_module(alg: BoundQuiverAlgebra) -> Module:
    return direct_sum([projective(alg, v) for v in alg.quiver.vertices])[0]


def dual_module(m: Module, op_alg: BoundQuiverAlgebra) -> Module:
    """k-dual over the opposite algebra (arrows reversed, matrices transposed)."""
    act = {a.name: m.action[a.name].T.copy() for a in m.algebra.quiver.arrows}
    return Module(op_alg, dict(m.dims), act, check=False)


def opposite_of(alg: BoundQuiverAlgebra) -> BoundQuiverAlgebra:
    """A^op, built once; the opposite of A^op is A itself."""
    op = alg.memo("opposite", lambda: opposite_algebra(alg))
    op.memo("opposite", lambda: alg)
    return op


def injective(alg: BoundQuiverAlgebra, v: int) -> Module:
    return dual_module(projective(opposite_of(alg), v), alg)


# -- radical, top, trace -----------------------------------------------------

def radical_submodule(m: Module) -> tuple[Module, ModuleMap]:
    spaces = {v: gf.zeros(m.dims[v], 0) for v in m.vertex_order}
    for a in m.algebra.quiver.arrows:
        spaces[a.target] = np.concatenate(
            [spaces[a.target], m.action[a.name]], axis=1)
    return submodule_from_subspaces(m, spaces)


def top(m: Module) -> tuple[Module, ModuleMap]:
    _, incl = radical_submodule(m)
    return cokernel(incl)


def trace_submodule(generators: list[Module], x: Module) -> dict:
    """Subspaces of x spanned by images of all maps from the generators."""
    spaces = {v: gf.zeros(x.dims[v], 0) for v in x.vertex_order}
    for g in generators:
        for f in hom_space(g, x):
            for v in x.vertex_order:
                spaces[v] = np.concatenate([spaces[v], f.blocks[v]], axis=1)
    return {v: gf.column_space(spaces[v], x.p) for v in spaces}


# -- isomorphism and decomposition -------------------------------------------

def is_isomorphic(m: Module, n: Module):
    """Returns an invertible ModuleMap witness, or None: the sum of the
    isomorphisms between Krull-Schmidt summands that match_summands pairs."""
    if m.algebra is not n.algebra:
        raise AlgebraMismatch("modules over different algebras")
    if m.dim_vector() != n.dim_vector():
        return None
    ms, ns = decompose_with_maps(m), decompose_with_maps(n)
    pairs = match_summands([s for s, _, _ in ms], [s for s, _, _ in ns],
                           iso_of_indecomposables)
    return None if pairs is None else sum(
        (compose(ns[j][1], compose(f, ms[i][2])) for i, j, f in pairs),
        zero_map(m, n))


def iso_of_indecomposables(m: Module, n: Module):
    """An isomorphism between indecomposable modules, or None.  If m = n,
    the non-isomorphisms in Hom(m, n) are rad End(m) moved by one
    isomorphism, a proper subspace, so some basis element is one."""
    if m.dim_vector() != n.dim_vector():
        return None
    return next((f for f in hom_space(m, n) if f.is_iso()), None)


def match_summands(xs: list, ys: list, iso):
    """[(i, j, iso(xs[i], ys[j]))] pairing indecomposables (modules or
    complexes) one to one, or None when their multisets differ."""
    left, out = dict(enumerate(ys)), []
    for i, x in enumerate(xs):
        match = next(((j, w) for j, y in left.items()
                      if (w := iso(x, y)) is not None), None)
        if match is None:
            return None
        out.append((i, *match))
        del left[match[0]]
    return None if left else out


def splitting_map(endos: list, p: int):
    """e in the span of endos, a basis of End of a module or complex, with
    im e (+) ker e the object and both nonzero, or None when the object is
    indecomposable (gf.local_ring)."""
    e = gf.local_ring([f.total() for f in endos], p)[0]
    f = endos[0]
    return None if e is None else type(f).from_total(f.source, f.target, e)


def split_by_idempotent(m: Module, e: ModuleMap):
    """m = im(e) (+) ker(e) for an idempotent or Fitting power e, with maps."""
    im, im_incl, _ = image(e)
    ker, ker_incl = kernel(e)
    # the rows of [im | ker]^-1 split into the two projections
    im_blocks, ker_blocks = {}, {}
    for v in m.vertex_order:
        inv = gf.inverse(np.concatenate(
            [im_incl.blocks[v], ker_incl.blocks[v]], axis=1), m.p)
        assert inv is not None, "idempotent split is not a decomposition"
        im_blocks[v], ker_blocks[v] = inv[:im.dims[v]], inv[im.dims[v]:]
    return ((im, im_incl, ModuleMap(m, im, im_blocks, check=False)),
            (ker, ker_incl, ModuleMap(m, ker, ker_blocks, check=False)))


def decompose_with_maps(m: Module):
    """List of (indecomposable summand, inclusion, projection), computed once
    per encoding of m; every call returns a new list."""
    return list(m.algebra.memo(("summands", m.encode()),
                               lambda: _decompose_with_maps(m)))


def _decompose_with_maps(m: Module):
    if m.total_dim == 0:
        return []
    e = splitting_map(hom_space(m, m), m.p)
    if e is None:
        return [(m, identity_map(m), identity_map(m))]
    (im, i1, p1), (ker, i2, p2) = split_by_idempotent(m, e)
    out = []
    for sub, inc, proj in ((im, i1, p1), (ker, i2, p2)):
        for s, si, sp in decompose_with_maps(sub):
            out.append((s, compose(inc, si), compose(sp, proj)))
    return out


def decompose(m: Module):
    """Krull-Schmidt decomposition as [(summand, multiplicity)], canonical order."""
    parts = [s for s, _, _ in decompose_with_maps(m)]
    parts.sort(key=lambda s: s.encode())
    out = []
    for s in parts:
        for i, (t, mult) in enumerate(out):
            if iso_of_indecomposables(s, t) is not None:
                out[i] = (t, mult + 1)
                break
        else:
            out.append((s, 1))
    return out


def is_indecomposable(m: Module) -> bool:
    return m.total_dim > 0 and gf.local_ring(
        [f.total() for f in hom_space(m, m)], m.p)[0] is None


def _dim_vectors(nvert: int, total: int):
    if nvert == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _dim_vectors(nvert - 1, total - first):
            yield (first,) + rest


def enumerate_indecomposable_modules(alg: BoundQuiverAlgebra, dim_bound: int,
                                     node_cap: int = END_ENUM_CAP):
    """All indecomposables of total dimension <= dim_bound, up to iso, in
    the order of (total dimension, encoding).

    Knitted from the projectives when that closes within the bound, and then
    all of ind A (knitting.knit_indecomposables); otherwise found by the
    scan of every action (scan_indecomposable_modules), complete whenever
    the algebra is representation finite and dim_bound exceeds its largest
    indecomposable.  Computed once per algebra, bound and cap; every call
    returns a new list.
    """
    return list(_indecomposables(alg, dim_bound, node_cap)[1])


def is_representation_finite(alg: BoundQuiverAlgebra, dim_bound: int,
                             node_cap: int = END_ENUM_CAP):
    """Returns (flag, indecomposables-up-to-bound).

    When the knitting closes, the flag is True and certified: the list is
    all of ind A.  Otherwise the flag is the heuristic "the scan finds
    nothing of total dimension dim_bound".
    """
    mods = enumerate_indecomposable_modules(alg, dim_bound, node_cap)
    knitted, _ = _indecomposables(alg, dim_bound, node_cap)
    largest = max((m.total_dim for m in mods), default=0)
    return knitted or largest < dim_bound, mods


def _indecomposables(alg: BoundQuiverAlgebra, dim_bound: int, cap: int):
    """(knitted, modules): whether the knitting closed, and the modules."""
    def compute():
        from .knitting import knit_indecomposables
        knitted = knit_indecomposables(alg, dim_bound)
        if knitted is not None:
            return True, tuple(knitted)
        return False, tuple(scan_indecomposable_modules(alg, dim_bound, cap))
    return alg.memo(("indecomposables", dim_bound, cap), compute)


def scan_indecomposable_modules(alg: BoundQuiverAlgebra, dim_bound: int,
                                node_cap: int = END_ENUM_CAP):
    """Indecomposables of total dimension <= dim_bound, up to iso, from
    every action on every dimension vector: the first action of each
    isomorphism class in lexicographic order represents it."""
    verts = list(alg.quiver.vertices)
    p = alg.p
    found: list[Module] = []
    for total in range(1, dim_bound + 1):
        for dv in sorted(_dim_vectors(len(verts), total)):
            dims = dict(zip(verts, dv))
            entries = []
            for a in alg.quiver.arrows:
                entries.append((a.name, dims[a.target], dims[a.source]))
            nent = sum(r * c for _, r, c in entries)
            if p ** nent > node_cap:
                raise SearchExhausted(
                    f"dimension vector {dv}: {p}^{nent} actions exceed cap")
            bucket: list[Module] = []
            for flat in product(range(p), repeat=nent):
                action = {}
                pos = 0
                for name, r, c in entries:
                    action[name] = np.array(
                        flat[pos:pos + r * c], dtype=np.int64).reshape(r, c)
                    pos += r * c
                try:
                    m = Module(alg, dims, action, check=True)
                except RelationViolated:
                    continue
                if not is_indecomposable(m):
                    continue
                if any(iso_of_indecomposables(m, other) is not None
                       for other in bucket):
                    continue
                bucket.append(m)
            bucket.sort(key=lambda s: s.encode())
            found.extend(bucket)
    return found


# -- abstract modules -> quiver representations -------------------------------

def rep_from_abstract(alg: BoundQuiverAlgebra, space_dim: int, rho):
    """Convert a module given by a total action into a quiver representation.

    rho(i) must return the (space_dim x space_dim) matrix of the i-th
    path-basis element of alg.  Returns (Module, vertex_bases) where
    vertex_bases[v] are the columns of the v-component inside the abstract
    space.
    """
    p = alg.p
    idems = {v: rho(alg.idempotent_index[v]) for v in alg.quiver.vertices}
    ids = sum(idems.values(), start=gf.zeros(space_dim, space_dim)) % p
    if not np.array_equal(ids, gf.eye(space_dim)):
        raise ValueError("vertex idempotents do not sum to the identity")
    bases = {v: gf.column_space(e, p) for v, e in idems.items()}
    dims = {v: bases[v].shape[1] for v in bases}
    act = {}
    for a in alg.quiver.arrows:
        a_idx = alg.index[(a.source, (a.name,))]
        moved = gf.mul(rho(a_idx), bases[a.source], p)
        x = gf.solve(bases[a.target], moved, p)
        if x is None:
            raise ValueError(f"action of arrow {a.name} leaves its component")
        act[a.name] = x
    return Module(alg, dims, act, check=True), bases
