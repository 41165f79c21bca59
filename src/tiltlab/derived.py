"""Bounded cochain complexes over a bound quiver algebra: shifts, cones,
homotopy classes of chain maps, projective replacements, cohomology,
Krull-Schmidt decomposition and desk-scale enumeration of indecomposables."""

from __future__ import annotations

from functools import cache
from itertools import product

import numpy as np

from . import gf, rep
from .errors import InfiniteGlobalDimension, SearchExhausted
from .homology import (coords_in_basis, ext_dim, global_dimension,
                       hom_complex_rank, homology_at, map_system,
                       projective_cover)
from .rep import Module, ModuleMap, compose

REPLACEMENT_SLACK = 8


class Complex:
    """A bounded cochain complex: finitely many modules and differentials.

    terms maps degree -> Module (zero terms dropped); diffs maps degree n to
    the map term(n) -> term(n+1).
    """

    def __init__(self, algebra, terms: dict, diffs: dict, check: bool = True):
        self.algebra = algebra
        self.p = algebra.p
        self.terms = {n: m for n, m in terms.items() if m.total_dim > 0}
        self.diffs = {}
        for n, d in diffs.items():
            if n in self.terms and (n + 1) in self.terms:
                self.diffs[n] = d
        self.support = sorted(self.terms)
        self._encoding = self._key = self._profile = None
        if check:
            self._check()

    def _check(self):
        for n, d in self.diffs.items():
            if d.source.dims != self.terms[n].dims or \
                    d.target.dims != self.terms[n + 1].dims:
                raise ValueError(f"differential at {n} has wrong endpoints")
            d.verify()
        for n in self.support:
            if n + 1 in self.diffs and n in self.diffs:
                if not compose(self.diff(n + 1), self.diff(n)).is_zero():
                    raise ValueError(f"d o d != 0 at degree {n}")

    def term(self, n: int) -> Module:
        return self.terms.get(n) or rep.zero_module(self.algebra)

    def diff(self, n: int) -> ModuleMap:
        d = self.diffs.get(n)
        if d is None:
            return rep.zero_map(self.term(n), self.term(n + 1))
        return d

    def is_zero_complex(self) -> bool:
        return not self.terms

    def total_dim(self) -> int:
        return sum(m.total_dim for m in self.terms.values())

    def width(self) -> int:
        return len(self.terms)

    def top(self) -> int:
        return self.support[-1] if self.support else 0

    def encode(self) -> tuple:
        """Terms and differentials degree by degree; computed once."""
        if self._encoding is None:
            self._encoding = tuple(
                (n, self.terms[n].encode(),
                 tuple(self.diffs[n].total().flatten().tolist())
                 if n in self.diffs else ())
                for n in self.support)
        return self._encoding

    def shift_key(self) -> tuple:
        """The encoding of this complex shifted to top degree 0, the same for
        all its shifts, sign included; computed once, passed on by shift."""
        if self._key is None:
            top, p = self.top(), self.p
            self._key = tuple((n - top, m, tuple(-c % p for c in d)
                               if top % 2 else d)
                              for n, m, d in self.encode())
        return self._key

    def __repr__(self):
        if not self.terms:
            return "Complex(0)"
        parts = ", ".join(f"{n}:{self.terms[n].dim_vector()}"
                          for n in self.support)
        return f"Complex({parts})"


class ChainMap:
    """A degreewise module map commuting with the differentials."""

    def __init__(self, source: Complex, target: Complex, maps: dict,
                 check: bool = True):
        self.source = source
        self.target = target
        self.p = source.p
        self.maps = {n: f for n, f in maps.items()
                     if n in source.terms and n in target.terms}
        if check:
            self.verify()

    def verify(self):
        degs = set(self.source.support) | set(self.target.support)
        for n in degs:
            lhs = compose(self.target.diff(n), self.map_at(n))
            rhs = compose(self.map_at(n + 1), self.source.diff(n))
            if not np.array_equal(lhs.total(), rhs.total()):
                raise ValueError(f"chain map does not commute at degree {n}")

    def map_at(self, n: int) -> ModuleMap:
        f = self.maps.get(n)
        if f is None:
            return rep.zero_map(self.source.term(n), self.target.term(n))
        return f

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.maps.values())

    def total(self) -> np.ndarray:
        """Block matrix over the degrees in order (block n, n: the map at n)."""
        out = gf.zeros(self.target.total_dim(), self.source.total_dim())
        r = c = 0
        for n in sorted(set(self.source.support) | set(self.target.support)):
            f = self.map_at(n)
            out[r:r + f.target.total_dim, c:c + f.source.total_dim] = f.total()
            r += f.target.total_dim
            c += f.source.total_dim
        return out

    @classmethod
    def from_total(cls, source: Complex, target: Complex, m: np.ndarray):
        """The chain map whose total() is m, read degree block by degree
        block (the inverse of total())."""
        maps, r, c = {}, 0, 0
        for n in sorted(set(source.support) | set(target.support)):
            s, t = source.term(n), target.term(n)
            maps[n] = ModuleMap.from_total(
                s, t, m[r:r + t.total_dim, c:c + s.total_dim])
            r += t.total_dim
            c += s.total_dim
        return cls(source, target, maps, check=False)

    def __add__(self, other):
        degs = set(self.maps) | set(other.maps)
        return ChainMap(self.source, self.target,
                        {n: self.map_at(n) + other.map_at(n) for n in degs},
                        check=False)

    def scale(self, c: int):
        return ChainMap(self.source, self.target,
                        {n: f.scale(c) for n, f in self.maps.items()},
                        check=False)


def compose_chain(f: ChainMap, g: ChainMap) -> ChainMap:
    """f after g."""
    degs = set(g.maps) | set(f.maps)
    return ChainMap(g.source, f.target,
                    {n: compose(f.map_at(n), g.map_at(n)) for n in degs},
                    check=False)


def stalk_complex(m: Module, deg: int = 0) -> Complex:
    return Complex(m.algebra, {deg: m}, {}, check=False)


def zero_complex(algebra) -> Complex:
    return Complex(algebra, {}, {}, check=False)


def shift(x: Complex, k: int) -> Complex:
    """(X[k])^n = X^{n+k}, differential scaled by (-1)^k.  X[k] carries the
    shift-class key of x and its cohomology profile, if known, moved by k."""
    if not k:
        return x
    y = Complex(x.algebra, {n - k: m for n, m in x.terms.items()},
                {n - k: d.scale(-1) if k % 2 else d
                 for n, d in x.diffs.items()}, check=False)
    y._key = x.shift_key()
    if x._profile is not None:
        y._profile = {n - k: h for n, h in x._profile.items()}
    return y


def assemble(alg, parts: dict, blocks: dict, check: bool = True):
    """The complex whose term n is rep.direct_sum(parts[n]) and whose
    differential from part a of term n to part b of term n + 1 is the sum
    of the maps blocks[n, a, b] (none where absent), with the triples
    {n: (term, inclusions, projections)} of rep.direct_sum."""
    sums = {n: rep.direct_sum(ps) for n, ps in parts.items()}
    diffs = {}
    for (n, a, b), f in blocks.items():
        g = compose(sums[n + 1][1][b], compose(f, sums[n][2][a]))
        diffs[n] = diffs[n] + g if n in diffs else g
    return Complex(alg, {n: s[0] for n, s in sums.items()}, diffs,
                   check=check), sums


def _cone(f: ChainMap):
    """cone(f), with the triples of rep.direct_sum for its terms."""
    x, y = f.source, f.target
    degs = sorted({n - 1 for n in x.terms} | set(y.terms))
    blocks = {}
    for n in degs:
        if n + 1 in degs:
            blocks.update({(n, 0, 0): x.diff(n + 1).scale(-1),
                           (n, 0, 1): f.map_at(n + 1),
                           (n, 1, 1): y.diff(n)})
    return assemble(x.algebra, {n: [x.term(n + 1), y.term(n)] for n in degs},
                    blocks)


def cone(f: ChainMap) -> Complex:
    """Terms X^{n+1} (+) Y^n, differential [[-d_X, 0], [f, d_Y]]."""
    return _cone(f)[0]


def cohomology(x: Complex, i: int) -> Module:
    if i not in x.terms:
        return rep.zero_module(x.algebra)
    incoming = x.diffs.get(i - 1)
    outgoing = x.diffs.get(i)
    if incoming is None and outgoing is None:
        return x.terms[i]
    if outgoing is None:
        outgoing = rep.zero_map(x.terms[i], rep.zero_module(x.algebra))
    return homology_at(incoming, outgoing)


def cohomology_profile(x: Complex) -> dict:
    """Degree -> dimension vector of the nonzero cohomology of x, computed
    once per object; never mutate it.

    Read from ranks, with no cohomology module built: at each vertex v,
    dim H^n(x)_v = dim x^n_v - rank d^n_v - rank d^(n-1)_v, since
    ker d^n_v has dimension dim x^n_v - rank d^n_v and contains
    im d^(n-1)_v exactly when d o d = 0.  That precondition holds for every
    complex here: a checked Complex verifies it, _candidate_blocks tests it
    before a candidate is built, and shifts and stalks keep it."""
    if x._profile is None:
        rk = {(n, v): gf.rank(b, x.p) for n, d in x.diffs.items()
              for v, b in d.blocks.items() if b.any()}
        x._profile = {n: h for n, m in x.terms.items() if any(h := tuple(
            m.dims[v] - rk.get((n, v), 0) - rk.get((n - 1, v), 0)
            for v in m.vertex_order))}
    return x._profile


def is_zero_in_derived(x: Complex) -> bool:
    return not cohomology_profile(x)


# -- chain maps and homotopy ---------------------------------------------------

def chain_maps(x: Complex, y: Complex) -> list[ChainMap]:
    """Basis of the space of strict chain maps x -> y: the kernel of the
    system of homology.map_system."""
    bases, sysmat = map_system(x.terms, x.diffs, y.terms, y.diffs)
    if not bases:
        return []
    p = x.p
    null = gf.nullspace(sysmat, p)
    maps = [{} for _ in range(null.shape[1])]
    col = 0
    for n, b in bases.items():
        coeffs = null[col:col + len(b)].T
        col += len(b)
        for v in x.terms[n].vertex_order:
            blocks = np.tensordot(
                coeffs, np.stack([f.blocks[v] for f in b]), axes=1) % p
            for c, block in enumerate(blocks):
                maps[c].setdefault(n, {})[v] = block
    return [ChainMap(x, y, {n: ModuleMap(x.terms[n], y.terms[n], blocks,
                                         check=False)
                            for n, blocks in m.items()}, check=False)
            for m in maps]


def homotopy_span(x: Complex, y: Complex,
                  chain_basis: list[ChainMap]) -> np.ndarray:
    """Coordinates (w.r.t. chain_basis) spanning the nullhomotopic maps."""
    hs = []
    for n in x.support:
        for sigma in rep.hom_space(x.terms[n], y.term(n - 1)):
            maps = {}
            if n in y.terms:
                maps[n] = compose(y.diff(n - 1), sigma)
            if (n - 1) in x.terms and (n - 1) in y.terms:
                maps[n - 1] = compose(sigma, x.diff(n - 1))
            hs.append(ChainMap(x, y, maps, check=False))
    if not hs:
        return gf.zeros(len(chain_basis), 0)
    return gf.column_space(coords_in_basis(chain_basis, hs), x.p)


def classes_modulo(basis: list[ChainMap], extra=()) -> list[ChainMap]:
    """The members of basis, a basis of the chain maps x -> y, whose classes
    form a basis of Hom(x, y) modulo the nullhomotopic maps and the span of
    the chain maps extra.

    basis[k] is chosen exactly when e_k is outside that span and
    e_0..e_{k-1}: a pivot of rref([null | I])."""
    if not basis:
        return []
    x, y = basis[0].source, basis[0].target
    null = homotopy_span(x, y, basis)
    if extra:
        null = np.concatenate([null, coords_in_basis(basis, extra)], axis=1)
    _, pivots = gf.rref(np.concatenate([null, gf.eye(len(basis))], axis=1),
                        x.p)
    return [basis[k - null.shape[1]] for k in pivots if k >= null.shape[1]]


def hom_homotopy(x: Complex, y: Complex) -> list[ChainMap]:
    """Basis of chain maps modulo homotopy (class representatives)."""
    return classes_modulo(chain_maps(x, y))


# -- projective replacement -----------------------------------------------------

def projective_replacement(x: Complex):
    """A complex of projectives with a surjective quasi-isomorphism onto x.

    Built degree by degree from the top: each new term covers the pullback
    of the previous kernel against the incoming differential of x.
    """
    alg = x.algebra
    if x.is_zero_complex():
        z = zero_complex(alg)
        return z, ChainMap(z, x, {}, check=False)
    top = max(x.support)
    bot = min(x.support)
    gl = global_dimension(alg)
    terms, diffs, pis = {}, {}, {}
    n = top
    prev_term = None   # P^{n+1}
    while True:
        if prev_term is None:
            v_mod = x.term(n)
            to_prev = None
            pi_pre = rep.identity_map(v_mod)
        else:
            k_mod, k_incl = rep.kernel(diffs_map(prev_term, diffs, n + 1))
            phi = compose(pis[n + 1], k_incl)      # K -> X^{n+1}
            psi = x.diff(n)                         # X^n -> X^{n+1}
            pair, incs, projs = rep.direct_sum([k_mod, x.term(n)])
            delta = compose(phi, projs[0]) - compose(psi, projs[1])
            v_mod, v_incl = rep.kernel(delta)
            to_prev = compose(k_incl, compose(projs[0], v_incl))
            pi_pre = compose(projs[1], v_incl)
        if v_mod.total_dim == 0:
            break
        p_term, eps = projective_cover(v_mod)
        terms[n] = p_term
        pis[n] = compose(pi_pre, eps)
        if to_prev is not None and prev_term is not None:
            diffs[n] = compose(to_prev, eps)
        prev_term = p_term
        n -= 1
        if n < bot - gl - REPLACEMENT_SLACK:
            raise InfiniteGlobalDimension(
                "projective replacement does not terminate")
    px = Complex(alg, terms, diffs, check=True)
    pi_maps = {m: pis[m] for m in px.support if m in x.terms}
    qis = ChainMap(px, x, pi_maps, check=True)
    return px, qis


def derived_hom_dim(x: Complex, y: Complex) -> int:
    """dim Hom(x, y) in D^b(A), counted by ranks with no class built.

    With P the minimal replacement of x, which is K-projective,
    Hom(x, y) = H^0 of the Hom complex Hom^k = prod_n Hom(P^n, y^(n+k)),
    delta^k f = d_y f - (-1)^k f d_P.  By rank-nullity its dimension is
    z0 - rank delta^-1, where z0 = dim Hom^0 - rank delta^0 is the dimension
    of the chain maps P -> y; delta^-1 is not ranked when z0 = 0.
    homology.map_system writes d_y f - f d_P, unsigned, for every k, and
    its rank is still that of delta^k: for odd k, the sign (-1)^n on the
    unknowns of degree n and on the rows of degree n turns the unsigned rows
    into the signed ones, and invertible changes on both sides keep the
    rank.  The same sign absorbs the sign that a shift puts on d_P or d_y.

    So shift, an auto-equivalence, keeps (dim Hom^k, rank delta^k)
    (homology.hom_complex_rank), and that pair is computed once per
    shift-class key of x, shift-class key of y and relative degree
    j = k + top(x) - top(y), the degree of the same maps between x and y
    shifted to top degree 0.  Hom(x, y) reads the pair at j = top(x) -
    top(y) and the rank at j - 1, which is the pair Hom(x, y[-1]) reads
    first, so adjacent shifts share a rank.  Where no degree n has both
    P^n and y^(n+k) nonzero, Hom^k = 0 and the pair is (0, 0), read off
    the supports with no entry kept."""
    if y.is_zero_complex():
        return 0
    j = x.top() - y.top()
    # supports of P shifted by -top(x) and of y shifted by -top(y)
    px_support = _top_replacement(x).support
    y_support = {n - y.top() for n in y.support}

    def pair(i: int) -> tuple[int, int]:
        if not any(n + i in y_support for n in px_support):
            return 0, 0

        def compute():
            px = minimal_replacement(x)
            return hom_complex_rank(px.terms, px.diffs, y.terms, y.diffs,
                                    i - j)
        return x.algebra.memo(
            ("derived_hom", x.shift_key(), y.shift_key(), i), compute)
    dim, rank = pair(j)
    z0 = dim - rank
    return z0 and z0 - pair(j - 1)[1]


def diffs_map(term: Module, diffs: dict, n: int) -> ModuleMap:
    d = diffs.get(n)
    if d is not None:
        return d
    return rep.zero_map(term, rep.zero_module(term.algebra))


def is_derived_isomorphic(x: Complex, y: Complex) -> bool:
    """Whether the Krull-Schmidt summands of x and y in D^b match."""
    hx = cohomology_profile(x)
    if hx != cohomology_profile(y):
        return False
    return not hx or rep.match_summands(
        decompose_complex(x), decompose_complex(y), _minimal_iso) is not None


def _minimal_iso(x: Complex, y: Complex):
    """A chain isomorphism between indecomposable minimal complexes of
    projectives, or None: the first invertible map of chain_maps(x, y).

    Minimal complexes are isomorphic in D^b exactly when they are
    isomorphic as complexes, and the strict End ring of an indecomposable
    one is local (is_indecomposable_complex certifies it).  So, as in
    rep.iso_of_indecomposables, if phi: x -> y is an isomorphism, the
    strict maps x -> y are phi End(x), and a basis of them that had no
    invertible member would put End(x) inside its radical."""
    return next((f for f in chain_maps(x, y)
                 if gf.is_invertible(f.total(), x.p)), None)


# -- minimization and decomposition ---------------------------------------------

def minimize_complex(x: Complex) -> Complex:
    """x with every invertible differential component cancelled, by one
    Gaussian elimination over the parts of its terms (Bar-Natan, J. Knot
    Theory Ramif. 16, 2007; Happel 1988, ch. I).

    Each term that meets a nonzero differential is split once into
    indecomposable parts, and d is read as its nonzero blocks d_ab from
    part a of term n to part b of term n + 1.  For an invertible block
    alpha: s -> t, x is homotopy equivalent to the complex without s and t
    whose block from a to b is d_ab - d_sb alpha^-1 d_at.  Its terms are
    the sums of the parts left, still indecomposable, so none is split
    again: the first invertible block in (n, s, t) order is cancelled until
    none is left (a map between indecomposables is invertible or radical),
    and the result is assembled once.  x itself is returned when nothing
    cancels."""
    diffs = {n: d for n, d in x.diffs.items() if not d.is_zero()}
    parts = {k: rep.decompose_with_maps(x.terms[k])
             for n in diffs for k in (n, n + 1)}
    blocks = {(n, a, b): f for n, d in diffs.items()
              for a, ds in enumerate([compose(d, si) for _, si, _ in parts[n]])
              for b, (_, _, tp) in enumerate(parts[n + 1])
              if not (f := compose(tp, ds)).is_zero()}
    live = {n: dict(enumerate(ps)) for n, ps in parts.items()}
    while key := next((k for k in sorted(blocks) if blocks[k].is_iso()), None):
        n, s, t = key
        alpha = blocks.pop(key)
        inv = ModuleMap(alpha.target, alpha.source, {v: gf.inverse(b, x.p)
                        for v, b in alpha.blocks.items()}, check=False)
        into_t = [(a, f) for (m, a, b), f in blocks.items()
                  if (m, b) == (n, t)]
        from_s = [(b, compose(f, inv)) for (m, a, b), f in blocks.items()
                  if (m, a) == (n, s)]
        for (a, f), (b, g) in product(into_t, from_s):
            h, k = compose(g, f), (n, a, b)
            blocks[k] = blocks[k] - h if k in blocks else h.scale(-1)
        del live[n][s], live[n + 1][t]
        blocks = {(m, a, b): f for (m, a, b), f in blocks.items()
                  if a in live[m] and b in live[m + 1] and not f.is_zero()}
    if all(len(live[n]) == len(ps) for n, ps in parts.items()):
        return x
    pos = {(n, k): i for n, ps in live.items() for i, k in enumerate(ps)}
    terms = {n: [p[0] for p in live[n].values()] if n in live else [m]
             for n, m in x.terms.items()}
    return assemble(x.algebra, {n: ms for n, ms in terms.items() if ms},
                    {(n, pos[n, a], pos[n + 1, b]): f
                     for (n, a, b), f in blocks.items()}, check=True)[0]


def minimal_replacement(x: Complex) -> Complex:
    """The minimized projective replacement of x.  The replacement of x[s]
    is that of x shifted by s, so it is computed once per complex up to
    shift: x is keyed by its shift-class key, and the replacement of x[top]
    that is stored is shifted back.  Its terms are shared, so never mutate
    it."""
    return shift(_top_replacement(x), -x.top())


def _top_replacement(x: Complex) -> Complex:
    """The minimized projective replacement of x[top(x)], computed once
    per shift-class key."""
    return x.algebra.memo(("minimal", x.shift_key()), lambda: minimize_complex(
        projective_replacement(shift(x, x.top()))[0]))


def _split_by_chain_idempotent(x: Complex, e: ChainMap):
    """x = im e (+) ker e for an idempotent or Fitting power e, split
    degreewise by rep.split_by_idempotent; both are subcomplexes."""
    parts = {n: rep.split_by_idempotent(x.terms[n], e.map_at(n))
             for n in x.support}
    return [Complex(x.algebra, {n: part[k][0] for n, part in parts.items()},
                    {n: compose(parts[n + 1][k][2],
                                compose(x.diff(n), parts[n][k][1]))
                     for n in x.support if n + 1 in parts}, check=True)
            for k in (0, 1)]


def decompose_complex(x: Complex):
    """Indecomposable summands of x in D^b, as minimal projective complexes.

    Works on a minimized projective replacement, where homotopy
    equivalences are chain isomorphisms, so strict chain maps suffice.
    """
    return _decompose_minimal(minimal_replacement(x))


def _decompose_minimal(x: Complex):
    if x.is_zero_complex():
        return []
    e = rep.splitting_map(chain_maps(x, x), x.p)
    if e is None:
        return [x]
    return [part for piece in _split_by_chain_idempotent(x, e)
            for part in _decompose_minimal(piece)]


def is_indecomposable_complex(x: Complex) -> bool:
    """Whether the chain endomorphisms of the minimal replacement are local."""
    if is_zero_in_derived(x):
        return False
    mx = minimal_replacement(x)
    return gf.local_ring([f.total() for f in chain_maps(mx, mx)],
                         x.p)[0] is None


def direct_sum_complexes(xs: list[Complex]):
    """Degreewise direct sum; returns (total, inclusion chain maps)."""
    if not xs:
        raise ValueError("empty direct sum of complexes")
    degs = sorted({n for x in xs for n in x.support})
    total, sums = assemble(
        xs[0].algebra, {n: [x.term(n) for x in xs] for n in degs},
        {(n, k, k): d for k, x in enumerate(xs) for n, d in x.diffs.items()
         if not d.is_zero()})
    return total, [ChainMap(x, total, {n: sums[n][1][k] for n in x.support},
                            check=False) for k, x in enumerate(xs)]


# -- enumeration -----------------------------------------------------------------

def _picks_within(sizes: list[int], width: int, budget: int, linked):
    """Index tuples into sizes of the given width whose sizes add up to at
    most budget and whose consecutive entries k, l satisfy linked(k, l), in
    the order of product(range(len(sizes)), repeat=width)."""
    def extend(width, budget, prev):
        if width == 0:
            yield ()
            return
        for k, size in enumerate(sizes):
            if size <= budget and (prev is None or linked(prev, k)):
                for rest in extend(width - 1, budget - size, k):
                    yield (k,) + rest
    return extend(width, budget, None)


def _radical_maps(m: Module, n: Module, cap: int):
    """(dim, nonzero, normalized) for rad(m, n), m and n knitted
    indecomposables: all of Hom(m, n) when they differ, rad End(m) when
    they are the same module (gf.local_ring).  nonzero lists the total
    matrices of the nonzero maps, coefficient vectors over a basis in
    product order, and normalized those whose first nonzero coefficient is
    1; past the cap both are None."""
    basis = [f.total() for f in rep.hom_space(m, n)]
    if m is n:
        basis = gf.local_ring(basis, m.p)[1]
    if m.p ** len(basis) > cap:
        return len(basis), None, None
    vecs = [c for c in product(range(m.p), repeat=len(basis)) if any(c)]
    mats = [sum(c * b for c, b in zip(v, basis)) % m.p for v in vecs]
    return len(basis), mats, [f for v, f in zip(vecs, mats)
                              if next(c for c in v if c) == 1]


def _spanning_tree(sizes: list, keys: list):
    """Positions in keys of a spanning tree, taken greedily in order, of the
    graph on the parts (i, a), a < sizes[i], with an edge from (i, a) to
    (i + 1, b) for each (i, a, b) in keys; None if it is disconnected."""
    leader = {(i, a): (i, a) for i, n in enumerate(sizes) for a in range(n)}

    def root(node):
        while leader[node] != node:
            node = leader[node]
        return node

    tree = []
    for k, (i, a, b) in enumerate(keys):
        r, s = root((i, a)), root((i + 1, b))
        if r != s:
            leader[r] = s
            tree.append(k)
    return tree if len(tree) == len(leader) - 1 else None


def _candidate_blocks(sizes: list, edges: list, p: int):
    """The radical, connected differentials with d o d = 0 on terms of
    sizes[i] parts, one per orbit of the part rescalings, each as
    {(i, a, b): total matrix of the nonzero block from part a of term i to
    part b of term i + 1}.  edges holds (key, dim, nonzero, normalized)
    from _radical_maps for each pair of parts with a nonzero radical.

    The pattern of nonzero blocks is chosen first and must connect every
    part.  Scaling part x by a unit l_x is a chain isomorphism: it turns
    the block from x to y into l_y l_x^-1 times it and keeps the pattern.
    On a spanning tree of the pattern the units reach any unit on each
    tree block (root the tree and solve outwards), so every orbit holds a
    differential whose tree blocks have first nonzero coefficient 1.  Two
    such differentials in one orbit differ by units with l_x = l_y along
    every tree block, constant on the connected pattern, and a constant
    acts trivially: they are equal."""
    for pattern in product((False, True), repeat=len(edges)):
        chosen = [e for e, on in zip(edges, pattern) if on]
        keys = [e[0] for e in chosen]
        tree = _spanning_tree(sizes, keys)
        if tree is None:
            continue
        paths = {}   # (i, a, c) -> positions of the blocks a -> b -> c
        for k, (i, a, b) in enumerate(keys):
            for l, (j, b2, c) in enumerate(keys):
                if (j, b2) == (i + 1, b):
                    paths.setdefault((i, a, c), []).append((k, l))
        for mats in product(*(e[3] if k in tree else e[2]
                              for k, e in enumerate(chosen))):
            if not any((sum(mats[l] @ mats[k] for k, l in kl) % p).any()
                       for kl in paths.values()):
                yield dict(zip(keys, mats))


def _splits_by_cohomology(x: Complex, prof: dict) -> bool:
    """Whether x, an enumeration candidate of width at least 2 with
    cohomology profile prof, needs no indecomposability test: it is
    decomposable or isomorphic to a stalk the enumeration found at width 1.

    With cohomology in one degree k, x is isomorphic to H^k[-k], and the
    knitted summands of H^k have total dimension within the bound, so their
    stalks are width-1 candidates.  With cohomology in degrees k < l only,
    the truncation triangle H^k[-k] -> x -> H^l[-l] -> H^k[-k+1] has its
    class in Hom(H^l[-l], H^k[-k+1]) = Ext^(l-k+1)(H^l, H^k) (Happel 1988,
    ch. I); when that group is zero, as it is past gl.dim A, the triangle
    splits and x is H^k[-k] (+) H^l[-l]."""
    if len(prof) != 2:
        return len(prof) == 1
    k, l = sorted(prof)
    return l - k + 1 > global_dimension(x.algebra) or not ext_dim(
        cohomology(x, l), cohomology(x, k), l - k + 1)


def enumerate_indecomposable_complexes(alg, width_bound: int, dim_bound: int,
                                       cap: int = rep.END_ENUM_CAP):
    """All indecomposables of the bounded derived category, up to shift and
    isomorphism, with at most width_bound nonzero terms of total dimension
    at most dim_bound.

    A candidate's terms are direct sums of knitted indecomposables, its
    parts.  An object with such a representative has one whose blocks
    between parts are radical and join all parts: cancelling an invertible
    block leaves a homotopy-equivalent candidate with fewer parts, and a
    map between indecomposables is invertible or radical
    (Auslander-Reiten-Smalø V.7; Happel 1988); the groups of parts joined
    by nonzero blocks split a candidate into subcomplexes, so an
    indecomposable one is isomorphic to its one group that is not acyclic,
    a candidate with fewer parts.  _candidate_blocks draws one candidate
    per rescaling orbit, and cap bounds p^(radical coordinates) of each
    choice of terms.  A wider candidate whose cohomology decides it
    (_splits_by_cohomology) is never the first of its class, so it is not
    tested.  Complete for derived-discrete desk-scale inputs;
    deterministic order.
    """
    from .tilting import _sums_with_dim_bound
    indec_mods = rep.enumerate_indecomposable_modules(alg, dim_bound, cap)
    found = []   # (minimal replacement, candidate, cohomology profile)
    radical = cache(lambda m, n: _radical_maps(m, n, cap))

    def record(nx: Complex, prof: dict):
        # the minimal complex of projectives is K-projective, so it maps to
        # every other found object without a further replacement
        mnx = minimal_replacement(nx)
        if not any(prof == oprof and _minimal_iso(mnx, other) is not None
                   for other, _, oprof in found):
            found.append((mnx, nx, prof))

    choices = [parts for parts in _sums_with_dim_bound(indec_mods, dim_bound)
               if parts]

    @cache
    def linked(k: int, l: int) -> bool:
        # a pattern joins adjacent terms only through a nonzero radical
        return any(radical(m, n)[0] for m, n in product(choices[k],
                                                        choices[l]))

    for width in range(1, width_bound + 1):
        for pick in _picks_within([sum(m.total_dim for m in parts)
                                   for parts in choices], width, dim_bound,
                                  linked):
            combo = [choices[k] for k in pick]
            edges = []
            for i in range(width - 1):
                for (a, m), (b, n) in product(enumerate(combo[i]),
                                              enumerate(combo[i + 1])):
                    if radical(m, n)[0]:
                        edges.append(((i, a, b), *radical(m, n)))
            sizes = [len(parts) for parts in combo]
            if _spanning_tree(sizes, [e[0] for e in edges]) is None:
                continue
            coords = sum(e[1] for e in edges)
            if alg.p ** coords > cap:
                terms = [rep.direct_sum(parts)[0].dim_vector()
                         for parts in combo]
                raise SearchExhausted(
                    "derived enumeration: differentials of the complex with "
                    f"terms {terms}: {alg.p}^{coords} exceeds cap {cap}")
            for blocks in _candidate_blocks(sizes, edges, alg.p):
                cand = assemble(alg, dict(enumerate(combo)), {
                    (i, a, b): ModuleMap.from_total(
                        combo[i][a], combo[i + 1][b], block)
                    for (i, a, b), block in blocks.items()}, check=False)[0]
                prof = cohomology_profile(cand)
                if not prof or width > 1 and _splits_by_cohomology(cand, prof):
                    continue
                # top cohomology in degree zero before the replacement, so
                # that record reuses the minimal complex of the test
                top = max(prof)
                nx = shift(cand, top)
                if not is_indecomposable_complex(nx):
                    continue
                record(nx, {n - top: h for n, h in prof.items()})
    found.sort(key=lambda entry: (entry[0].width(), entry[0].total_dim(),
                                  entry[0].encode()))
    return [nx for _, nx, _ in found]
