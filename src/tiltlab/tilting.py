"""Classical n-tilting modules: axioms, Miyashita classes, and the three
module-level filtrations (static, torsion-theoretic chain, and the n = 2
extension-closure refinement)."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

import numpy as np

from . import gf, rep
from .errors import (InternalInconsistency, ModeUnsupported,
                     NotSequentiallyStatic, NotTilting,
                     WitnessSearchExhausted)
from .homology import (endomorphism_algebra,
                       ext_as_b_module, ext_dim, ext_dim_checked,
                       global_dimension, minimal_projective_resolution,
                       tor_dims, tor_over_b)
from .rep import Module, ModuleMap, compose

# total dimension of the extra class members in a kernel/cokernel witness
WITNESS_SLACK = 4


@dataclass
class TiltingCertificate:
    t: Module
    n: int
    resolution_terms: list        # minimal projective resolution of T
    resolution_diffs: list
    rigidity: list                # dim Ext^i(T,T), 0 < i <= n
    coresolution_terms: list      # 0 -> A -> T_0 -> ... with T_i in add T
    coresolution_maps: list       # unit A -> T_0, then T_{i-1} -> T_i


@dataclass
class Filtration:
    x: Module
    inclusions: list              # maps X_i -> X, i = 0..m, X_0 = 0, X_m = X
    factors: list                 # X_i / X_{i-1}, i = 1..m
    labels: list                  # class label per factor
    witnesses: list = field(default_factory=list)


def in_add(t: Module, m: Module) -> bool:
    """Is m a direct summand of some t^r?  Exactly when id_m factors through
    add t, that is, lies in the span of Hom(t, m) o Hom(m, t)
    (Auslander-Reiten-Smalo, ch. I-II): then m -> t^r -> m is id_m.  One
    linear solve, no decomposition."""
    if m.total_dim == 0:
        return True
    return gf.identity_factors([h.total() for h in rep.hom_space(m, t)],
                               [h.total() for h in rep.hom_space(t, m)], m.p)


def universal_map_into_add(k: Module, t: Module):
    """The evaluation map K -> (+)_j S_j^{dim Hom(K, S_j)} over the distinct
    indecomposable summands S_j of t.

    Same universality as K -> T^{dim Hom(K,T)} but without the redundant
    copies, so iterated cokernels stay small.
    """
    pieces = []   # (summand, hom element)
    for s, _mult in rep.decompose(t):
        for h in rep.hom_space(k, s):
            pieces.append((s, h))
    if not pieces:
        target = rep.zero_module(t.algebra)
        return rep.zero_map(k, target), target
    target, incs, _ = rep.direct_sum([s for s, _ in pieces])
    u = rep.zero_map(k, target)
    for inc, (_, h) in zip(incs, pieces):
        u = u + compose(inc, h)
    return u, target


def check_classical_tilting(t: Module, n: int) -> TiltingCertificate:
    """Verify the three n-tilting axioms, or raise NotTilting."""
    if n < 0:
        raise ValueError("tilting degree must be nonnegative")
    if t.total_dim == 0:
        raise NotTilting("p_n", "zero module")
    terms, diffs, _ = minimal_projective_resolution(t)
    if len(terms) - 1 > n:
        raise NotTilting("p_n", f"projective dimension {len(terms) - 1} > {n}")
    rigidity = [ext_dim_checked(t, t, i) for i in range(1, n + 1)]
    for i, d in enumerate(rigidity, start=1):
        if d:
            raise NotTilting("e_n", f"Ext^{i}(T,T) has dimension {d}")
    cores_terms, cores_maps = [], []
    k = rep.regular_module(t.algebra)
    resolved = False
    for _step in range(n + 1):
        if in_add(t, k):
            cores_terms.append(k)
            resolved = True
            break
        u, target = universal_map_into_add(k, t)
        if not u.is_mono():
            raise NotTilting(
                "g_n", f"universal map into add T has a kernel at step {_step}")
        cores_terms.append(target)
        cores_maps.append(u)
        k, _ = rep.cokernel(u)
    if not resolved and k.total_dim > 0:
        raise NotTilting("g_n",
                         f"coresolution does not terminate within {n + 1} terms")
    return TiltingCertificate(t, n, terms, diffs, rigidity,
                              cores_terms, cores_maps)


def ext_profile(t: Module, x: Module, n: int) -> list[int]:
    return [ext_dim(t, x, i) for i in range(n + 1)]


def miyashita_class(t: Module, x: Module, n: int):
    """The unique degree e with Ext^i(T,X) = 0 for i != e, else None."""
    if x.total_dim == 0:
        return 0
    nz = [i for i, d in enumerate(ext_profile(t, x, n)) if d]
    if len(nz) == 1:
        return nz[0]
    if len(nz) == 0:
        return 0
    return None


def torsion_radical(generators: list[Module], x: Module):
    """Largest submodule of x filtered by quotients of the generators.

    Iterates trace-then-pullback until the trace in the quotient dies.
    Returns (submodule, inclusion).
    """
    p = x.p
    cur = {v: gf.zeros(x.dims[v], 0) for v in x.vertex_order}
    while True:
        sub, incl = rep.submodule_from_subspaces(x, cur)
        if not generators:
            return sub, incl
        quot, proj = rep.cokernel(incl)
        tr = rep.trace_submodule(generators, quot)
        if all(tr[v].shape[1] == 0 for v in tr):
            return sub, incl
        nxt = {}
        for v in x.vertex_order:
            qp, _ = gf.quotient_map(tr[v], quot.dims[v], p)
            comp = gf.mul(qp, proj.blocks[v], p)
            nxt[v] = gf.nullspace(comp, p)
        cur = nxt


class TiltingContext:
    """A certified tilting module with its endomorphism side and the
    enumerated indecomposable universe used by the filtration searches."""

    def __init__(self, t: Module, n: int, dim_bound: int = 4,
                 cap: int = rep.END_ENUM_CAP):
        self.t = t
        self.n = n
        self.cap = cap
        self.dim_bound = dim_bound
        self.certificate = check_classical_tilting(t, n)

    @cached_property
    def data(self):
        """End(T) and its action, built when a command first reads it: only
        the B-side commands and static filtrations need T basic."""
        return endomorphism_algebra(self.t)

    @property
    def indecomposables(self) -> list[Module]:
        return rep.enumerate_indecomposable_modules(
            self.t.algebra, self.dim_bound, self.cap)

    @property
    def representation_finite(self) -> bool:
        return rep.is_representation_finite(
            self.t.algebra, self.dim_bound, self.cap)[0]

    def ext_row(self, x: Module) -> tuple:
        return tuple(ext_profile(self.t, x, self.n))

    def ke_members(self, e: int) -> list[Module]:
        out = []
        for m in self.indecomposables:
            row = self.ext_row(m)
            if row[e] and not any(row[i] for i in range(self.n + 1) if i != e):
                out.append(m)
        return out

    def torsion_class_generators(self, i: int) -> list[Module]:
        """Indecomposables of the i-th torsion class (Ext^j = 0 for j >= i)."""
        return [m for m in self.indecomposables
                if not any(self.ext_row(m)[i:])]


def is_sequentially_static(ctx: TiltingContext, m: Module):
    """Returns (True, None) or (False, (i, j, Tor_i(T, Ext^j(T,m)))) for
    the least such j and then i; only the witness is built as a module."""
    for j in range(ctx.n + 1):
        ext_j = ext_as_b_module(ctx.data, m, j)
        if ext_j.total_dim == 0:
            continue
        for i, dims in enumerate(tor_dims(ctx.data, ext_j)):
            if i != j and any(dims):
                return False, (i, j, tor_over_b(ctx.data, ext_j, i))
    return True, None


def _chain_factor(small: ModuleMap, big: ModuleMap):
    """Quotient big/small for nested submodule inclusions into the same x."""
    p = small.p
    blocks = {}
    for v in small.source.vertex_order:
        x = gf.solve(big.blocks[v], small.blocks[v], p)
        if x is None:
            raise InternalInconsistency("filtration chain is not nested")
        blocks[v] = x
    inner = ModuleMap(small.source, big.source, blocks, check=False)
    quot, _ = rep.cokernel(inner)
    return quot


def lo_filtration(ctx: TiltingContext, x: Module) -> Filtration:
    """Chain 0 = X_0 <= ... <= X_{n+1} = x of iterated torsion radicals."""
    if not ctx.representation_finite:
        raise ModeUnsupported(
            "filtration chains need the full indecomposable list; "
            "enumeration did not stabilize below the dimension bound")
    inclusions = []
    for i in range(ctx.n + 2):
        gens = ctx.torsion_class_generators(i)
        _, incl = torsion_radical(gens, x)
        inclusions.append(incl)
    for prev, cur in zip(inclusions, inclusions[1:]):
        for v in x.vertex_order:
            if not gf.in_span(cur.blocks[v], prev.blocks[v], x.p):
                raise InternalInconsistency("torsion radicals are not nested")
    if inclusions[-1].source.total_dim != x.total_dim:
        raise InternalInconsistency("full generator trace misses the module")
    factors = [_chain_factor(inclusions[i], inclusions[i + 1])
               for i in range(ctx.n + 1)]
    labels = [f"T_{i + 1}&F_{i}" for i in range(ctx.n + 1)]
    # the factor must receive nothing from the previous torsion class
    for i, f in enumerate(factors):
        for g in ctx.torsion_class_generators(i):
            if rep.hom_dim(g, f):
                raise InternalInconsistency(
                    f"stage-{i + 1} factor is not torsion free at stage {i}")
    return Filtration(x, inclusions, factors, labels)


def static_filtration(ctx: TiltingContext, m: Module) -> Filtration:
    """Filtration with factors Tor_i(T, Ext^i(T, m)), when m admits one."""
    ok, witness = is_sequentially_static(ctx, m)
    if not ok:
        i, j, tor = witness
        raise NotSequentiallyStatic(
            f"Tor_{i}(T, Ext^{j}(T, M)) has dimension vector "
            f"{tor.dim_vector()}")
    chain = lo_filtration(ctx, m)
    for i, f in enumerate(chain.factors):
        expected = tor_over_b(ctx.data, ext_as_b_module(ctx.data, m, i), i)
        if f.total_dim != expected.total_dim or (
                f.total_dim and rep.is_isomorphic(f, expected) is None):
            raise InternalInconsistency(
                f"static factor {i} does not match Tor_{i}(T, Ext^{i}(T,M))")
    return Filtration(m, chain.inclusions, chain.factors,
                      [f"KE_{i}" for i in range(ctx.n + 1)])


# -- submodule and direct-sum enumeration --------------------------------------

def _all_subspaces(d: int, p: int) -> list[np.ndarray]:
    """Every subspace of F_p^d as canonical column matrices."""
    zero = gf.zeros(d, 0)
    seen = {zero.tobytes(): zero}
    frontier = [zero]
    vectors = [v for v in gf.all_vectors(d, p) if v.any()]
    while frontier:
        nxt = []
        for s in frontier:
            for v in vectors:
                if gf.in_span(s, v, p):
                    continue
                grown = gf.column_space(
                    np.concatenate([s, v.reshape(-1, 1)], axis=1), p)
                key = grown.tobytes()
                if key not in seen:
                    seen[key] = grown
                    nxt.append(grown)
        frontier = nxt
    return list(seen.values())


def enumerate_submodules(m: Module):
    """All submodules as (module, inclusion) pairs."""
    per_vertex = {v: _all_subspaces(m.dims[v], m.p) for v in m.vertex_order}
    out = []
    verts = m.vertex_order
    for choice in product(*(per_vertex[v] for v in verts)):
        spaces = dict(zip(verts, choice))
        stable = True
        for a in m.algebra.quiver.arrows:
            moved = gf.mul(m.action[a.name], spaces[a.source], m.p)
            for k in range(moved.shape[1]):
                if not gf.in_span(spaces[a.target], moved[:, k], m.p):
                    stable = False
                    break
            if not stable:
                break
        if stable:
            out.append(rep.submodule_from_subspaces(m, spaces))
    return out


def _sums_with_dim_bound(indecs: list[Module], bound: int):
    """Direct sums (with repetition) of the given modules, total dim <= bound.

    Yields lists of summands, starting with the empty sum.
    """
    def go(start, remaining):
        yield []
        for k in range(start, len(indecs)):
            d = indecs[k].total_dim
            if d > remaining:
                continue
            for rest in go(k, remaining - d):
                yield [indecs[k]] + rest
    yield from go(0, bound)


def _sums_with_dim_vector(indecs: list[Module], dv: tuple):
    """Direct sums with an exact dimension vector."""
    def go(start, need):
        if not any(need):
            yield []
            return
        for k in range(start, len(indecs)):
            mv = indecs[k].dim_vector()
            if any(mv[i] > need[i] for i in range(len(need))):
                continue
            rest_need = tuple(need[i] - mv[i] for i in range(len(need)))
            for rest in go(k, rest_need):
                yield [indecs[k]] + rest
    yield from go(0, dv)


def _sum_or_zero(alg, parts):
    if not parts:
        return rep.zero_module(alg)
    return rep.direct_sum(parts)[0]


# -- n = 2 extension-closure filtration ----------------------------------------

def _base_class_witness(ctx: TiltingContext, f: Module, kind: int,
                        capped: list):
    """A kernel/cokernel presentation of f over the two outer classes.

    kind 0: f = coker(U >-> V); kind 2: f = ker(U ->> V); with U a sum of
    degree-2 class members and V a sum of degree-0 class members.  The
    extra summand, U for kind 0 and V for kind 2, is a sum of total
    dimension at most WITNESS_SLACK.  A pair whose p^dim Hom(U, V) maps
    exceed ctx.cap is skipped, and dim Hom(U, V) appended to capped.
    """
    alg = f.algebra
    small, big = ctx.ke_members(2 - kind), ctx.ke_members(kind)
    faithful, side = ((ModuleMap.is_mono, rep.cokernel) if kind == 0
                      else (ModuleMap.is_epi, rep.kernel))
    for extra_parts in _sums_with_dim_bound(small, WITNESS_SLACK):
        extra = _sum_or_zero(alg, extra_parts)
        dv = tuple(a + b for a, b in zip(extra.dim_vector(), f.dim_vector()))
        for other_parts in _sums_with_dim_vector(big, dv):
            other = _sum_or_zero(alg, other_parts)
            u_mod, v_mod = (extra, other) if kind == 0 else (other, extra)
            if extra.total_dim == 0:
                if rep.is_isomorphic(other, f) is not None:
                    return (u_mod, v_mod, None)
                continue
            homs = rep.hom_space(u_mod, v_mod)
            try:
                g = next((g for g in rep.all_maps(homs, f.p, skip_zero=True,
                                                  cap=ctx.cap)
                          if faithful(g) and rep.is_isomorphic(
                              side(g)[0], f) is not None), None)
            except rep.SearchExhausted:
                capped.append(len(homs))
                continue
            if g is not None:
                return (u_mod, v_mod, g)
    return None


def _in_extension_closure(f: Module, base_test, memo: dict) -> bool:
    if f.total_dim == 0:
        return True
    key = f.encode()
    if key in memo:
        return memo[key]
    memo[key] = False  # guard against re-entry
    if base_test(f):
        memo[key] = True
        return True
    for sub, incl in enumerate_submodules(f):
        if sub.total_dim == 0 or sub.total_dim == f.total_dim:
            continue
        quot, _ = rep.cokernel(incl)
        if (_in_extension_closure(sub, base_test, memo)
                and _in_extension_closure(quot, base_test, memo)):
            memo[key] = True
            return True
    return memo[key]


def jms_filtration(ctx: TiltingContext, x: Module) -> Filtration:
    """For n = 2: the unique chain with factors in the extension closures
    of the kernel/cokernel enlargements of the Miyashita classes."""
    if ctx.n != 2:
        raise ModeUnsupported("this filtration is defined for n = 2 only")
    chain = lo_filtration(ctx, x)
    witnesses = []
    for i, f in enumerate(chain.factors):
        if i == 1:
            e = miyashita_class(ctx.t, f, ctx.n)
            if f.total_dim and e != 1:
                raise WitnessSearchExhausted(
                    "middle factor is not in the degree-1 class")
            witnesses.append(("class", 1))
            continue
        found, capped = {}, []

        def base_test(m, _kind=i, _found=found, _capped=capped):
            w = _base_class_witness(ctx, m, _kind, _capped)
            if w is not None:
                _found[m.encode()] = w
                return True
            return False

        memo = {}
        if not _in_extension_closure(f, base_test, memo):
            bound = (f"search cap {ctx.cap} reached: skipped pairs (U, V): "
                     f"{len(capped)}, the largest with {x.p}^{max(capped)} "
                     "maps" if capped else f"slack {WITNESS_SLACK}")
            raise WitnessSearchExhausted(
                f"no bounded witness for factor {i} ({bound})")
        witnesses.append(("extension-closure", found.get(f.encode())))
    return Filtration(x, chain.inclusions, chain.factors,
                      ["E_0", "E_1", "E_2"], witnesses)


def ke_membership_via_aisle(ctx: TiltingContext, x: Module, e: int) -> bool:
    """Two routes to 'X needs no Ext degrees above e': vanishing of the
    module-level Ext groups, and vanishing of shifted maps out of T in the
    derived category.  Raises InternalInconsistency if they disagree."""
    via_ext = not any(ext_dim(ctx.t, x, i) for i in range(e + 1, ctx.n + 1))
    from . import derived
    gl = global_dimension(ctx.t.algebra)
    t_cplx = derived.stalk_complex(ctx.t, 0)
    x_cplx = derived.stalk_complex(x, 0)
    via_aisle = not any(derived.derived_hom_dim(t_cplx,
                                                derived.shift(x_cplx, i))
                        for i in range(e + 1, max(ctx.n, gl) + 1))
    if via_ext != via_aisle:
        raise InternalInconsistency(
            f"Ext-vanishing ({via_ext}) and aisle membership ({via_aisle}) "
            f"disagree for e={e}")
    return via_ext
