"""t-structures generated by a tilting module: membership tests, hearts,
heart torsion pairs, torsion decompositions, and the depth-n t-tree."""

from __future__ import annotations

import numpy as np

from . import derived, gf, rep
from .derived import (Complex, cached_replacement, cohomology,
                      cohomology_profile, compose_chain, derived_hom_dim,
                      hom_homotopy, is_derived_isomorphic, is_zero_in_derived,
                      shift, stalk_complex)
from .errors import InternalInconsistency, ModeUnsupported, SearchExhausted
from .homology import coords_in_basis
from .tilting import TiltingContext, miyashita_class


def describe(x: Complex) -> str:
    """Cohomology profile of x, such as "H^-1=(0, 0, 1), H^0=(1, 0, 0)"."""
    if x.is_zero_complex() or is_zero_in_derived(x):
        return "0"
    return ", ".join(f"H^{n}={h}" for n, h
                     in sorted(cohomology_profile(x).items()))


def _solve_rational(a: list, b: list):
    """The solution of the square system a m = b over Q, or None when a is
    singular."""
    # imported here: fractions pulls in decimal, which costs every CLI
    # command that never splits a t-tree node about 0.3 MB
    from fractions import Fraction
    n = len(a)
    rows = [[Fraction(v) for v in row] + [Fraction(r)]
            for row, r in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        for r in range(n):
            if r != col and rows[r][col]:
                q = rows[r][col] / rows[col][col]
                rows[r] = [v - q * w for v, w in zip(rows[r], rows[col])]
    return [rows[r][n] / rows[r][r] for r in range(n)]


class GeneratedTStructure:
    """A t-structure given by a finite generator list of complexes.

    kind selects the aisle test: "tilting" (direct Hom-vanishing against the
    tilting generator), "natural" (cohomology support), or "generic"
    (Keller-Vossieck duality against an enumerated coaisle universe).
    """

    def __init__(self, algebra, generators: list[Complex], kind: str,
                 universe=None, name: str = ""):
        self.algebra = algebra
        self.generators = generators
        self.kind = kind
        self.universe = universe
        self.name = name
        self._coaisle_memo = {}
        self._aisle_memo = {}

    def in_coaisle(self, y: Complex, k: int = 0) -> bool:
        """Y in S^{>= k}: Hom(E, Y[k + j]) = 0 for every j < 0."""
        if y.is_zero_complex():
            return True
        key = (y.encode(), k)
        hit = self._coaisle_memo.get(key)
        if hit is not None:
            return hit
        ok = True
        for g in self.generators:
            pe = cached_replacement(g)
            if pe.is_zero_complex():
                continue
            lo = min(y.support) - k - max(pe.support)
            hi = max(y.support) - k - min(pe.support)
            for j in range(lo, min(hi, -1) + 1):
                if j >= 0:
                    break
                if derived_hom_dim(g, shift(y, k + j)):
                    ok = False
                    break
            if not ok:
                break
        self._coaisle_memo[key] = ok
        return ok

    def in_aisle(self, x: Complex, k: int = 0) -> bool:
        """X in S^{<= k}."""
        if x.is_zero_complex():
            return True
        key = (x.encode(), k)
        hit = self._aisle_memo.get(key)
        if hit is not None:
            return hit
        if self.kind == "natural":
            ok = all(n <= k for n in cohomology_profile(x))
        elif self.kind == "tilting":
            t = self.generators[0]
            pt = cached_replacement(t)
            lo = min(x.support) - max(pt.support)
            hi = max(x.support) - min(pt.support)
            ok = not any(derived_hom_dim(t, shift(x, i))
                         for i in range(max(k + 1, lo), hi + 1))
        else:
            ok = self._aisle_via_duality(x, k)
        self._aisle_memo[key] = ok
        return ok

    def _aisle_via_duality(self, x: Complex, k: int) -> bool:
        """X in S^{<= k} iff Hom(X, Y) = 0 for every Y in S^{>= k+1}."""
        if self.universe is None:
            raise ModeUnsupported(
                "aisle test for a generic t-structure needs an enumerated "
                "indecomposable universe")
        px = cached_replacement(x)
        if px.is_zero_complex():
            return True
        lo_need = min(px.support)
        hi_need = max(px.support)
        for u in self.universe:
            # shifts of u whose support can meet supp(px)
            lo = min(u.support) - hi_need
            hi = max(u.support) - lo_need
            for s in range(lo, hi + 1):
                y = shift(u, s)
                if not self.in_coaisle(y, k + 1):
                    continue
                if derived_hom_dim(x, y):
                    return False
        return True

    def heart_keys(self, window: int):
        """Members of the heart among shifted universe objects: (index, s)
        pairs meaning universe[index][s]."""
        if self.universe is None:
            raise ModeUnsupported("heart needs an enumerated universe")
        out = []
        for ui, u in enumerate(self.universe):
            for s in range(-window, window + 1):
                y = shift(u, s)
                if self.in_coaisle(y, 0) and self.in_aisle(y, 0):
                    out.append((ui, s))
        return sorted(out)


class TTree:
    """The depth-n binary t-tree of a module: node (b_1..b_i) splits into
    torsion child (append 0) and torsion-free child (append 1)."""

    def __init__(self, root: Complex, depth: int):
        self.root = root
        self.depth = depth
        self.nodes = {(): root}
        self.triangles = {}

    def node(self, pos: tuple) -> Complex:
        return self.nodes[pos]

    def leaves(self):
        return {pos: self.nodes[pos]
                for pos in self.nodes if len(pos) == self.depth}

    def render(self) -> str:
        lines = []
        for pos in sorted(self.nodes, key=lambda q: (len(q), q)):
            label = "X_" + ("".join(map(str, pos)) if pos else "()")
            lines.append("  " * len(pos)
                         + f"{label}: {describe(self.nodes[pos])}")
        return "\n".join(lines)


class DerivedWorkbench:
    """Derived-category side of a certified tilting module: the natural,
    intermediate and tilting t-structures, their hearts and torsion pairs,
    and t-trees.  Requires representation-finite desk scale."""

    def __init__(self, ctx: TiltingContext, width_bound: int = 2,
                 dim_bound: int = None, cap: int = rep.END_ENUM_CAP):
        if not ctx.representation_finite:
            raise ModeUnsupported(
                "t-structure workbench needs a representation-finite "
                "algebra within the dimension bound")
        self.ctx = ctx
        self.algebra = ctx.t.algebra
        self.n = ctx.n
        self.cap = cap
        if dim_bound is None:
            dim_bound = ctx.dim_bound
        self.universe = derived.enumerate_indecomposable_complexes(
            self.algebra, width_bound, dim_bound, cap)
        self.window = self.n + 2
        t_stalk = stalk_complex(ctx.t, 0)
        a_stalk = stalk_complex(rep.regular_module(self.algebra), 0)
        self.tilting_structure = GeneratedTStructure(
            self.algebra, [t_stalk], "tilting", self.universe,
            name="tilting")
        self._intermediate = {}
        for i in range(self.n + 1):
            if i == 0:
                kind = "natural"
            elif i == self.n:
                kind = "tilting"
            else:
                kind = "generic"
            self._intermediate[i] = GeneratedTStructure(
                self.algebra, [t_stalk, shift(a_stalk, i)],
                kind, self.universe, name=f"level {i}")
        self._hearts = {}
        self._pairs = {}

    def structure(self, i: int) -> GeneratedTStructure:
        return self._intermediate[i]

    def heart(self, i: int):
        keys = self.heart_members(i)
        return [self.member(k) for k in keys]

    def member(self, key) -> Complex:
        ui, s = key
        return shift(self.universe[ui], s)

    def heart_members(self, i: int):
        if i not in self._hearts:
            self._hearts[i] = self.structure(i).heart_keys(self.window)
        return self._hearts[i]

    def tilting_heart_members(self):
        return self.heart_members(self.n)

    def heart_torsion_pair(self, i: int):
        """Keys of (X_i, Y_i): X_i = H_i meet H_{i+1},
        Y_i = H_i meet H_{i+1}[-1]."""
        if i in self._pairs:
            return self._pairs[i]
        low = set(self.heart_members(i))
        high = set(self.heart_members(i + 1))
        x_keys = sorted(k for k in low if k in high)
        y_keys = sorted((ui, s) for (ui, s) in low if (ui, s + 1) in high)
        self._pairs[i] = (x_keys, y_keys)
        return self._pairs[i]

    def in_additive_closure(self, x: Complex, keys, extra_shift: int) -> bool:
        """Does x decompose into summands from {member(k)[extra_shift]}?"""
        return is_zero_in_derived(x) or all(any(
            is_derived_isomorphic(piece, shift(self.member(k), extra_shift))
            for k in keys) for piece in derived.decompose_complex(x))

    def torsion_decompose_in_heart(self, x: Complex, i: int, s: int):
        """Triangle U -> X -> C with U in add(X_i[-s]) and C in
        add(Y_i[-s]); X must lie in H_i[-s].

        Hom(X_k, U) = Hom(X_k, X) for every torsion member X_k, as
        Hom(X_k, C) and negative Ext in a heart vanish.  So the multiplicities
        of U solve [dim Hom(X_k, X_j)] m = h over Q, h_k = dim Hom(X_k, X);
        f is the first map U -> X with every Hom(X_k, f) injective, by rank
        (equal dimensions make it bijective); and one additive-closure check
        that cone(f) lies in add(Y_i[-s]) certifies the triangle."""
        x_keys, y_keys = self.heart_torsion_pair(i)
        u = derived.zero_complex(self.algebra)
        if is_zero_in_derived(x):
            return u, None, u
        members = [shift(self.member(k), -s) for k in x_keys]
        h = [derived_hom_dim(m, x) for m in members]
        f, c = None, x
        if any(h):
            homs = [[derived_hom_dim(self.member(k), self.member(j))
                     for j in x_keys] for k in x_keys]
            mults = _solve_rational(homs, h)
            if mults is None:
                raise SearchExhausted(
                    f"torsion members {[describe(m) for m in members]} of "
                    f"H_{i}[{-s}] have a singular Hom matrix {homs}")
            if any(n.denominator != 1 or n < 0 for n in mults):
                raise InternalInconsistency(
                    f"torsion multiplicities {[str(n) for n in mults]} are "
                    f"not natural numbers: {describe(x)} is not in "
                    f"H_{i}[{-s}]")
            u, _ = derived.direct_sum_complexes(
                [m for m, n in zip(members, mults) for _ in range(int(n))])
            f = self._torsion_inclusion(members, cached_replacement(u), x)
            c = derived.cone(f)
        if not self.in_additive_closure(c, y_keys, -s):
            raise SearchExhausted(
                f"{describe(c)} is not certified in add(Y_{i}[{-s}])")
        return u, f, c

    def _torsion_inclusion(self, members, pu: Complex, x: Complex):
        """The first f: pu -> x in rep.all_maps order that keeps a basis of
        every Hom(X_k, pu) independent modulo homotopy."""
        p = self.algebra.p
        checks = []
        for pm in map(cached_replacement, members):
            gs = hom_homotopy(pm, pu)
            if gs:
                basis = derived.chain_maps(pm, x)
                checks.append((gs, basis, derived.homotopy_span(pm, x, basis)))
        for f in rep.all_maps(hom_homotopy(pu, x), p, skip_zero=True,
                              cap=self.cap):
            if all(gf.rank(np.concatenate([null, coords_in_basis(
                    basis, [compose_chain(f, g) for g in gs])], axis=1), p)
                   == null.shape[1] + len(gs) for gs, basis, null in checks):
                return f
        raise SearchExhausted(f"no map onto the torsion part of {describe(x)} "
                              f"within the search cap {self.cap}")

    def t_tree(self, x: rep.Module) -> TTree:
        tree = TTree(stalk_complex(x, 0), self.n)
        frontier = [()]
        for level in range(self.n):
            nxt = []
            for pos in frontier:
                node = tree.nodes[pos]
                s = sum(pos)
                u, f, c = self.torsion_decompose_in_heart(node, level, s)
                tree.nodes[pos + (0,)] = u
                tree.nodes[pos + (1,)] = c
                tree.triangles[pos] = (u, f, c)
                nxt.extend([pos + (0,), pos + (1,)])
            frontier = nxt
        self._verify_leaves(tree)
        return tree

    def _verify_leaves(self, tree: TTree):
        tilt = self.tilting_structure
        for pos, leaf in tree.leaves().items():
            if is_zero_in_derived(leaf):
                continue
            s = sum(pos)
            if not (tilt.in_aisle(leaf, s) and tilt.in_coaisle(leaf, s)):
                raise SearchExhausted(
                    f"t-tree leaf at {pos} escapes the tilting heart")
            prof = cohomology_profile(leaf)
            if list(prof) == [0]:
                cls = miyashita_class(self.ctx.t, cohomology(leaf, 0), self.n)
                if cls != s:
                    raise SearchExhausted(
                        f"module leaf at {pos} has tilting class {cls}, "
                        f"expected {s}")

    # -- structural sweeps -------------------------------------------------

    def shifted_universe(self):
        out = []
        for ui, u in enumerate(self.universe):
            for s in range(-self.window, self.window + 1):
                out.append(shift(u, s))
        return out

    def verify_structural_claims(self) -> dict:
        """Exhaustive checks over the shifted universe; values are
        (passed, detail) pairs."""
        report = {}
        objs = self.shifted_universe()
        natural = self.structure(0)
        tilt = self.tilting_structure

        bad = [o for o in objs
               if natural.in_coaisle(o, 0) and not tilt.in_coaisle(o, 0)]
        bad += [o for o in objs
                if tilt.in_coaisle(o, 0) and not natural.in_coaisle(o, -self.n)]
        report["coaisle_sandwich"] = (not bad, f"{len(bad)} violations")

        bad = [o for o in objs
               if natural.in_aisle(o, -self.n) and not tilt.in_aisle(o, 0)]
        bad += [o for o in objs
                if tilt.in_aisle(o, 0) and not natural.in_aisle(o, 0)]
        report["aisle_sandwich"] = (not bad, f"{len(bad)} violations")

        bad = []
        for i in range(self.n + 1):
            s_i = self.structure(i)
            for o in objs:
                two_sided = (natural.in_coaisle(o, -i)
                             and tilt.in_coaisle(o, 0))
                if s_i.in_coaisle(o, 0) != two_sided:
                    bad.append((i, o))
        report["generated_coaisle_agreement"] = (not bad,
                                                 f"{len(bad)} violations")

        bad = []
        for i in range(self.n):
            lo, hi = self.structure(i), self.structure(i + 1)
            for o in objs:
                if lo.in_coaisle(o, 0) and not hi.in_coaisle(o, 0):
                    bad.append((i, o, "chain"))
                if hi.in_coaisle(o, 0) and not lo.in_coaisle(o, -1):
                    bad.append((i, o, "step"))
        report["coaisle_chain"] = (not bad, f"{len(bad)} violations")

        bad = []
        for o in objs:
            if not tilt.in_aisle(o, 0):
                continue
            h0 = cohomology(o, 0)
            if h0.total_dim == 0:
                continue
            ok = all(not any(self.ctx.ext_row(p)[j]
                             for j in range(1, self.n + 1))
                     for p, _ in rep.decompose(h0))
            if not ok:
                bad.append(o)
        report["h0_of_aisle_in_ke0"] = (not bad, f"{len(bad)} violations")

        bad = []
        for o in objs:
            if not tilt.in_aisle(o, 0):
                continue
            for y in objs:
                if tilt.in_coaisle(y, 1) and derived_hom_dim(o, y):
                    bad.append((o, y))
        report["t2_orthogonality"] = (not bad, f"{len(bad)} violations")
        return report
