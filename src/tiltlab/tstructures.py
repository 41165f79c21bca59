"""t-structures generated by a tilting module: membership tests, hearts,
heart torsion pairs, torsion decompositions, and the depth-n t-tree."""

from __future__ import annotations

from functools import cached_property

from . import derived, gf, rep
from .derived import (ChainMap, Complex, cohomology, cohomology_profile,
                      compose_chain, derived_hom_dim, is_zero_in_derived,
                      shift, stalk_complex)
from .errors import ModeUnsupported, SearchExhausted
from .tilting import TiltingContext, miyashita_class


def describe(x: Complex) -> str:
    """Cohomology profile of x, such as "H^-1=(0, 0, 1), H^0=(1, 0, 0)"."""
    if x.is_zero_complex() or is_zero_in_derived(x):
        return "0"
    return ", ".join(f"H^{n}={h}" for n, h
                     in sorted(cohomology_profile(x).items()))


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

    @cached_property
    def _supports(self) -> list:
        """The degrees of the minimal replacement of each generator, read
        once per structure."""
        return [derived.minimal_replacement(g).support
                for g in self.generators]

    def in_coaisle(self, y: Complex, k: int = 0) -> bool:
        """Y in S^{>= k}: Hom(E, Y[k + j]) = 0 for every j < 0."""
        if y.is_zero_complex():
            return True
        # y[s] lies in S^{>= k - s} exactly when y lies in S^{>= k}
        key = (y.shift_key(), y.top() - k)
        hit = self._coaisle_memo.get(key)
        if hit is not None:
            return hit
        lo, hi = y.support[0] - k, y.support[-1] - k
        ok = not any(derived_hom_dim(g, shift(y, k + j))
                     for g, sup in zip(self.generators, self._supports) if sup
                     for j in range(lo - sup[-1], min(hi - sup[0], -1) + 1))
        self._coaisle_memo[key] = ok
        return ok

    def in_aisle(self, x: Complex, k: int = 0) -> bool:
        """X in S^{<= k}."""
        if x.is_zero_complex():
            return True
        key = (x.shift_key(), x.top() - k)
        hit = self._aisle_memo.get(key)
        if hit is not None:
            return hit
        if self.kind == "natural":
            ok = all(n <= k for n in cohomology_profile(x))
        elif self.kind == "tilting":
            t, sup = self.generators[0], self._supports[0]
            lo, hi = x.support[0] - sup[-1], x.support[-1] - sup[0]
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
        px = derived.minimal_replacement(x)
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

    def __init__(self, ctx: TiltingContext, width_bound: int = 2):
        if not ctx.representation_finite:
            raise ModeUnsupported(
                "t-structure workbench needs a representation-finite "
                "algebra within the dimension bound")
        self.ctx = ctx
        self.algebra = ctx.t.algebra
        self.n = ctx.n
        self.cap = ctx.cap
        self.universe = derived.enumerate_indecomposable_complexes(
            self.algebra, width_bound, ctx.dim_bound, ctx.cap)
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
        self._levels = {}

    def structure(self, i: int) -> GeneratedTStructure:
        return self._intermediate[i]

    def heart(self, i: int):
        keys = self.heart_members(i)
        return [self.member(k) for k in keys]

    def member(self, key) -> Complex:
        """universe[ui][s], as a shift of its memoized minimal replacement."""
        ui, s = key
        return shift(derived.minimal_replacement(self.universe[ui]), s)

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
        """Is x a summand of a sum of copies of the member(k)[extra_shift]?

        With mx the minimal replacement of x and my the sum of the minimal
        complexes member(k)[extra_shift], exactly when id_mx lies in the span
        of g o f over strict chain maps f: mx -> my and g: my -> mx: one
        solve (gf.identity_factors) with no homotopy term.  For if
        id ~ g o f, then id - g o f is nullhomotopic, so it lies in
        rad End(mx), because mx is minimal; so g o f is invertible, and
        id = ((g o f)^-1 g) o f."""
        if is_zero_in_derived(x):
            return True
        if not keys:
            return False
        mx = derived.minimal_replacement(x)
        my = derived.direct_sum_complexes(
            [shift(self.member(k), extra_shift) for k in keys])[0]
        return gf.identity_factors(
            [f.total() for f in derived.chain_maps(mx, my)],
            [g.total() for g in derived.chain_maps(my, mx)], self.algebra.p)

    def torsion_decompose_in_heart(self, x: Complex, i: int, s: int):
        """Triangle U -> X -> C with U in add(X_i[-s]) and C in
        add(Y_i[-s]); X must lie in H_i[-s].

        The torsion inclusion t(X) -> X is mono in the heart, so it is the
        right minimal add(X_i[-s])-approximation of X, unique up to
        isomorphism (Auslander-Smalo, J. Algebra 66, 1980).  It is built by
        linear algebra: for each torsion member X_k, Top_k is Hom(X_k, X)
        modulo homotopy and modulo the maps h o r, for h in Hom(X_j, X) and
        r radical (all of Hom(X_k, X_j) for j != k, rad End(X_k) for
        j = k).  U = (+)_k X_k^{dim Top_k}, f sums lifts of a basis of every
        Top_k, and one additive-closure check that cone(f) lies in
        add(Y_i[-s]) certifies the triangle."""
        x_keys, y_keys = self.heart_torsion_pair(i)
        u = derived.zero_complex(self.algebra)
        if is_zero_in_derived(x):
            return u, None, u
        if (i, s) not in self._levels:
            # the members X_k[-s] and the radical maps that _top finds
            self._levels[i, s] = ([shift(self.member(k), -s)
                                   for k in x_keys], {})
        members, radical = self._levels[i, s]
        to_x = [derived.chain_maps(m, x) for m in members]
        lifts = [(m, g) for k, m in enumerate(members) if to_x[k]
                 for g in self._top(members, radical, to_x, k)]
        f, c = None, x
        if lifts:
            u, incs = derived.direct_sum_complexes([m for m, _ in lifts])
            f = ChainMap.from_total(u, x, sum(
                g.total() @ inc.total().T
                for (_, g), inc in zip(lifts, incs)) % self.algebra.p)
            c = derived.cone(f)
        if not self.in_additive_closure(c, y_keys, -s):
            raise SearchExhausted(
                f"{describe(c)} is not certified in add(Y_{i}[{-s}])")
        return u, f, c

    def _top(self, members, radical: dict, to_x, k: int):
        """Lifts of a basis of Top_k; to_x[j] are the chain maps
        members[j] -> x, and radical[k][j] the radical maps X_k -> X_j.  A
        named refusal unless End(X_k) is local with residue field F_p."""
        if k not in radical:
            mk, p = members[k], self.algebra.p
            e, rad, degree = gf.local_ring(
                [g.total() for g in derived.chain_maps(mk, mk)], p)
            if e is not None or degree != 1:
                raise ModeUnsupported(
                    f"torsion member {describe(mk)} "
                    + ("splits" if e is not None else
                       f"has residue field F_{p}^{degree}"))
            radical[k] = [[ChainMap.from_total(mk, mk, r) for r in rad]
                          if j == k else derived.chain_maps(mk, mj)
                          for j, mj in enumerate(members)]
        return derived.classes_modulo(to_x[k], [
            compose_chain(h, r) for j, hs in enumerate(to_x)
            for h in hs for r in radical[k][j]])

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

        # X in the aisle has Hom(T, X[j]) = 0 for j > 0, so the triangle
        # t^{<=-1}X -> X -> H^0(X) embeds Ext^j(T, H^0(X)) in
        # Hom(T, t^{<=-1}X[j+1]), which is 0 for j >= n - 1 as pd T <= n.
        # Below that Ext^j may survive: on linear A4 with rad^2 = 0 and
        # T = D(A), H^-1(X) = S_4 and H^0(X) = S_2 give Ext^1(T, S_2) != 0.
        bad = []
        for o in objs:
            if not tilt.in_aisle(o, 0):
                continue
            h0 = cohomology(o, 0)
            if h0.total_dim == 0:
                continue
            ok = all(not any(self.ctx.ext_row(p)[j]
                             for j in range(max(1, self.n - 1), self.n + 1))
                     for p, _ in rep.decompose(h0))
            if not ok:
                bad.append(o)
        report["h0_of_aisle_in_ke0"] = (not bad, f"{len(bad)} violations")

        coaisle = [y for y in objs if tilt.in_coaisle(y, 1)]
        bad = [(o, y) for o in objs if tilt.in_aisle(o, 0)
               for y in coaisle if derived_hom_dim(o, y)]
        report["t2_orthogonality"] = (not bad, f"{len(bad)} violations")
        return report
