"""Bound quiver algebras over a prime field.

A path is written in traversal order: the tuple ("a", "b") means "walk a,
then walk b", so it requires target(a) == source(b).  The functional
composition b∘a of the literature is entered as "a*b".  All structure
constants are stored in traversal order as well; left modules act through
matrices applied right-to-left (see rep.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf
from .errors import MalformedRelation, NonAdmissible

LENGTH_CAP = 64
PATH_COUNT_CAP = 200_000


@dataclass(frozen=True)
class Arrow:
    name: str
    source: int
    target: int


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[int, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow names")
        vs = set(self.vertices)
        for a in self.arrows:
            if a.source not in vs or a.target not in vs:
                raise ValueError(f"arrow {a.name} has undeclared endpoint")

    def arrow(self, name: str) -> Arrow:
        for a in self.arrows:
            if a.name == name:
                return a
        raise KeyError(name)

    def arrows_from(self, v: int) -> list[Arrow]:
        return [a for a in self.arrows if a.source == v]


def make_quiver(vertices, arrows) -> Quiver:
    """arrows: iterable of (name, source, target)."""
    return Quiver(tuple(vertices), tuple(Arrow(n, s, t) for n, s, t in arrows))


@dataclass(frozen=True)
class Path:
    source: int
    arrows: tuple[str, ...]
    target: int

    def __len__(self):
        return len(self.arrows)

    def __repr__(self):
        if not self.arrows:
            return f"e{self.source}"
        return "*".join(self.arrows)


def trivial_path(v: int) -> Path:
    return Path(v, (), v)


def path_from_arrows(quiver: Quiver, arrows: tuple[str, ...],
                     source: int | None = None) -> Path:
    if not arrows:
        if source is None:
            raise ValueError("trivial path needs a source vertex")
        return trivial_path(source)
    objs = [quiver.arrow(n) for n in arrows]
    for x, y in zip(objs, objs[1:]):
        if x.target != y.source:
            raise ValueError(f"non-composable arrows {x.name}, {y.name}")
    if source is not None and source != objs[0].source:
        raise ValueError("declared source does not match first arrow")
    return Path(objs[0].source, tuple(arrows), objs[-1].target)


def concat(p: Path, q: Path) -> Path | None:
    """Traversal-order concatenation: walk p, then q."""
    if p.target != q.source:
        return None
    return Path(p.source, p.arrows + q.arrows, q.target)


# A relation is a list of (coefficient, Path) with all paths parallel and
# of length >= 2.
Relation = list


def parse_relation(quiver: Quiver, text: str) -> Relation:
    """Parse e.g. "a*b" or "a*b - c*d" into a Relation.

    A path is arrow names joined by '*' in traversal order; terms may carry
    an integer coefficient written as "2 a*b".
    """
    s = text.strip()
    if not s:
        raise MalformedRelation("empty relation text")
    terms = []
    sign = 1
    buf = ""
    for ch in s + "+":
        if ch in "+-":
            if buf.strip():
                terms.append((sign, buf.strip()))
            sign = 1 if ch == "+" else -1
            buf = ""
        else:
            buf += ch
    rel = []
    for sgn, term in terms:
        coeff = sgn
        parts = term.split()
        if len(parts) == 2 and parts[0].lstrip("-").isdigit():
            coeff = sgn * int(parts[0])
            term = parts[1]
        elif len(parts) != 1:
            raise MalformedRelation(f"cannot parse relation term {term!r}")
        names = tuple(n.strip() for n in term.split("*"))
        if not all(names):
            raise MalformedRelation(f"cannot parse relation term {term!r}")
        try:
            path = path_from_arrows(quiver, names)
        except (ValueError, KeyError) as exc:
            raise MalformedRelation(str(exc)) from exc
        rel.append((coeff, path))
    if not rel:
        raise MalformedRelation(f"cannot parse relation {text!r}")
    return rel


class BoundQuiverAlgebra:
    """Path algebra of a finite quiver modulo an admissible relation ideal.

    path_basis is a list of actual paths whose residue classes form a
    k-basis; products of basis paths expand over the basis through the
    precomputed structure constants.

    memo() holds every result that depends only on the algebra and fixed
    inputs (its opposite, projectives, global dimension, knitted
    indecomposables, Krull-Schmidt splits, projective covers, minimal
    projective resolutions, the Ext dimensions of a pair of modules in
    every degree, Ext and Tor modules over End(T) and Tor dimension
    vectors, one minimal projective replacement per complex up to
    shift, and one pair (dim Hom^k,
    rank delta^k) of the derived Hom complex per pair of complexes up to
    shift and relative degree k), computed once and kept as long as the
    algebra object.
    """

    def __init__(self, quiver: Quiver, relations: list[Relation], p: int,
                 paths: list[Path], table: dict, nilpotency: int):
        self.quiver = quiver
        self.relations = relations
        self.p = p
        self.path_basis = paths
        self.index = {(q.source, q.arrows): i for i, q in enumerate(paths)}
        self.table = table  # (i, j) -> coefficient vector, traversal order
        self.nilpotency = nilpotency
        self.dim = len(paths)
        self.idempotent_index = {
            v: self.index[(v, ())] for v in quiver.vertices}
        self._memo = {}

    def memo(self, key, compute):
        """The value of compute() stored under key, computed on first use.

        key must name everything besides the algebra that the value
        depends on, and may be a normal form of the input (the derived
        layer keys complexes shifted so that their top degree is 0); the
        value is shared by every caller, so never mutate it.
        """
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    # -- elements are coefficient vectors over path_basis ------------------

    def zero(self) -> np.ndarray:
        return np.zeros(self.dim, dtype=np.int64)

    def unit(self) -> np.ndarray:
        u = self.zero()
        for v in self.quiver.vertices:
            u[self.idempotent_index[v]] = 1
        return u

    def basis_vector(self, i: int) -> np.ndarray:
        v = self.zero()
        v[i] = 1
        return v

    def multiply_basis(self, i: int, j: int) -> np.ndarray:
        """Class of (basis path i, then basis path j)."""
        return self.table.get((i, j), self.zero())

    def multiply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = self.zero()
        for i in np.nonzero(x)[0]:
            for j in np.nonzero(y)[0]:
                out = (out + int(x[i]) * int(y[j])
                       * self.multiply_basis(int(i), int(j))) % self.p
        return out

    def basis_paths_from(self, v: int) -> list[int]:
        return [i for i, q in enumerate(self.path_basis) if q.source == v]

    def __repr__(self):
        return (f"BoundQuiverAlgebra(p={self.p}, dim={self.dim}, "
                f"vertices={list(self.quiver.vertices)})")


def _validate_relations(quiver: Quiver, relations: list[Relation]):
    for rel in relations:
        if not rel:
            raise MalformedRelation("empty relation")
        srcs = {path.source for _, path in rel}
        tgts = {path.target for _, path in rel}
        if len(srcs) != 1 or len(tgts) != 1:
            raise MalformedRelation(
                f"relation mixes non-parallel paths: {rel}")
        for _, path in rel:
            if len(path) < 2:
                raise MalformedRelation(
                    f"relation contains a path of length < 2: {path}")


def _enumerate_paths(quiver: Quiver, max_len: int) -> list[Path]:
    paths = [trivial_path(v) for v in sorted(quiver.vertices)]
    frontier = list(paths)
    for _ in range(max_len):
        nxt = []
        for q in frontier:
            for a in sorted(quiver.arrows_from(q.target), key=lambda a: a.name):
                nxt.append(Path(q.source, q.arrows + (a.name,), a.target))
        paths.extend(nxt)
        frontier = nxt
        if len(paths) > PATH_COUNT_CAP:
            raise NonAdmissible(
                f"path count exceeds {PATH_COUNT_CAP} before nilpotency")
        if not frontier:
            break
    return paths


def _ideal_columns(quiver: Quiver, relations, p, paths, idx, max_len):
    """Span of u*r*v inside the span of enumerated paths, as columns."""
    cols = []
    n = len(paths)
    by_target = {}
    by_source = {}
    for q in paths:
        by_target.setdefault(q.target, []).append(q)
        by_source.setdefault(q.source, []).append(q)
    for rel in relations:
        rel_src = rel[0][1].source
        rel_tgt = rel[0][1].target
        rel_max = max(len(path) for _, path in rel)
        for u in by_target.get(rel_src, []):
            for v in by_source.get(rel_tgt, []):
                if len(u) + rel_max + len(v) > max_len:
                    continue
                vec = np.zeros(n, dtype=np.int64)
                ok = True
                for c, path in rel:
                    full = Path(u.source, u.arrows + path.arrows + v.arrows,
                                v.target)
                    key = (full.source, full.arrows)
                    if key not in idx:
                        ok = False
                        break
                    vec[idx[key]] = (vec[idx[key]] + c) % p
                if ok and vec.any():
                    cols.append(vec)
    if not cols:
        return gf.zeros(n, 0)
    return np.stack(cols, axis=1) % p


class _Reducer:
    """Normal form modulo a subspace given by columns (via one rref)."""

    def __init__(self, cols: np.ndarray, p: int):
        self.p = p
        self.rows, self.pivots = gf.rref(cols.T % p, p)
        self.rows = self.rows[: len(self.pivots)]

    def reduce(self, v: np.ndarray) -> np.ndarray:
        v = v.copy() % self.p
        for row, piv in zip(self.rows, self.pivots):
            if v[piv]:
                v = (v - int(v[piv]) * row) % self.p
        return v


def build_algebra(quiver: Quiver, relations: list[Relation],
                  p: int) -> BoundQuiverAlgebra:
    """Construct the bound quiver algebra kQ/(relations) over F_p."""
    if p < 2 or any(p % q == 0 for q in range(2, p)):
        raise ValueError(f"field characteristic must be prime, got {p}")
    relations = [parse_relation(quiver, r) if isinstance(r, str) else r
                 for r in relations]
    _validate_relations(quiver, relations)
    rel_max = max((max(len(path) for _, path in rel) for rel in relations),
                  default=2)

    def compute(max_len):
        paths = _enumerate_paths(quiver, max_len)
        idx = {(q.source, q.arrows): i for i, q in enumerate(paths)}
        ideal = _ideal_columns(quiver, relations, p, paths, idx, max_len)
        return paths, idx, _Reducer(ideal, p)

    def find_nilpotency(paths, idx, red, horizon):
        # if every path of length exactly L dies, so does every longer one
        # (the ideal is two-sided); so the least such L is the nilpotency.
        n = len(paths)
        by_len = {}
        for q in paths:
            by_len.setdefault(len(q), []).append(q)
        for L in range(1, horizon + 1):
            level = by_len.get(L, [])
            if all(not red.reduce(_unit(idx, q, n)).any() for q in level):
                return L
        return None

    max_len = max(4, 2 * rel_max)
    while True:
        paths, idx, red = compute(max_len)
        longest = max(len(q) for q in paths)
        if longest < max_len:
            # acyclic quiver: no paths past `longest`, computation is exact
            horizon = longest + 1
        else:
            # keep a margin so ideal membership at the horizon is reliable
            horizon = max_len - rel_max
        nil = find_nilpotency(paths, idx, red, horizon)
        if nil is not None:
            break
        if max_len >= LENGTH_CAP:
            raise NonAdmissible(
                f"arrow-ideal powers do not vanish modulo the relations "
                f"up to length {LENGTH_CAP}")
        max_len = min(2 * max_len, LENGTH_CAP)

    # room for products of basis paths (length up to 2*(nil-1))
    needed = max(2 * max(nil - 1, 1) + rel_max, max_len)
    if needed > max_len:
        max_len = needed
        paths, idx, red = compute(max_len)

    # basis: greedy over paths of length < nil, ordered by (length, name)
    order = sorted((q for q in paths if len(q) < nil),
                   key=lambda q: (len(q), q.source, q.arrows))
    n = len(paths)
    chosen: list[Path] = []
    acc = gf.zeros(n, 0)
    for q in order:
        v = red.reduce(_unit(idx, q, n)).reshape(-1, 1)
        if not v.any():
            continue
        cand = np.concatenate([acc, v], axis=1)
        if gf.rank(cand, p) > acc.shape[1]:
            acc = cand
            chosen.append(q)

    # expansion of an arbitrary path-space vector over the chosen basis
    basis_mat = np.stack([_unit(idx, q, n) for q in chosen], axis=1) \
        if chosen else gf.zeros(n, 0)
    solve_mat = np.concatenate([basis_mat, red.rows.T], axis=1) \
        if red.rows.size else basis_mat

    def expand(vec: np.ndarray) -> np.ndarray:
        x = gf.solve(solve_mat, vec.reshape(-1, 1), p)
        if x is None:
            raise NonAdmissible("internal: vector outside basis + ideal span")
        return x[: len(chosen), 0]

    table = {}
    for i, qi in enumerate(chosen):
        for j, qj in enumerate(chosen):
            prod = concat(qi, qj)
            if prod is None:
                continue
            key = (prod.source, prod.arrows)
            if key in idx:
                coeffs = expand(_unit(idx, prod, n))
            else:
                coeffs = np.zeros(len(chosen), dtype=np.int64)
            if coeffs.any():
                table[(i, j)] = coeffs
    return BoundQuiverAlgebra(quiver, relations, p, chosen, table, nil)


def _unit(idx, q: Path, n: int) -> np.ndarray:
    v = np.zeros(n, dtype=np.int64)
    v[idx[(q.source, q.arrows)]] = 1
    return v


def opposite_algebra(alg: BoundQuiverAlgebra) -> BoundQuiverAlgebra:
    """Arrows reversed, relations transported; basis = reversed basis paths."""
    q = alg.quiver
    op_quiver = Quiver(q.vertices,
                       tuple(Arrow(a.name, a.target, a.source)
                             for a in q.arrows))

    def rev(path: Path) -> Path:
        return Path(path.target, tuple(reversed(path.arrows)), path.source)

    op_relations = [[(c, rev(path)) for c, path in rel]
                    for rel in alg.relations]
    op_paths = [rev(path) for path in alg.path_basis]
    # (x then y) in the opposite algebra = rev(rev(y) then rev(x))
    op_table = {}
    for (i, j), coeffs in alg.table.items():
        op_table[(j, i)] = coeffs.copy()
    return BoundQuiverAlgebra(op_quiver, op_relations, alg.p, op_paths,
                              op_table, alg.nilpotency)

