"""Reference mathematics for the benchmark checks, computed without tiltlab.

Everything here follows from a quiver with monomial relations: the nonzero
paths, the Cartan matrix C with c_ij = #nonzero paths from i to j, the Euler
form <x, y> = x^T C^-1 y, the roots of that form, and the interval modules of
a linearly oriented A_n quiver.  Modules use the covariant convention of the
workspace format: the projective P_i has dimension vector row i of C.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product


@dataclass(frozen=True)
class BoundQuiver:
    vertices: tuple            # vertex labels, in order
    arrows: tuple              # (name, source, target)
    relations: tuple = ()      # monomial relations as tuples of arrow names

    def index(self, v) -> int:
        return self.vertices.index(v)


def nonzero_paths(q: BoundQuiver) -> list[tuple]:
    """Every nonzero path as (source, target, arrow names); trivial included.

    A path is zero when it contains a relation as consecutive arrows.  The
    quiver must be acyclic, so the list is finite.
    """
    rels = [tuple(r) for r in q.relations]

    def killed(word):
        return any(word[i:i + len(r)] == r
                   for r in rels for i in range(len(word) - len(r) + 1))

    out = [(v, v, ()) for v in q.vertices]
    frontier = list(out)
    while frontier:
        grown = []
        for src, tgt, word in frontier:
            for name, s, t in q.arrows:
                if s == tgt and not killed(word + (name,)):
                    grown.append((src, t, word + (name,)))
        if len(out) + len(grown) > 10_000:
            raise ValueError("quiver has a cycle or too many paths")
        out.extend(grown)
        frontier = grown
    return out


def cartan(q: BoundQuiver) -> list[list[int]]:
    n = len(q.vertices)
    c = [[0] * n for _ in range(n)]
    for src, tgt, _ in nonzero_paths(q):
        c[q.index(src)][q.index(tgt)] += 1
    return c


def inverse(m: list[list[int]]) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan elimination over the rationals."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        lead = a[col][col]
        a[col] = [x / lead for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def cartan_inverse(q: BoundQuiver) -> list[list[int]]:
    inv = inverse(cartan(q))
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("Cartan matrix is not unimodular")
    return [[int(x) for x in row] for row in inv]


def euler_form(cinv: list[list[int]], x, y) -> int:
    """<x, y> = x^T C^-1 y = sum_i (-1)^i dim Ext^i(X, Y) for modules."""
    n = len(cinv)
    return sum(x[i] * cinv[i][j] * y[j] for i in range(n) for j in range(n))


def roots(cinv: list[list[int]], box: int = 3) -> list[tuple]:
    """Vectors x with <x, x> = 1 and entries in [-box, box], one of each
    pair +-x (the one whose first nonzero entry is positive)."""
    n = len(cinv)
    out = []
    for x in product(range(-box, box + 1), repeat=n):
        first = next((v for v in x if v), 0)
        if first > 0 and euler_form(cinv, x, x) == 1:
            out.append(x)
    return out


def projective_dims(q: BoundQuiver) -> list[tuple]:
    return [tuple(row) for row in cartan(q)]


# -- linearly oriented A_n: interval modules ---------------------------------

def linear_quiver(n: int, relations=()) -> BoundQuiver:
    """1 -> 2 -> ... -> n with arrows named a, b, c, ...; a relation such as
    "a*b" is the path a then b."""
    names = "abcdefghijklmnopqrstuvwxyz"
    arrows = tuple((names[i], i + 1, i + 2) for i in range(n - 1))
    rels = tuple(tuple(r.split("*")) for r in relations)
    return BoundQuiver(tuple(range(1, n + 1)), arrows, rels)


def intervals(q: BoundQuiver) -> list[tuple]:
    """The interval modules [i, j] of a linear quiver with monomial
    relations: i <= j and the path from i to j is nonzero.  These are all
    the indecomposable modules.  Returned as (i, j) vertex positions."""
    n = len(q.vertices)
    live = {(q.index(s), q.index(t)) for s, t, _ in nonzero_paths(q)}
    return [(i, j) for i in range(n) for j in range(i, n) if (i, j) in live]


def interval_dims(n: int, iv: tuple) -> tuple:
    i, j = iv
    return tuple(int(i <= k <= j) for k in range(n))


def add(*vectors) -> tuple:
    return tuple(sum(c) for c in zip(*vectors))


def scale(c: int, x) -> tuple:
    return tuple(c * a for a in x)


def complex_class(profile: dict, n: int) -> tuple:
    """[X] = sum_k (-1)^k dim H^k(X) from {degree: dimension vector}."""
    total = (0,) * n
    for deg, dv in profile.items():
        total = add(total, scale(-1 if int(deg) % 2 else 1, dv))
    return total
