"""Seeded workspace files for the benchmark.

Every algebra is a linearly oriented A_n quiver with monomial relations, so
the oracle knows its indecomposables (the interval modules).  Random modules
are direct sums of one or two interval modules under a random change of
basis at each vertex: the program sees dense matrices, the oracle knows the
summands.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import oracle

# The bundled running example (src/tiltlab/data/running.tilt), verbatim.
RUNNING_TEXT = """\
tiltlab-format 1

# the running example: linear A3 quiver with the zero relation a*b
[algebra]
vertices 1 2 3
field 2
arrow a: 1 -> 2
arrow b: 2 -> 3
relation a*b

[module 1]
dims 1:1 2:0 3:0

[module 2]
dims 1:0 2:1 3:0

[module 3]
dims 1:0 2:0 3:1

[module 12]
dims 1:1 2:1 3:0
map a [[1]]

[module 23]
dims 1:0 2:1 3:1
map b [[1]]

[module T]
dims 1:2 2:2 3:1
map a [[0,0],[1,0]]
map b [[1,0]]

# the two-term complex 23 -> 12 in degrees -1, 0
[complex W]
term -1 23
term 0 12
diff -1 2 [[1]]
"""


@dataclass
class Algebra:
    """An input algebra with its tilting module T, as the oracle sees it."""
    name: str
    quiver: oracle.BoundQuiver
    p: int
    t_summands: list          # interval modules (i, j) summing to T
    n: int                    # projective dimension of T
    fixed_text: str = ""      # workspace text to start from, if not generated

    @property
    def size(self) -> int:
        return len(self.quiver.vertices)

    def t_dims(self) -> tuple:
        return oracle.add(*(oracle.interval_dims(self.size, s)
                            for s in self.t_summands))


RUNNING = Algebra("running", oracle.linear_quiver(3, ["a*b"]), 2,
                  [(0, 1), (1, 2), (0, 0)], 2, RUNNING_TEXT)
RUNNING_F3 = Algebra("running_f3", oracle.linear_quiver(3, ["a*b"]), 3,
                     [(0, 1), (1, 2), (0, 0)], 2, RUNNING_TEXT)
# D(A) = I_1 + I_2 + I_3 + I_4 is 3-tilting: gldim A = 3
A4_DA = Algebra("a4_da", oracle.linear_quiver(4, ["a*b", "b*c"]), 2,
                [(0, 0), (0, 1), (1, 2), (2, 3)], 3)
# APR tilt at the sink: P_3 = 3 is replaced by tau^-1(3) = 2
A3_APR = Algebra("a3_apr", oracle.linear_quiver(3), 2,
                 [(1, 1), (1, 2), (0, 2)], 1)


@dataclass
class Module:
    name: str
    summands: list            # interval modules (i, j), with repetition
    dims: tuple
    action: dict = field(default_factory=dict)   # arrow -> rows


def _inverse_mod(m, p):
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] % p), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = pow(a[col][col], p - 2, p)
        a[col] = [x * inv % p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] % p:
                f = a[r][col]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _matmul(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)]
            for row in a]


def _random_invertible(rng, n, p):
    while True:
        g = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        inv = _inverse_mod(g, p)
        if inv is not None:
            return g, inv


def interval_sum(alg: Algebra, name: str, summands, rng=None) -> Module:
    """Block-diagonal sum of interval modules, optionally under a random
    change of basis g_v at every vertex (X_a -> g_t X_a g_s^-1)."""
    size = alg.size
    dims = oracle.add(*(oracle.interval_dims(size, s) for s in summands))
    action = {}
    for arrow, src, tgt in alg.quiver.arrows:
        s, t = alg.quiver.index(src), alg.quiver.index(tgt)
        rows = [[0] * dims[s] for _ in range(dims[t])]
        r = c = 0
        for i, j in summands:
            if i <= s <= j and i <= t <= j:
                rows[r][c] = 1
            r += int(i <= t <= j)
            c += int(i <= s <= j)
        action[arrow] = rows
    if rng is not None:
        base = {}
        for k, d in enumerate(dims):
            base[k] = _random_invertible(rng, d, alg.p)
        for arrow, src, tgt in alg.quiver.arrows:
            s, t = alg.quiver.index(src), alg.quiver.index(tgt)
            if dims[s] and dims[t]:
                action[arrow] = _matmul(
                    _matmul(base[t][0], action[arrow], alg.p),
                    base[s][1], alg.p)
    return Module(name, list(summands), dims, action)


def module_text(alg: Algebra, m: Module) -> str:
    lines = [f"[module {m.name}]",
             "dims " + " ".join(f"{v}:{d}" for v, d
                                in zip(alg.quiver.vertices, m.dims))]
    for arrow, src, tgt in alg.quiver.arrows:
        s, t = alg.quiver.index(src), alg.quiver.index(tgt)
        if m.dims[s] and m.dims[t]:
            lines.append(f"map {arrow} "
                         + json.dumps(m.action[arrow], separators=(",", ",")))
    return "\n".join(lines) + "\n"


def interval_name(alg: Algebra, iv) -> str:
    return "".join(str(v) for v in alg.quiver.vertices[iv[0]:iv[1] + 1])


def random_modules(alg: Algebra, rng: random.Random) -> list[Module]:
    """Every interval module once, in sums of two taken in the oracle's
    order (and one alone when the count is odd), each under a seeded random
    change of basis.  The seed draws the bases only, so every seed asks for
    the same isomorphism classes and the same amount of work."""
    ivs = oracle.intervals(alg.quiver)
    return [interval_sum(alg, f"r{k + 1}", ivs[i:i + 2], rng)
            for k, i in enumerate(range(0, len(ivs), 2))]


@dataclass
class Workspace:
    """A generated workspace file and what the oracle knows about it."""
    alg: Algebra
    path: str
    modules: dict             # name -> Module (summands and dims)
    randoms: list             # names of the seeded random modules


def write_workspace(alg: Algebra, path: str, extra: list[Module]) -> Workspace:
    """T, every interval module and the extra modules, in one file."""
    modules = {}
    for iv in oracle.intervals(alg.quiver):
        name = interval_name(alg, iv)
        modules[name] = interval_sum(alg, name, [iv])
    if alg.fixed_text:
        text = alg.fixed_text
        if alg.p != 2:
            text = text.replace("field 2", f"field {alg.p}")
        modules = {k: v for k, v in modules.items() if f"[module {k}]" in text}
        modules["T"] = Module("T", list(alg.t_summands), alg.t_dims())
    else:
        text = "\n".join(
            ["tiltlab-format 1", "", "[algebra]",
             "vertices " + " ".join(map(str, alg.quiver.vertices)),
             f"field {alg.p}"]
            + [f"arrow {a}: {s} -> {t}" for a, s, t in alg.quiver.arrows]
            + ["relation " + "*".join(r) for r in alg.quiver.relations]) + "\n"
        t = interval_sum(alg, "T", alg.t_summands)
        text += "\n" + module_text(alg, t)
        for name in modules:
            text += "\n" + module_text(alg, modules[name])
        modules["T"] = t
    for m in extra:
        text += "\n" + module_text(alg, m)
        modules[m.name] = m
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return Workspace(alg, path, modules, [m.name for m in extra])
