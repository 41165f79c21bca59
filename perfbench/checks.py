"""Checks of tiltlab's answers against the oracle and against properties the
mathematics must have.  Each check returns a list of problems (empty when
the answer is right); none compares with a stored copy of an earlier run."""

from __future__ import annotations

import oracle


class Facts:
    """What the oracle knows about one generated workspace."""

    def __init__(self, ws):
        self.ws = ws
        alg = ws.alg
        self.alg = alg
        self.q = alg.quiver
        self.size = alg.size
        self.cinv = oracle.cartan_inverse(self.q)
        self.t = alg.t_dims()
        self.intervals = [oracle.interval_dims(self.size, iv)
                          for iv in oracle.intervals(self.q)]
        self.projectives = oracle.projective_dims(self.q)
        self.t_parts = {oracle.interval_dims(self.size, s)
                        for s in alg.t_summands}
        self.roots = set(oracle.roots(self.cinv))

    def dims(self, name: str) -> tuple:
        if name == "0":
            return (0,) * self.size
        return tuple(self.ws.modules[name].dims)

    def euler_t(self, dims) -> int:
        return oracle.euler_form(self.cinv, self.t, dims)


def _alternating(terms, size) -> tuple:
    total = (0,) * size
    for i, term in enumerate(terms):
        total = oracle.add(total, oracle.scale((-1) ** i,
                                               oracle.add((0,) * size, *term)))
    return total


def check_tilting(f: Facts, rep: dict) -> list[str]:
    bad = []
    if rep["n"] != f.alg.n:
        bad.append(f"n = {rep['n']}, expected {f.alg.n}")
    if _alternating(rep["resolution"], f.size) != f.t:
        bad.append("resolution terms do not alternate to dim T")
    if any(tuple(s) not in f.projectives
           for term in rep["resolution"] for s in term):
        bad.append("a resolution summand is not an indecomposable projective")
    dim_a = oracle.add(*f.projectives)
    if _alternating(rep["coresolution"], f.size) != dim_a:
        bad.append("coresolution terms do not alternate to dim A")
    if any(tuple(s) not in f.t_parts
           for term in rep["coresolution"] for s in term):
        bad.append("a coresolution summand is not a summand of T")
    return bad


def ext_table(f: Facts, rep: dict) -> list[str]:
    bad = []
    table = rep["table"]
    if set(table) != set(f.ws.modules) | {"0"}:
        bad.append("ext-table does not list every module")
    for name, row in table.items():
        euler = sum((-1) ** i * d for i, d in enumerate(row))
        if euler != f.euler_t(f.dims(name)):
            bad.append(f"sum (-1)^i Ext^i(T, {name}) = {euler}, "
                       f"<dim T, dim {name}> = {f.euler_t(f.dims(name))}")
    if "T" in table and any(table["T"][1:]):
        bad.append("T is not rigid: Ext^i(T, T) != 0 for some i > 0")
    return bad


def tor_table(f: Facts, rep: dict) -> list[str]:
    """T (x)^L_B RHom(T, M) = M: the spectral sequence with E2 terms
    Tor_i(T, Ext^j(T, M)) keeps its Euler characteristic, dim M."""
    bad = []
    for name, grid in rep["table"].items():
        euler = sum((-1) ** (i + j) * d for i, row in enumerate(grid)
                    for j, d in enumerate(row))
        if euler != sum(f.dims(name)):
            bad.append(f"Tor/Ext Euler characteristic of {name} is {euler}, "
                       f"dim {name} = {sum(f.dims(name))}")
    return bad


def bside(f: Facts, rep: dict) -> list[str]:
    bad = []
    if len(rep["vertices"]) != f.size:
        bad.append(f"End(T) has {len(rep['vertices'])} vertices")
    if len(rep["t_b_summands"]) != f.size:
        bad.append(f"T over End(T)^op has {len(rep['t_b_summands'])} "
                   "summands")
    if sum(map(sum, rep["t_b_summands"])) != sum(f.t):
        bad.append("the summands of T over End(T)^op miss dimensions")
    return bad


def miyashita(f: Facts, name: str, rep: dict) -> list[str]:
    """Nonzero M in class e has Ext^e(T, M) != 0 and no other Ext, so
    (-1)^e <dim T, dim M> > 0."""
    e = rep["class"]
    if e is None or rep["zero"]:
        return []
    if (-1) ** e * f.euler_t(f.dims(name)) <= 0:
        return [f"{name} in class {e} but <dim T, dim M> = "
                f"{f.euler_t(f.dims(name))}"]
    return []


def filtration(f: Facts, name: str, method: str, rep: dict) -> list[str]:
    bad = []
    chain, factors = rep["chain"], rep["factors"]
    zero = (0,) * f.size
    if tuple(chain[0]) != zero or tuple(chain[-1]) != f.dims(name):
        bad.append(f"{method} chain of {name} runs {chain[0]}..{chain[-1]}")
    for lo, hi in zip(chain, chain[1:]):
        if any(a > b for a, b in zip(lo, hi)):
            bad.append(f"{method} chain of {name} is not nested")
    if oracle.add(zero, *factors) != f.dims(name):
        bad.append(f"{method} factors of {name} do not sum to dim M")
    if len(factors) != f.alg.n + 1:
        bad.append(f"{method} filtration of {name} has {len(factors)} "
                   "factors")
    if method == "static":
        for i, dv in enumerate(factors):
            if any(dv) and (-1) ** i * f.euler_t(dv) <= 0:
                bad.append(f"static factor {i} of {name} is not in KE_{i}")
    return bad


def same_chain(name: str, a: dict, b: dict, what: str) -> list[str]:
    if (a["chain"], a["factors"]) != (b["chain"], b["factors"]):
        return [f"{what} disagree on {name}"]
    return []


def _classes(f: Facts, profiles) -> list[tuple]:
    return [oracle.complex_class(p, f.size) for p in profiles]


def _roots(f: Facts, what: str, classes) -> list[str]:
    """Each class is a root of the Euler form, up to sign; no two agree."""
    signed = [max(c, oracle.scale(-1, c)) for c in classes]
    bad = [f"{what}: class {c} is not a root"
           for c in signed if c not in f.roots]
    if len(set(signed)) != len(signed):
        bad.append(f"{what}: two objects share a class up to sign")
    return bad


def derived_objects(f: Facts, profiles, exact=None) -> list[str]:
    """Indecomposables of D^b(A) up to shift: each class is a root of the
    Euler form, no two agree up to sign, at most m(m+1)/2 of them for
    m = |Q_0| (the algebras here are derived equivalent to A_m)."""
    bad = _roots(f, "derived-indec", _classes(f, profiles))
    bound = f.size * (f.size + 1) // 2
    if len(profiles) > bound:
        bad.append(f"{len(profiles)} objects, more than {bound}")
    if exact is not None and len(profiles) != exact:
        bad.append(f"{len(profiles)} objects, expected {exact}")
    return bad


def modules_found(f: Facts, dims) -> list[str]:
    if sorted(map(tuple, dims)) != sorted(f.intervals):
        return ["indecomposable modules are not the interval modules"]
    return []


def hearts(f: Facts, rep: dict) -> list[str]:
    bad = []
    h0 = sorted(tuple(map(tuple, p.items())) for _, p in rep["hearts"][0])
    if h0 != sorted(((("0", list(d)),)) for d in f.intervals):
        bad.append("H_0 is not the interval modules in degree 0")
    for i, members in enumerate(rep["hearts"]):
        if len(members) < f.size:
            bad.append(f"H_{i} has {len(members)} objects, fewer than "
                       f"{f.size} simples")
        bad += _roots(f, f"H_{i}", _classes(f, [p for _, p in members]))
    for i, pair in enumerate(rep["pairs"]):
        keys = {tuple(k) for k, _ in rep["hearts"][i]}
        x, y = {tuple(k) for k in pair["X"]}, {tuple(k) for k in pair["Y"]}
        if not (x | y) <= keys or x & y:
            bad.append(f"(X_{i}, Y_{i}) is not a pair of disjoint parts "
                       f"of H_{i}")
    return bad


def t_tree(f: Facts, name: str, rep: dict) -> list[str]:
    """Every triangle U -> X -> C adds up in K_0: the leaves sum to M."""
    leaves = [p for _, p in rep["leaves"]]
    total = oracle.add((0,) * f.size, *_classes(f, leaves))
    bad = []
    if total != f.dims(name):
        bad.append(f"t-tree leaves of {name} sum to {total}")
    if len(leaves) != 2 ** f.alg.n:
        bad.append(f"t-tree of {name} has {len(leaves)} leaves")
    return bad


def verify(rep: dict) -> list[str]:
    return [f"structural claim {k} fails: {detail}"
            for k, (ok, detail) in rep.items() if not ok]


def ke_membership(f: Facts, rep: dict) -> list[str]:
    """'No Ext above degree e' holds at e = n, stays true as e grows, and
    at e = 0 forces Hom(T, M) != 0, so <dim T, dim M> > 0."""
    bad = []
    for name, row in rep.items():
        if not row[-1] or any(a and not b for a, b in zip(row, row[1:])):
            bad.append(f"KE membership of {name} is not monotone: {row}")
        if row[0] and f.euler_t(f.dims(name)) <= 0:
            bad.append(f"{name} has no higher Ext but <dim T, dim M> <= 0")
    return bad
