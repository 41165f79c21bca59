"""Exact linear algebra over the prime field F_p.

Matrices are numpy int64 arrays with entries reduced mod p.  Vectors are
columns: a matrix of shape (m, n) maps F_p^n -> F_p^m.  All routines are
exact; no floating point anywhere.
"""

from __future__ import annotations

from itertools import chain, product

import numpy as np

from .errors import LocalityUndecided


def zeros(m: int, n: int) -> np.ndarray:
    return np.zeros((m, n), dtype=np.int64)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def asmat(a, p: int) -> np.ndarray:
    m = np.array(a, dtype=np.int64)
    if m.ndim != 2:
        raise ValueError("expected a 2d matrix")
    return np.mod(m, p)


def mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    if a.shape[0] == 0 or b.shape[1] == 0 or a.shape[1] == 0:
        return zeros(a.shape[0], b.shape[1])
    return np.mod(a @ b, p)


def mulchain(p: int, *mats: np.ndarray) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = mul(out, m, p)
    return out


def _eliminate(rows: list, ncols: int, p: int) -> list[int]:
    """Reduce the row lists `rows` (entries in [0, p)) in place to reduced
    row echelon form in their first ncols columns; returns the pivot columns.

    Nearly every system here is at most a few rows wide, where per-row numpy
    calls cost more than the arithmetic, so the elimination runs on lists
    and each caller builds its one result array from them."""
    m = len(rows)
    pivots: list[int] = []
    for col in range(ncols):
        row = len(pivots)
        if row == m:
            break
        for nz in range(row, m):
            if rows[nz][col]:
                break
        else:
            continue
        piv = rows[nz]
        rows[nz] = rows[row]
        if piv[col] != 1:
            inv = pow(piv[col], p - 2, p)
            piv = [x * inv % p for x in piv]
        rows[row] = piv
        for i in range(m):
            c = rows[i][col]
            if c and i != row:
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], piv)]
        pivots.append(col)
    return pivots


def _array(rows, m: int, n: int) -> np.ndarray:
    return np.array(rows, dtype=np.int64).reshape(m, n)


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    m, n = a.shape
    if m == 0 or n == 0:
        return np.mod(a, p), []
    rows = np.mod(a, p).tolist()
    pivots = _eliminate(rows, n, p)
    return _array(rows, m, n), pivots


def rank(a: np.ndarray, p: int) -> int:
    m, n = a.shape
    return len(_eliminate(np.mod(a, p).tolist(), n, p)) if m and n else 0


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of ker(a) as columns of an (n, k) matrix."""
    return nullspace_of_rows(np.mod(a, p).tolist(), a.shape[1], p)


def nullspace_of_rows(rows: list, n: int, p: int) -> np.ndarray:
    """nullspace of the matrix with the row lists `rows` (entries in
    [0, p), reduced in place) and n columns: one column per free column j
    of the echelon form, 1 at j and minus column j at the pivots."""
    if not rows:
        return eye(n)
    pivots = _eliminate(rows, n, p)
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    basis = [None] * n
    for idx, j in enumerate(free):
        basis[j] = [0] * len(free)
        basis[j][idx] = 1
    for row, j in zip(rows, pivots):
        basis[j] = [-row[f] % p for f in free]
    return _array(basis, n, len(free))


def solve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One solution x of a x = b (b may have several columns), or None.

    [a | b] is eliminated in the columns of a only: the system is
    inconsistent exactly when a row below the rank keeps a nonzero entry
    of b."""
    m, n = a.shape
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    if b.shape[0] != m:
        raise ValueError(f"shape mismatch {a.shape} x = {b.shape}")
    k = b.shape[1]
    if m == 0 or k == 0:
        return zeros(n, k)
    rows = [ra + rb for ra, rb in zip(np.mod(a, p).tolist(),
                                      np.mod(b, p).tolist())]
    pivots = _eliminate(rows, n, p)
    if any(any(row[n:]) for row in rows[len(pivots):]):
        return None  # inconsistent
    x = [[0] * k] * n
    for row, j in zip(rows, pivots):
        x[j] = row[n:]
    return _array(x, n, k)


def inverse(a: np.ndarray, p: int) -> np.ndarray | None:
    m, n = a.shape
    if m != n:
        return None
    x = solve(a, eye(n), p)
    if x is None or not np.array_equal(mul(a, x, p), eye(n)):
        return None
    return x


def is_invertible(a: np.ndarray, p: int) -> bool:
    return a.shape[0] == a.shape[1] and rank(a, p) == a.shape[0]


def column_space(a: np.ndarray, p: int) -> np.ndarray:
    """A basis of the column space, as columns (echelonized, canonical)."""
    m, n = a.shape
    if m == 0 or n == 0:
        return zeros(m, 0)
    rows = np.mod(a.T, p).tolist()
    r = len(_eliminate(rows, m, p))
    return _array(list(zip(*rows[:r])), m, r)


def in_span(cols: np.ndarray, v: np.ndarray, p: int) -> bool:
    """Is every column of v in the column space of cols?"""
    return solve(cols, v % p, p) is not None


def identity_factors(into: list, out_of: list, p: int) -> bool:
    """Does the identity of F_p^m lie in the span of the products g f, for f
    in into (t x m matrices) and g in out_of (m x t)?  One in_span solve."""
    if not into or not out_of:
        return False
    f, g = np.stack(into), np.stack(out_of)        # (k, t, m), (l, m, t)
    m = f.shape[2]
    prods = np.matmul(g[:, None], f[None]).reshape(-1, m * m)
    return in_span(prods.T % p, eye(m).flatten(), p)


def quotient_map(sub: np.ndarray, n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Quotient of F_p^n by the column span of `sub`.

    Returns (proj, sec): proj is (q, n) with proj @ sub = 0 and
    proj @ sec = id_q; q = n - rank(sub).  One elimination of [sub | I_n]:
    sec is the standard vectors at its pivots past sub (the greedy extension
    of a basis of the span), and proj is the identity block of the rows
    below rank(sub), since those rows kill sub and send sec to id_q.
    """
    if not sub.size:
        return eye(n), eye(n)
    c = sub.shape[1]
    rows = np.mod(sub, p).tolist()
    for i, row in enumerate(rows):
        row += [0] * n
        row[c + i] = 1
    pivots = _eliminate(rows, c + n, p)
    k = sum(1 for j in pivots if j < c)
    sec = [[0] * (n - k) for _ in range(n)]
    for idx, j in enumerate(pivots[k:]):
        sec[j - c][idx] = 1
    return (_array([row[c:] for row in rows[k:]], n - k, n),
            _array(sec, n, n - k))


def all_vectors(n: int, p: int):
    """Iterate over all vectors of F_p^n as (n,) arrays."""
    for coeffs in product(range(p), repeat=n):
        yield np.array(coeffs, dtype=np.int64)


# -- local rings --------------------------------------------------------------

def power(a: np.ndarray, e: int, p: int) -> np.ndarray:
    out = eye(a.shape[0])
    for bit in bin(e)[2:]:
        out = mul(out, out, p)
        if bit == "1":
            out = mul(out, a, p)
    return out


def stack_flat(mats: list, n: int) -> np.ndarray:
    """The n x n matrices mats, flattened, as the columns of one matrix."""
    return (np.stack([m.flatten() for m in mats], axis=1) if mats
            else zeros(n * n, 0))


def _basis(mats: list, n: int, p: int) -> list:
    """Echelon basis of the span of some n x n matrices."""
    span = column_space(stack_flat(mats, n), p)
    return [span[:, j].reshape(n, n) for j in range(span.shape[1])]


def nilpotency_index(xs: list, n: int, p: int) -> int | None:
    """Least N with span(xs)^N = 0, or None if its powers stop shrinking."""
    level, index = _basis(xs, n, p), 1
    while level:
        nxt = _basis([mul(x, y, p) for x in level for y in xs], n, p)
        if len(nxt) == len(level):
            return None
        level, index = nxt, index + 1
    return index


def _split_element(b: np.ndarray, p: int, d: int):
    """(b - lam)^n for the first root lam in F_p of the minimal polynomial
    mu of b (of degree at most d), when neither 0 nor invertible; with no
    root, a split lifted from Berlekamp's fixed space of F_p[b], which needs
    deg mu > 3 (mu is irreducible otherwise); else None."""
    n = b.shape[0]
    powers = [eye(n)]
    while len(powers) <= min(d, n):
        powers.append(mul(powers[-1], b, p))
    mu = nullspace(stack_flat(powers, n), p)[:, 0]
    lam = next((c for c in range(p) if sum(
        int(x) * c ** i for i, x in enumerate(mu)) % p == 0), None)
    deg = np.flatnonzero(mu)[-1]
    if lam is None:
        return _split_quotient(powers[:deg], [], p)[0] if deg > 3 else None
    f = power((b - lam * eye(n)) % p, n, p)
    return f if f.any() else None


def _first_split(xs, p: int, d: int):
    return next((e for e in (_split_element(x, p, d) for x in xs
                             if (x - x[0, 0] * eye(len(x))).any())
                 if e is not None), None)


def _split_quotient(mats: list, sub: list, p: int):
    """(e, frob, lift) for the commutative quotient R of the algebra
    span(mats) by its ideal span(sub): frob is the linear map x -> x^p on R,
    lift takes coordinates in R to matrices, and e splits when R is not
    local: then frob fixes some x off the scalars, and x^p = x gives the
    minimal polynomial of a lift of x two roots in F_p."""
    n, flat = mats[0].shape[0], stack_flat(mats, mats[0].shape[0])
    proj, sec = quotient_map(solve(flat, stack_flat(sub, n), p), len(mats), p)
    k, stacked = proj.shape[0], np.stack(mats)

    def lift(v):
        return np.tensordot(sec @ v % p, stacked, axes=1) % p

    images = [power(lift(v), p, p) for v in eye(k)] + [eye(n)]
    q = proj @ solve(flat, stack_flat(images, n), p) % p
    for v in nullspace((q[:, :k] - eye(k)) % p, p).T:
        if rank(np.stack([v, q[:, k]], axis=1), p) == 2:
            return _split_element(lift(v), p, len(mats)), q[:, :k], lift
    return None, q[:, :k], lift


def local_ring(mats: list, p: int):
    """Split, or certify local, the algebra E spanned by mats: n x n
    matrices closed under products, with 1 in their span.

    Returns (e, None, 0) with e in E and F_p^n = im e (+) ker e, both
    nonzero, or (None, rad, k) with rad an echelon basis of rad E and
    E / rad E = F_{p^k}.  Past the basis elements, let C be the ideal
    generated by the commutators and I the preimage of the nilpotents of
    E/C: E is local exactly when I is nilpotent and the Frobenius of E/C
    fixes only the scalars, and then rad E = I (Berlekamp, Bell Syst. Tech.
    J. 46, 1967; Ronyai, J. Symb. Comput. 9, 1990)."""
    n, d = mats[0].shape[0], len(mats)
    if d == 1:
        return None, [], 1
    e = _first_split(mats[::-1], p, d)
    if e is None:
        comm, grown = None, _basis([mul(a, b, p) - mul(b, a, p) for i, a in
                                    enumerate(mats) for b in mats[:i]], n, p)
        while comm is None or len(grown) > len(comm):
            comm = grown
            grown = _basis(comm + [mul(a, x, p) for a in mats for x in comm]
                           + [mul(x, a, p) for a in mats for x in comm], n, p)
        e, frob, lift = _split_quotient(mats, comm, p)
    if e is None:
        nil = nullspace(power(frob, len(frob), p), p).T
        rad = _basis(comm + [lift(v) for v in nil], n, p)
        if nilpotency_index(rad, n, p) is not None:
            return None, rad, d - len(rad)
        e = _first_split(chain(rad, (mul(x, y, p) for x in rad for y in rad)),
                         p, d)
    if e is None:
        raise LocalityUndecided(f"algebra of dimension {d} in M_{n}(F_{p}): "
                                "radical candidate not nilpotent, no split")
    return e, None, 0
