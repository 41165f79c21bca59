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


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker product of two matrices, as numpy's kron computes it,
    by one broadcast product (not reduced mod p)."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def mulchain(p: int, *mats: np.ndarray) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = mul(out, m, p)
    return out


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices).

    The elimination runs on Python row lists: nearly every system here is
    at most a few rows wide, where per-row numpy calls cost more than the
    arithmetic."""
    m, n = a.shape
    if m == 0 or n == 0:
        return np.mod(a, p), []
    rows = np.mod(a, p).tolist()
    pivots: list[int] = []
    for col in range(n):
        row = len(pivots)
        if row == m:
            break
        nz = next((i for i in range(row, m) if rows[i][col]), None)
        if nz is None:
            continue
        rows[row], rows[nz] = rows[nz], rows[row]
        inv = pow(rows[row][col], p - 2, p)
        piv = rows[row] = [x * inv % p for x in rows[row]]
        for i in range(m):
            c = rows[i][col]
            if c and i != row:
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], piv)]
        pivots.append(col)
    return np.array(rows, dtype=np.int64), pivots


def rank(a: np.ndarray, p: int) -> int:
    return len(rref(a, p)[1])


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of ker(a) as columns of an (n, k) matrix."""
    m, n = a.shape
    r, pivots = rref(a, p)
    free = [j for j in range(n) if j not in pivots]
    basis = zeros(n, len(free))
    for idx, j in enumerate(free):
        basis[j, idx] = 1
        for rowi, pc in enumerate(pivots):
            basis[pc, idx] = (-r[rowi, j]) % p
    return basis


def solve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One solution x of a x = b (b may have several columns), or None."""
    m, n = a.shape
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    aug = np.concatenate([a, b], axis=1) % p
    r, pivots = rref(aug, p)
    k = b.shape[1]
    x = zeros(n, k)
    for rowi, pc in enumerate(pivots):
        if pc >= n:
            return None  # inconsistent
        x[pc] = r[rowi, n:]
    return x


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
    r, pivots = rref(a.T % p, p)
    return r[: len(pivots)].T.copy()


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
    sub = sub if sub.size else zeros(n, 0)
    c = sub.shape[1]
    r, pivots = rref(np.concatenate([sub, eye(n)], axis=1), p)
    k = sum(1 for j in pivots if j < c)
    sec = eye(n)[:, [j - c for j in pivots[k:]]]
    return r[k:, c:], sec


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
