"""Exact linear algebra over the prime field F_p.

Matrices are numpy int64 arrays with entries reduced mod p.  Vectors are
columns: a matrix of shape (m, n) maps F_p^n -> F_p^m.  All routines are
exact; no floating point anywhere.
"""

from __future__ import annotations

from itertools import product

import numpy as np


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


def inv_scalar(a: int, p: int) -> int:
    return pow(int(a) % p, p - 2, p)


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    r = np.mod(a.copy(), p)
    m, n = r.shape
    pivots: list[int] = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        nz = None
        for i in range(row, m):
            if r[i, col] % p:
                nz = i
                break
        if nz is None:
            continue
        if nz != row:
            r[[row, nz]] = r[[nz, row]]
        r[row] = (r[row] * inv_scalar(r[row, col], p)) % p
        for i in range(m):
            if i != row and r[i, col]:
                r[i] = (r[i] - r[i, col] * r[row]) % p
        pivots.append(col)
        row += 1
    return r, pivots


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


def quotient_map(sub: np.ndarray, n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Quotient of F_p^n by the column span of `sub`.

    Returns (proj, sec): proj is (q, n) with proj @ sub = 0 and
    proj @ sec = id_q; q = n - rank(sub).
    """
    s = column_space(sub, p) if sub.size else zeros(n, 0)
    k = s.shape[1]
    # extend s to a basis of F_p^n by standard vectors
    basis = s
    extra: list[int] = []
    for j in range(n):
        e = zeros(n, 1)
        e[j, 0] = 1
        cand = np.concatenate([basis, e], axis=1)
        if rank(cand, p) > basis.shape[1]:
            basis = cand
            extra.append(j)
    assert basis.shape[1] == n
    binv = inverse(basis, p)
    assert binv is not None
    proj = binv[k:, :]
    sec = basis[:, k:]
    return proj, sec


def all_vectors(n: int, p: int):
    """Iterate over all vectors of F_p^n as (n,) arrays."""
    for coeffs in product(range(p), repeat=n):
        yield np.array(coeffs, dtype=np.int64)
