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
