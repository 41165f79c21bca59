"""The inverse Auslander-Reiten translate tau^-1 = Tr D, and ind A knitted
from the projectives with it.

rep.enumerate_indecomposable_modules imports this module when it first
runs, so importing tiltlab does not compile it.
"""

from __future__ import annotations

import numpy as np

from . import gf, rep
from .algebra import BoundQuiverAlgebra
from .homology import projective_cover
from .rep import Module, ModuleMap, compose


def tau_inverse(m: Module) -> Module:
    """The inverse Auslander-Reiten translate Tr D m; zero exactly when m
    is injective.

    D m has a minimal projective presentation P_1 -> P_0 over A^op, from two
    projective covers.  Hom(-, A^op) turns its component P^op(v) -> P^op(w),
    fixed by the image of e_v (a combination of A^op paths w -> v), into
    P(w) -> P(v), q |-> x.q, where x in e_v A e_w reverses those paths.
    Tr D m is the cokernel of the dual map sum P(w) -> sum P(v)."""
    alg = m.algebra
    op = rep.opposite_of(alg)
    dm = rep.dual_module(m, op)
    _, eps = projective_cover(dm)
    ker, incl = rep.kernel(eps)
    if ker.total_dim == 0:
        return rep.zero_module(alg)
    _, cover = projective_cover(ker)
    d = compose(incl, cover)
    # a cover lists P(v) once per top dimension at v, in vertex order
    p1_verts, p0_verts = ([v for v in x.vertex_order
                           for _ in range(rep.top(x)[0].dims[v])]
                          for x in (ker, dm))
    op_rows, op_cols = (_summand_offsets(op, vs)
                        for vs in (p0_verts, p1_verts))
    rows, cols = (_summand_offsets(alg, vs) for vs in (p1_verts, p0_verts))
    src = rep.direct_sum([rep.projective(alg, w) for w in p0_verts])[0]
    tgt = rep.direct_sum([rep.projective(alg, v) for v in p1_verts])[0]
    blocks = {u: gf.zeros(tgt.dims[u], src.dims[u]) for u in src.dims}
    for i, w in enumerate(p0_verts):
        op_paths = rep.projective_structure(op, w)[1]
        w_paths = rep.projective_structure(alg, w)[1]
        for k, v in enumerate(p1_verts):
            # e_v is the first basis path of P^op(v) at v (the shortest)
            start = op_rows[i][v]
            image = d.blocks[v][start:start + len(op_paths[v]), op_cols[k][v]]
            x = alg.zero()
            for c, q in zip(image, op_paths[v]):
                x[op.index[(q.source, q.arrows)]] = c
            v_paths = rep.projective_structure(alg, v)[1]
            for u in alg.quiver.vertices:
                pos = {alg.index[(q.source, q.arrows)]: r
                       for r, q in enumerate(v_paths[u])}
                for c, q in enumerate(w_paths[u]):
                    xq = alg.multiply(
                        x, alg.basis_vector(alg.index[(q.source, q.arrows)]))
                    for j in np.nonzero(xq)[0]:
                        blocks[u][rows[k][u] + pos[int(j)],
                                  cols[i][u] + c] = xq[j]
    return rep.cokernel(ModuleMap(src, tgt, blocks))[0]


def knit_indecomposables(alg: BoundQuiverAlgebra, dim_bound: int):
    """Every indecomposable A-module, knitted from the projectives, or None
    when the knitting does not close within dim_bound.

    The knitted modules are the tau^-1-orbits of the indecomposable
    projectives, up to isomorphism; an orbit ends at an injective, whose
    tau^-1 is 0.  The knitting closes when every module has total dimension
    at most dim_bound, no orbit meets a module already knitted, and every
    indecomposable summand of every rad P is knitted.  Then the set is closed
    under tau, tau^-1 and irreducible maps: the predecessors of P are the
    summands of rad P; those of tau^-1 Z are the successors of Z, each
    projective or tau^-1 of a predecessor of Z; and a successor of X is
    projective or tau^-1 of a predecessor of X.  So it is a finite union of
    components of the Auslander-Reiten quiver meeting every block of A,
    which is all of ind A (Auslander, Comm. Algebra 1, 1974)."""
    knitted = []

    def known(m):
        return any(rep.iso_of_indecomposables(m, k) is not None
                   for k in knitted)

    for v in alg.quiver.vertices:
        m = rep.projective(alg, v)
        while m.total_dim:
            if m.total_dim > dim_bound or known(m):
                return None
            knitted.append(m)
            m = tau_inverse(m)
    for v in alg.quiver.vertices:
        rad, _ = rep.radical_submodule(rep.projective(alg, v))
        if not all(known(s) for s, _, _ in rep.decompose_with_maps(rad)):
            return None
    return sorted(knitted, key=lambda m: (m.total_dim, m.encode()))


def _summand_offsets(alg: BoundQuiverAlgebra, verts: list) -> list:
    """For each summand of the direct sum of the P(v), v in verts, its
    offset at every vertex."""
    out, acc = [], dict.fromkeys(alg.quiver.vertices, 0)
    for v in verts:
        out.append(dict(acc))
        for u, paths in rep.projective_structure(alg, v)[1].items():
            acc[u] += len(paths)
    return out
