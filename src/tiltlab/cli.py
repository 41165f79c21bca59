"""Command-line front end: workspace files, subcommands, reports.

Exit codes: 0 success, 2 mathematical refusal (the input is fine but the
requested structure does not exist), 1 any other failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import algebra as algebra_mod
from . import derived, rep, tilting, tstructures
from .errors import (MalformedRelation, MathRefusal, NonAdmissible,
                     ParseError, TiltlabError, ValidationError)
from .homology import (ext_as_b_module, projective_dimension,
                       t_as_right_module, tor_dims)

FORMAT_HEADER = "tiltlab-format 1"


class Workspace:
    """A parsed input file: one algebra, named modules, named complexes."""

    def __init__(self, algebra, modules: dict, complexes: dict):
        self.algebra = algebra
        self.modules = dict(modules)
        self.modules.setdefault("0", rep.zero_module(algebra))
        self.complexes = complexes

    def module(self, name: str) -> rep.Module:
        if name not in self.modules:
            raise ValidationError(f"no module named {name!r} in workspace")
        return self.modules[name]


def _parse_matrix(text: str, line_no: int):
    try:
        mat = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(line_no, 1, f"bad matrix literal: {exc}")
    if not isinstance(mat, list) or not all(isinstance(r, list) for r in mat):
        raise ParseError(line_no, 1, "matrix must be a list of rows")
    return mat


def parse_workspace(path: str, field: int = None) -> Workspace:
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.readlines()
    lines = []
    for i, text in enumerate(raw, start=1):
        stripped = text.strip()
        if stripped and not stripped.startswith("#"):
            lines.append((i, stripped))
    if not lines:
        raise ParseError(1, 1, "empty workspace file (missing format header)")
    if lines[0][1] != FORMAT_HEADER:
        raise ParseError(lines[0][0], 1,
                         f"expected header {FORMAT_HEADER!r}")

    blocks = []
    current = None
    for line_no, text in lines[1:]:
        if text.startswith("[") and text.endswith("]"):
            current = (text[1:-1].split(), [])
            blocks.append(current)
            continue
        if current is None:
            raise ParseError(line_no, 1, "statement outside any block")
        current[1].append((line_no, text))

    alg = None
    vertices, arrows, relations, p = [], [], [], 2
    module_blocks, complex_blocks = [], []
    for (head, body) in blocks:
        if head == ["algebra"]:
            for line_no, text in body:
                parts = text.split()
                if parts[0] == "vertices":
                    vertices = [int(v) for v in parts[1:]]
                elif parts[0] == "field":
                    p = int(parts[1])
                elif parts[0] == "arrow":
                    # arrow a: 1 -> 2
                    rest = text[len("arrow"):].strip()
                    try:
                        name, spec = rest.split(":")
                        src, tgt = spec.split("->")
                        arrows.append((name.strip(), int(src), int(tgt)))
                    except ValueError:
                        raise ParseError(line_no, 1,
                                         "expected 'arrow name: s -> t'")
                elif parts[0] == "relation":
                    relations.append((line_no,
                                      text[len("relation"):].strip()))
                else:
                    raise ParseError(
                        line_no, 1,
                        f"unknown algebra statement {parts[0]!r}")
        elif head[0] == "module" and len(head) == 2:
            module_blocks.append((head[1], body))
        elif head[0] == "complex" and len(head) == 2:
            complex_blocks.append((head[1], body))
        else:
            raise ParseError(0, 1, f"unknown block [{' '.join(head)}]")

    if field is not None:
        p = field
    if not vertices:
        raise ParseError(0, 1, "workspace has no [algebra] block with vertices")
    quiver = algebra_mod.make_quiver(vertices, arrows)
    try:
        alg = algebra_mod.build_algebra(quiver, [r for _, r in relations], p)
    except (NonAdmissible, MalformedRelation) as exc:
        raise ValidationError(f"bad relation set: {exc}")

    modules = {}
    seen = set()
    for name, body in module_blocks:
        if name in seen:
            raise ValidationError(f"duplicate module name {name!r}")
        seen.add(name)
        dims, action = {}, {}
        for line_no, text in body:
            parts = text.split(None, 2)
            if parts[0] == "dims":
                for piece in text.split()[1:]:
                    v, d = piece.split(":")
                    dims[int(v)] = int(d)
            elif parts[0] == "map":
                if len(parts) < 3:
                    raise ParseError(line_no, 1,
                                     "expected 'map arrow [[...]]'")
                action[parts[1]] = _parse_matrix(parts[2], line_no)
            else:
                raise ParseError(
                    line_no, 1,
                    f"unknown module statement {parts[0]!r}")
        try:
            modules[name] = rep.check_module(alg, dims, action)
        except TiltlabError as exc:
            raise ValidationError(f"module {name!r}: {exc}")

    complexes = {}
    for name, body in complex_blocks:
        if name in seen:
            raise ValidationError(f"duplicate object name {name!r}")
        seen.add(name)
        terms, diff_blocks = {}, {}
        for line_no, text in body:
            parts = text.split(None, 3)
            if parts[0] == "term" and len(parts) == 3:
                terms[int(parts[1])] = parts[2]
            elif parts[0] == "diff" and len(parts) == 4:
                diff_blocks.setdefault(int(parts[1]), {})[int(parts[2])] = \
                    _parse_matrix(parts[3], line_no)
            else:
                raise ParseError(
                    line_no, 1,
                    f"unknown complex statement {parts[0]!r}")
        term_mods = {}
        for deg, mod_name in terms.items():
            if mod_name not in modules:
                raise ValidationError(
                    f"complex {name!r}: unknown module {mod_name!r}")
            term_mods[deg] = modules[mod_name]
        diffs = {}
        for deg, vmats in diff_blocks.items():
            if deg not in term_mods or deg + 1 not in term_mods:
                raise ValidationError(
                    f"complex {name!r}: differential at degree {deg} has "
                    f"no endpoints")
            blocks = {v: vmats.get(v, [[]]) for v in alg.quiver.vertices}
            try:
                diffs[deg] = rep.ModuleMap(term_mods[deg],
                                           term_mods[deg + 1],
                                           {v: blocks[v] for v in vmats})
            except TiltlabError as exc:
                raise ValidationError(f"complex {name!r}: {exc}")
        try:
            complexes[name] = derived.Complex(alg, term_mods, diffs)
        except (ValueError, TiltlabError) as exc:
            raise ValidationError(f"complex {name!r}: {exc}")
    return Workspace(alg, modules, complexes)


def _matrix_text(m) -> str:
    return json.dumps([[int(x) for x in row] for row in m.tolist()],
                      separators=(",", ","))


def serialize_workspace(ws: Workspace) -> str:
    """Canonical text form; parse_workspace reproduces isomorphic objects."""
    alg = ws.algebra
    lines = [FORMAT_HEADER, "", "[algebra]",
             "vertices " + " ".join(str(v) for v in alg.quiver.vertices),
             f"field {alg.p}"]
    for a in alg.quiver.arrows:
        lines.append(f"arrow {a.name}: {a.source} -> {a.target}")
    for coeffs in alg.relations:
        parts = []
        for c, path in coeffs if isinstance(coeffs, list) else [(1, coeffs)]:
            term = "*".join(path.arrows)
            parts.append(term if c == 1 else f"{c} {term}")
        lines.append("relation " + " + ".join(parts))
    for name in sorted(ws.modules):
        m = ws.modules[name]
        if name == "0" and m.total_dim == 0:
            continue
        lines += ["", f"[module {name}]",
                  "dims " + " ".join(f"{v}:{m.dims[v]}"
                                     for v in alg.quiver.vertices)]
        for a in alg.quiver.arrows:
            blk = m.action[a.name]
            if blk.shape[0] and blk.shape[1]:
                lines.append(f"map {a.name} {_matrix_text(blk)}")
    for name in sorted(ws.complexes):
        c = ws.complexes[name]
        lines += ["", f"[complex {name}]"]
        term_names = {}
        for deg in c.support:
            hit = None
            for mod_name in sorted(ws.modules):
                if ws.modules[mod_name].encode() == c.terms[deg].encode():
                    hit = mod_name
                    break
            if hit is None:
                raise ValidationError(
                    f"complex {name!r} uses an unnamed module at degree "
                    f"{deg}")
            term_names[deg] = hit
            lines.append(f"term {deg} {hit}")
        for deg, d in sorted(c.diffs.items()):
            for v in alg.quiver.vertices:
                blk = d.blocks[v]
                if blk.shape[0] and blk.shape[1]:
                    lines.append(f"diff {deg} {v} {_matrix_text(blk)}")
    return "\n".join(lines) + "\n"


# -- report plumbing -------------------------------------------------------------

def _profile_str(c: derived.Complex) -> str:
    prof = derived.cohomology_profile(c)
    if not prof:
        return "0"
    return " ".join(f"H^{n}={list(prof[n])}" for n in sorted(prof))


def _emit(report: dict, fmt: str, out) -> None:
    if fmt == "machine":
        out.write(json.dumps(report, sort_keys=True) + "\n")
        return
    for line in report["lines"]:
        out.write(line + "\n")


def _context(ws: Workspace, args) -> tilting.TiltingContext:
    t = ws.module(args.tilting)
    n = args.n if args.n is not None else projective_dimension(t)
    return tilting.TiltingContext(t, n, dim_bound=args.dim_bound,
                                  cap=args.search_cap)


def _workbench(ws, args, ctx=None):
    ctx = ctx or _context(ws, args)
    return tstructures.DerivedWorkbench(ctx, width_bound=args.width_bound)


def cmd_check_tilting(ws, args):
    ctx = _context(ws, args)
    cert = ctx.certificate
    res = [[list(s.dim_vector()) for s, m in
            rep.decompose(term) for _ in range(m)]
           for term in cert.resolution_terms]
    cores = [[list(s.dim_vector()) for s, m in
              rep.decompose(term) for _ in range(m)]
             for term in cert.coresolution_terms]
    lines = [f"tilting: yes (n = {cert.n})"]
    lines.append("projective resolution terms (summand dimension vectors):")
    for i, term in enumerate(res):
        lines.append(f"  P_{i}: {term}")
    lines.append("coresolution of the algebra by add(T):")
    for i, term in enumerate(cores):
        lines.append(f"  T_{i}: {term}")
    return {"lines": lines, "tilting": True, "n": cert.n,
            "resolution": res, "coresolution": cores}


def cmd_miyashita(ws, args):
    m = ws.module(args.module)
    ctx = _context(ws, args)
    cls = tilting.miyashita_class(ctx.t, m, ctx.n)
    zero = m.total_dim == 0
    if cls is None:
        lines = [f"module {args.module}: no single class "
                 f"(Ext spread over several degrees)"]
    else:
        flag = " (zero module)" if zero else ""
        lines = [f"module {args.module}: class {cls}{flag}"]
    return {"lines": lines, "module": args.module, "class": cls,
            "zero": zero}


def cmd_filtration(ws, args):
    m = ws.module(args.module)
    ctx = _context(ws, args)
    method = {"static": tilting.static_filtration,
              "jms": tilting.jms_filtration,
              "lo": tilting.lo_filtration}[args.method]
    filt = method(ctx, m)
    chain = [list(inc.source.dim_vector()) for inc in filt.inclusions]
    factors = [list(f.dim_vector()) for f in filt.factors]
    lines = [f"{args.method} filtration of {args.module}:"]
    lines.append("  chain: " + " <= ".join(str(c) for c in chain))
    for lab, f in zip(filt.labels, factors):
        lines.append(f"  factor {lab}: {f}")
    return {"lines": lines, "chain": chain, "factors": factors,
            "labels": list(filt.labels)}


def cmd_ext_table(ws, args):
    ctx = _context(ws, args)
    from .homology import ext_dim
    rows = {}
    names = sorted(ws.modules)
    lines = [f"dim Ext^i(T, M) for i = 0..{ctx.n}:"]
    for name in names:
        row = [ext_dim(ctx.t, ws.modules[name], i)
               for i in range(ctx.n + 1)]
        rows[name] = row
        lines.append(f"  {name}: {row}")
    return {"lines": lines, "table": rows}


def cmd_tor_table(ws, args):
    ctx = _context(ws, args)
    names = sorted(ws.modules)
    rows = {}
    lines = [f"dim Tor_i^B(T, Ext^j(T, M)) as [i][j], i, j = 0..{ctx.n}:"]
    for name in names:
        m = ws.modules[name]
        tors = [tor_dims(ctx.data, ext_as_b_module(ctx.data, m, j))
                for j in range(ctx.n + 1)]
        grid = [[sum(t[i]) if i < len(t) else 0 for t in tors]
                for i in range(ctx.n + 1)]
        rows[name] = grid
        lines.append(f"  {name}: {grid}")
    return {"lines": lines, "table": rows}


def cmd_bside(ws, args):
    ctx = _context(ws, args)
    b = ctx.data.b
    arrows = sorted((a.name, a.source, a.target) for a in b.quiver.arrows)
    tb = t_as_right_module(ctx.data)
    summands = sorted(list(s.dim_vector())
                      for s, mult in rep.decompose(tb)
                      for _ in range(mult))
    lines = [f"End(T) quiver: vertices {b.quiver.vertices}"]
    for name, s, t in arrows:
        lines.append(f"  arrow {name}: {s} -> {t}")
    lines.append(f"  relations: {len(b.relations)}")
    lines.append(f"T as a module over End(T)^op: summand dims {summands}")
    return {"lines": lines, "vertices": list(b.quiver.vertices),
            "arrows": arrows, "relation_count": len(b.relations),
            "t_b_summands": summands}


def cmd_derived_indec(ws, args):
    objs = derived.enumerate_indecomposable_complexes(
        ws.algebra, args.width_bound, args.dim_bound, args.search_cap)
    lines = [f"indecomposable complexes up to shift "
             f"(width <= {args.width_bound}, dim <= {args.dim_bound}): "
             f"{len(objs)}"]
    profs = []
    for o in objs:
        lines.append("  " + _profile_str(o))
        profs.append({str(n): list(h) for n, h
                      in derived.cohomology_profile(o).items()})
    return {"lines": lines, "count": len(objs), "profiles": profs}


def cmd_hearts(ws, args):
    wb = _workbench(ws, args)
    lines, data = [], {}
    for i in range(wb.n + 1):
        members = [_profile_str(h) for h in wb.heart(i)]
        suffix = " (tilting heart)" if i == wb.n else ""
        lines.append(f"H_{i}{suffix}:")
        lines.extend(f"  {m}" for m in members)
        data[str(i)] = members
    return {"lines": lines, "hearts": data}


def cmd_torsion_pairs(ws, args):
    wb = _workbench(ws, args)
    lines, data = [], {}
    for i in range(wb.n):
        xk, yk = wb.heart_torsion_pair(i)
        xs = [_profile_str(wb.member(k)) for k in xk]
        ys = [_profile_str(wb.member(k)) for k in yk]
        lines.append(f"(X_{i}, Y_{i}):")
        lines.append("  X: " + "; ".join(xs))
        lines.append("  Y: " + "; ".join(ys))
        data[str(i)] = {"X": xs, "Y": ys}
    return {"lines": lines, "pairs": data}


def cmd_ttree(ws, args):
    ctx = _context(ws, args)
    wb = _workbench(ws, args, ctx)
    tree = wb.t_tree(ws.module(args.module))
    lines = [f"t-tree of {args.module}:"]
    lines.extend(tree.render().splitlines())
    nodes = {"".join(map(str, pos)): _profile_str(obj)
             for pos, obj in sorted(tree.nodes.items(),
                                    key=lambda kv: (len(kv[0]), kv[0]))}
    return {"lines": lines, "nodes": nodes}


def cmd_verify(ws, args):
    wb = _workbench(ws, args)
    report = wb.verify_structural_claims()
    lines, data, ok_all = [], {}, True
    for name in sorted(report):
        ok, detail = report[name]
        ok_all = ok_all and ok
        lines.append(f"{name}: {'ok' if ok else 'FAIL'} ({detail})")
        data[name] = {"ok": ok, "detail": detail}
    if not ok_all:
        raise MathRefusal("structural verification found violations")
    return {"lines": lines, "checks": data}


COMMANDS = {
    "check-tilting": cmd_check_tilting,
    "miyashita": cmd_miyashita,
    "filtration": cmd_filtration,
    "ext-table": cmd_ext_table,
    "tor-table": cmd_tor_table,
    "bside": cmd_bside,
    "derived-indec": cmd_derived_indec,
    "hearts": cmd_hearts,
    "torsion-pairs": cmd_torsion_pairs,
    "ttree": cmd_ttree,
    "verify": cmd_verify,
}


def build_parser(command: str = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of command alone when it names
    one; the usage line lists every subcommand either way."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("workspace", help="path to a tiltlab workspace file")
    common.add_argument("--tilting", default="T",
                        help="name of the tilting module (default T)")
    common.add_argument("--n", type=int, default=None,
                        help="tilting degree (default: proj. dimension)")
    common.add_argument("--field", type=int, default=None,
                        help="override the workspace field characteristic")
    common.add_argument("--dim-bound", type=int, default=4)
    common.add_argument("--width-bound", type=int, default=2)
    common.add_argument("--search-cap", type=int, default=rep.END_ENUM_CAP)
    common.add_argument("--format", choices=("text", "machine"),
                        default="text")

    parser = argparse.ArgumentParser(
        prog="tiltlab",
        description="exact tilting-theory workbench over prime fields")
    sub = parser.add_subparsers(dest="command", required=True)
    names = [command] if command in COMMANDS else list(COMMANDS)
    if len(names) == 1:
        sub.metavar = "{" + ",".join(COMMANDS) + "}"
    for name in names:
        p = sub.add_parser(name, parents=[common])
        if name in ("miyashita", "filtration", "ttree"):
            p.add_argument("--module", required=True,
                           help="name of a workspace module")
        if name == "filtration":
            p.add_argument("--method", choices=("static", "jms", "lo"),
                           default="static")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        ws = parse_workspace(args.workspace, field=args.field)
        report = COMMANDS[args.command](ws, args)
    except MathRefusal as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return 2
    except (TiltlabError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    try:
        _emit(report, args.format, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; what stdout still buffers goes to devnull, so
        # that its flush at exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
