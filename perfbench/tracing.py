"""Spans and counters around tiltlab's public functions, from outside it.

install() wraps each function named below in its defining module and in
every tiltlab module that imported it by name; methods are wrapped on their
class.  A span is (name, start, end, parent); spans stay in memory until the
query ends.  A function's self time is its span minus its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# module -> functions (or Class.method) that get a span: calls and self_s
SPANNED = {
    "cli": ["parse_workspace"],
    "algebra": ["build_algebra"],
    "gf": ["rref"],
    "rep": ["hom_space", "decompose_with_maps", "is_isomorphic",
            "is_indecomposable", "enumerate_indecomposable_modules"],
    "homology": ["projective_cover", "minimal_projective_resolution",
                 "global_dimension", "endomorphism_algebra", "ext_dim",
                 "ext_as_b_module", "tor_over_b"],
    "tilting": ["check_classical_tilting", "torsion_radical",
                "enumerate_submodules", "lo_filtration", "static_filtration",
                "jms_filtration"],
    "derived": ["enumerate_indecomposable_complexes", "projective_replacement",
                "minimize_complex", "decompose_complex",
                "is_derived_isomorphic", "chain_maps", "hom_homotopy",
                "is_indecomposable_complex"],
    "tstructures": ["DerivedWorkbench.t_tree",
                    "DerivedWorkbench.torsion_decompose_in_heart",
                    "DerivedWorkbench.in_additive_closure",
                    "DerivedWorkbench.heart_members",
                    "DerivedWorkbench.verify_structural_claims"],
}
# module -> functions whose calls are only counted (too hot for a span)
COUNTED = {
    "gf": ["asmat", "mul"],
    "tstructures": ["GeneratedTStructure.in_aisle",
                    "GeneratedTStructure.in_coaisle"],
}
ENUMERATE = "derived.enumerate_indecomposable_complexes"
CANDIDATE = "derived.is_indecomposable_complex"


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for mod, funcs in SPANNED.items():
        for f in funcs:
            names += [f"{mod}.{f}.calls", f"{mod}.{f}.self_s"]
    for mod, funcs in COUNTED.items():
        names += [f"{mod}.{f}.calls" for f in funcs]
    return names + ["rep.hom_space.basis_total", "rep.all_maps.yielded",
                    "rep.ModuleMap.created",
                    "derived.enumerate.found_per_candidate",
                    "trace.pass_s", "trace.overhead_s"]


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_per_candidate") else "count"


class Tracer:
    def __init__(self):
        self.names = []          # span name table
        self.spans = []          # [name index, start, end, parent index]
        self.stack = []
        self.counts = {}

    def _span(self, name: str, fn, extra=None):
        key = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [key, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if extra is not None:
                extra(out)
            return out
        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _add(self, name: str, amount) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def install(self) -> None:
        import tiltlab.cli  # noqa: F401  (loads every layer)
        mods = {name[len("tiltlab."):]: m for name, m in sys.modules.items()
                if name.startswith("tiltlab.")}
        extras = {
            "rep.hom_space": lambda out: self._add(
                "rep.hom_space.basis_total", len(out)),
            ENUMERATE: lambda out: self._add("derived.enumerate.found",
                                             len(out)),
        }
        for mod, funcs in SPANNED.items():
            for qual in funcs:
                name = f"{mod}.{qual}"
                _replace(mods, mods[mod], qual,
                         lambda f: self._span(name, f, extras.get(name)))
        for mod, funcs in COUNTED.items():
            for qual in funcs:
                name = f"{mod}.{qual}.calls"
                _replace(mods, mods[mod], qual, lambda f: self._count(name, f))
        for name in ("rep.hom_space.basis_total", "rep.all_maps.yielded",
                     "derived.enumerate.found"):
            self.counts[name] = 0
        rep = mods["rep"]
        _replace(mods, rep, "all_maps", self._yield_counter)
        rep.ModuleMap.__init__ = self._count("rep.ModuleMap.created",
                                             rep.ModuleMap.__init__)

    def _yield_counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts["rep.all_maps.yielded"] += 1
                yield item
        return wrapper

    def summary(self) -> dict:
        """calls and self_s of every spanned function, the counters, and
        the enumeration's candidates (is_indecomposable_complex calls made
        directly by enumerate_indecomposable_complexes)."""
        n = len(self.names)
        calls = [0] * n
        own = [0.0] * n
        enum_key = self.names.index(ENUMERATE)
        cand_key = self.names.index(CANDIDATE)
        candidates = 0
        for key, start, end, parent in self.spans:
            calls[key] += 1
            own[key] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
                if key == cand_key and self.spans[parent][0] == enum_key:
                    candidates += 1
        out = dict(self.counts)
        for key, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[key]
            out[f"{name}.self_s"] = own[key]
        out["derived.enumerate.candidates"] = candidates
        return out

    def write(self, path: str, label: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"query": label, "names": self.names,
                                 "spans": self.spans}) + "\n")


def _replace(mods: dict, owner, qual: str, make) -> None:
    """Wrap owner.qual, and every module attribute bound to the same
    function object, with make(original)."""
    if "." in qual:
        cls_name, meth = qual.split(".")
        cls = getattr(owner, cls_name)
        setattr(cls, meth, make(cls.__dict__[meth]))
        return
    orig = getattr(owner, qual)
    wrapped = make(orig)
    for m in mods.values():
        for attr, val in list(vars(m).items()):
            if val is orig:
                setattr(m, attr, wrapped)
