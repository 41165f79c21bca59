"""One fresh interpreter of the benchmark: `python3 child.py '<request json>'`.

Modes:
  setup    import tiltlab.cli and parse every workspace (timed by the caller)
  cli      run one CLI command in machine format, as at the shell
  session  build TiltingContext and DerivedWorkbench once, then ask the
           library questions one after another

Each query is timed here, after import, with gc.collect() before it.  The
last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time


def timed(fn):
    gc.collect()
    w0, c0 = time.perf_counter(), time.process_time()
    out = fn()
    c1, w1 = time.process_time(), time.perf_counter()
    return out, {"wall": w1 - w0, "cpu": c1 - c0}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cli(req: dict) -> dict:
    from tiltlab import cli
    buf = io.StringIO()

    def query():
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(req["argv"] + ["--format", "machine"])

    code, times = timed(query)
    report = json.loads(buf.getvalue()) if code == 0 else None
    return {"queries": [dict(times, name=req["name"], exit=code,
                             report=report)]}


def run_session(req: dict) -> dict:
    from tiltlab import cli, derived, tilting, tstructures
    from tiltlab.errors import TiltlabError
    queries = []
    state = {}

    def _profile(x) -> dict:
        return {str(n): list(h)
                for n, h in derived.cohomology_profile(x).items()}

    def ask(name, fn):
        try:
            out, times = timed(fn)
        except TiltlabError as exc:
            out, times = None, {"wall": 0.0, "cpu": 0.0, "error": str(exc)}
        queries.append(dict(times, name=name, exit=0 if out is not None else 1,
                            report=out))

    def build():
        ws = cli.parse_workspace(req["workspace"])
        t = ws.module("T")
        ctx = tilting.TiltingContext(t, req["n"])
        state.update(ws=ws, ctx=ctx, wb=tstructures.DerivedWorkbench(ctx))
        return {"indecomposables": [list(m.dim_vector())
                                    for m in ctx.indecomposables],
                "universe": [_profile(x) for x in state["wb"].universe]}

    def hearts():
        wb = state["wb"]
        out = {"hearts": [], "pairs": []}
        for i in range(wb.n + 1):
            out["hearts"].append([[list(k), _profile(wb.member(k))]
                                  for k in wb.heart_members(i)])
        for i in range(wb.n):
            xk, yk = wb.heart_torsion_pair(i)
            out["pairs"].append({"X": [list(k) for k in xk],
                                 "Y": [list(k) for k in yk]})
        return out

    def ttree(name):
        tree = state["wb"].t_tree(state["ws"].module(name))
        return {"depth": tree.depth,
                "leaves": [[list(pos), _profile(leaf)]
                           for pos, leaf in sorted(tree.leaves().items())]}

    def verify():
        return {k: [bool(ok), detail] for k, (ok, detail)
                in state["wb"].verify_structural_claims().items()}

    def ke_membership():
        ctx = state["ctx"]
        return {name: [tilting.ke_membership_via_aisle(
                    ctx, state["ws"].module(name), e)
                    for e in range(ctx.n + 1)]
                for name in req["ke"]}

    ask("build", build)
    ask("hearts", hearts)
    for name in req["ttree"]:
        ask(f"ttree {name}", lambda: ttree(name))
    ask("verify", verify)
    ask("ke_membership", ke_membership)
    return {"queries": queries}


def main() -> int:
    req = json.loads(sys.argv[1])
    if req["mode"] == "setup":
        from tiltlab import cli
        for path, field in req["workspaces"]:
            cli.parse_workspace(path, field=field)
        print(json.dumps({}))
        return 0
    tracer = None
    if req.get("trace_file"):
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    out = (run_cli if req["mode"] == "cli" else run_session)(req)
    out["rss_mb"] = peak_rss_mb()
    if tracer is not None:
        out["trace"] = tracer.summary()
        tracer.write(req["trace_file"], req["name"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
