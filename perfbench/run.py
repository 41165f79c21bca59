"""tiltlab benchmark: python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1, from the root of a source checkout.

Workloads (see README.md for why each is there):
  modules  module-side CLI commands on four seeded workspaces
  derived  derived-indec on three algebras
  session  one library session per algebra: hearts, t-trees, verify

Every query runs in a fresh interpreter started from here, one at a time,
and is timed inside that interpreter after import.  A pass runs every query
of the workload once; the run repeats whole passes while the next one fits
in --seconds (at least one) and reports the median pass.  Every answer is
checked against perfbench/oracle.py.  The last line of output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 7
REPEATS = 2           # a query's figure is the least of this many repeats
CHILD_TIMEOUT_S = 170
OUT_DIR = ".perfbench"


class Job:
    """One interpreter: a CLI command, or a whole library session."""

    def __init__(self, name: str, request: dict, check, exits=(0,)):
        self.name = name
        self.request = dict(request, name=name)
        self.check = check        # query results -> list of problems
        self.exits = exits        # exit codes that are right answers
        # queries asked: build, hearts, the t-trees, verify, ke_membership
        self.size = (len(request["ttree"]) + 4
                     if request["mode"] == "session" else 1)


class Plan:
    def __init__(self):
        self.jobs: list[Job] = []
        self.setup: list = []     # [workspace path, field] to parse
        self.cross = []           # pass results by job name -> problems


def _cli_jobs(plan: Plan, f: checks.Facts, field) -> None:
    alg, path = f.alg, f.ws.path
    extra = ["--field", str(field)] if field else []

    def cli(label, command, argv=(), check=None, exits=(0,)):
        plan.jobs.append(Job(f"{alg.name} {label}",
                             {"mode": "cli",
                              "argv": [command, path, *extra, *argv]},
                             lambda res: check(res[0]["report"]), exits))

    cli("check-tilting", "check-tilting",
        check=lambda r: checks.check_tilting(f, r))
    cli("ext-table", "ext-table", check=lambda r: checks.ext_table(f, r))
    cli("tor-table", "tor-table", check=lambda r: checks.tor_table(f, r))
    cli("bside", "bside", check=lambda r: checks.bside(f, r))
    methods = ["lo", "static"] + (["jms"] if alg.n == 2 else [])
    # one random module per workspace keeps the pass within the time the
    # benchmark has; the tables above cover every module
    for name in f.ws.randoms[1:2]:
        cli(f"miyashita {name}", "miyashita", ["--module", name],
            lambda r, name=name: checks.miyashita(f, name, r))
        for method in methods:
            # n >= 2: a module that is not sequentially static is refused
            exits = (0, 2) if method == "static" and alg.n >= 2 else (0,)
            cli(f"filtration {method} {name}", "filtration",
                ["--module", name, "--method", method],
                lambda r, name=name, method=method:
                    checks.filtration(f, name, method, r) if r else [],
                exits)
        plan.cross.append(lambda res, name=name: _same_chains(
            f"{alg.name} filtration", name, res, methods))
    if alg is gen.RUNNING:
        # acceptance criterion 4: the simple module 2 has no static filtration
        cli("filtration static 2", "filtration",
            ["--module", "2", "--method", "static"], lambda r: [], (2,))


def _same_chains(prefix: str, name: str, res: dict, methods) -> list[str]:
    """lo = jms, and lo = static where static exists; queries that failed
    are counted as failures and not compared."""
    reports = {m: res.get(f"{prefix} {m} {name}", [{"report": None}])[0]
               ["report"] for m in methods}
    if not reports["lo"]:
        return []
    bad = []
    if reports.get("jms"):
        bad += checks.same_chain(name, reports["lo"], reports["jms"],
                                 "lo and jms filtrations")
    if reports["static"]:
        bad += checks.same_chain(name, reports["lo"], reports["static"],
                                 "lo and static filtrations")
    return bad


def modules_plan(rng: random.Random, work: str) -> Plan:
    plan = Plan()
    for alg in (gen.RUNNING, gen.RUNNING_F3, gen.A4_DA, gen.A3_APR):
        ws = gen.write_workspace(alg, os.path.join(work, f"{alg.name}.tilt"),
                                 gen.random_modules(alg, rng))
        field = 3 if alg is gen.RUNNING_F3 else None
        plan.setup.append([ws.path, field])
        _cli_jobs(plan, checks.Facts(ws), field)
    return plan


def derived_plan(rng: random.Random, work: str) -> Plan:
    plan = Plan()
    for alg, exact in ((gen.RUNNING, 6), (gen.A3_APR, 6), (gen.A4_DA, None)):
        ws = gen.write_workspace(alg, os.path.join(work, f"{alg.name}.tilt"),
                                 gen.random_modules(alg, rng))
        f = checks.Facts(ws)
        plan.setup.append([ws.path, None])
        plan.jobs.append(Job(
            f"{alg.name} derived-indec",
            {"mode": "cli", "argv": ["derived-indec", ws.path, "--width-bound",
                                     "2", "--dim-bound", "4"]},
            lambda res, f=f, exact=exact: checks.derived_objects(
                f, res[0]["report"]["profiles"], exact)))
    return plan


def session_plan(rng: random.Random, work: str) -> Plan:
    plan = Plan()
    for alg in (gen.RUNNING, gen.A3_APR):
        ivs = oracle.intervals(alg.quiver)
        names = [gen.interval_name(alg, iv) for iv in ivs]
        doubles = [gen.interval_sum(alg, f"{n}x2", [iv, iv], rng)
                   for n, iv in zip(names, ivs)]
        pairs = [m for m in gen.random_modules(alg, rng)
                 if len(m.summands) == 2]
        ws = gen.write_workspace(alg, os.path.join(work, f"{alg.name}.tilt"),
                                 doubles + pairs)
        f = checks.Facts(ws)
        plan.setup.append([ws.path, None])
        trees = names + [m.name for m in doubles + pairs]
        plan.jobs.append(Job(
            f"{alg.name} session",
            {"mode": "session", "workspace": ws.path, "n": alg.n,
             "ttree": trees, "ke": sorted(ws.modules)},
            lambda res, f=f, trees=trees: _session_check(f, trees, res)))
    return plan


def _session_check(f: checks.Facts, trees, res) -> list[str]:
    by_name = {q["name"]: q["report"] for q in res}
    build = by_name["build"]
    bad = checks.modules_found(f, build["indecomposables"])
    bad += checks.derived_objects(f, build["universe"], 6)
    bad += checks.hearts(f, by_name["hearts"])
    for name in trees:
        bad += checks.t_tree(f, name, by_name[f"ttree {name}"])
    bad += checks.verify(by_name["verify"])
    bad += checks.ke_membership(f, by_name["ke_membership"])
    return bad


PLANS = {"modules": modules_plan, "derived": derived_plan,
         "session": session_plan}


# -- running ------------------------------------------------------------------

def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), HERE]),
               PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(request: dict, env: dict):
    """Run child.py in a fresh interpreter; returns (result or None, wall)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"),
             json.dumps(request)],
            capture_output=True, text=True, env=env,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - t0
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(f"{request.get('name', request['mode'])}: "
                         f"{proc.stderr.strip()[-2000:]}\n")
        return None, wall
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def measure_setup(plan: Plan, env: dict) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        out, wall = run_child({"mode": "setup", "workspaces": plan.setup},
                              env)
        if out is None:
            raise RuntimeError("set-up failed: tiltlab does not import or "
                               "a workspace does not parse")
        times.append(wall)
    return statistics.median(times)


def run_pass(plan: Plan, env: dict, repeats: int = 1,
             trace_file=None) -> dict:
    """Every job, `repeats` times over in turn.  A query's figures are the
    least of its repeats; every repeat is checked and counted."""
    stats = {"rss": 0.0, "attempted": 0, "failures": [], "problems": [],
             "trace": {}}
    best = {}     # (job, query) -> [cpu, wall]
    for _ in range(repeats):
        results = {}
        for job in plan.jobs:
            out, _ = run_child(dict(job.request, trace_file=trace_file), env)
            if out is None:
                stats["attempted"] += job.size
                stats["failures"] += [f"{job.name}: interpreter failed"
                                      ] * job.size
                continue
            queries = results[job.name] = out["queries"]
            stats["rss"] = max(stats["rss"], out["rss_mb"])
            for k, v in out.get("trace", {}).items():
                stats["trace"][k] = stats["trace"].get(k, 0) + v
            ok = True
            for q in queries:
                stats["attempted"] += 1
                b = best.setdefault((job.name, q["name"]),
                                    [q["cpu"], q["wall"]])
                b[0], b[1] = min(b[0], q["cpu"]), min(b[1], q["wall"])
                if q["exit"] not in job.exits:
                    ok = False
                    where = (job.name if q["name"] == job.name
                             else f"{job.name} {q['name']}")
                    stats["failures"].append(
                        f"{where}: exit {q['exit']} {q.get('error', '')}"
                        .rstrip())
            if ok:
                stats["problems"] += [f"{job.name}: {p}"
                                      for p in job.check(queries)]
        for cross in plan.cross:
            stats["problems"] += cross(results)
    stats["cpu"] = sum(b[0] for b in best.values())
    stats["wall"] = sum(b[1] for b in best.values())
    stats["max"] = max((b[1] for b in best.values()), default=0.0)
    return stats


def per_layer(traced: dict, plain: dict) -> dict:
    agg = dict(traced["trace"])
    cands = agg.get("derived.enumerate.candidates", 0)
    agg["derived.enumerate.found_per_candidate"] = (
        agg.get("derived.enumerate.found", 0) / cands if cands else 0.0)
    agg["trace.pass_s"] = traced["wall"]
    agg["trace.overhead_s"] = traced["wall"] - plain["wall"]
    return {name: {"value": agg.get(name, 0), "unit": tracing.unit(name)}
            for name in tracing.metric_names()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(PLANS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tiltlab", "cli.py")):
        sys.stderr.write("run from the root of a tiltlab checkout: "
                         "src/tiltlab/cli.py not found\n")
        return 2
    out_dir = os.path.join(root, OUT_DIR)
    work = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        plan = PLANS[args.workload](random.Random(args.seed), work)
        env = child_env(root)
        passes = []
        if args.trace:
            trace_file = os.path.join(
                out_dir, f"trace-{args.workload}-{args.seed}.jsonl")
            if os.path.exists(trace_file):
                os.remove(trace_file)
            passes = [run_pass(plan, env),
                      run_pass(plan, env, trace_file=trace_file)]
            metrics = per_layer(passes[1], passes[0])
        else:
            setup_s = measure_setup(plan, env)
            start = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                passes.append(run_pass(plan, env, REPEATS))
                last = time.perf_counter() - t0
                if time.perf_counter() - start + last > args.seconds:
                    break
            med = {k: statistics.median(p[k] for p in passes)
                   for k in ("cpu", "wall", "max", "rss")}
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "pass_cpu_s": {"value": med["cpu"], "unit": "s"},
                "pass_s": {"value": med["wall"], "unit": "s"},
                "max_query_s": {"value": med["max"], "unit": "s"},
                "peak_rss_mb": {"value": med["rss"], "unit": "MB"},
            }
        failures = [p for s in passes for p in s["failures"]]
        problems = [p for s in passes for p in s["problems"]]
        for p in failures + problems:
            sys.stderr.write(f"check: {p}\n")
        result = {"correct": not problems,
                  "attempted": sum(s["attempted"] for s in passes),
                  "failed": len(failures),
                  "metrics": metrics}
        with open(os.path.join(out_dir, f"result-{args.workload}-"
                               f"{args.seed}-trace{args.trace}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(dict(result, passes=len(passes)), fh, indent=1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
