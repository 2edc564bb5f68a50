"""igusa benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload prime-axis --seed 0 --seconds 40 --trace 0

Run from the repository root.  Jobs run one at a time (a closed loop with
one client), each in a fresh ``python3 bench/worker.py`` process with the
sources under ``src/`` on ``PYTHONPATH`` and every thread-count variable
pinned to 1, so nothing one job caches can reach the next.  A pass runs
every job of the workload once.  A run makes at least one pass, and
another while the last pass's duration says it would end within
``--seconds``.

``--trace 0`` reports the end-to-end metrics: medians over the passes of
the summed job times, the largest worker RSS, and the share of jobs that
passed.  ``--trace 1`` runs each pass twice, untraced and then with the
span wrappers of ``tracer.py`` installed, and reports the per-layer
metrics of the traced pass with the tracing overhead.  Every job's report
goes through the output check of ``jobs.py``, outside the timed interval.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs
from tracer import GROUPS, LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Set-up is timed in this many extra worker starts per job that only import
# igusa and parse the job file, so setup_s has a median even when a single
# pass fits in --seconds.
SETUP_ROUNDS = 3
# No pass starts if the previous pass's duration says it would end after
# this many seconds, whatever --seconds asks, so every run ends within 180 s.
MAX_RUN_S = 150.0
WORKER_TIMEOUT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot measure: a worker could not start or set up."""


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in THREAD_VARS})
    return env


ENV = _worker_env()


def spawn(v: jobs.Variant, *, traced: bool = False, setup_only: bool = False) -> dict:
    """Run one job in a fresh worker; returns the worker's JSON with
    ``setup_s`` added, or raises BenchError if it printed none."""
    cmd = [sys.executable, str(BENCH / "worker.py"), v.job.mode]
    cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
    t_spawn = time.perf_counter()
    proc = subprocess.run(
        cmd, input=v.job.text(), capture_output=True, text=True,
        env=ENV, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker for {v.job.name} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["t_ready"] - t_spawn
    return out


def job_problems(out: dict, v: jobs.Variant, golden: dict) -> tuple[list[str], int]:
    """Output check of one finished job (see jobs.check_report)."""
    if out.get("exit_code") != 0:
        return [f"exit code {out.get('exit_code')}: {out.get('error', '')[-2000:]}"], 0
    return jobs.check_report(out["report"], v, golden)


class Run:
    """Jobs attempted and failed in this run, with the reasons."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.variants = jobs.variants(workload, seed)
        self.goldens = [jobs.load_golden(workload, v.job) for v in self.variants]
        self.attempted = 0
        self.failed = 0
        self.retriangulated = 0
        self.problems: list[str] = []
        self.job_walls: dict[str, list[float]] = {v.job.name: [] for v in self.variants}

    def one_pass(self, traced: bool) -> list[dict]:
        outs = []
        for v, golden in zip(self.variants, self.goldens):
            out = spawn(v, traced=traced)
            problems, retri = job_problems(out, v, golden)
            self.attempted += 1
            self.retriangulated += retri
            if not traced:
                self.job_walls[v.job.name].append(out["wall_s"])
            if problems:
                self.failed += 1
                self.problems += [f"{v.job.name}: {p}" for p in problems[:5]]
            outs.append(out)
        return outs

    def setup_round(self) -> float:
        return sum(spawn(v, setup_only=True)["setup_s"] for v in self.variants)


def repeat(seconds: float, one):
    """Call ``one()`` at least once, and again while the last call's
    duration says the next one would still end within ``seconds``."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(one())
        now = time.perf_counter()
        if (now - start) + (now - t0) > min(seconds, MAX_RUN_S):
            return results


def _metric(samples: list[float], unit: str) -> dict:
    return {"value": statistics.median(samples), "unit": unit, "samples": samples}


END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}


def end_to_end(run: Run, seconds: float) -> dict:
    setups = [run.setup_round() for _ in range(SETUP_ROUNDS)]
    passes = repeat(seconds, lambda: run.one_pass(traced=False))
    setups += [sum(o["setup_s"] for o in outs) for outs in passes]
    samples = {
        "wall_s": [sum(o["wall_s"] for o in outs) for outs in passes],
        "cpu_s": [sum(o["cpu_s"] for o in outs) for outs in passes],
        "setup_s": setups,
        "peak_rss_mb": [max(o["maxrss_kb"] for outs in passes for o in outs) / 1024],
        "pass_ratio": [(run.attempted - run.failed) / run.attempted],
    }
    return {name: _metric(xs, END_TO_END_UNITS[name]) for name, xs in samples.items()}


def _sum_traces(outs: list[dict]) -> dict:
    total = {"self_ns": {g: 0 for g in GROUPS}, "calls": {g: 0 for g in GROUPS},
             "errors": {layer: 0 for layer in LAYERS}, "counters": {},
             "edges": set(), "missing": set()}
    for o in outs:
        t = o["trace"]
        for key in ("self_ns", "calls", "errors", "counters"):
            for name, value in t[key].items():
                total[key][name] = total[key].get(name, 0) + value
        total["edges"].update(tuple(e) for e in t["edges"])
        total["missing"].update(t["missing"])
    return total


# Per-layer metric -> (unit, span group it is reported for, value from the
# summed trace ``t``, that group's self seconds ``s`` and ``calls``).  A
# metric whose span group no longer exists in the program is not reported.
def _per_layer_table():
    def count(name):
        return lambda t, s, n: t["counters"][name]

    def self_s(group):
        return lambda t, s, n: s[group]

    def calls(group):
        return lambda t, s, n: n[group]

    counting_groups = ["counting.nondeg", "counting.torus", "counting.good_reduction"]

    def counting_rate(t, s, n):
        busy = sum(s[g] for g in counting_groups)
        return _ratio(t["counters"]["counting.points"], busy)

    table = {
        "newton.self_s": ("s", "newton", self_s("newton")),
        "newton.builds": ("count", "newton", count("newton.builds")),
        "newton.facets": ("count", "newton", count("newton.facets")),
        "fan.subdivision.self_s": ("s", "fan.subdivision", self_s("fan.subdivision")),
        "fan.subdivisions": ("count", "fan.subdivision", count("fan.subdivisions")),
        "fan.classes": ("count", "fan.subdivision", count("fan.classes")),
        "fan.triangulate.self_s": ("s", "fan.triangulate", self_s("fan.triangulate")),
        "fan.triangulations": ("count", "fan.triangulate", count("fan.triangulations")),
        "fan.cones": ("count", "fan.triangulate", count("fan.cones")),
        "fan.parallelepiped.self_s": ("s", "fan.parallelepiped", self_s("fan.parallelepiped")),
        "fan.parallelepiped_points": ("count", "fan.parallelepiped", count("fan.parallelepiped_points")),
        "linalg.self_s": ("s", "linalg", self_s("linalg")),
        "linalg.calls": ("count", "linalg", calls("linalg")),
        "counting.nondeg.self_s": ("s", "counting.nondeg", self_s("counting.nondeg")),
        "counting.nondeg.calls": ("count", "counting.nondeg", calls("counting.nondeg")),
        "counting.nondeg.directions": ("count", "counting.nondeg", count("counting.nondeg.directions")),
        "counting.torus.self_s": ("s", "counting.torus", self_s("counting.torus")),
        "counting.torus.calls": ("count", "counting.torus", calls("counting.torus")),
        "counting.face_systems_distinct": ("count", "counting.torus", count("counting.face_systems_distinct")),
        "counting.torus.useful_ratio": (
            "ratio", "counting.torus",
            lambda t, s, n: _ratio(t["counters"]["counting.face_systems_distinct"], n["counting.torus"]),
        ),
        "counting.good_reduction.self_s": ("s", "counting.good_reduction", self_s("counting.good_reduction")),
        "counting.points": ("count", counting_groups, count("counting.points")),
        "counting.points_per_s": ("1/s", counting_groups, counting_rate),
        "oracle.self_s": ("s", "oracle", self_s("oracle")),
        "oracle.calls": ("count", "oracle", calls("oracle")),
        "oracle.points": ("count", "oracle", count("oracle.points")),
        "oracle.points_per_s": ("1/s", "oracle", lambda t, s, n: _ratio(t["counters"]["oracle.points"], s["oracle"])),
        "zeta.self_s": ("s", "zeta", self_s("zeta")),
        "zeta.calls": ("count", "zeta", calls("zeta")),
        "zeta.cones_assembled": ("count", "zeta", count("zeta.cones_assembled")),
        "ratfun.self_s": ("s", "ratfun", self_s("ratfun")),
        "ratfun.ops": ("count", "ratfun", calls("ratfun")),
        "cli.self_s": ("s", "cli", self_s("cli")),
        "cli.report_bytes": ("B", "cli", count("cli.report_bytes")),
    }
    for layer in LAYERS:
        groups = [g for g in GROUPS if g.split(".", 1)[0] == layer]
        table[f"{layer}.errors"] = ("count", groups, lambda t, s, n, layer=layer: t["errors"][layer])
    return table


PER_LAYER = _per_layer_table()
PER_LAYER_UNITS = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
PER_LAYER_UNITS.update({"trace.coverage": "ratio", "trace.overhead_s": "s"})


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def missing_groups(t: dict) -> set[str]:
    """Span groups none of whose functions exist any more."""
    return {g for g, funcs in GROUPS.items() if set(funcs) <= t["missing"]}


def coverage(t: dict, wall_s: float) -> float:
    """Share of the traced wall time spent in the spans of the layers below
    ``cli``.  Time that no wrapper catches falls in ``cli``'s self time, so a
    lost wrapper makes this fall."""
    return _ratio(sum(ns for g, ns in t["self_ns"].items() if g != "cli") / 1e9, wall_s)


def layer_metrics(t: dict, wall_s: float, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from the summed trace; metrics
    of span groups that no longer exist are left out."""
    s = {g: ns / 1e9 for g, ns in t["self_ns"].items()}
    gone = missing_groups(t)
    out = {}
    for name, (_, groups, value) in PER_LAYER.items():
        groups = [groups] if isinstance(groups, str) else groups
        if not set(groups) <= gone:
            out[name] = value(t, s, t["calls"])
    out["trace.coverage"] = coverage(t, wall_s)
    out["trace.overhead_s"] = overhead_s
    return out


def per_layer(run: Run, seconds: float) -> dict:
    def one():
        plain = run.one_pass(traced=False)
        traced = run.one_pass(traced=True)
        return plain, traced

    passes = repeat(seconds, one)
    per_pass = []
    for plain, traced in passes:
        t = _sum_traces(traced)
        wall = sum(o["wall_s"] for o in traced)
        overhead = wall - sum(o["wall_s"] for o in plain)
        per_pass.append(layer_metrics(t, wall, overhead))
    check_spans(run.workload, _sum_traces([o for _, traced in passes for o in traced]))
    return {name: _metric([p[name] for p in per_pass], PER_LAYER_UNITS[name]) for name in per_pass[0]}


def check_spans(workload: str, t: dict) -> None:
    """Print what the trace could not wrap and how spans nested; raise if a
    span group the workload expects exists but never fired."""
    gone = missing_groups(t)
    for spec in sorted(t["missing"]):
        print(f"missing (not wrapped): {spec}")
    for g in sorted(gone):
        print(f"missing span group, its metrics are not reported: {g}")
    silent = [g for g in jobs.EXPECTED_SPANS[workload] if t["calls"].get(g, 0) == 0 and g not in gone]
    if silent:
        raise BenchError(f"expected spans never fired on {workload}: {', '.join(silent)}")
    print("span nesting: " + ", ".join(f"{a}>{b}" for a, b in sorted(t["edges"])))


def _print_human(metrics: dict, run: Run) -> None:
    for name, m in metrics.items():
        xs = m["samples"]
        spread = f"  [min {min(xs):.6g}, max {max(xs):.6g}, n={len(xs)}]" if len(xs) > 1 else ""
        print(f"{run.workload} {name} = {m['value']:.6g} {m['unit']}{spread}")
    for name, walls in run.job_walls.items():
        print(f"{run.workload} job {name} wall_s = {statistics.median(walls):.6g} s (median of {len(walls)})")
    print(f"{run.workload} fail_ratio = {run.failed / run.attempted:.6g} ({run.failed} of {run.attempted} jobs)")
    if run.retriangulated:
        print(f"{run.workload}: {run.retriangulated} cone contributions retriangulated by the permutation "
              "(compared through the zeta value, not cone by cone)")
    for p in run.problems[:20]:
        print(f"FAILED {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(jobs.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "igusa" / "__init__.py").is_file():
        print(f"error: no igusa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run = Run(args.workload, args.seed)
        metrics = per_layer(run, args.seconds) if args.trace else end_to_end(run, args.seconds)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _print_human(metrics, run)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
