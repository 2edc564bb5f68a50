"""Self-test of the benchmark harness, on Example 7.2 with k = 2 at p = 5.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys

import pytest

import jobs
import run
from tracer import GROUPS, Tracer

sys.path.insert(0, str(run.ROOT / "src"))

JOB = jobs.Job("ex72-k2-p5", "all", ("x", "y"), tuple(jobs.ex72(2)), 5, depth=2, expsum_levels=2)


@pytest.fixture(scope="module")
def seed0() -> tuple[dict, dict]:
    out = run.spawn(jobs.variant(JOB, 0))
    assert out["exit_code"] == 0, out.get("error")
    return out, json.loads(out["report"])


def test_spans_nest_and_self_times_fit_in_wall():
    out = run.spawn(jobs.variant(JOB, 0), traced=True)
    t = out["trace"]
    edges = {tuple(e) for e in t["edges"]}
    chain = ["zeta", "counting.nondeg", "fan.subdivision", "newton", "linalg"]
    assert ("cli", "zeta") in edges
    assert set(zip(chain, chain[1:])) <= edges
    assert 0 < sum(t["self_ns"].values()) <= out["wall_s"] * 1e9
    assert t["missing"] == []
    # The report is rendered the way ``igusa <mode>`` renders it: as text.
    assert t["counters"]["cli.report_bytes"] > 0 and t["calls"]["cli"] == 2
    # Names bound by ``from .counting import ...`` are wrapped too.
    assert {
        "zeta.torus_count", "zeta.check_nondegenerate", "zeta.check_good_reduction",
        "zeta.parallelepiped_points_with_coords",
    } <= set(t["aliases"])


def traced_run(job: jobs.Job, skip: tuple[str, ...] = ()) -> dict:
    """A traced worker on ``job`` with the span groups in ``skip`` not installed."""
    code = (
        "import sys, tracer, worker\n"
        f"for group in {list(skip)!r}: del tracer.GROUPS[group]\n"
        "sys.exit(worker.main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, job.mode, "--trace"], input=job.text(),
        capture_output=True, text=True, env=run.ENV, cwd=run.BENCH, check=True,
    )
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["exit_code"] == 0, out.get("error")
    return out


def test_lost_wrapper_lowers_coverage():
    # Ex. 7.2 with k = 2 at p = 47 (an oracle-all job): most of its time is
    # in oracle calls made straight from cli.run, so without the oracle
    # wrappers that time is in no layer below cli.
    job = jobs.WORKLOADS["oracle-all"][1]
    full = traced_run(job)
    share = full["trace"]["self_ns"]["oracle"] / 1e9 / full["wall_s"]
    covered = run.coverage(full["trace"], full["wall_s"])
    assert share > 0.5 and covered > 0.9
    lost = traced_run(job, skip=("oracle",))
    assert "oracle" not in lost["trace"]["self_ns"]
    assert run.coverage(lost["trace"], lost["wall_s"]) < covered - share / 2


def test_seed0_report_passes(seed0):
    out, golden = seed0
    assert run.job_problems(out, jobs.variant(JOB, 0), golden) == ([], 0)


def test_changed_exact_string_fails(seed0):
    out, golden = seed0
    bad = copy.deepcopy(golden)
    bad["poles"]["candidates"]["lines"][0]["re"] = "-2/3"
    problems, _ = run.job_problems({**out, "report": json.dumps(bad)}, jobs.variant(JOB, 0), golden)
    assert problems and all(".re" in p for p in problems)


def test_moved_double_fails(seed0):
    out, golden = seed0
    bad = copy.deepcopy(golden)
    bad["oracle"]["expsum"]["rows"][1]["E"][0] += 1e-6
    problems, _ = run.job_problems({**out, "report": json.dumps(bad)}, jobs.variant(JOB, 0), golden)
    assert len(problems) == 1 and ".E[0]" in problems[0]


def test_failed_check_or_exit_code_fails(seed0):
    out, golden = seed0
    bad = copy.deepcopy(golden)
    bad["checks"][0]["passed"] = False
    assert run.job_problems({**out, "report": json.dumps(bad)}, jobs.variant(JOB, 0), golden)[0]
    assert run.job_problems({**out, "exit_code": 3}, jobs.variant(JOB, 0), golden)[0]


def test_permuted_seed_passes(seed0):
    _, golden = seed0
    v = next(jobs.variant(JOB, s) for s in range(1, 50) if jobs.variant(JOB, s).back != (0, 1))
    assert v.job.variables == ("y", "x")
    out = run.spawn(v)
    assert run.job_problems(out, v, golden) == ([], 0)


def test_retriangulated_cones_keep_the_rest_exact():
    job = jobs.WORKLOADS["oracle-all"][0]
    golden = jobs.load_golden("oracle-all", job)
    identity = jobs.variant(job, 0)
    retriangulated = copy.deepcopy(golden)
    retriangulated["zeta"]["contributions"][0]["cone"] = [[9, 9, 9]]
    # Seed 0 never allows a different triangulation.
    assert jobs.check_report(json.dumps(retriangulated), identity, golden)[0]

    def split(report):
        expected = jobs.canonical(golden, identity)
        actual = jobs.canonical(report, identity)
        return jobs._split_retriangulated(expected, actual), jobs.diff(expected, actual)

    assert split(retriangulated) == (1, [])
    wrong_shared = copy.deepcopy(retriangulated)
    wrong_shared["zeta"]["contributions"][1]["L"]["t_form"] = "0"
    assert split(wrong_shared)[1]
    fewer = copy.deepcopy(retriangulated)
    del fewer["zeta"]["contributions"][1]
    assert split(fewer)[0] == 0 and split(fewer)[1]


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_variants_are_the_same_polynomials(workload):
    from igusa.polycore import parse_polynomial

    for seed in (1, 2, 3):
        for job, v in zip(jobs.WORKLOADS[workload], jobs.variants(workload, seed)):
            assert sorted(v.back) == list(range(len(job.variables)))
            for text, permuted in zip(job.polys, v.job.polys):
                f = parse_polynomial(text, job.variables)
                g = parse_polynomial(permuted, v.job.variables)
                assert {tuple(v.to_seed0(m)): c for m, c in g.terms.items()} == f.terms
    assert [v.job for v in jobs.variants(workload, 0)] == jobs.WORKLOADS[workload]


def test_missing_function_is_reported_not_zero():
    tracer = Tracer()
    tracer._install_one("linalg", "linalg:no_such_function", None)
    assert tracer.missing == ["linalg:no_such_function"]
    t = run._sum_traces([{"trace": {**Tracer().summary(), "missing": list(GROUPS["linalg"])}}])
    metrics = run.layer_metrics(t, 1.0, 0.0)
    assert "linalg.self_s" not in metrics and "linalg.calls" not in metrics
    assert "newton.self_s" in metrics


def test_silent_expected_span_fails_loudly():
    t = run._sum_traces([{"trace": Tracer().summary()}])
    with pytest.raises(run.BenchError, match="never fired"):
        run.check_spans("oracle-all", t)


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
