"""Benchmark workloads, their seeded variants and the output check.

A workload is a fixed list of ``igusa <mode>`` jobs.  Seed 0 runs the jobs
exactly as written here.  Any other seed permutes the variables and the
term order of every polynomial; the zeta function, poles, certificates,
congruence counts and exponential sums do not depend on either, and the
enumeration sizes stay the same.

The output check compares a report with the golden report captured from
the seed-0 job (``golden/<workload>/<job>.json``).  Ray coordinates are
mapped back through the permutation and ray lists are sorted first.
Floats (the complex oracle values and residuals) must agree within
``FLOAT_TOL``; every other leaf must be equal.  The one exception is the
set of cone contributions when a permutation changes the triangulation
(see ``_split_retriangulated``).
"""

from __future__ import annotations

import copy
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FLOAT_TOL = 1e-9

EX71 = ["x + y - z", "x^8 + y^8 + z^8 + x^2*y^2*z^2"]
FOURVAR = ["x + 2*y + z^2 - w", "x^2 + 3*y^2 + z^2 + 2*w^2"]


def ex72(k: int) -> list[str]:
    return [f"x^{k} + y^{k}", "x^4 + y^4 + x*y"]


@dataclass(frozen=True)
class Job:
    """One ``igusa <mode>`` call: the job file's settings and polynomials."""

    name: str
    mode: str
    variables: tuple[str, ...]
    polys: tuple[str, ...]
    prime: int
    depth: int = 3
    expsum_levels: int = 4

    def text(self) -> str:
        """The job file, in the format ``igusa.cli.parse_config`` reads."""
        return (
            f"vars = {', '.join(self.variables)}\n"
            f"prime = {self.prime}\n"
            f"depth = {self.depth}\n"
            f"expsum_levels = {self.expsum_levels}\n"
            "[polys]\n" + "".join(p + "\n" for p in self.polys)
        )


def _job(name, mode, variables, polys, prime, **kw) -> Job:
    return Job(name, mode, tuple(variables.split()), tuple(polys), prime, **kw)


# Why each workload exists, and which layer it is meant to expose, is
# written down in README.md next to this file.
WORKLOADS: dict[str, list[Job]] = {
    "prime-axis": [_job("ex71-p23", "zeta", "x y z", EX71, 23)],
    "geometry-4var": [_job("fourvar-quadric-p5", "zeta0", "x y z w", FOURVAR, 5)],
    "oracle-all": [
        _job("ex71-p5", "all", "x y z", EX71, 5, depth=3, expsum_levels=3),
        *(
            _job(f"ex72-k{k}-p47", "all", "x y", ex72(k), 47, depth=2, expsum_levels=2)
            for k in (2, 3, 4)
        ),
    ],
}

# Trace span groups that must fire at least once in a traced run of each
# workload (see tracer.GROUPS); a group that never fires fails the run.
_ENGINE_SPANS = (
    "cli", "zeta", "ratfun", "counting.nondeg", "counting.torus",
    "counting.good_reduction", "fan.subdivision", "fan.triangulate",
    "fan.parallelepiped", "newton", "linalg",
)
EXPECTED_SPANS: dict[str, tuple[str, ...]] = {
    "prime-axis": _ENGINE_SPANS,
    "geometry-4var": _ENGINE_SPANS,
    "oracle-all": _ENGINE_SPANS + ("oracle",),
}


# ---------------------------------------------------------------------------
# Seeded variants
# ---------------------------------------------------------------------------

_TERM = re.compile(r"\s*([+-]?)\s*([^+-]+)")


def split_terms(poly: str) -> list[tuple[str, str]]:
    """Signed terms of a polynomial in the job grammar: [("+", "2*y"), ...]."""
    terms = [(sign or "+", body.strip()) for sign, body in _TERM.findall(poly)]
    if "".join(s + b for s, b in terms).replace(" ", "").lstrip("+") != poly.replace(" ", "").lstrip("+"):
        raise ValueError(f"cannot split {poly!r} into terms")
    return terms


def join_terms(terms: list[tuple[str, str]]) -> str:
    first_sign, first = terms[0]
    out = ("-" if first_sign == "-" else "") + first
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out


@dataclass(frozen=True)
class Variant:
    """A job as run under one seed, with the map back to seed-0 coordinates."""

    job: Job
    # back[j] is the seed-0 index of the variable at position j.
    back: tuple[int, ...]

    def to_seed0(self, vec) -> list[int]:
        out = [0] * len(vec)
        for j, x in enumerate(vec):
            out[self.back[j]] = x
        return out


def variant(job: Job, seed: int) -> Variant:
    """Seed 0: the job as written.  Otherwise a seeded permutation of the
    variables and of the term order within each polynomial."""
    n = len(job.variables)
    if seed == 0:
        return Variant(job, tuple(range(n)))
    rng = random.Random(f"{seed}:{job.name}")
    back = list(range(n))
    rng.shuffle(back)
    polys = []
    for poly in job.polys:
        terms = split_terms(poly)
        rng.shuffle(terms)
        polys.append(join_terms(terms))
    variables = tuple(job.variables[i] for i in back)
    permuted = Job(job.name, job.mode, variables, tuple(polys), job.prime, job.depth, job.expsum_levels)
    return Variant(permuted, tuple(back))


def variants(workload: str, seed: int) -> list[Variant]:
    return [variant(job, seed) for job in WORKLOADS[workload]]


# ---------------------------------------------------------------------------
# Output check
# ---------------------------------------------------------------------------


def golden_path(workload: str, job: Job) -> Path:
    return GOLDEN_DIR / workload / f"{job.name}.json"


def load_golden(workload: str, job: Job) -> dict:
    return json.loads(golden_path(workload, job).read_text(encoding="utf-8"))


def canonical(report: dict, v: Variant) -> dict:
    """The report in seed-0 coordinates, with ray lists and cone
    contributions in sorted order.

    ``config`` is dropped: it echoes the permuted job, and
    ``config_mismatches`` checks it against the job that was sent.
    """
    r = copy.deepcopy(report)
    r.pop("config", None)

    def rays(rs):
        return sorted(v.to_seed0(x) for x in rs)

    for cert in (r.get("certificates") or {}).values():
        if isinstance(cert, dict) and "witness" in cert:
            w = cert["witness"]
            w["direction"] = v.to_seed0(w["direction"])
            w["point"] = v.to_seed0(w["point"])
    if r.get("fan"):
        r["fan"]["skeleton"] = rays(r["fan"]["skeleton"])
    if r.get("zeta"):
        for c in r["zeta"]["contributions"]:
            c["cone"] = rays(c["cone"])
        r["zeta"]["contributions"].sort(key=lambda c: c["cone"])
    if r.get("poles"):
        for line in r["poles"]["candidates"]["lines"]:
            line["rays"] = rays(line["rays"])
    return r


def diff(expected, actual, path: str = "$") -> list[str]:
    """Paths where ``actual`` differs from ``expected``: floats within
    FLOAT_TOL, every other leaf exactly."""
    if isinstance(expected, float) or isinstance(actual, float):
        numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (expected, actual))
        if numbers and abs(expected - actual) <= FLOAT_TOL:
            return []
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    if type(expected) is not type(actual):
        return [f"{path}: expected {type(expected).__name__}, got {type(actual).__name__}"]
    if isinstance(expected, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(expected)} != {sorted(actual)}"]
        return [d for k in expected for d in diff(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        return [d for i, (e, a) in enumerate(zip(expected, actual)) for d in diff(e, a, f"{path}[{i}]")]
    return [] if expected == actual else [f"{path}: expected {expected!r}, got {actual!r}"]


def _split_retriangulated(expected: dict, actual: dict) -> int:
    """Drop the cone contributions found in only one of the two reports.

    The pulling triangulation starts from each class's first generator, and
    generator order follows the coordinate order, so permuting variables can
    split a non-simplicial class differently (seen on the 4-variable
    system).  The zeta value, L0, poles and fan counts still have to match
    exactly, as do the contributions of every cone both reports share, and
    both must have the same number of contributions.  Returns the number of
    contributions dropped from ``actual``.
    """
    if not (expected.get("zeta") and actual.get("zeta")):
        return 0
    exp_c, act_c = expected["zeta"]["contributions"], actual["zeta"]["contributions"]
    exp_keys = {json.dumps(c["cone"]) for c in exp_c}
    act_keys = {json.dumps(c["cone"]) for c in act_c}
    if exp_keys == act_keys or len(exp_c) != len(act_c):
        return 0
    shared = exp_keys & act_keys
    expected["zeta"]["contributions"] = [c for c in exp_c if json.dumps(c["cone"]) in shared]
    actual["zeta"]["contributions"] = [c for c in act_c if json.dumps(c["cone"]) in shared]
    return len(act_c) - len(shared)


def config_mismatches(report: dict, job: Job) -> list[str]:
    cfg = report.get("config") or {}
    want = {
        "vars": list(job.variables), "polys": list(job.polys), "prime": job.prime, "mode": job.mode,
        "oracle_depth": job.depth, "expsum_levels": job.expsum_levels,
    }
    return [f"$.config.{k}: expected {w!r}, got {cfg.get(k)!r}" for k, w in want.items() if cfg.get(k) != w]


def check_report(report_text: str, v: Variant, golden: dict) -> tuple[list[str], int]:
    """Every reason the report fails the output check (empty when it
    passes), and the number of retriangulated cone contributions that could
    not be compared with the golden report (always 0 at seed 0)."""
    report = json.loads(report_text)
    problems = config_mismatches(report, v.job)
    problems += [f"check {c['name']} failed" for c in report.get("checks", []) if not c.get("passed")]
    identity = Variant(v.job, tuple(range(len(v.back))))
    expected, actual = canonical(golden, identity), canonical(report, v)
    retriangulated = 0
    if v.back != identity.back:
        retriangulated = _split_retriangulated(expected, actual)
    problems += diff(expected, actual)
    return problems, retriangulated
