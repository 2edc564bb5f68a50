"""Batch orchestration: parse a job file, run certificates, engine and
oracles, and emit deterministic text and JSON reports.

Job files are UTF-8, one key=value per line, with the polynomial block
introduced by a line reading "[polys]" (one polynomial per line, the last
entry being f_l).  '#' starts a comment.  Exit codes: 0 all checks pass,
1 parse/config error, 2 hypothesis rejected (witness in the JSON detail),
3 oracle mismatch, 4 enumeration budget exceeded.

The zeta and poles sections show Z, the zeta function over the unit
polydisc, except that zeta0 shows Z_0, the one around the origin, and poles
and all fall back to Z_0 when the full engine refuses; such a job exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import counting, fan as fan_mod, newton, oracle, zeta as zeta_mod
from .errors import DEFAULT_ENUM_BUDGET, HypothesisError, IgusaError
from .polycore import PolySystem, PrimeContext, is_convenient, parse_polynomial
from .ratfun import FactoredRationalFunction

MODES = ("zeta", "zeta0", "poles", "poincare", "expsum", "congruence", "check", "all")
KEYS = ("vars", "prime", "mode", "depth", "expsum_levels", "budget", "output")


@dataclass
class JobConfig:
    variables: list[str]
    polys: list[str]
    prime: int
    mode: str = "all"
    oracle_depth: int = 3
    expsum_levels: int = 4
    budget: int = DEFAULT_ENUM_BUDGET
    output: str = "text"

    def as_json(self) -> dict:
        return {
            "vars": self.variables,
            "polys": self.polys,
            "prime": self.prime,
            "mode": self.mode,
            "oracle_depth": self.oracle_depth,
            "expsum_levels": self.expsum_levels,
            "budget": self.budget,
            "output": self.output,
        }


class ConfigError(IgusaError):
    exit_code = 1


def parse_config(text: str) -> JobConfig:
    keys: dict[str, str] = {}
    polys: list[str] = []
    in_polys = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[polys]":
            in_polys = True
            continue
        if in_polys:
            polys.append(line)
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value or [polys] block")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}; the keys are {', '.join(KEYS)}")
        if key in keys:
            raise ConfigError(f"line {lineno}: key {key!r} given twice")
        keys[key] = value.strip()

    if "vars" not in keys:
        raise ConfigError("missing 'vars' key")
    if "prime" not in keys:
        raise ConfigError("missing 'prime' key")
    if not polys:
        raise ConfigError("missing [polys] block")
    variables = [v.strip() for v in keys["vars"].split(",") if v.strip()]
    try:
        cfg = JobConfig(
            variables=variables,
            polys=polys,
            prime=int(keys["prime"]),
            mode=keys.get("mode", "all"),
            oracle_depth=int(keys.get("depth", 3)),
            expsum_levels=int(keys.get("expsum_levels", 4)),
            budget=int(keys.get("budget", DEFAULT_ENUM_BUDGET)),
            output=keys.get("output", "text"),
        )
    except ValueError as exc:
        raise ConfigError(f"bad numeric value: {exc}") from exc
    if cfg.mode not in MODES:
        raise ConfigError(f"unknown mode {cfg.mode!r}")
    if cfg.output not in ("text", "json"):
        raise ConfigError(f"unknown output format {cfg.output!r}")
    return cfg


# ---------------------------------------------------------------------------
# JSON rendering helpers: exact strings everywhere, doubles only for complex
# oracle values.
# ---------------------------------------------------------------------------


def _frac(x: Fraction | int) -> str:
    return str(Fraction(x))


def _frf_json(r: FactoredRationalFunction) -> dict:
    return {
        "numerator": {str(k): _frac(c) for k, c in sorted(r.num.items())},
        "denominator": [
            {"a": a, "b": b, "mult": m} for (a, b), m in sorted(r.den.items())
        ],
        "t_form": r.t_form(),
        "s_form": r.s_form(),
    }


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _pole_lines_json(lines) -> list[dict]:
    return [
        {"re": _frac(l.re), "period": l.period, "multiplicity": l.multiplicity}
        for l in lines
    ]


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------


def _check(report: dict, name: str, passed: bool, detail) -> bool:
    report["checks"].append({"name": name, "passed": bool(passed), "detail": detail})
    return passed


def run(config: JobConfig) -> tuple[dict, int]:
    """Execute one job; returns (report document, exit code)."""
    mode = config.mode
    report: dict = {
        "config": config.as_json(),
        "certificates": None,
        "fan": None,
        "zeta": None,
        "poles": None,
        "oracle": None,
        "checks": [],
    }

    # A depth or level below 1 leaves a check nothing to compare but the
    # always-equal m = 0 row; a budget below 1 admits no enumeration at all.
    limits = {"depth": config.oracle_depth, "expsum_levels": config.expsum_levels, "budget": config.budget}
    for key, value in limits.items():
        if value < 1:
            raise ConfigError(f"{key} must be at least 1, got {value}")
    try:
        polys = [parse_polynomial(text, config.variables) for text in config.polys]
        sys_ = PolySystem(len(config.variables), polys)
        ctx = PrimeContext(config.prime)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if sys_.n > newton.MAX_DIMENSION:
        raise ConfigError(f"{sys_.n} variables exceed the supported cap {newton.MAX_DIMENSION}")
    if mode != "check" and sys_.l < 2:
        raise ConfigError(f"mode {mode!r} needs 2 <= l <= n, got l={sys_.l}")
    budget = config.budget

    conv = is_convenient(sys_)
    cert_global = counting.check_nondegenerate(sys_, ctx, at_origin=False, budget=budget)
    cert_origin = counting.check_nondegenerate(sys_, ctx, at_origin=True, budget=budget)
    good_red = counting.check_good_reduction(sys_, ctx, budget) if sys_.l >= 2 else None
    report["certificates"] = {
        "convenient": {"ok": conv.convenient, "missing": conv.missing},
        "nondegenerate": _cert_json(cert_global),
        "nondegenerate_origin": _cert_json(cert_origin),
        "good_reduction": good_red,
    }

    tri = fan_mod.dual_subdivision(sys_).triangulation
    by_dim: dict[str, int] = {}
    for cone in tri.cones:
        by_dim[str(cone.dim)] = by_dim.get(str(cone.dim), 0) + 1
    report["fan"] = {
        "skeleton": [list(r) for r in tri.skeleton],
        "cone_count": len(tri.cones),
        "cones_by_dim": by_dim,
    }

    exit_code = 0

    if mode == "check":
        ok = conv.convenient and cert_global.ok and cert_origin.ok and (good_red is not False)
        _check(report, "hypotheses", ok, report["certificates"])
        return report, 0 if ok else 2

    # zr also feeds the Poincare and prop3 checks, which need the full zeta.
    zr = None
    if mode != "zeta0":
        try:
            zr = zeta_mod.zeta_full(sys_, ctx, budget)
        except HypothesisError as exc:
            report["checks"].append({"name": "zeta_full_hypotheses", "passed": False, "detail": exc.detail()})
    shown = zr
    if mode == "zeta0" or (mode in ("poles", "all") and zr is None):
        try:
            shown = zeta_mod.zeta_origin(sys_, ctx, budget)
        except HypothesisError as exc:
            report["checks"].append({"name": "zeta_origin_hypotheses", "passed": False, "detail": exc.detail()})

    if shown is not None:
        report["zeta"] = _zeta_json(shown)
        report["poles"] = _poles_json(shown)
        contained = _pole_containment_ok(shown)
        _check(report, "pole_containment", contained, "actual pole lines within candidates + {-1}")
        if not contained:
            exit_code = max(exit_code, 3)
    elif mode == "poles":
        report["poles"] = {"candidates": _candidates_json(zeta_mod.candidate_poles(sys_)), "actual": None}

    if mode == "poincare" and (zr is None or not good_red):
        detail = "good reduction fails" if not good_red else "engine hypotheses fail"
        _check(report, "poincare_available", False, detail)
        return report, 2

    oracle_section: dict = {}
    if mode in ("poincare", "congruence", "all"):
        table = oracle.congruence_table(sys_, ctx, config.oracle_depth, budget)
        oracle_section["congruence"] = {
            "depth": table.depth,
            "raw_label": None if good_red else "raw congruence count",
            "N": {str(m): str(cnt) for m, cnt in sorted(table.counts.items())},
        }
        if zr is not None and good_red:
            series = zeta_mod.poincare_series(sys_, ctx, budget, report=zr)
            taylor = series.taylor(config.oracle_depth)
            rows = []
            all_match = True
            for m in range(config.oracle_depth + 1):
                expected = Fraction(table.counts[m], ctx.p ** (m * (sys_.n - sys_.l + 1)))
                match = taylor[m] == expected
                all_match &= match
                rows.append(
                    {"m": m, "engine": _frac(taylor[m]), "oracle": _frac(expected), "match": match}
                )
            oracle_section["poincare"] = {"series": _frf_json(series), "rows": rows}
            if not _check(report, "poincare_vs_congruence", all_match, rows):
                exit_code = max(exit_code, 3)

    if mode in ("expsum", "all"):
        rows = []
        mags = []
        for entry in oracle.expsum_table(sys_, ctx, config.expsum_levels, 1, budget):
            rows.append({"m": entry.m, "E": _complex_pair(entry.value), "abs": abs(entry.value)})
            if entry.m >= 1 and abs(entry.value) > 0:
                mags.append((entry.m, abs(entry.value)))
        slope = None
        if len(mags) >= 2:
            xs = [m for m, _ in mags]
            ys = [math.log(v, ctx.p) for _, v in mags]
            k = len(xs)
            slope = (k * sum(x * y for x, y in zip(xs, ys)) - sum(xs) * sum(ys)) / (
                k * sum(x * x for x in xs) - sum(xs) ** 2
            )
        gamma = zeta_mod.candidate_poles(sys_).gamma_f
        oracle_section["expsum"] = {
            "rows": rows,
            "fitted_decay_exponent": slope,
            "gamma_f": _frac(gamma) if gamma is not None else None,
        }
        if good_red and zr is not None:
            # At m = 1 the stationary-phase identity is exact with conductor <= 1
            # characters for every system; higher m may need larger conductors.
            res = oracle.prop3_residual(sys_, ctx, 1, 1, budget)
            residuals = [{"m": 1, "u": 1, "residual": res}]
            oracle_section["expsum"]["prop3_residuals"] = residuals
            if not _check(report, "prop3_residual", res < 1e-9, residuals):
                exit_code = max(exit_code, 3)

    if oracle_section:
        report["oracle"] = oracle_section

    if exit_code == 0 and not all(c["passed"] for c in report["checks"]):
        exit_code = 2
    return report, exit_code


def _cert_json(cert: counting.NondegCertificate) -> dict:
    out = {"ok": cert.ok, "scope": cert.scope, "p": cert.p, "directions_checked": cert.directions_checked}
    if cert.witness is not None:
        out["witness"] = {
            "direction": list(cert.witness.direction),
            "point": list(cert.witness.point),
            "rank": cert.witness.rank,
        }
    return out


def _zeta_json(zr: zeta_mod.ZetaReport) -> dict:
    return {
        "mode": zr.mode,
        "value": _frf_json(zr.zeta),
        "L0": _frf_json(zr.L0) if zr.L0 is not None else None,
        "hypotheses": zr.hypotheses,
        "contributions": [
            {
                "cone": [list(g) for g in c.cone.generators],
                "L": _frf_json(c.L),
                "S": _frf_json(c.S),
                "product": _frf_json(c.product),
            }
            for c in zr.contributions
        ],
    }


def _candidates_json(cands: zeta_mod.CandidatePoles) -> dict:
    return {
        "lines": [
            {"re": _frac(l.re), "period": l.period, "rays": [list(r) for r in l.rays]}
            for l in cands.lines
        ],
        "gamma_f": _frac(cands.gamma_f) if cands.gamma_f is not None else None,
        "multiplicity_bound": cands.multiplicity_bound,
    }


def _poles_json(zr: zeta_mod.ZetaReport) -> dict:
    return {
        "candidates": _candidates_json(zr.candidates),
        "actual": _pole_lines_json(zr.actual_poles),
        "beta_f": _frac(zr.beta_f) if zr.beta_f is not None else None,
        "gamma_f": _frac(zr.gamma_f) if zr.gamma_f is not None else None,
    }


def _pole_containment_ok(zr: zeta_mod.ZetaReport) -> bool:
    candidate_res = {line.re for line in zr.candidates.lines}
    return all(line.re in candidate_res for line in zr.actual_poles)


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------


def render_text(report: dict) -> str:
    lines = []
    cfg = report["config"]
    lines.append(f"igusa report: mode={cfg['mode']} p={cfg['prime']} vars={','.join(cfg['vars'])}")
    for i, poly in enumerate(cfg["polys"], 1):
        lines.append(f"  f{i} = {poly}")
    certs = report.get("certificates")
    if certs:
        lines.append(
            "certificates: convenient=%s nondeg=%s nondeg@origin=%s good_reduction=%s"
            % (
                certs["convenient"]["ok"],
                certs["nondegenerate"]["ok"],
                certs["nondegenerate_origin"]["ok"],
                certs["good_reduction"],
            )
        )
        w = certs["nondegenerate"].get("witness")
        if w:
            lines.append(f"  degeneracy witness: direction={w['direction']} point={w['point']} rank={w['rank']}")
    if report.get("fan"):
        f = report["fan"]
        lines.append(f"fan: {f['cone_count']} cones, by dim {f['cones_by_dim']}, skeleton {f['skeleton']}")
    if report.get("zeta"):
        z = report["zeta"]
        lines.append(f"zeta ({z['mode']}): {z['value']['t_form']}")
        lines.append(f"  s-form: {z['value']['s_form']}")
    if report.get("poles"):
        p = report["poles"]
        if p.get("actual") is not None:
            actual = ", ".join(f"{l['re']} (period {l['period']}, mult {l['multiplicity']})" for l in p["actual"])
            lines.append(f"poles: actual = [{actual}]")
        cands = ", ".join(l["re"] for l in p["candidates"]["lines"])
        lines.append(f"  candidates = [{cands}]  gamma_f={p['candidates']['gamma_f']}")
        if p.get("beta_f") is not None:
            lines.append(f"  beta_f = {p['beta_f']}")
    oracle_sec = report.get("oracle")
    if oracle_sec:
        cong = oracle_sec.get("congruence")
        if cong:
            label = f" ({cong['raw_label']})" if cong["raw_label"] else ""
            lines.append(f"congruence counts{label}: " + ", ".join(f"N_{m}={v}" for m, v in sorted(cong["N"].items(), key=lambda kv: int(kv[0]))))
        poin = oracle_sec.get("poincare")
        if poin:
            lines.append("poincare series vs oracle:")
            for row in poin["rows"]:
                lines.append(f"  m={row['m']}: engine={row['engine']} oracle={row['oracle']} match={row['match']}")
        exps = oracle_sec.get("expsum")
        if exps:
            lines.append("exponential sums (u=1):")
            for row in exps["rows"]:
                re_, im = row["E"]
                lines.append(f"  m={row['m']}: E = {re_:+.12f} {im:+.12f}i  |E| = {row['abs']:.12f}")
            if exps.get("fitted_decay_exponent") is not None:
                lines.append(
                    f"  fitted decay exponent {exps['fitted_decay_exponent']:.4f} vs gamma_f {exps['gamma_f']}"
                )
            for row in exps.get("prop3_residuals", []):
                lines.append(f"  prop3 residual m={row['m']}: {row['residual']:.3e}")
    for chk in report["checks"]:
        lines.append(f"check {chk['name']}: {'pass' if chk['passed'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="igusa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for mode in MODES:
        p = sub.add_parser(mode, help=f"run in {mode} mode")
        p.add_argument("--input", required=True, help="job configuration file")
        p.add_argument("--json", dest="json_path", default=None, help="write the JSON report here")
        p.add_argument("--prime", type=int, default=None, help="override the configured prime")
        p.add_argument("--depth", type=int, default=None, help="override the oracle depth M")
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        with open(args.input, encoding="utf-8") as fh:
            config = parse_config(fh.read())
        config.mode = args.command
        if args.prime is not None:
            config.prime = args.prime
        if args.depth is not None:
            config.oracle_depth = args.depth
        report, code = run(config)
    except IgusaError as exc:
        sys.stderr.write(json.dumps(exc.detail(), sort_keys=True) + "\n")
        return exc.exit_code
    if config.output == "json":
        sys.stdout.write(report_json(report))
    else:
        sys.stdout.write(render_text(report))
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            fh.write(report_json(report))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
