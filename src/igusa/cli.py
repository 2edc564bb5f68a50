"""Batch orchestration: parse a job file, run certificates, engine and
oracles, and emit deterministic text and JSON reports.

Job files are UTF-8, one key=value per line, with the polynomial block
introduced by a line reading "[polys]" (one polynomial per line, the last
entry being f_l).  '#' starts a comment.  Exit codes: 1 parse/config
error, 4 enumeration budget exceeded; otherwise the checks decide: 3 if a
pole or oracle comparison failed (it outranks a refusal), else 2 if any
failed (a hypothesis rejected, witness in the JSON detail), else 0.

The zeta and poles sections show Z, the zeta function over the unit
polydisc, except that zeta0 shows Z_0, the one around the origin, and poles
and all fall back to Z_0 when the full engine refuses; such a job exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from dataclasses import asdict, dataclass, fields
from fractions import Fraction

from . import counting, fan as fan_mod, newton, oracle, zeta as zeta_mod
from .errors import DEFAULT_ENUM_BUDGET, HypothesisError, IgusaError
from .polycore import PolySystem, PrimeContext, is_convenient, parse_polynomial
from .ratfun import FactoredRationalFunction

MODES = ("zeta", "zeta0", "poles", "poincare", "expsum", "congruence", "check", "all")
# Each job-file key and the JobConfig field it sets; JobConfig holds the defaults.
_FIELDS = {"vars": "variables", "prime": "prime", "mode": "mode", "depth": "oracle_depth",
           "expsum_levels": "expsum_levels", "budget": "budget", "output": "output"}
KEYS = tuple(_FIELDS)


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
        out = asdict(self)
        out["vars"] = out.pop("variables")
        return out


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
    fields = {_FIELDS[key]: value for key, value in keys.items()}
    fields["variables"] = [v.strip() for v in keys["vars"].split(",") if v.strip()]
    try:
        for name in ("prime", "oracle_depth", "expsum_levels", "budget"):
            if name in fields:
                fields[name] = int(fields[name])
    except ValueError as exc:
        raise ConfigError(f"bad numeric value: {exc}") from exc
    cfg = JobConfig(polys=polys, **fields)
    if cfg.mode not in MODES:
        raise ConfigError(f"unknown mode {cfg.mode!r}")
    if cfg.output not in ("text", "json"):
        raise ConfigError(f"unknown output format {cfg.output!r}")
    return cfg


# ---------------------------------------------------------------------------
# JSON values: exact strings everywhere, doubles only for complex oracle values
# ---------------------------------------------------------------------------


def _json_value(x):
    """The report's value rule, applied once to the whole report: an exact
    number becomes str(Fraction), a tuple a list, a complex number [re, im],
    a rational function its numerator, factors, t_form and s_form, and a
    dataclass a dict of its fields; str, int, float and None stay as they are."""
    if x is None or isinstance(x, (str, int, float)):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, complex):
        return [float(x.real), float(x.imag)]
    if isinstance(x, dict):
        return {k: _json_value(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_value(v) for v in x]
    if isinstance(x, FactoredRationalFunction):
        num = {str(k): str(c) for k, c in sorted(x.num.items())}
        den = [{"a": a, "b": b, "mult": m} for (a, b), m in sorted(x.den.items())]
        return {"numerator": num, "denominator": den, "t_form": x.t_form(), "s_form": x.s_form()}
    # Fields, not vars(): a Cone keeps cached properties in its __dict__.
    return {f.name: _json_value(getattr(x, f.name)) for f in fields(x)}


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------


def _check(report: dict, name: str, passed: bool, detail) -> None:
    report["checks"].append({"name": name, "passed": bool(passed), "detail": detail})


_MISMATCHES = {"pole_containment", "poincare_vs_congruence", "prop3_residual"}


def _exit_code(report: dict) -> int:
    """3 if a check comparing the engine with the candidates or an oracle
    failed, else 2 if any check failed, else 0."""
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    return 3 if failed & _MISMATCHES else 2 if failed else 0


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
    report["fan"] = {
        "skeleton": tri.skeleton,
        "cone_count": len(tri.cones),
        "cones_by_dim": Counter(str(cone.dim) for cone in tri.cones),
    }

    if mode == "check":
        ok = conv.convenient and cert_global.ok and cert_origin.ok and (good_red is not False)
        _check(report, "hypotheses", ok, report["certificates"])
        return _json_value(report), _exit_code(report)

    # zr also feeds the Poincare and prop3 checks, which need the full zeta.
    zr = None
    if mode != "zeta0":
        try:
            zr = zeta_mod.zeta_full(sys_, ctx, budget)
        except HypothesisError as exc:
            _check(report, "zeta_full_hypotheses", False, exc.detail())
    shown = zr
    if mode == "zeta0" or (mode in ("poles", "all") and zr is None):
        try:
            shown = zeta_mod.zeta_origin(sys_, ctx, budget)
        except HypothesisError as exc:
            _check(report, "zeta_origin_hypotheses", False, exc.detail())

    if shown is not None:
        report["zeta"] = _zeta_json(shown)
        report["poles"] = _poles_json(shown)
        _check(report, "pole_containment", _pole_containment_ok(shown), "actual pole lines within candidates + {-1}")
    elif mode == "poles":
        report["poles"] = {"candidates": zeta_mod.candidate_poles(sys_), "actual": None}

    if mode == "poincare" and (zr is None or not good_red):
        _check(report, "poincare_available", False, "good reduction fails" if not good_red else "engine hypotheses fail")
        return _json_value(report), _exit_code(report)

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
                    {"m": m, "engine": taylor[m], "oracle": expected, "match": match}
                )
            oracle_section["poincare"] = {"series": series, "rows": rows}
            _check(report, "poincare_vs_congruence", all_match, rows)

    if mode in ("expsum", "all"):
        rows = []
        mags = []
        for entry in oracle.expsum_table(sys_, ctx, config.expsum_levels, 1, budget):
            rows.append({"m": entry.m, "E": entry.value, "abs": abs(entry.value)})
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
        oracle_section["expsum"] = {
            "rows": rows,
            "fitted_decay_exponent": slope,
            "gamma_f": zeta_mod.candidate_poles(sys_).gamma_f,
        }
        if good_red and zr is not None:
            # At m = 1 the stationary-phase identity is exact with conductor <= 1
            # characters for every system; higher m may need larger conductors.
            res = oracle.prop3_residual(sys_, ctx, 1, 1, budget)
            residuals = [{"m": 1, "u": 1, "residual": res}]
            oracle_section["expsum"]["prop3_residuals"] = residuals
            _check(report, "prop3_residual", res < 1e-9, residuals)

    if oracle_section:
        report["oracle"] = oracle_section
    return _json_value(report), _exit_code(report)


def _cert_json(cert: counting.NondegCertificate) -> dict:
    return {k: v for k, v in asdict(cert).items() if v is not None}


def _zeta_json(zr: zeta_mod.ZetaReport) -> dict:
    return {
        "mode": zr.mode,
        "value": zr.zeta,
        "L0": zr.L0,
        "hypotheses": zr.hypotheses,
        "contributions": [
            {"cone": c.cone.generators, "L": c.L, "S": c.S, "product": c.product}
            for c in zr.contributions
        ],
    }


def _poles_json(zr: zeta_mod.ZetaReport) -> dict:
    return {"candidates": zr.candidates, "actual": zr.actual_poles, "beta_f": zr.beta_f, "gamma_f": zr.gamma_f}


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


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # a bad argument is a config error (exit 1), not argparse's exit 2
        raise ConfigError(message)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="igusa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for mode in MODES:
        p = sub.add_parser(mode, help=f"run in {mode} mode")
        p.add_argument("--input", required=True, help="job configuration file")
        p.add_argument("--json", dest="json_path", default=None, help="write the JSON report here")
        p.add_argument("--prime", type=int, default=None, help="override the configured prime")
        p.add_argument("--depth", type=int, default=None, help="override the oracle depth M")
    return parser


def main(argv=None) -> int:
    try:
        args = build_arg_parser().parse_args(argv)
        try:
            with open(args.input, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read job file {args.input!r}: {exc}") from exc
        config = parse_config(text)
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
