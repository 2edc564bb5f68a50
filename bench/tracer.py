"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces public functions of the ``igusa`` modules with
wrappers that time each call with ``perf_counter_ns``.  Spans nest through
a stack: a span's self time is its duration minus the durations of the
spans it directly contains.  A wrapper is also rebound wherever another
module imported the function by name (``zeta.torus_count`` and the like),
so those calls are not lost.  A listed function that no longer exists is
reported as missing, never as zero time.

Counts are computed from arguments and results after a call returns, so
the time they take falls in the caller's self time, never in a span of
their own.  ``polycore.evaluate_mod`` is deliberately not wrapped: it runs
about 1.6M times per prime-axis job and a wrapper would dominate the
trace.  Its time is part of its caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter_ns


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _sys_p(args, kwargs):
    """(n, p) of a call whose first two parameters are ``sys`` and ``ctx``."""
    return _arg(args, kwargs, 0, "sys").n, _arg(args, kwargs, 1, "ctx").p


def _newton_build(tr, args, kwargs, result):
    tr.counters["newton.builds"] += 1
    tr.counters["newton.facets"] += len(result.facets)


def _subdivision(tr, args, kwargs, result):
    tr.counters["fan.subdivisions"] += 1
    tr.counters["fan.classes"] += len(result.cones)


def _triangulation(tr, args, kwargs, result):
    tr.counters["fan.triangulations"] += 1
    tr.counters["fan.cones"] += len(result.cones)


def _parallelepiped(tr, args, kwargs, result):
    tr.counters["fan.parallelepiped_points"] += len(result)


def _nondeg(tr, args, kwargs, result):
    n, p = _sys_p(args, kwargs)
    tr.counters["counting.nondeg.directions"] += result.directions_checked
    # Exact when the certificate holds; a witness stops the scan early.
    tr.counters["counting.points"] += result.directions_checked * (p - 1) ** n


def _torus(tr, args, kwargs, result):
    from igusa.polycore import face_function

    sys_, a, ctx = (_arg(args, kwargs, i, k) for i, k in enumerate(("sys", "a", "ctx")))
    tr.counters["counting.points"] += (ctx.p - 1) ** sys_.n
    key = (ctx.p, tuple(tuple(sorted(face_function(f, a).terms.items())) for f in sys_.polys))
    if key not in tr.face_systems:
        tr.face_systems.add(key)
        tr.counters["counting.face_systems_distinct"] += 1


def _good_reduction(tr, args, kwargs, result):
    n, p = _sys_p(args, kwargs)
    tr.counters["counting.points"] += p**n


def _grid(level_name: str, offset: int = 0):
    """Points of the (p^(m+offset))^n residue grid an oracle call enumerates,
    where m is the call's third parameter."""

    def hook(tr, args, kwargs, result):
        n, p = _sys_p(args, kwargs)
        m = _arg(args, kwargs, 2, level_name)
        if m > 0 or offset:
            tr.counters["oracle.points"] += (p ** (m + offset)) ** n

    return hook


def _delta_r(tr, args, kwargs, result):
    n, p = _sys_p(args, kwargs)
    level = _arg(args, kwargs, 3, "level")
    region = kwargs.get("region", args[4] if len(args) > 4 else "full")
    per_axis = p ** (level - (region == "origin"))
    tr.counters["oracle.points"] += 2 * per_axis**n  # two depths, r and r+1


def _zeta_report(tr, args, kwargs, result):
    tr.counters["zeta.cones_assembled"] += len(result.contributions)


def _report_bytes(tr, args, kwargs, result):
    tr.counters["cli.report_bytes"] += len(result.encode("utf-8"))


# Span group -> {"module:attribute" or "module:Class.method": count hook}.
# The group's layer is the module name before the first dot.
GROUPS: dict[str, dict[str, object]] = {
    "cli": {"cli:run": None, "cli:report_json": _report_bytes, "cli:render_text": _report_bytes},
    "zeta": {
        "zeta:zeta_full": _zeta_report, "zeta:zeta_origin": _zeta_report,
        "zeta:poincare_series": None, "zeta:candidate_poles": None,
        "zeta:compute_L": None, "zeta:compute_S": None,
    },
    "ratfun": {
        f"ratfun:FactoredRationalFunction.{m}": None
        for m in ("__add__", "__sub__", "__mul__", "taylor", "poles", "shifted")
    },
    "counting.nondeg": {"counting:check_nondegenerate": _nondeg},
    "counting.torus": {"counting:torus_count": _torus},
    "counting.good_reduction": {"counting:check_good_reduction": _good_reduction},
    "fan.subdivision": {"fan:dual_subdivision": _subdivision},
    "fan.triangulate": {"fan:triangulate": _triangulation},
    "fan.parallelepiped": {
        "fan:parallelepiped_points": _parallelepiped,
        "fan:parallelepiped_points_with_coords": _parallelepiped,
    },
    "newton": {
        "newton:polyhedron_from_points": _newton_build, "newton:build_polyhedron": None,
        "newton:system_polyhedron": None, "newton:support_value": None,
        "newton:first_meet_locus": None, "newton:support_min": None,
        "newton:system_support_value": None,
    },
    "linalg": {
        f"linalg:{f}": None
        for f in ("row_echelon", "rank", "nullspace", "solve", "invert", "det", "primitive_integer_vector")
    },
    "oracle": {
        "oracle:count_Nm": _grid("m"), "oracle:congruence_table": None,
        "oracle:exp_sum": _grid("m"), "oracle:expsum_table": None,
        "oracle:coeff_extract": _grid("k", offset=1),
        # Its own grid is the trivial-character coefficient at depth m; the
        # exponential sum, congruence count and twisted coefficients it also
        # needs are spans of their own.
        "oracle:prop3_residual": _grid("m"),
        "oracle:gaussian_sum": None, "oracle:lemma1A_eval": None,
        "oracle:deltaR_measures": _delta_r,
    },
}

PACKAGE = "igusa"
LAYERS = ("newton", "fan", "linalg", "counting", "oracle", "zeta", "ratfun", "cli")

COUNTERS = (
    "newton.builds", "newton.facets", "fan.subdivisions", "fan.classes",
    "fan.triangulations", "fan.cones", "fan.parallelepiped_points",
    "counting.nondeg.directions", "counting.face_systems_distinct", "counting.points",
    "oracle.points", "zeta.cones_assembled", "cli.report_bytes",
)


class Tracer:
    """Span and counter accounting for one worker process."""

    def __init__(self):
        self.self_ns = {g: 0 for g in GROUPS}
        self.calls = {g: 0 for g in GROUPS}
        self.errors = {layer: 0 for layer in LAYERS}
        self.counters = {name: 0 for name in COUNTERS}
        self.edges: set[tuple[str, str]] = set()
        self.missing: list[str] = []
        self.aliases: list[str] = []
        self._stack: list[list] = []
        self.face_systems: set = set()  # (p, face system) keys seen

    def install(self) -> None:
        importlib.import_module(PACKAGE)
        for group, funcs in GROUPS.items():
            for spec, hook in funcs.items():
                self._install_one(group, spec, hook)

    def _install_one(self, group: str, spec: str, hook) -> None:
        modname, _, attr = spec.partition(":")
        owner_name, _, method = attr.rpartition(".")
        try:
            module = importlib.import_module(f"{PACKAGE}.{modname}")
        except ImportError:
            self.missing.append(spec)
            return
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, method, None) if owner is not None else None
        if original is None:
            self.missing.append(spec)
            return
        wrapper = self._wrap(group, original, hook)
        setattr(owner, method, wrapper)
        if owner_name:
            return
        # Rebind names bound by ``from .module import function`` elsewhere.
        for name, mod in list(sys.modules.items()):
            if mod is None or mod is module or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for alias, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, alias, wrapper)
                    self.aliases.append(f"{name.removeprefix(PACKAGE + '.')}.{alias}")

    def _wrap(self, group: str, fn, hook):
        layer = group.split(".", 1)[0]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [group, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                self.self_ns[group] += elapsed - frame[1]
                self.calls[group] += 1
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    self.edges.add((parent[0], group))
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def summary(self) -> dict:
        """JSON-ready totals for this process so far (a copy)."""
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "errors": dict(self.errors),
            "counters": dict(self.counters),
            "edges": sorted(self.edges),
            "missing": list(self.missing),
            "aliases": sorted(self.aliases),
        }
