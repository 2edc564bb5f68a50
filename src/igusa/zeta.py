"""The explicit-formula engine.

Assembles the local zeta function of f_l restricted to the vanishing set of
f_1, ..., f_{l-1} (characteristic-function test functions only) as

    Z = L_0 + sum over fan cones of L_Delta * S_Delta,

from the triangulated subdivision subordinate to the system's Newton
polyhedron, torus point counts of the face systems, and exact geometric
series.  The origin variant sums only cones with strictly positive
barycenter and omits L_0.

S_Delta is the generating function of the lattice points in the relatively
open cone.  For a simplicial cone with generators a_i and x^v denoting
q^{-sigma(v) + sum_{j<l} d(v, Gamma_j)} t^{d(v, Gamma_l)}, it equals

    (sum over h' of x^{h'}) / prod_i (1 - x^{a_i}),

where h' runs over the integer points of the half-open parallelepiped
{sum mu_i a_i : 0 < mu_i <= 1}.  Equivalently h' = h + sum of the a_i with
mu_i(h) = 0 over the usual [0,1) parallelepiped points h; on simple cones
this reduces to prod_i x^{a_i}/(1 - x^{a_i}), which is the convention the
worked tables use.  The displayed h-sum with the opposite sign convention
is not a power series in t and fails the congruence-count oracle on
non-simple cones, so this reading is normative (the oracle is the arbiter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from . import fan as fan_mod
from . import newton
from .counting import (
    NondegCertificate,
    check_good_reduction,
    check_nondegenerate,
    torus_count,
)
from .errors import DEFAULT_ENUM_BUDGET, HypothesisError
from .fan import Cone, barycenter, parallelepiped_points_with_coords
from .polycore import PolySystem, PrimeContext, is_convenient
from .ratfun import FactoredRationalFunction, PoleLine, qpow


@dataclass
class ConeContribution:
    cone: Cone
    L: FactoredRationalFunction
    S: FactoredRationalFunction
    product: FactoredRationalFunction


@dataclass
class CandidateLine:
    re: Fraction
    period: int
    rays: list[tuple[int, ...]]  # skeleton rays producing this line ([] = the -1 line)


@dataclass
class CandidatePoles:
    lines: list[CandidateLine]
    gamma_f: Fraction | None
    multiplicity_bound: int


@dataclass
class ZetaReport:
    mode: str  # "full" or "origin"
    zeta: FactoredRationalFunction
    contributions: list[ConeContribution]
    L0: FactoredRationalFunction | None
    candidates: CandidatePoles
    actual_poles: list[PoleLine]
    gamma_f: Fraction | None
    beta_f: Fraction | None
    hypotheses: dict = field(default_factory=dict)


def _exponent_pair(v, sys: PolySystem) -> tuple[int, int]:
    """x^v = q^a t^b with b = d(v, Gamma_l), a = -sigma(v) + sum_{j<l} d(v, Gamma_j)."""
    b = newton.support_min(sys.polys[-1].terms, v)
    a = -sum(v) + sum(newton.support_min(f.terms, v) for f in sys.polys[:-1])
    return a, b


def compute_S(cone: Cone, sys: PolySystem, ctx: PrimeContext) -> FactoredRationalFunction:
    """Lattice-point generating function of the open cone, in the x^v grading.

    The numerator runs over the (0,1] parallelepiped points (realised as the
    [0,1) points shifted by the generators whose coordinate vanishes); the
    denominator carries one factor (1 - x^{a_i}) per generator.
    """
    q = ctx.q
    num: dict[int, Fraction] = {}
    for h, mu in parallelepiped_points_with_coords(cone):
        shifted = list(h)
        for g, m in zip(cone.generators, mu):
            if m == 0:
                shifted = [x + y for x, y in zip(shifted, g)]
        a, b = _exponent_pair(shifted, sys)
        num[b] = num.get(b, Fraction(0)) + qpow(q, a)
    den: dict[tuple[int, int], int] = {}
    for g in cone.generators:
        a, b = _exponent_pair(g, sys)
        den[(a, b)] = den.get((a, b), 0) + 1
    return FactoredRationalFunction(q, num, den)


def compute_L(sys: PolySystem, ctx: PrimeContext, direction, budget: int = DEFAULT_ENUM_BUDGET) -> FactoredRationalFunction:
    """q^{-(n-l+1)} (c_open + c_closed t (1-q^{-1}) / (1-q^{-1}t)).

    ``direction`` is a cone barycenter, or the zero vector for the constant
    chart term L_0.
    """
    q = ctx.q
    counts = torus_count(sys, direction, ctx, budget)
    scale = qpow(q, -(sys.n - sys.l + 1))
    # Over the denominator 1 - q^{-1} t, which cancels when c_closed = 0.
    num = {0: scale * counts.c_open, 1: scale * (counts.c_closed * (1 - Fraction(1, q)) - Fraction(counts.c_open, q))}
    return FactoredRationalFunction(q, num, {(-1, 1): 1})


def candidate_poles(sys: PolySystem) -> CandidatePoles:
    """Theorem-level candidate pole lines from the fan skeleton.

    For each strictly positive skeleton ray a with d(a, Gamma_l) != 0 the
    line -(sigma(a) - sum_{j<l} d(a, Gamma_j)) / d(a, Gamma_l) with period
    d(a, Gamma_l); plus the line at -1 with period 1.  gamma_f maximises
    over rays with sigma(a) - sum_{j<l} d(a, Gamma_j) > 0.
    """
    lines: dict[Fraction, CandidateLine] = {}
    lines[Fraction(-1)] = CandidateLine(Fraction(-1), 1, [])
    gamma: Fraction | None = None
    for ray in fan_mod.dual_subdivision(sys).skeleton:
        if not all(x > 0 for x in ray):
            continue
        a, d_l = _exponent_pair(ray, sys)
        if d_l == 0:
            continue
        re = Fraction(a, d_l)
        if re in lines:
            line = lines[re]
            line.period = lcm(line.period, d_l)
            line.rays.append(ray)
        else:
            lines[re] = CandidateLine(re, d_l, [ray])
        if a < 0 and (gamma is None or re > gamma):
            gamma = re
    ordered = [lines[k] for k in sorted(lines, reverse=True)]
    return CandidatePoles(ordered, gamma, sys.n - sys.l + 1)


def _require_engine_hypotheses(sys: PolySystem, ctx: PrimeContext, at_origin: bool, budget: int) -> NondegCertificate:
    if sys.l < 2:
        raise HypothesisError("the zeta engine needs 2 <= l <= n")
    report = is_convenient(sys)
    if not report.convenient:
        raise HypothesisError(
            "system is not convenient; refusing to pick a compactification",
            witness={"missing_pure_powers": report.missing},
        )
    cert = check_nondegenerate(sys, ctx, at_origin=at_origin, budget=budget)
    if not cert.ok:
        w = cert.witness
        raise HypothesisError(
            f"system is degenerate over F_{ctx.p} ({cert.scope})",
            witness={"direction": w.direction, "point": w.point, "rank": w.rank},
        )
    return cert


def _assemble(sys: PolySystem, ctx: PrimeContext, mode: str, budget: int) -> ZetaReport:
    at_origin = mode == "origin"
    cert = _require_engine_hypotheses(sys, ctx, at_origin, budget)
    good_red = check_good_reduction(sys, ctx, budget)

    tri = fan_mod.dual_subdivision(sys).triangulation

    contributions: list[ConeContribution] = []
    total = FactoredRationalFunction.zero(ctx.q)
    for cone in tri.cones:
        b = barycenter(cone)
        if at_origin and not all(x > 0 for x in b):
            continue
        L = compute_L(sys, ctx, b, budget)
        S = compute_S(cone, sys, ctx)
        product = L * S
        contributions.append(ConeContribution(cone, L, S, product))
        total = total + product

    L0 = None
    if not at_origin:
        L0 = compute_L(sys, ctx, (0,) * sys.n, budget)
        total = total + L0

    cands = candidate_poles(sys)
    actual = total.poles()
    beta = max((line.re for line in actual), default=None)
    return ZetaReport(
        mode=mode,
        zeta=total,
        contributions=contributions,
        L0=L0,
        candidates=cands,
        actual_poles=actual,
        gamma_f=cands.gamma_f,
        beta_f=beta,
        hypotheses={
            "convenient": True,
            "nondegenerate": True,
            "nondegenerate_scope": cert.scope,
            "good_reduction": good_red,
            "is_submanifold_object": good_red,  # Z coincides with the delta-limit object
        },
    )


def zeta_full(sys: PolySystem, ctx: PrimeContext, budget: int = DEFAULT_ENUM_BUDGET) -> ZetaReport:
    """Zeta function with test function = characteristic function of R_K^n."""
    return _assemble(sys, ctx, "full", budget)


def zeta_origin(sys: PolySystem, ctx: PrimeContext, budget: int = DEFAULT_ENUM_BUDGET) -> ZetaReport:
    """Zeta function with test function = characteristic function of (P_K)^n."""
    return _assemble(sys, ctx, "origin", budget)


def poincare_series(sys: PolySystem, ctx: PrimeContext, budget: int = DEFAULT_ENUM_BUDGET, report: ZetaReport | None = None) -> FactoredRationalFunction:
    """P(t) = (1 - t Z) / (1 - t) with Z the full zeta function.

    Requires good reduction; the identity counts congruence solutions, so it
    is only valid when the variety is smooth mod p.
    """
    if report is None:
        report = zeta_full(sys, ctx, budget)
    if not report.hypotheses.get("good_reduction"):
        raise HypothesisError(
            f"V^(l-1) does not have good reduction mod {ctx.p}; "
            "the Poincare series identity does not apply"
        )
    q = ctx.q
    one = FactoredRationalFunction.one(q)
    numerator = one - report.zeta.shifted(1)
    inv_one_minus_t = FactoredRationalFunction(q, {0: Fraction(1)}, {(0, 1): 1})
    return numerator * inv_one_minus_t
