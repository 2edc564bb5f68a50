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
{sum mu_i a_i : 0 < mu_i <= 1}: the usual [0,1) points h, whose
coefficients mu come from one diagonal form of the generator matrix
(``fan.parallelepiped_points_with_coords``), with each mu_i = 0 read as 1.
On simple cones this reduces to prod_i x^{a_i}/(1 - x^{a_i}), the
convention the worked tables use.  The displayed h-sum with the opposite
sign convention is not a power series in t and fails the congruence-count
oracle on non-simple cones, so this reading is normative (the oracle is the
arbiter).  Each d(., Gamma_j) is linear on a closed cone of the fan, so
x^{h'} = prod_i x^{mu_i a_i}: only the generators' exponent pairs are
computed.  ``compute_S`` raises ``ValueError`` on a cone across a wall,
where the generators' pairs do not add up to the interior point's.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod

from . import fan as fan_mod
from . import newton
from .counting import (
    NondegCertificate,
    check_good_reduction,
    check_nondegenerate,
    torus_count,
)
from .errors import DEFAULT_ENUM_BUDGET, HypothesisError, IgusaError
from .fan import Cone, barycenter, parallelepiped_points_with_coords
from .polycore import PolySystem, PrimeContext, _content, is_convenient
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


def _ray_pairs(rays, sys: PolySystem) -> list[tuple[int, int]]:
    """The rays' exponent pairs, each computed once per system and kept on ``sys``."""
    kept = sys.scans.setdefault(("exponent pairs", _content(sys.polys)), {})
    return [kept[r] if r in kept else kept.setdefault(r, _exponent_pair(r, sys)) for r in rays]


def compute_S(cone: Cone, sys: PolySystem, ctx: PrimeContext) -> FactoredRationalFunction:
    """Lattice-point generating function of the open cone, in the x^v grading.

    The numerator runs over the (0,1] parallelepiped points, read off the
    generators' exponent pairs (see the module docstring) and summed in
    integers over q^shift; the denominator carries one factor (1 - x^{a_i})
    per generator.  Raises ``ValueError`` on a cone where x^v is not linear.
    """
    pairs = _ray_pairs(cone.generators, sys)
    if _exponent_pair(cone.interior_point(), sys) != tuple(map(sum, zip(*pairs))):
        raise ValueError(f"x^v is not linear on the cone spanned by {cone.generators}")
    shift = -sum(min(a, 0) for a, _ in pairs)  # every point's a is at least -shift
    num: dict[int, int] = {}
    for _, mu in parallelepiped_points_with_coords(cone):
        # mu_i = nu_i / D, with each nu_i = 0 read as D
        D = lcm(*(m.denominator for m in mu))
        nu = [m.numerator * (D // m.denominator) or D for m in mu]
        a, b = (sum(w * x for w, x in zip(nu, col)) // D for col in zip(*pairs))
        num[b] = num.get(b, 0) + ctx.q ** (a + shift)
    return FactoredRationalFunction.from_integers(ctx.q, num, ctx.q**shift, Counter(pairs))


def compute_L(sys: PolySystem, ctx: PrimeContext, direction, budget: int = DEFAULT_ENUM_BUDGET) -> FactoredRationalFunction:
    """q^{-(n-l+1)} (c_open + c_closed t (1-q^{-1}) / (1-q^{-1}t)).

    ``direction`` is a cone barycenter, or the zero vector for the constant
    chart term L_0.
    """
    q = ctx.q
    counts = torus_count(sys, direction, ctx, budget)
    # Over the denominator 1 - q^{-1} t, which cancels when c_closed = 0.
    num = {0: q * counts.c_open, 1: counts.c_closed * (q - 1) - counts.c_open}
    return FactoredRationalFunction.from_integers(q, num, q ** (sys.n - sys.l + 2), {(-1, 1): 1})


def candidate_poles(sys: PolySystem) -> CandidatePoles:
    """Theorem-level candidate pole lines from the fan skeleton.

    For each strictly positive skeleton ray a the line
    -(sigma(a) - sum_{j<l} d(a, Gamma_j)) / d(a, Gamma_l) with period
    d(a, Gamma_l), which is at least 1 as ``PolySystem`` refuses constant
    terms; plus the line at -1 with period 1.  gamma_f maximises
    over rays with sigma(a) - sum_{j<l} d(a, Gamma_j) > 0.
    """
    lines: dict[Fraction, CandidateLine] = {}
    lines[Fraction(-1)] = CandidateLine(Fraction(-1), 1, [])
    gamma: Fraction | None = None
    rays = [ray for ray in fan_mod.dual_subdivision(sys).skeleton if all(x > 0 for x in ray)]
    for ray, (a, d_l) in zip(rays, _ray_pairs(rays, sys)):
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
    for cone in tri.cones:
        b = barycenter(cone)
        if at_origin and not all(x > 0 for x in b):
            continue
        L = compute_L(sys, ctx, b, budget)
        S = compute_S(cone, sys, ctx)
        contributions.append(ConeContribution(cone, L, S, L * S))

    L0 = None if at_origin else compute_L(sys, ctx, (0,) * sys.n, budget)
    terms = [c.product for c in contributions] + ([] if L0 is None else [L0])
    total = FactoredRationalFunction.sum(ctx.q, terms)

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
    """P(t) = 1 + t (Z(1) - Z(t)) / (1 - t) with Z the full zeta function.

    Needs good reduction: then N_m / q^{m(n-l+1)} for m >= 1 is Z(1) less
    the first m coefficients of Z, while N_0 = 1.  Z(1), the head variety's
    measure (1 gives (1 - t Z) / (1 - t)), is read off the reduced value;
    a factor 1 - t^b left in its denominator is an ``IgusaError``.
    """
    if report is None:
        report = zeta_full(sys, ctx, budget)
    if not report.hypotheses.get("good_reduction"):
        raise HypothesisError(
            f"V^(l-1) does not have good reduction mod {ctx.p}; "
            "the Poincare series identity does not apply"
        )
    q, z = ctx.q, report.zeta
    for a, b in z.den:
        if a == 0:
            raise IgusaError(f"Z(1) is undefined: the reduced zeta function keeps the factor (1 - t^{b})")
    z1 = sum(z.num.values(), Fraction(0)) / prod((1 - qpow(q, a)) ** mult for (a, _), mult in z.den.items())
    numerator = FactoredRationalFunction(q, {0: Fraction(1), 1: z1 - 1}) - z.shifted(1)
    inv_one_minus_t = FactoredRationalFunction(q, {0: Fraction(1)}, {(0, 1): 1})
    return numerator * inv_one_minus_t
