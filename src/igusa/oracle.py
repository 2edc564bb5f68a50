"""Independent brute-force ground truth.

Congruence counts N_m, exponential sums mod p^m, local delta-integrals,
character-twisted coefficients, Gaussian sums, and the stationary-phase
residual.  Residue arithmetic is exact (the int64 grid evaluator of
``polycore``, which refuses moduli that could overflow); complex doubles
appear only in the final exponential/summation step, with tolerance 1e-9.

Every quantity is taken over the head variety f_1 = ... = f_{l-1} = 0
mod p^m, enumerated as a lift tree: a zero mod p^m reduces to a zero mod
p^{m-1}, so level m tests only the p^n lifts x + p^{m-1} d of the level
m-1 zeros (level 1 is the whole p^n grid) and keeps those that still
vanish.  That is the reduction map Z/p^m -> Z/p^{m-1}, not Hensel lifting:
no smoothness is assumed and every residue that can vanish is tested.  The
tree, with f_l mod p^m on each level, is walked once per system and prime
and kept on the ``PolySystem``.  N_m and E_m are read off a level only by
``congruence_table`` and ``expsum_table``, angular components only by
``_ac_counts``; every other quantity reads those three.  The budget counts
the points each level tests, level by level on every call, walked or kept.

Nothing in this module consults the explicit-formula engine (no Newton
polyhedron, no fan): these are the quantities the engine is tested
against.  The engine's certificates and torus counts share the grid
evaluator, not the formula.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from . import polycore
from .errors import DEFAULT_ENUM_BUDGET, check_budget
from .polycore import PolySystem, PrimeContext, _content, eval_on_grid, face_function, grid_zeros, primitive_root, product_chunks
from .ratfun import FactoredRationalFunction


def _lifts(base: list[np.ndarray], modulus: int, width: int):
    """Yield, at most GRID_CHUNK points at a time, the points x + modulus*d
    for x in ``base`` and d in [0, width)^n (x-major, d_1 fastest): base
    rows broadcast against the blocks of digits d from ``product_chunks``.

    Always yields at least one (possibly empty) chunk, so an empty base
    lifts to an empty level.
    """
    rows = max(1, polycore.GRID_CHUNK // width ** len(base))
    for start in range(0, len(base[0]) or 1, rows):
        for digits in product_chunks([np.arange(width)] * len(base)):
            yield [(x[start : start + rows, None] + modulus * d).ravel() for x, d in zip(base, digits)]


def _head_levels(sys: PolySystem, p: int, top: int, budget: int, what: str) -> list:
    """[(H_m, f_l mod p^m on H_m) for m = 0, ..., top], where H_m holds, as
    coordinate arrays mod p^m, the zeros of f_1, ..., f_{l-1} mod p^m.

    H_0 is the single point mod 1.  The walk is kept on ``sys`` per prime
    and polynomials and deepened on demand.  Before each level m the budget
    is checked, on every call, on the |H_{m-1}| p^n lifts it tests.
    A negative ``top`` is a ValueError.
    """
    if top < 0:
        raise ValueError(f"level {top} is negative")
    origin = ([np.zeros(1, dtype=np.int64)] * sys.n, np.zeros(1, dtype=np.int64))  # f_l = 0 mod 1
    levels = sys.scans.setdefault((p, "lift tree", _content(sys.polys)), [origin])
    for m in range(1, top + 1):
        head = levels[m - 1][0]
        check_budget(len(head[0]) * p**sys.n, budget, what)
        if m == len(levels):
            chunks = [grid_zeros(sys.polys[:-1], c, p**m) for c in _lifts(head, p ** (m - 1), p)]
            level = [np.concatenate(axis) for axis in zip(*chunks)]
            levels.append((level, eval_on_grid(sys.polys[-1], level, p**m)))
    return levels[: top + 1]


def _exp_value(fl: np.ndarray, modulus: int, u: int, norm: Fraction) -> complex:
    """norm * sum over residues r of c_r e^{2 pi i u r / modulus}, with c_r
    the number of points where f_l = r.

    A function of the exact counts alone, summed in residue order, so it
    does not depend on the order in which the points were enumerated.
    """
    residues, counts = np.unique(fl, return_counts=True)
    phases = ((u % modulus) * residues) % modulus
    total = (counts * np.exp(2j * np.pi * phases / modulus)).sum()
    return complex(total * float(norm))


@dataclass
class CongruenceTable:
    p: int
    depth: int
    counts: dict[int, int]  # m -> N_m, with N_0 = 1


@dataclass
class ExpSumValue:
    m: int
    u: int
    value: complex


def count_Nm(sys: PolySystem, ctx: PrimeContext, m: int, budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """Number of x mod p^m with f_1(x) = ... = f_l(x) = 0 mod p^m.

    Under good reduction this is the congruence count N_m of the displayed
    identity; without it, it is still the raw count of the congruence
    system (callers label it accordingly).
    """
    return congruence_table(sys, ctx, m, budget).counts[m]


def congruence_table(sys: PolySystem, ctx: PrimeContext, depth: int, budget: int = DEFAULT_ENUM_BUDGET) -> CongruenceTable:
    levels = _head_levels(sys, ctx.p, depth, budget, "congruence enumeration")
    counts = {m: int((fl == 0).sum()) for m, (_, fl) in enumerate(levels)}
    return CongruenceTable(ctx.p, depth, counts)


def exp_sum(sys: PolySystem, ctx: PrimeContext, m: int, u: int = 1, budget: int = DEFAULT_ENUM_BUDGET) -> complex:
    """E(u pi^-m) = q^{-m(n-l+1)} sum over V^{(l-1)}(Z/p^m) of e^{2 pi i u f_l / p^m}.

    m = 0 degenerates to the empty product level, where the sum is 1.
    """
    return expsum_table(sys, ctx, m, u, budget)[m].value


def expsum_table(sys: PolySystem, ctx: PrimeContext, levels: int, u: int = 1, budget: int = DEFAULT_ENUM_BUDGET) -> list[ExpSumValue]:
    p = ctx.p
    if levels >= 1 and u % p == 0:
        raise ValueError("u must be a unit")
    walk = _head_levels(sys, p, levels, budget, "exponential-sum enumeration")
    return [
        ExpSumValue(m, u, _exp_value(fl, p**m, u, Fraction(1, p ** (m * (sys.n - sys.l + 1)))))
        for m, (_, fl) in enumerate(walk)
    ]


# ---------------------------------------------------------------------------
# Multiplicative characters mod p (conductor <= 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultChar:
    """Character of F_p^x given by its exponent on the smallest primitive root.

    chi(g^k) = exp(2 pi i j k / (p-1)).  j = 0 is the trivial character
    (conductor 0); every other character has conductor 1.  Conductor >= 2
    characters are out of scope.
    """

    p: int
    j: int

    def __post_init__(self):
        if not 0 <= self.j < self.p - 1:
            raise ValueError("character exponent out of range")

    @property
    def trivial(self) -> bool:
        return self.j == 0

    @property
    def conductor(self) -> int:
        return 0 if self.trivial else 1

    def inverse(self) -> "MultChar":
        return MultChar(self.p, (-self.j) % (self.p - 1))

    def value(self, v: int) -> complex:
        v %= self.p
        if v == 0:
            raise ValueError("character undefined at 0")
        if self.trivial:
            return 1.0 + 0j
        k = _dlog_table(self.p)[v]
        return cmath.exp(2j * cmath.pi * self.j * k / (self.p - 1))


@cache
def _dlog_table(p: int) -> dict[int, int]:
    g = primitive_root(p)
    table = {}
    acc = 1
    for k in range(p - 1):
        table[acc] = k
        acc = (acc * g) % p
    return table


def all_characters(p: int) -> list[MultChar]:
    return [MultChar(p, j) for j in range(p - 1)]


def gaussian_sum(chi: MultChar) -> complex:
    """(p-1)^{-1} sum over units v of chi(v) e^{2 pi i v / p}."""
    if chi.trivial:
        raise ValueError("the Gaussian sum is defined for nontrivial characters")
    p = chi.p
    total = sum(chi.value(v) * cmath.exp(2j * cmath.pi * v / p) for v in range(1, p))
    return total / (p - 1)


# ---------------------------------------------------------------------------
# Coefficient extraction
# ---------------------------------------------------------------------------


def _ac_counts(sys: PolySystem, ctx: PrimeContext, k: int, budget: int) -> dict[int, int]:
    """Counts, by angular component, of y mod p^{k+1} on the head variety
    with ord(f_l(y)) = k."""
    p = ctx.p
    fl = _head_levels(sys, p, k + 1, budget, "coefficient enumeration")[k + 1][1]
    pk = p**k
    ord_k = (fl % pk == 0) & ((fl // pk) % p != 0)
    binc = np.bincount((fl[ord_k] // pk) % p, minlength=p)
    return {unit: int(binc[unit]) for unit in range(1, p) if binc[unit]}


def coeff_extract(sys: PolySystem, ctx: PrimeContext, k: int, chi: MultChar, budget: int = DEFAULT_ENUM_BUDGET) -> complex:
    """Coeff_{t^k} Z(s, chi): brute-force measure of {ord f_l = k} on the
    head variety, weighted by chi of the angular component of f_l."""
    if chi.p != ctx.p:
        raise ValueError("character prime differs from context prime")
    if k < 0:
        raise ValueError(f"coefficient index {k} is negative")
    counts = _ac_counts(sys, ctx, k, budget)
    return _twisted_coeff(counts, chi, Fraction(1, ctx.p ** ((k + 1) * (sys.n - sys.l + 1))))


def _twisted_coeff(counts: dict[int, int], chi: MultChar, norm: Fraction) -> complex:
    """norm * sum over angular components of count * chi(component)."""
    total = 0j
    for unit, cnt in sorted(counts.items()):
        total += cnt * chi.value(unit)
    return complex(total * float(norm))


def prop3_residual(sys: PolySystem, ctx: PrimeContext, m: int, u: int = 1, budget: int = DEFAULT_ENUM_BUDGET) -> float:
    """|LHS - RHS| of the stationary-phase decomposition of E(u pi^-m).

    LHS is the exponential sum.  RHS combines the trivial-character part
    (assembled exactly from the congruence count N_m and the coefficient
    c_{m-1}) with the Gaussian-sum-weighted nontrivial coefficients:

        RHS = q^{-m(n-l+1)} N_m - c_{m-1}(triv)/(q-1)
              + sum over chi != triv of g_{chi^{-1}} chi(u) c_{m-1}(chi).

    The trivial part is the closed form of
    Z(0) + Coeff_{t^{m-1}} (t-q) Z(s, triv) / ((q-1)(1-t)), using that the
    measure of {f_l = 0} on the variety is zero under the running
    hypotheses.  m = 0 is degenerate and returns 0 by definition.

    Only conductor <= 1 characters enter the RHS.  For m = 1 that is the
    whole identity (higher conductors would extract a t^{negative}
    coefficient, which vanishes); for m >= 2 the residual is small exactly
    when the conductor >= 2 twists of the zeta function vanish.
    """
    if m == 0:
        return 0.0
    p = ctx.p
    # E first: it rejects a negative m and names a budget refusal.
    lhs = exp_sum(sys, ctx, m, u, budget)
    norm = Fraction(1, p ** (m * (sys.n - sys.l + 1)))
    counts = _ac_counts(sys, ctx, m - 1, budget)
    c_triv = sum(counts.values()) * norm
    rhs = complex(float(count_Nm(sys, ctx, m, budget) * norm - c_triv / (p - 1)))
    for chi in all_characters(p):
        if chi.trivial:
            continue
        rhs += gaussian_sum(chi.inverse()) * chi.value(u) * _twisted_coeff(counts, chi, norm)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Local delta-integrals (Lemma-level oracle)
# ---------------------------------------------------------------------------


def lemma1A_eval(sys: PolySystem, ctx: PrimeContext, x0, m: int, a) -> tuple[str, FactoredRationalFunction]:
    """Classify x0 against the face variety mod p^m and return the local
    integral of |f_{l,a}|^s over x0 + (p^m Z_p)^n against the head deltas.

    Cases: 0 off the head variety; q^{-m(n-l+1)} t^k when the last face
    value has order k < m; the full unit-interval integral when x0 lies on
    the whole face variety mod p^m.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    p = ctx.p
    x0 = tuple(int(x) for x in x0)
    if any(x % p == 0 for x in x0):
        raise ValueError("x0 must have unit coordinates")
    modulus = p**m
    faces = [face_function(f, a) for f in sys.polys]
    q = ctx.q
    scale = Fraction(1, q ** (m * (sys.n - sys.l + 1)))
    if any(g.evaluate_mod(x0, modulus) != 0 for g in faces[:-1]):
        return "off_variety", FactoredRationalFunction.zero(q)
    value = faces[-1].evaluate_mod(x0, modulus)
    if value != 0:
        k = 0
        v = value
        while v % p == 0:
            k += 1
            v //= p
    else:
        k = m  # order >= m mod p^m
    if k < m:
        return "unit_times_tk", FactoredRationalFunction(q, {k: scale})
    frf = FactoredRationalFunction(
        q, {m: scale * (1 - Fraction(1, q))}, {(-1, 1): 1}
    )
    return "on_closed_variety", frf


# ---------------------------------------------------------------------------
# delta_r measures
# ---------------------------------------------------------------------------


@dataclass
class DeltaRReport:
    r: int
    level: int
    region: str
    measures: dict[int, Fraction]       # k -> q^{r(l-1)} * measure at depth r
    measures_next: dict[int, Fraction]  # same at r+1
    stabilized: bool


def deltaR_measures(
    sys: PolySystem,
    ctx: PrimeContext,
    r: int,
    level: int,
    region: str = "full",
    k_max: int | None = None,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> DeltaRReport:
    """Finite-level approximations to the delta_r-regularised zeta measures.

    For each k <= k_max, the normalised count of x mod p^level in the region
    with ord f_i >= r (i < l) and ord f_l = k, scaled by q^{r(l-1)}.  The
    diagnostic repeats the computation at r+1; disagreement is reported, not
    asserted, since stabilisation is only guaranteed under non-degeneracy.
    """
    if region not in ("full", "origin"):
        raise ValueError("region must be 'full' or 'origin'")
    if k_max is None:
        k_max = level - 1
    if k_max > level - 1:
        raise ValueError(f"k_max={k_max} not determined mod p^{level}")
    if level < r + 2:
        raise ValueError("need level >= r + 2 for the stabilisation diagnostic")
    heads = (_head_levels(sys, ctx.p, d, budget, "delta_r enumeration")[d][0] for d in (r, r + 1))
    measures, measures_next = (
        _delta_measures_at(sys, ctx, r + i, head, level, region, k_max, budget)
        for i, head in enumerate(heads)
    )
    return DeltaRReport(
        r, level, region, measures, measures_next, measures == measures_next
    )


def _delta_measures_at(sys, ctx, r, head, level, region, k_max, budget) -> dict[int, Fraction]:
    """Counts of ord f_l = k over every lift to p^level of ``head`` = H_r
    (ord f_i >= r for i < l is vanishing mod p^r), scaled by q^{r(l-1)}."""
    p = ctx.p
    modulus = p**r
    if region == "origin":
        keep = np.logical_and.reduce([x % p == 0 for x in head])
        head = [x[keep] for x in head]
        # Mod 1 the origin is not yet a residue class: the one point of H_0
        # stands for 0 mod p.
        modulus = max(modulus, p)
    width = p**level // modulus
    check_budget(len(head[0]) * width**sys.n, budget, "delta_r enumeration")
    counts = dict.fromkeys(range(k_max + 1), 0)
    for coords in _lifts(head, modulus, width):
        fl = eval_on_grid(sys.polys[-1], coords, p**level)
        # Before step k, fl holds f_l / p^k where p^k divides f_l: those
        # not divisible by p once more have ord f_l = k.
        for k in counts:
            divisible = fl[fl % p == 0]
            counts[k] += len(fl) - len(divisible)
            fl = divisible // p
    scale = Fraction(p ** (r * (sys.l - 1)), p ** (level * sys.n))
    return {k: scale * c for k, c in counts.items()}
