"""Independent brute-force ground truth.

Congruence counts N_m, exponential sums mod p^m, local delta-integrals,
character-twisted coefficient extraction, Gaussian sums, and the
stationary-phase residual.  Residue arithmetic is exact (the int64 grid
evaluator of ``polycore``, which refuses moduli that could overflow);
complex doubles appear only in the final exponential/summation step, with
tolerance 1e-9 at <= 1e7 summands.

Nothing in this module consults the explicit-formula engine: these are the
quantities the engine is tested against.  The engine's certificates and
torus counts share the grid evaluator, not the formula.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DEFAULT_ENUM_BUDGET, check_budget
from .polycore import PolySystem, PrimeContext, eval_on_grid, face_function, grid_chunks, grid_zeros
from .ratfun import FactoredRationalFunction


def _last_on_head(sys: PolySystem, axis, modulus: int, head_modulus: int):
    """Per grid chunk of axis^n, f_l mod modulus at the points where
    f_1, ..., f_{l-1} vanish mod head_modulus; chunks with none are skipped."""
    for coords in grid_chunks(axis, sys.n):
        head = grid_zeros(sys.polys[:-1], coords, head_modulus)
        if len(head[0]):
            yield eval_on_grid(sys.polys[-1], head, modulus)


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
    if m == 0:
        return 1
    modulus = ctx.p**m
    check_budget(modulus**sys.n, budget, "congruence enumeration")
    total = 0
    for coords in grid_chunks(np.arange(modulus), sys.n):
        total += len(grid_zeros(sys.polys, coords, modulus)[0])
    return total


def congruence_table(sys: PolySystem, ctx: PrimeContext, depth: int, budget: int = DEFAULT_ENUM_BUDGET) -> CongruenceTable:
    counts = {0: 1}
    for m in range(1, depth + 1):
        counts[m] = count_Nm(sys, ctx, m, budget)
    return CongruenceTable(ctx.p, depth, counts)


def exp_sum(sys: PolySystem, ctx: PrimeContext, m: int, u: int = 1, budget: int = DEFAULT_ENUM_BUDGET) -> complex:
    """E(u pi^-m) = q^{-m(n-l+1)} sum over V^{(l-1)}(Z/p^m) of e^{2 pi i u f_l / p^m}.

    m = 0 degenerates to the empty product level, where the sum is 1.
    """
    if m == 0:
        return complex(1.0)
    p = ctx.p
    modulus = p**m
    if u % p == 0:
        raise ValueError("u must be a unit")
    check_budget(modulus**sys.n, budget, "exponential-sum enumeration")
    total = 0j
    for fl in _last_on_head(sys, np.arange(modulus), modulus, modulus):
        phases = ((u % modulus) * fl) % modulus
        total += np.exp(2j * np.pi * phases / modulus).sum()
    norm = Fraction(1, p ** (m * (sys.n - sys.l + 1)))
    return complex(total * float(norm))


def expsum_table(sys: PolySystem, ctx: PrimeContext, levels: int, u: int = 1, budget: int = DEFAULT_ENUM_BUDGET) -> list[ExpSumValue]:
    return [ExpSumValue(m, u, exp_sum(sys, ctx, m, u, budget)) for m in range(levels + 1)]


# ---------------------------------------------------------------------------
# Multiplicative characters mod p (conductor <= 1)
# ---------------------------------------------------------------------------


def _primitive_root(p: int) -> int:
    order = p - 1
    factors = set()
    x, f = order, 2
    while f * f <= x:
        while x % f == 0:
            factors.add(f)
            x //= f
        f += 1
    if x > 1:
        factors.add(x)
    for g in range(2, p):
        if all(pow(g, order // fac, p) != 1 for fac in factors):
            return g
    raise RuntimeError("no primitive root found")


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


_dlog_cache: dict[int, dict[int, int]] = {}


def _dlog_table(p: int) -> dict[int, int]:
    table = _dlog_cache.get(p)
    if table is None:
        g = _primitive_root(p)
        table = {}
        acc = 1
        for k in range(p - 1):
            table[acc] = k
            acc = (acc * g) % p
        _dlog_cache[p] = table
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
    modulus = p ** (k + 1)
    check_budget(modulus**sys.n, budget, "coefficient enumeration")
    pk = p**k
    counts: dict[int, int] = {}
    for fl in _last_on_head(sys, np.arange(modulus), modulus, modulus):
        ord_k = (fl % pk == 0) & ((fl // pk) % p != 0)
        ac = (fl[ord_k] // pk) % p
        binc = np.bincount(ac, minlength=p)
        for unit in range(1, p):
            if binc[unit]:
                counts[unit] = counts.get(unit, 0) + int(binc[unit])
    return counts


def coeff_extract(sys: PolySystem, ctx: PrimeContext, k: int, chi: MultChar, budget: int = DEFAULT_ENUM_BUDGET) -> complex:
    """Coeff_{t^k} Z(s, chi): brute-force measure of {ord f_l = k} on the
    head variety, weighted by chi of the angular component of f_l."""
    if chi.p != ctx.p:
        raise ValueError("character prime differs from context prime")
    if chi.conductor > 1:
        raise ValueError("conductor > 1 characters are not supported")
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
    lhs = exp_sum(sys, ctx, m, u, budget)
    nm = count_Nm(sys, ctx, m, budget)
    # Every c_{m-1}(chi) weighs the same angular-component counts.
    counts = _ac_counts(sys, ctx, m - 1, budget)
    norm = Fraction(1, p ** (m * (sys.n - sys.l + 1)))
    c_triv = sum(counts.values()) * norm
    rhs = complex(float(nm * norm - c_triv / (p - 1)))
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
    measures = _delta_measures_at(sys, ctx, r, level, region, k_max, budget)
    measures_next = _delta_measures_at(sys, ctx, r + 1, level, region, k_max, budget)
    return DeltaRReport(
        r, level, region, measures, measures_next, measures == measures_next
    )


def _delta_measures_at(sys, ctx, r, level, region, k_max, budget) -> dict[int, Fraction]:
    p = ctx.p
    modulus = p**level
    if level < r + 1:
        raise ValueError("need level >= r + 1")
    step = p if region == "origin" else 1
    check_budget((modulus // step) ** sys.n, budget, "delta_r enumeration")
    pr = p**r  # divides modulus: ord f_i >= r is vanishing mod pr
    counts = {k: 0 for k in range(k_max + 1)}
    for fl in _last_on_head(sys, np.arange(0, modulus, step), modulus, pr):
        for k in range(k_max + 1):
            pk = p**k
            counts[k] += int(((fl % pk == 0) & ((fl // pk) % p != 0)).sum())
    scale = Fraction(p ** (r * (sys.l - 1)), modulus**sys.n)
    return {k: scale * c for k, c in counts.items()}
