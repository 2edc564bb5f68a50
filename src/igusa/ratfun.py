"""Exact arithmetic in Q(t) for t = q^{-s}, with factored denominators.

Values are kept as numerator polynomials over Q, held as integer
coefficients over one positive integer with no common factor (``num`` reads
them as Fractions), together with a multiset of denominator factors
(1 - q^a t^b), b >= 1.  Factors with b = 0 are plain nonzero rationals and
are folded into that integer on construction.  A denominator factor is
cancelled when it divides the numerator exactly: bottom-up for a >= 0;
top-down by q^|a| - t^b for a < 0, which is primitive, so by Gauss's lemma
the quotient is integral.  Otherwise, for each k > 1 dividing gcd(a, b),
largest first, with x = q^(a/k) t^(b/k), the factor 1 - x^k is replaced by
1 - x when its cofactor 1 + x + ... + x^(k-1) divides the numerator; this
repeats until nothing divides.  Everything is arbitrary-precision, no
floating point.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

Factor = tuple[int, int]  # (a, b) encodes 1 - q^a t^b


def _integer(x, what: str) -> int:
    if int(x) != x:
        raise ValueError(f"{what} {x!r} is not an integer")
    return int(x)


def qpow(q: int, a: int) -> Fraction:
    return Fraction(q**a) if a >= 0 else Fraction(1, q**(-a))


@dataclass
class PoleLine:
    """One line of poles Re(s) = re with imaginary spacing 2*pi/(period log q)."""

    re: Fraction
    period: int
    multiplicity: int


class FactoredRationalFunction:
    """numerator(t) / prod (1 - q^a t^b); q is a fixed numeric prime."""

    __slots__ = ("q", "_num", "_d", "den", "_strings")

    def __init__(self, q: int, num: dict[int, Fraction] | None = None, den: dict[Factor, int] | None = None):
        self.q = q
        num = {k: Fraction(c) for k, c in (num or {}).items()}
        d = lcm(*(c.denominator for c in num.values()))
        self._enter({k: c.numerator * (d // c.denominator) for k, c in num.items()}, d, den or {})

    def _enter(self, num: dict[int, int], d: int, den: dict[Factor, int]) -> "FactoredRationalFunction":
        """The one entry, from integers: checks, folds b = 0 factors into d, reduces."""
        clean: dict[int, int] = {}
        for k, c in num.items():
            k = _integer(k, "power of t")
            if k < 0:
                raise ValueError(f"negative power t^{k}: the numerator must be a polynomial")
            if c:
                clean[k] = c
        factors: Counter[Factor] = Counter()
        for factor, mult in den.items():
            a, b = (_integer(e, "factor exponent") for e in factor)
            mult = _integer(mult, "multiplicity")
            if mult < 0:
                raise ValueError("negative factor multiplicity")
            if b < 0:
                raise ValueError("factor needs b >= 0")
            if b == 0:
                top, bottom = (1 - self.q**a, 1) if a >= 0 else (self.q**-a - 1, self.q**-a)  # 1 - q^a
                if top == 0:
                    raise ValueError("factor (1 - q^0 t^0) is zero")
                clean = {k: c * bottom**mult for k, c in clean.items()}
                d *= top**mult
            else:
                factors[(a, b)] += mult
        return self._reduce(clean, d, factors)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(q: int) -> "FactoredRationalFunction":
        return FactoredRationalFunction(q)

    @staticmethod
    def one(q: int) -> "FactoredRationalFunction":
        return FactoredRationalFunction(q, {0: 1})

    @staticmethod
    def from_integers(q: int, num: dict[int, int], d: int, den: dict[Factor, int]) -> "FactoredRationalFunction":
        """(sum_k num[k] t^k) / d / prod den from integers over one nonzero d, with no Fraction."""
        return FactoredRationalFunction(q)._enter(num, d, den)

    @staticmethod
    def sum(q: int, terms) -> "FactoredRationalFunction":
        """All terms over their least common denominator, cancelled once."""
        terms = list(terms)
        if any(r.q != q for r in terms):
            raise ValueError("mixed primes in rational function arithmetic")
        common: Counter[Factor] = Counter()
        for r in terms:
            common |= r.den
        parts = [_times_factors(r._num, r._d, common - r.den, q) for r in terms]
        d = lcm(*(dr for _, dr in parts))
        num: dict[int, int] = {}
        for nr, dr in parts:
            num = _poly_add(num, {k: c * (d // dr) for k, c in nr.items()})
        return FactoredRationalFunction(q)._reduce(num, d, common)

    # -- structure ----------------------------------------------------------

    @property
    def num(self) -> dict[int, Fraction]:
        return {k: Fraction(c, self._d) for k, c in self._num.items()}

    def coefficient_strings(self) -> dict[int, str]:
        """The numerator's coefficients by ascending power of t, as str(Fraction) writes them; built once."""
        if self._strings is None:
            parts = ((k, c // (g := gcd(c, self._d)), self._d // g) for k, c in sorted(self._num.items()))
            self._strings = {k: f"{c}/{d}" if d > 1 else f"{c}" for k, c, d in parts}
        return self._strings

    def is_zero(self) -> bool:
        return not self._num

    def expanded(self) -> tuple[dict[int, Fraction], dict[int, Fraction]]:
        """(numerator, expanded denominator polynomial) -- for cross checks."""
        poly, d = _times_factors({0: 1}, 1, self.den, self.q)
        return self.num, {k: Fraction(c, d) for k, c in poly.items()}

    # -- canonical form -----------------------------------------------------

    def _reduce(self, num: dict[int, int], d: int, den: Counter) -> "FactoredRationalFunction":
        """Set the canonical form of (num / d) / den (the module docstring's rule)."""
        den = +den if num else Counter()
        todo = sorted(den, reverse=True)
        while todo:
            factor = todo.pop()
            while den[factor] and (quotient := _divide_by_factor(num, factor, self.q)) is not None:
                num, den[factor] = quotient, den[factor] - 1
            g = gcd(*factor)
            for k in range(g, 1, -1):
                if g % k or not den[factor]:
                    continue
                x = (factor[0] // k, factor[1] // k)
                # the cofactor divides num iff (1 - x) num is divisible by 1 - x^k
                times_x, d_x = _times_factors(num, d, {x: 1}, self.q)
                quotient = _divide_by_factor(times_x, factor, self.q)
                if quotient is not None:
                    num, d, den[factor] = quotient, d_x, den[factor] - 1
                    den[x] += 1
                    todo += [x, factor]
                    break
        g = gcd(d, *num.values()) if d > 0 else -gcd(d, *num.values())
        self._num, self._d, self.den = {k: c // g for k, c in num.items()}, d // g, +den
        self._strings = None
        return self

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "FactoredRationalFunction") -> "FactoredRationalFunction":
        return FactoredRationalFunction.sum(self.q, (self, other))

    def __neg__(self) -> "FactoredRationalFunction":
        return FactoredRationalFunction(self.q)._reduce({k: -c for k, c in self._num.items()}, self._d, self.den)

    def __sub__(self, other: "FactoredRationalFunction") -> "FactoredRationalFunction":
        return self + (-other)

    def __mul__(self, other: "FactoredRationalFunction") -> "FactoredRationalFunction":
        if self.q != other.q:
            raise ValueError("mixed primes in rational function arithmetic")
        return FactoredRationalFunction(self.q)._reduce(_poly_mul(self._num, other._num), self._d * other._d, self.den + other.den)

    def shifted(self, powers: int) -> "FactoredRationalFunction":
        """Multiply by t^powers; the numerator must stay a polynomial."""
        return FactoredRationalFunction(self.q, {k + powers: v for k, v in self.num.items()}, self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FactoredRationalFunction):
            return NotImplemented
        if self.q != other.q:
            return False
        return (self - other).is_zero()

    # -- analysis -----------------------------------------------------------

    def taylor(self, order: int) -> list[Fraction]:
        """Coefficients of t^0 .. t^order of the power series at t = 0."""
        series = [self.num.get(k, Fraction(0)) for k in range(order + 1)]
        for (a, b), mult in sorted(self.den.items()):
            qa = qpow(self.q, a)
            for _ in range(mult):
                # divide by (1 - q^a t^b): s_k += q^a s_{k-b}
                for k in range(b, order + 1):
                    series[k] += qa * series[k - b]
        return series

    def poles(self) -> list[PoleLine]:
        """Pole lines of the canonical form, grouped by real part.

        Real part a/b in lowest terms; the period is the lcm of the b's of
        the factors on the line; multiplicity counts factors with their
        multiset multiplicity (each vanishes simply at the real point).
        """
        lines: dict[Fraction, PoleLine] = {}
        for (a, b), mult in self.den.items():
            line = lines.setdefault(Fraction(a, b), PoleLine(Fraction(a, b), 1, 0))
            line.period, line.multiplicity = lcm(line.period, b), line.multiplicity + mult
        return [lines[re] for re in sorted(lines)]

    # -- rendering ----------------------------------------------------------

    def t_form(self) -> str:
        q = self.q
        return self._render(lambda k: f"t^{k}", lambda a, b: f"1 - {q if a == 1 else f'{q}^{a}'}*t^{b}")

    def s_form(self) -> str:
        """Rendering with t^b replaced by p^{-bs}, matching table style."""
        q = self.q
        return self._render(lambda k: f"{q}^{{-{k}s}}", lambda a, b: f"1 - {q}^{{{a} - {b}s}}")

    def _render(self, power, factor) -> str:
        """[numerator] / [denominator], writing t^k as power(k) and 1 - q^a t^b as factor(a, b)."""
        if self.is_zero():
            return "0"
        num = " + ".join(f"({c})*{power(k)}" if k else f"({c})" for k, c in self.coefficient_strings().items())
        if not self.den:
            return num
        den = "*".join(f"({factor(a, b)})" + (f"^{m}" if m > 1 else "") for (a, b), m in sorted(self.den.items()))
        return f"[{num}] / [{den}]"

    def __repr__(self) -> str:
        return f"FRF(q={self.q}, {self.t_form()})"


# -- polynomial helpers (dict power -> coefficient) ------------------------


def _poly_add(p1: dict, p2: dict) -> dict:
    out = dict(p1)
    for k, c in p2.items():
        s = out.get(k, 0) + c
        if s == 0:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def _poly_mul(p1: dict, p2: dict) -> dict:
    out: dict = {}
    for k1, c1 in p1.items():
        for k2, c2 in p2.items():
            k = k1 + k2
            s = out.get(k, 0) + c1 * c2
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
    return out


def _times_factors(poly: dict[int, int], d: int, factors: Counter, q: int) -> tuple[dict[int, int], int]:
    """(poly / d) prod (1 - q^a t^b)^mult as (integer numerator, denominator)."""
    for (a, b), mult in factors.items():
        binomial = {0: 1, b: -(q**a)} if a >= 0 else {0: q**-a, b: -1}
        for _ in range(mult):
            poly = _poly_mul(poly, binomial)
        d *= q ** (max(-a, 0) * mult)
    return poly, d


def _divide_by_factor(num: dict[int, int], factor: Factor, q: int) -> dict[int, int] | None:
    """Exact quotient num / (1 - q^a t^b), or None if not divisible."""
    a, b = factor
    deg = max(num)
    if a < 0:
        # num / (q^|a| - t^b), top-down: the reversed num divided bottom-up
        # by 1 - q^|a| t^b is minus the reversed quotient.
        rev = _divide_by_factor({deg - k: c for k, c in num.items()}, (-a, b), q)
        return None if rev is None else {deg - b - k: -c * q**-a for k, c in rev.items()}
    qa = q**a
    quo: dict[int, int] = {}
    for k in range(deg + 1):
        c = num.get(k, 0)
        if k >= b:
            c += qa * quo.get(k - b, 0)
        if c:
            if k > deg - b:
                return None
            quo[k] = c
    return quo
