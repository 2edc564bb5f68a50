"""Reference for ``igusa.ratfun``: the same canonical form over Fraction
coefficients.

This is the rational-function class the integer implementation replaced,
kept unchanged apart from this docstring so that tests can require equal
``num``, ``den``, renderings, Taylor coefficients and poles on seeded
inputs.  Values are kept as numerator polynomials over Q together with a
multiset of denominator factors (1 - q^a t^b), b >= 1.  Factors with b = 0
are plain nonzero rationals and are folded into the numerator on
construction.  A denominator factor is cancelled when it divides the
numerator exactly.  Otherwise, for each k > 1 dividing gcd(a, b), largest
first, with x = q^(a/k) t^(b/k), the factor 1 - x^k is replaced by 1 - x
when its cofactor 1 + x + ... + x^(k-1) divides the numerator; this repeats
until nothing divides.
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

    __slots__ = ("q", "num", "den")

    def __init__(self, q: int, num: dict[int, Fraction] | None = None, den: dict[Factor, int] | None = None):
        self.q = q
        clean: dict[int, Fraction] = {}
        for k, c in (num or {}).items():
            k = _integer(k, "power of t")
            if k < 0:
                raise ValueError(f"negative power t^{k}: the numerator must be a polynomial")
            c = Fraction(c)
            if c != 0:
                clean[k] = c
        factors: Counter[Factor] = Counter()
        for factor, mult in (den or {}).items():
            a, b = (_integer(e, "factor exponent") for e in factor)
            mult = _integer(mult, "multiplicity")
            if mult < 0:
                raise ValueError("negative factor multiplicity")
            if b < 0:
                raise ValueError("factor needs b >= 0")
            if b == 0:
                scalar = 1 - qpow(q, a)
                if scalar == 0:
                    raise ValueError("factor (1 - q^0 t^0) is zero")
                clean = {k: c / scalar**mult for k, c in clean.items()}
            else:
                factors[(a, b)] += mult
        self._reduce(clean, factors)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(q: int) -> "FactoredRationalFunction":
        return FactoredRationalFunction(q)

    @staticmethod
    def one(q: int) -> "FactoredRationalFunction":
        return FactoredRationalFunction(q, {0: Fraction(1)})

    @staticmethod
    def sum(q: int, terms) -> "FactoredRationalFunction":
        """All terms over their least common denominator, cancelled once."""
        terms = list(terms)
        if any(r.q != q for r in terms):
            raise ValueError("mixed primes in rational function arithmetic")
        common: Counter[Factor] = Counter()
        for r in terms:
            common |= r.den
        num: dict[int, Fraction] = {}
        for r in terms:
            num = _poly_add(num, _times_factors(r.num, common - r.den, q))
        return FactoredRationalFunction(q)._reduce(num, common)

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def copy(self) -> "FactoredRationalFunction":
        return FactoredRationalFunction(self.q)._reduce(dict(self.num), self.den)

    def expanded(self) -> tuple[dict[int, Fraction], dict[int, Fraction]]:
        """(numerator, expanded denominator polynomial) -- for cross checks."""
        return dict(self.num), _times_factors({0: Fraction(1)}, self.den, self.q)

    # -- canonical form -----------------------------------------------------

    def _reduce(self, num: dict[int, Fraction], den: Counter) -> "FactoredRationalFunction":
        """Set the canonical form of num / den (the module docstring's rule)."""
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
                quotient = _divide_by_factor(_times_factors(num, {x: 1}, self.q), factor, self.q)
                if quotient is not None:
                    num, den[factor] = quotient, den[factor] - 1
                    den[x] += 1
                    todo += [x, factor]
                    break
        self.num, self.den = num, +den
        return self

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "FactoredRationalFunction") -> "FactoredRationalFunction":
        return FactoredRationalFunction.sum(self.q, (self, other))

    def __neg__(self) -> "FactoredRationalFunction":
        return FactoredRationalFunction(self.q)._reduce({k: -c for k, c in self.num.items()}, self.den)

    def __sub__(self, other: "FactoredRationalFunction") -> "FactoredRationalFunction":
        return self + (-other)

    def __mul__(self, other: "FactoredRationalFunction") -> "FactoredRationalFunction":
        if self.q != other.q:
            raise ValueError("mixed primes in rational function arithmetic")
        return FactoredRationalFunction(self.q)._reduce(_poly_mul(self.num, other.num), self.den + other.den)

    def shifted(self, powers: int) -> "FactoredRationalFunction":
        """Multiply by t^powers; the numerator must stay a polynomial."""
        return FactoredRationalFunction(self.q, {k + powers: v for k, v in self.num.items()}, self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FactoredRationalFunction):
            return NotImplemented
        if self.q != other.q:
            return False
        n1, d1 = self.expanded()
        n2, d2 = other.expanded()
        return _poly_mul(n1, d2) == _poly_mul(n2, d1)

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
        num = " + ".join(f"({c!s})*{power(k)}" if k else f"({c!s})" for k, c in sorted(self.num.items()))
        if not self.den:
            return num
        den = "*".join(f"({factor(a, b)})" + (f"^{m}" if m > 1 else "") for (a, b), m in sorted(self.den.items()))
        return f"[{num}] / [{den}]"

    def __repr__(self) -> str:
        return f"FRF(q={self.q}, {self.t_form()})"


# -- polynomial helpers (dict power -> Fraction) ----------------------------


def _poly_add(p1: dict[int, Fraction], p2: dict[int, Fraction]) -> dict[int, Fraction]:
    out = dict(p1)
    for k, c in p2.items():
        s = out.get(k, Fraction(0)) + c
        if s == 0:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def _poly_mul(p1: dict[int, Fraction], p2: dict[int, Fraction]) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for k1, c1 in p1.items():
        for k2, c2 in p2.items():
            k = k1 + k2
            s = out.get(k, Fraction(0)) + c1 * c2
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
    return out


def _times_factors(poly: dict[int, Fraction], factors: Counter, q: int) -> dict[int, Fraction]:
    """poly * prod (1 - q^a t^b)^mult, multiplied in one binomial at a time."""
    for (a, b), mult in factors.items():
        for _ in range(mult):
            poly = _poly_mul(poly, {0: Fraction(1), b: -qpow(q, a)})
    return poly


def _divide_by_factor(num: dict[int, Fraction], factor: Factor, q: int) -> dict[int, Fraction] | None:
    """Exact quotient num / (1 - q^a t^b), or None if not divisible."""
    a, b = factor
    deg = max(num)
    qa = qpow(q, a)
    quo: dict[int, Fraction] = {}
    for k in range(deg + 1):
        c = num.get(k, Fraction(0))
        if k >= b:
            c += qa * quo.get(k - b, Fraction(0))
        if c != 0:
            if k > deg - b:
                return None
            quo[k] = c
    return quo
