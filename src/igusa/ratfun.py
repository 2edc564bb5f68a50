"""Exact arithmetic in Q(t) for t = q^{-s}, with factored denominators.

Values are kept as numerator polynomials over Q together with a multiset of
denominator factors (1 - q^a t^b), b >= 1.  Factors with b = 0 are plain
nonzero rationals and are folded into the numerator on construction.  A
denominator factor is cancelled only when it divides the numerator exactly;
everything is arbitrary-precision, no floating point.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

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
        self.num: dict[int, Fraction] = {}
        if num:
            for k, c in num.items():
                k = _integer(k, "power of t")
                if k < 0:
                    raise ValueError(f"negative power t^{k}: the numerator must be a polynomial")
                c = Fraction(c)
                if c != 0:
                    self.num[k] = c
        self.den: Counter[Factor] = Counter()
        if den:
            for factor, mult in den.items():
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
                    self.num = {k: c / scalar**mult for k, c in self.num.items()}
                else:
                    self.den[(a, b)] += mult
        if not self.num:
            self.den = Counter()
        self._cancel()

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(q: int) -> "FactoredRationalFunction":
        return FactoredRationalFunction(q)

    @staticmethod
    def one(q: int) -> "FactoredRationalFunction":
        return FactoredRationalFunction(q, {0: Fraction(1)})

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def copy(self) -> "FactoredRationalFunction":
        out = FactoredRationalFunction(self.q)
        out.num = dict(self.num)
        out.den = Counter(self.den)
        return out

    def expanded(self) -> tuple[dict[int, Fraction], dict[int, Fraction]]:
        """(numerator, expanded denominator polynomial) -- for cross checks."""
        den_poly = {0: Fraction(1)}
        for (a, b), mult in sorted(self.den.items()):
            for _ in range(mult):
                den_poly = _poly_mul(den_poly, {0: Fraction(1), b: -qpow(self.q, a)})
        return dict(self.num), den_poly

    # -- canonical form -----------------------------------------------------

    def _cancel(self):
        if not self.num:
            self.den = Counter()
            return
        for factor in sorted(self.den):
            while self.den[factor] > 0:
                quotient = _divide_by_factor(self.num, factor, self.q)
                if quotient is None:
                    break
                self.num = quotient
                self.den[factor] -= 1
        self.den = Counter({f: m for f, m in self.den.items() if m > 0})

    # -- arithmetic ---------------------------------------------------------

    def _require_same_q(self, other: "FactoredRationalFunction"):
        if self.q != other.q:
            raise ValueError("mixed primes in rational function arithmetic")

    def __add__(self, other: "FactoredRationalFunction") -> "FactoredRationalFunction":
        self._require_same_q(other)
        common = Counter()
        for f in set(self.den) | set(other.den):
            common[f] = max(self.den.get(f, 0), other.den.get(f, 0))
        num = _poly_add(
            _scale_to_common(self.num, self.den, common, self.q),
            _scale_to_common(other.num, other.den, common, self.q),
        )
        out = FactoredRationalFunction(self.q)
        out.num = num
        out.den = Counter({f: m for f, m in common.items() if m > 0}) if num else Counter()
        out._cancel()
        return out

    def __neg__(self) -> "FactoredRationalFunction":
        out = self.copy()
        out.num = {k: -c for k, c in out.num.items()}
        return out

    def __sub__(self, other: "FactoredRationalFunction") -> "FactoredRationalFunction":
        return self + (-other)

    def __mul__(self, other: "FactoredRationalFunction") -> "FactoredRationalFunction":
        self._require_same_q(other)
        out = FactoredRationalFunction(self.q)
        out.num = _poly_mul(self.num, other.num)
        out.den = (self.den + other.den) if out.num else Counter()
        out._cancel()
        return out

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
        groups: dict[Fraction, list[tuple[Factor, int]]] = {}
        for (a, b), mult in self.den.items():
            groups.setdefault(Fraction(a, b), []).append(((a, b), mult))
        lines = []
        for re, factors in sorted(groups.items()):
            period = 1
            mult_total = 0
            for (a, b), mult in factors:
                period = period * b // gcd(period, b)
                mult_total += mult
            lines.append(PoleLine(re, period, mult_total))
        return lines

    # -- rendering ----------------------------------------------------------

    def t_form(self) -> str:
        if self.is_zero():
            return "0"
        num = " + ".join(
            f"({c!s})*t^{k}" if k else f"({c!s})"
            for k, c in sorted(self.num.items())
        )
        if not self.den:
            return num
        den = "*".join(
            f"(1 - {_q_power_str(self.q, a)}*t^{b})" + (f"^{m}" if m > 1 else "")
            for (a, b), m in sorted(self.den.items())
        )
        return f"[{num}] / [{den}]"

    def s_form(self) -> str:
        """Rendering with t^b replaced by p^{-bs}, matching table style."""
        if self.is_zero():
            return "0"
        num = " + ".join(
            f"({c!s})*{self.q}^{{-{k}s}}" if k else f"({c!s})"
            for k, c in sorted(self.num.items())
        )
        if not self.den:
            return num
        den = "*".join(
            f"(1 - {self.q}^{{{a} - {b}s}})" + (f"^{m}" if m > 1 else "")
            for (a, b), m in sorted(self.den.items())
        )
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


def _scale_to_common(num, den: Counter, common: Counter, q: int) -> dict[int, Fraction]:
    out = dict(num)
    for factor, mult in common.items():
        missing = mult - den.get(factor, 0)
        a, b = factor
        for _ in range(missing):
            out = _poly_mul(out, {0: Fraction(1), b: -qpow(q, a)})
    return out


def _divide_by_factor(num: dict[int, Fraction], factor: Factor, q: int) -> dict[int, Fraction] | None:
    """Exact quotient num / (1 - q^a t^b), or None if not divisible."""
    a, b = factor
    if not num:
        return {}
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


def _q_power_str(q: int, a: int) -> str:
    return f"{q}^{a}" if a != 1 else str(q)
