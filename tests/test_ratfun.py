import functools
import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
import ratfun_reference as ref

from igusa.ratfun import FactoredRationalFunction as FRF
from igusa.ratfun import _poly_add, _poly_mul, qpow


def F(q, num, den=None):
    return FRF(q, {k: Fraction(v) for k, v in num.items()}, den or {})


def geometric_factor(q, a, b):
    """q^a t^b / (1 - q^a t^b); for b = 0 this is the scalar it equals."""
    if b == 0:
        return FRF(q, {0: qpow(q, a) / (1 - qpow(q, a))})
    return FRF(q, {b: qpow(q, a)}, {(a, b): 1})


def scaled(r, c):
    """c * r, by scaling the numerator."""
    c = Fraction(c)
    if c == 0:
        return FRF.zero(r.q)
    return FRF(r.q, {k: v * c for k, v in r.num.items()}, r.den)


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        r = F(5, {0: 0, 2: 3})
        assert r.num == {2: Fraction(3)}

    def test_b_zero_factor_folds_to_scalar(self):
        # 1 / (1 - q^{-1}) = q/(q-1)
        r = FRF(5, {0: 1}, {(-1, 0): 1})
        assert r == F(5, {0: Fraction(5, 4)})

    def test_zero_factor_rejected(self):
        with pytest.raises(ValueError):
            FRF(5, {0: 1}, {(0, 0): 1})

    def test_cancellation_exact(self):
        # (1 - q^2 t) / (1 - q^2 t) = 1
        r = FRF(3, {0: 1, 1: -9}, {(2, 1): 1})
        assert r.den == {}
        assert r == FRF.one(3)

    @pytest.mark.parametrize("num", [{-1: 1}, {-2: 3, 0: 1}])
    def test_negative_power_rejected(self, num):
        # t^-1 / (1 - 5t) is not a polynomial over a factored denominator;
        # it must not be read as the zero function.
        with pytest.raises(ValueError):
            FRF(5, num, {(1, 1): 1})

    @pytest.mark.parametrize(
        "num, den",
        [({1.5: 1}, None), ({1: 1}, {(1.7, 1.2): 1}), ({1: 1}, {(1, 1.5): 1}), ({1: 1}, {(1, 1): 1.5}),
         ({Fraction(3, 2): 1}, None)],
    )
    def test_non_integer_power_rejected(self, num, den):
        # t^1.5, 1 - q^1.7 t^1.2 and (1 - q t)^1.5 have no meaning here; they
        # must not be truncated to integers.
        with pytest.raises(ValueError, match="not an integer"):
            FRF(5, num, den)

    def test_integral_values_of_other_types_accepted(self):
        assert FRF(5, {Fraction(2): 1}, {(1, 2.0): Fraction(1)}) == FRF(5, {2: 1}, {(1, 2): 1})

    def test_shift_below_t0_rejected(self):
        r = FRF(5, {0: 1}, {(1, 1): 1})
        with pytest.raises(ValueError):
            r.shifted(-1)
        assert r.shifted(1).shifted(-1).taylor(2) == [1, 5, 25]

    def test_partial_cancellation_kept(self):
        # numerator (1 - q t) does not divide (1 - q^2 t^2) fully
        r = FRF(3, {0: 1, 1: -3}, {(2, 2): 1})
        assert dict(r.den) == {(2, 2): 1}


class TestArithmetic:
    def test_add_zero(self):
        r = geometric_factor(5, -1, 2)
        assert r + FRF.zero(5) == r

    def test_telescoping(self):
        # 1/(1-q^{-1}t) + (-q^{-1}t)/(1-q^{-1}t) = 1
        a = FRF(5, {0: 1}, {(-1, 1): 1})
        b = FRF(5, {1: Fraction(-1, 5)}, {(-1, 1): 1})
        assert a + b == FRF.one(5)

    def test_shared_factor_sum(self):
        # three identical golden-row terms add coefficients
        p = 5
        term = FRF(
            p,
            {14: Fraction((p - 1) ** 2, p**2) * Fraction(1, p**5)},
            {(-3, 8): 1, (-2, 6): 1},
        )
        total = term + term + term
        expected = scaled(term, 3)
        assert total == expected
        assert dict(total.den) == {(-3, 8): 1, (-2, 6): 1}

    def test_golden_row_product(self):
        # (1-p^{-1})^2 * [p^{-1}/(1-p^{-1})] * [p^{-3}t^8/(1-p^{-3}t^8)]
        p = 5
        l_part = F(p, {0: Fraction((p - 1) ** 2, p**2)})
        e_ray = geometric_factor(p, -1, 0)
        p1_ray = geometric_factor(p, -3, 8)
        product = l_part * e_ray * p1_ray
        expected = FRF(p, {8: Fraction(p - 1, p) * Fraction(1, p) * Fraction(1, p**3)}, {(-3, 8): 1})
        assert product == expected

    def test_mul_identity_and_inverse_factor(self):
        r = FRF(7, {0: 1, 3: Fraction(2, 7)}, {(-2, 3): 2})
        assert r * FRF.one(7) == r
        factor = FRF(7, {0: 1, 1: -Fraction(7)}, {})  # (1 - q t)
        inv = FRF(7, {0: 1}, {(1, 1): 1})
        assert factor * inv == FRF.one(7)

    def test_mixed_primes_rejected(self):
        with pytest.raises(ValueError):
            FRF.one(3) + FRF.one(5)


class TestTaylor:
    def test_geometric(self):
        r = FRF(5, {0: Fraction(4, 5)}, {(-1, 1): 1})
        assert r.taylor(2) == [Fraction(4, 5), Fraction(4, 25), Fraction(4, 125)]

    def test_growing_coefficients(self):
        r = FRF(3, {0: 1}, {(2, 1): 1})
        assert r.taylor(2) == [1, 9, 81]

    def test_t_squared_over_one_minus_t_squared(self):
        r = FRF(5, {2: 1}, {(0, 2): 1})
        assert r.taylor(5) == [0, 0, 1, 0, 1, 0]

    def test_additive(self):
        a = FRF(3, {1: Fraction(1, 3)}, {(-1, 2): 1})
        b = FRF(3, {0: 2}, {(1, 1): 1, (-1, 2): 1})
        lhs = (a + b).taylor(8)
        rhs = [x + y for x, y in zip(a.taylor(8), b.taylor(8))]
        assert lhs == rhs

    def test_multiplicative_cauchy(self):
        a = FRF(3, {1: Fraction(1, 3)}, {(-1, 2): 1})
        b = FRF(3, {0: 2, 2: -1}, {(1, 1): 1})
        lhs = (a * b).taylor(8)
        ta, tb = a.taylor(8), b.taylor(8)
        rhs = [sum(ta[i] * tb[k - i] for i in range(k + 1)) for k in range(9)]
        assert lhs == rhs


class TestPoles:
    def test_single_line(self):
        r = FRF(5, {0: Fraction(4, 5)}, {(-1, 1): 1})
        lines = r.poles()
        assert len(lines) == 1
        assert (lines[0].re, lines[0].period, lines[0].multiplicity) == (Fraction(-1), 1, 1)

    def test_grouped_lines(self):
        r = FRF(5, {0: 1}, {(-1, 1): 1, (-2, 2): 1, (-3, 8): 1})
        lines = {l.re: l for l in r.poles()}
        assert set(lines) == {Fraction(-1), Fraction(-3, 8)}
        assert lines[Fraction(-1)].multiplicity == 2
        assert lines[Fraction(-1)].period == 2
        assert lines[Fraction(-3, 8)].period == 8

    def test_invariant_under_redundant_factor(self):
        r = FRF(5, {6: Fraction(12, 625)}, {(-2, 6): 1})
        padded = FRF(
            5,
            {k + 0: c for k, c in r.num.items()},
            {(-2, 6): 1},
        )
        extra = FRF(5, {0: 1, 3: -Fraction(1, 25)}, {})  # (1 - q^{-2} t^3)
        same = (r * extra) * FRF(5, {0: 1}, {(-2, 3): 1})
        assert [(l.re, l.period, l.multiplicity) for l in same.poles()] == [
            (l.re, l.period, l.multiplicity) for l in padded.poles()
        ]



def _random_poly(rng) -> dict[int, Fraction]:
    return {rng.randint(0, 4): Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))}


def _coprime(p1, p2) -> bool:
    """Whether two nonzero polynomials (dict power -> Fraction) have a constant gcd."""
    a, b = ([p.get(k, Fraction(0)) for k in range(max(p) + 1)] for p in (p1, p2))
    while any(b):
        while not b[-1]:
            b.pop()
        while len(a) >= len(b):  # a := a mod b
            c, shift = a[-1] / b[-1], len(a) - len(b)
            a = [x - c * b[i - shift] if i >= shift else x for i, x in enumerate(a)][:-1]
        a, b = b, a
    return len(a) == 1


class TestReducedForm:
    def test_partial_cofactor_cancelled(self):
        # (1 + 3t) / (1 - 9t^2) = 1 / (1 - 3t)
        r = FRF(3, {0: 1, 1: 3}, {(2, 2): 1})
        assert (r.num, dict(r.den)) == ({0: 1}, {(1, 1): 1})
        assert [(l.re, l.period) for l in r.poles()] == [(1, 1)]

    def test_largest_cofactor_and_each_multiplicity(self):
        x = Fraction(1, 5)  # x = 5^-1 t
        # (1 + x + x^2 + x^3) / (1 - x^4) = 1 / (1 - x)
        r = FRF(5, {0: 1, 1: x, 2: x**2, 3: x**3}, {(-4, 4): 1})
        assert (r.num, dict(r.den)) == ({0: 1}, {(-1, 1): 1})
        # (1 + x^2) / (1 - x^4) = 1 / (1 - x^2): only the k = 2 cofactor divides
        r = FRF(5, {0: 1, 2: x**2}, {(-4, 4): 1})
        assert (r.num, dict(r.den)) == ({0: 1}, {(-2, 2): 1})
        # (1 + x)^2 / (1 - x^2)^2 = 1 / (1 - x)^2
        r = FRF(5, {0: 1, 1: 2 * x, 2: x**2}, {(-2, 2): 2})
        assert (r.num, dict(r.den)) == ({0: 1}, {(-1, 1): 2})

    def test_sum_in_any_order(self):
        # Pairs P / (1 - x^k) and (C R - P) / (1 - x^k), C the cofactor of
        # 1 - x^k, sum to R / (1 - x); terms over 1 - x and over an unrelated
        # factor are mixed in.  The one sum, and running sums, in several
        # orders give the same num and den whenever the result is fully reduced.
        rng = random.Random(20261019)
        reduced = cancelled = 0
        for _ in range(150):
            q = rng.choice([3, 5, 7])
            a, b, k = rng.randint(-3, 0), rng.randint(1, 2), rng.choice([2, 3])
            power = (k * a, k * b)
            cofactor = {i * b: qpow(q, i * a) for i in range(k)}
            terms = [FRF(q, _random_poly(rng), {f: 1}) for f in ((a, b), (-1, 3))]
            for _ in range(rng.randint(1, 2)):
                p = _random_poly(rng)
                rest = _poly_add(_poly_mul(cofactor, _random_poly(rng)), {e: -c for e, c in p.items()})
                terms += [FRF(q, p, {power: 1}), FRF(q, rest, {power: 1})]
            total = FRF.sum(q, terms)
            if not total.num or not _coprime(*total.expanded()):
                continue
            reduced += 1
            cancelled += power not in total.den
            for order in [terms[::-1], *(rng.sample(terms, len(terms)) for _ in range(3))]:
                for other in (FRF.sum(q, order), functools.reduce(FRF.__add__, order)):
                    assert (other.num, other.den) == (total.num, total.den)
        assert reduced >= 100 and cancelled >= 100


# ---------------------------------------------------------------------------
# The integer implementation against the Fraction reference it replaced
# ---------------------------------------------------------------------------


def _seeded_case(rng):
    """(q, numerator, denominator) over Fractions whose numerator shares some
    of the denominator's factors or their cyclotomic cofactors, so that
    _reduce cancels factors with a >= 0 (bottom-up), with a < 0 (top-down)
    and through the cofactor branch; b = 0 factors are mixed in."""
    q = rng.choice([3, 5, 7])
    den = Counter()
    num = _random_poly(rng)
    for _ in range(rng.randint(1, 3)):
        a, b = rng.randint(-3, 2), rng.randint(1, 2)
        k = rng.choice([1, 1, 2, 3])
        den[(k * a, k * b)] += 1
        roll = rng.random()
        if roll < 0.4:  # the factor itself divides the numerator
            num = ref._times_factors(num, {(k * a, k * b): 1}, q)
        elif roll < 0.7:  # only its cofactor does
            num = _poly_mul(num, {i * b: qpow(q, i * a) for i in range(k)})
    if rng.random() < 0.4:
        den[(rng.choice([-2, -1, 1, 2]), 0)] += rng.randint(1, 2)
    return q, num, den


def _observed(r):
    return (r.num, dict(r.den), r.t_form(), r.s_form(), r.taylor(7),
            [(line.re, line.period, line.multiplicity) for line in r.poles()])


class TestAgainstFractionReference:
    """Construction, ``sum`` and ``*`` give the reference's canonical form."""

    def test_seeded_inputs(self):
        rng = random.Random(20261020)
        seen = Counter()
        for _ in range(300):
            cases = [_seeded_case(rng) for _ in range(3)]
            q = cases[0][0]
            cases = [(q, num, den) for _, num, den in cases]
            ours = [FRF(*case) for case in cases]
            theirs = [ref.FactoredRationalFunction(*case) for case in cases]
            results = [
                (ours[0], theirs[0], cases[0][2]),
                (FRF.sum(q, ours), ref.FactoredRationalFunction.sum(q, theirs), sum((c[2] for c in cases), Counter())),
                (ours[1] * ours[2], theirs[1] * theirs[2], cases[1][2] + cases[2][2]),
            ]
            # The integer entry, over a scaled denominator of either sign.
            scale = rng.choice([1, -1, 6, -35])
            d = scale * lcm(*(Fraction(c).denominator for c in cases[0][1].values()))
            ints = {k: Fraction(c) * d for k, c in cases[0][1].items()}
            assert _observed(FRF.from_integers(q, {k: int(c) for k, c in ints.items()}, d, cases[0][2])) == _observed(ours[0])
            for mine, expected, den in results:
                assert _observed(mine) == _observed(expected)
                strings = mine.coefficient_strings()
                assert list(strings.items()) == [(k, str(c)) for k, c in sorted(expected.num.items())]
                seen["b = 0"] += any(b == 0 for _, b in den)
                kept = +Counter({f: m for f, m in den.items() if f[1]})
                if expected.is_zero():
                    continue
                seen["a < 0 cancelled"] += any(a < 0 and expected.den[(a, b)] < m for (a, b), m in kept.items())
                seen["a >= 0 cancelled"] += any(a >= 0 and expected.den[(a, b)] < m for (a, b), m in kept.items())
                seen["cofactor"] += any(f not in kept for f in expected.den)
        assert min(seen.values()) >= 100 and len(seen) == 4, seen

    @pytest.mark.parametrize("num,den", [
        ({0: 1, 1: Fraction(1, 5)}, {(-2, 2): 1}),                  # (1 + x) / (1 - x^2), x = 5^-1 t
        ({0: 3, 1: -Fraction(3, 5)}, {(-1, 1): 2, (1, 0): 1}),      # a < 0 cancelled, b = 0 folded
        ({0: Fraction(2, 7), 3: -2}, {(2, 3): 1, (-1, 0): 2}),
        ({}, {(1, 1): 1, (-3, 0): 1}),
    ])
    def test_named_cases(self, num, den):
        assert _observed(FRF(5, num, den)) == _observed(ref.FactoredRationalFunction(5, num, den))
