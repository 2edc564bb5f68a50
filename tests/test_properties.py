"""Randomised property suites; seeds fixed for reproducibility.

These four functions are also invoked by the acceptance suite; they are
cached, so one test process runs each suite once.
"""

import random
from functools import cache
from itertools import combinations
from fractions import Fraction
from math import gcd

import numpy as np

from igusa import linalg
from igusa.fan import Cone, dual_subdivision, parallelepiped_points, triangulate
from igusa.oracle import exp_sum
from igusa.polycore import IntPolynomial, PolySystem, PrimeContext, eval_on_grid, evaluate_mod, parse_polynomial
from igusa.ratfun import FactoredRationalFunction as FRF
from igusa.ratfun import _poly_mul

from test_fan import locate

V2 = ["x", "y"]
V3 = ["x", "y", "z"]


def _primitive(vec):
    g = 0
    for x in vec:
        g = gcd(g, x)
    return tuple(x // g for x in vec)


@cache
def check_parallelepiped_counts(cases=200, seed=20240817):
    """Lattice-index identity: |parallelepiped points| = the gcd of the
    maximal minors of the generator matrix (|det| for a full-dimensional
    cone), for simplicial cones with entries <= 9, n <= 4, about half of
    them not full-dimensional."""
    rng = random.Random(seed)
    done = lower_dim = 0
    while done < cases:
        n = rng.randint(2, 4)
        e = n if rng.random() < 0.5 else rng.randint(1, n - 1)
        gens = []
        for _ in range(e):
            v = [rng.randint(0, 9) for _ in range(n)]
            if all(x == 0 for x in v):
                v[rng.randrange(n)] = 1
            gens.append(_primitive(v))
        if len(set(gens)) < e or linalg.rank(gens) < e:
            continue
        index = 0
        for rows in combinations(range(n), e):
            index = gcd(index, linalg.det([[g[r] for g in gens] for r in rows]).numerator)
        pts = parallelepiped_points(Cone(tuple(gens)))
        assert len(pts) == index, (gens, index, pts)
        done += 1
        lower_dim += e < n
    assert 50 <= lower_dim <= cases - 50
    return done


@cache
def check_fan_partition(rays=1000, seed=20240818):
    """Every random nonzero nonnegative rational ray lies in the relative
    interior of exactly one cone of the triangulated fan."""
    systems = [
        PolySystem(3, [parse_polynomial("x+y-z", V3),
                       parse_polynomial("x^8+y^8+z^8+x^2*y^2*z^2", V3)]),
        PolySystem(2, [parse_polynomial("x^2+y^2", V2),
                       parse_polynomial("x^4+y^4+x*y", V2)]),
        PolySystem(3, [parse_polynomial("x+y+z^2", V3),
                       parse_polynomial("x^2+y^2+z^4", V3)]),
        # 17 facet normals
        PolySystem(3, [parse_polynomial("x+y+z", V3),
                       parse_polynomial("x^17+y^16+z^15+x^9*y+y^8*z+z^7*x+x^5*y^3+y^5*z^3"
                                        "+z^5*x^3+x^2*y^2*z^2+x*y^6*z+x^3*y*z^4", V3)]),
    ]
    fans = [triangulate(dual_subdivision(s)) for s in systems]
    rng = random.Random(seed)
    per_fan = rays // len(fans)
    total = 0
    for fan, s in zip(fans, systems):
        n = s.n
        for _ in range(per_fan):
            if rng.random() < 0.2:
                # include boundary rays: zero out a coordinate
                a = [Fraction(rng.randint(0, 40), rng.randint(1, 7)) for _ in range(n)]
                a[rng.randrange(n)] = Fraction(0)
            else:
                a = [Fraction(rng.randint(1, 40), rng.randint(1, 7)) for _ in range(n)]
            if all(x == 0 for x in a):
                a[0] = Fraction(1)
            owners = locate(fan, tuple(a))
            assert len(owners) == 1, (s.polys, a, [c.generators for c in owners])
            total += 1
    return total


def _random_frf(rng, q) -> FRF:
    num = {}
    for _ in range(rng.randint(1, 4)):
        num[rng.randint(0, 6)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    den = {}
    for _ in range(rng.randint(0, 3)):
        a = rng.randint(-3, 3)
        b = rng.randint(1, 4)
        if (a, b) == (0, 0):
            continue
        den[(a, b)] = den.get((a, b), 0) + 1
    return FRF(q, num, den)


@cache
def check_ratfun_reference(pairs=500, seed=20240819):
    """add/mul agree with plain numerator/denominator polynomial arithmetic."""
    rng = random.Random(seed)
    for _ in range(pairs):
        q = rng.choice([3, 5, 7])
        r1 = _random_frf(rng, q)
        r2 = _random_frf(rng, q)
        n1, d1 = r1.expanded()
        n2, d2 = r2.expanded()

        s = r1 + r2
        ns, ds = s.expanded()
        # (n1 d2 + n2 d1) / (d1 d2) == ns / ds, cross-multiplied
        lhs = _poly_mul(_poly_mul(n1, d2), ds)
        lhs = _poly_add_dicts(lhs, _poly_mul(_poly_mul(n2, d1), ds))
        rhs = _poly_mul(ns, _poly_mul(d1, d2))
        assert lhs == rhs

        m = r1 * r2
        nm, dm = m.expanded()
        assert _poly_mul(_poly_mul(n1, n2), dm) == _poly_mul(nm, _poly_mul(d1, d2))
    return pairs


def _poly_add_dicts(p1, p2):
    out = dict(p1)
    for k, c in p2.items():
        s = out.get(k, Fraction(0)) + c
        if s == 0:
            out.pop(k, None)
        else:
            out[k] = s
    return out


@cache
def check_expsum_conjugation(seed=0):
    """E(m, p^m - u) is the complex conjugate of E(m, u), all tested levels."""
    systems = [
        PolySystem(2, [parse_polynomial("x+y", V2), parse_polynomial("x^2+y^2", V2)]),
        PolySystem(3, [parse_polynomial("x+y-z", V3),
                       parse_polynomial("x^8+y^8+z^8+x^2*y^2*z^2", V3)]),
    ]
    checked = 0
    for s in systems:
        for p in (3, 5):
            ctx = PrimeContext(p)
            for m in (1, 2):
                mod = p**m
                for u in range(1, mod):
                    if u % p == 0:
                        continue
                    lhs = exp_sum(s, ctx, m, mod - u)
                    rhs = exp_sum(s, ctx, m, u).conjugate()
                    assert abs(lhs - rhs) < 1e-9
                    checked += 1
    return checked


def check_grid_evaluator(cases=300, seed=20261018):
    """The int64 grid evaluator equals the scalar evaluate_mod on random
    polynomials (n <= 3, exponents <= 9, signed coefficients) and points."""
    rng = random.Random(seed)
    for _ in range(cases):
        n = rng.choice([1, 2, 3])
        terms = {}
        for _ in range(rng.randint(1, 6)):
            terms[tuple(rng.randint(0, 9) for _ in range(n))] = rng.randint(-60, 60)
        f = IntPolynomial(n, terms)
        modulus = rng.choice([3, 5, 7, 25, 125, 47**2])
        points = [tuple(rng.randint(-2 * modulus, 2 * modulus) for _ in range(n)) for _ in range(25)]
        coords = [np.array([pt[j] for pt in points], dtype=np.int64) for j in range(n)]
        assert eval_on_grid(f, coords, modulus).tolist() == [evaluate_mod(f, pt, modulus) for pt in points]
    return cases


def test_parallelepiped_counts():
    assert check_parallelepiped_counts() == 200


def test_fan_partition_membership():
    assert check_fan_partition() >= 999


def test_ratfun_against_reference():
    assert check_ratfun_reference() == 500


def test_expsum_conjugation():
    assert check_expsum_conjugation() > 0


def test_grid_evaluator_against_scalar():
    assert check_grid_evaluator() == 300
