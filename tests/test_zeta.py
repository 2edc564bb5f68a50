import random
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest

from igusa.errors import HypothesisError, IgusaError
from igusa.fan import Cone, dual_subdivision, parallelepiped_points_with_coords, triangulate
from igusa.polycore import PolySystem, PrimeContext, parse_polynomial
from igusa.ratfun import FactoredRationalFunction as FRF
from igusa.ratfun import qpow
from igusa.zeta import (
    _exponent_pair,
    candidate_poles,
    compute_L,
    compute_S,
    poincare_series,
    zeta_full,
    zeta_origin,
)

from test_fan import contains_relint

V2 = ["x", "y"]
V3 = ["x", "y", "z"]
V4 = ["x", "y", "z", "w"]

E1, E3 = (1, 0, 0), (0, 0, 1)
P, P1, P3 = (1, 1, 1), (2, 1, 1), (1, 1, 2)


def sys71():
    return PolySystem(
        3,
        [
            parse_polynomial("x+y-z", V3),
            parse_polynomial("x^8+y^8+z^8+x^2*y^2*z^2", V3),
        ],
    )


def sys72(k=2):
    return PolySystem(
        2,
        [parse_polynomial(f"x^{k}+y^{k}", V2), parse_polynomial("x^4+y^4+x*y", V2)],
    )


def sys_line():
    return PolySystem(2, [parse_polynomial("x+y", V2), parse_polynomial("x^2+y^2", V2)])


def sys_nonsimple():
    # The fan of this system has the non-simple wall cone((2,2,1), E3) with a
    # nonzero torus count, which separates the two sign conventions for the
    # lattice-point sum.
    return PolySystem(
        3,
        [parse_polynomial("x+y+z^2", V3), parse_polynomial("x^2+y^2+z^4", V3)],
    )


def _flipped_diagonals(s):
    """Ex. 7.1's three quadrilateral classes, tiled by the other diagonal.

    Returns the generator tuples of the triangulation's cones that the flip
    replaces, and the cones that replace them.
    """
    sub = dual_subdivision(s)
    tri = triangulate(sub)
    quads = [c for c in sub.cones if len(c.generators) == 4]
    assert len(quads) == 3
    retiled, alt_parts = set(), []
    for quad in quads:
        members = set(quad.generators)
        pieces = [c for c in tri.cones if c.dim == 3 and set(c.generators) <= members]
        assert len(pieces) == 2
        wall = tuple(sorted(set(pieces[0].generators) & set(pieces[1].generators)))
        assert len(wall) == 2
        alt_diag = tuple(sorted(members - set(wall)))
        # the flipped diagonal must cut through the class interior
        assert contains_relint(quad, Cone(alt_diag).interior_point())
        alt_parts += [Cone(tuple(sorted(alt_diag + (w,)))) for w in wall] + [Cone(alt_diag)]
        retiled.update(c.generators for c in pieces)
        retiled.add(wall)
    return retiled, alt_parts


def _compute_S_per_point(cone, sys_, ctx):
    """Reference S: every (0,1] parallelepiped point is formed as a vector,
    the [0,1) point shifted by the generators whose coefficient vanishes,
    and its exponent pair is taken from the supports directly."""
    num = {}
    for h, mu in parallelepiped_points_with_coords(cone):
        shifted = list(h)
        for g, m in zip(cone.generators, mu):
            if m == 0:
                shifted = [x + y for x, y in zip(shifted, g)]
        a, b = _exponent_pair(shifted, sys_)
        num[b] = num.get(b, Fraction(0)) + qpow(ctx.q, a)
    den = {}
    for g in cone.generators:
        pair = _exponent_pair(g, sys_)
        den[pair] = den.get(pair, 0) + 1
    return FRF(ctx.q, num, den)


def _systems_for_S():
    quadric = PolySystem(4, [parse_polynomial("x+2*y+z^2-w", V4), parse_polynomial("x^2+3*y^2+z^2+2*w^2", V4)])
    normals17 = PolySystem(3, [
        parse_polynomial("x+y+z", V3),
        parse_polynomial("x^17+y^16+z^15+x^9*y+y^8*z+z^7*x+x^5*y^3+y^5*z^3+z^5*x^3"
                         "+x^2*y^2*z^2+x*y^6*z+x^3*y*z^4", V3),
    ])
    return [sys71(), sys72(2), sys72(3), sys72(4), quadric, sys_nonsimple(), normals17]


@pytest.mark.parametrize("p", [5, 7])
def test_compute_S_matches_per_point_reference(p):
    ctx = PrimeContext(p)
    cones = nontrivial = 0
    for s in _systems_for_S():
        for cone in dual_subdivision(s).triangulation.cones:
            fast, ref = compute_S(cone, s, ctx), _compute_S_per_point(cone, s, ctx)
            assert (fast.num, fast.den) == (ref.num, ref.den), cone.generators
            cones += 1
            nontrivial += len(ref.num) > 1
    s = sys71()
    for cone in _flipped_diagonals(s)[1]:
        fast, ref = compute_S(cone, s, ctx), _compute_S_per_point(cone, s, ctx)
        assert (fast.num, fast.den) == (ref.num, ref.den), cone.generators
    assert cones > 150 and nontrivial > 10


def test_compute_S_refuses_a_cone_across_a_wall():
    # The positive orthant holds all of Ex. 7.1's fan: x^v is not linear on it.
    with pytest.raises(ValueError):
        compute_S(Cone(((1, 0, 0), (0, 1, 0), (0, 0, 1))), sys71(), PrimeContext(5))


class TestComputeS:
    def test_ray_p1(self):
        s = compute_S(Cone((P1,)), sys71(), PrimeContext(5))
        assert s == FRF(5, {8: Fraction(1, 125)}, {(-3, 8): 1})

    def test_cone_e1_p1(self):
        # E1 contributes the scalar factor q^{-1}/(1-q^{-1}) = 1/(q-1).
        s = compute_S(Cone((E1, P1)), sys71(), PrimeContext(5))
        assert s == FRF(5, {8: Fraction(1, 125) * Fraction(1, 4)}, {(-3, 8): 1})

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_72_ray_p2(self, k):
        s = compute_S(Cone(((1, 1),)), sys72(k), PrimeContext(5))
        expected = FRF(5, {2: Fraction(5) ** (k - 2)}, {(k - 2, 2): 1})
        assert s == expected

    def test_nonsimple_wall_uses_halfopen_parallelepiped(self):
        # cone((2,2,1), E3): parallelepiped point (1,1,1) with both
        # coefficients 1/2 contributes at t^2; the misread convention would
        # shift it to t^6.
        s = compute_S(Cone(((2, 2, 1), (0, 0, 1))), sys_nonsimple(), PrimeContext(5))
        expected = FRF(5, {2: Fraction(1, 20), 4: Fraction(1, 500)}, {(-3, 4): 1})
        assert s == expected
        wrong = FRF(5, {4: Fraction(1, 500), 6: Fraction(1, 12500)}, {(-3, 4): 1})
        assert s != wrong


class TestComputeL:
    def test_cone_e1_p1(self):
        L = compute_L(sys71(), PrimeContext(5), (3, 1, 1))
        assert L == FRF(5, {0: Fraction(16, 25)})

    def test_three_dim_cones_vanish(self):
        s = sys71()
        ctx = PrimeContext(5)
        tri = triangulate(dual_subdivision(s))
        for cone in [c for c in tri.cones if c.dim == 3]:
            assert compute_L(s, ctx, cone.interior_point()).is_zero()

    def test_72_ray(self):
        L = compute_L(sys72(), PrimeContext(5), (1, 1))
        assert L == FRF(5, {0: Fraction(8, 5)})

    def test_closed_part_brings_unit_factor(self):
        # At p=3 the direction (2,1,1) has closed torus points, so the
        # L-factor carries (1 - q^{-1} t) in the denominator.
        L = compute_L(sys71(), PrimeContext(3), (2, 1, 1))
        assert dict(L.den) == {(-1, 1): 1}


class TestZeta:
    @pytest.mark.parametrize("p", [3, 7, 11])
    def test_trivial_closed_form_any_odd_p(self, p):
        rep = zeta_full(sys_line(), PrimeContext(p))
        assert rep.zeta == FRF(p, {0: Fraction(p - 1, p)}, {(-1, 2): 1})

    def test_72_origin_shape(self):
        rep = zeta_origin(sys72(2), PrimeContext(5))
        assert rep.zeta == FRF(5, {2: Fraction(8, 5)}, {(0, 2): 1})
        assert rep.L0 is None

    def test_zeta_equals_sum_of_contributions(self):
        rep = zeta_full(sys71(), PrimeContext(3))
        total = FRF.zero(3)
        for c in rep.contributions:
            total = total + c.product
        total = total + rep.L0
        assert total == rep.zeta

    def test_origin_sums_positive_barycenters_only(self):
        rep = zeta_origin(sys71(), PrimeContext(5))
        assert len(rep.contributions) == 25
        for c in rep.contributions:
            assert all(x > 0 for x in c.cone.interior_point())

    def test_library_calls_share_one_fan(self, monkeypatch):
        # The engines, the candidate poles and the certificate read the dual
        # subdivision and triangulation kept on the system: one polyhedron
        # build and one triangulation for the whole sequence.
        import igusa.fan as fan_mod
        import igusa.newton as newton_mod
        from igusa.counting import check_nondegenerate

        calls = dict.fromkeys(("system_polyhedron", "triangulate"), 0)
        for module, name in ((newton_mod, "system_polyhedron"), (fan_mod, "triangulate")):

            def shim(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, shim)
        s, ctx = sys71(), PrimeContext(5)
        full, origin = zeta_full(s, ctx), zeta_origin(s, ctx)
        cands = candidate_poles(s)
        assert check_nondegenerate(s, ctx, at_origin=True).ok
        assert calls == {"system_polyhedron": 1, "triangulate": 1}
        # value, L0, contributions, candidate and actual poles
        assert (full, origin, cands) == (zeta_full(sys71(), ctx), zeta_origin(sys71(), ctx), candidate_poles(sys71()))

    @pytest.mark.parametrize("engine", [zeta_full, zeta_origin])
    def test_supplied_subdivision_agrees(self, engine, monkeypatch):
        # A subdivision built on another system with the same polynomials,
        # handed to the engine in place of the kept one, gives the report the
        # engine builds for itself.
        import igusa.fan as fan_mod

        ctx = PrimeContext(5)
        built = engine(sys71(), ctx)
        sub = dual_subdivision(sys71())
        asked = []
        monkeypatch.setattr(fan_mod, "dual_subdivision", lambda t: asked.append(t) or sub)
        s = sys71()
        given = engine(s, ctx)
        assert asked and all(t is s for t in asked)
        assert given == built  # value, L0, contributions, candidate and actual poles

    def test_product_invariant(self):
        rep = zeta_origin(sys71(), PrimeContext(5))
        for c in rep.contributions:
            assert c.product == c.L * c.S

    def test_pole_sets_by_prime(self):
        # The -1 line needs a face system with closed torus points, which
        # happens iff -2 is a square mod p.
        rep5 = zeta_origin(sys71(), PrimeContext(5))
        assert {l.re for l in rep5.actual_poles} == {Fraction(-3, 8), Fraction(-1, 3)}
        rep3 = zeta_origin(sys71(), PrimeContext(3))
        assert {l.re for l in rep3.actual_poles} == {
            Fraction(-1),
            Fraction(-3, 8),
            Fraction(-1, 3),
        }

    def test_pole_containment(self):
        for p in (3, 5):
            rep = zeta_full(sys71(), PrimeContext(p))
            cand = {l.re for l in rep.candidates.lines}
            assert {l.re for l in rep.actual_poles} <= cand

    def test_nonsimple_system_against_congruence_oracle(self):
        from igusa.oracle import count_Nm

        s = sys_nonsimple()
        ctx = PrimeContext(5)
        rep = zeta_full(s, ctx)
        series = poincare_series(s, ctx, report=rep)
        taylor = series.taylor(3)
        for m in range(4):
            expected = Fraction(count_Nm(s, ctx, m), 5 ** (2 * m))
            assert taylor[m] == expected

    def test_refuses_non_convenient(self):
        s = PolySystem(2, [parse_polynomial("x*y+x^2", V2), parse_polynomial("x^2+y^2", V2)])
        with pytest.raises(HypothesisError):
            zeta_full(s, PrimeContext(5))

    @pytest.mark.parametrize("engine", [zeta_full, zeta_origin])
    def test_refuses_one_polynomial(self, engine):
        s = PolySystem(2, [parse_polynomial("x^2+y^3", V2)])
        with pytest.raises(HypothesisError, match="2 <= l <= n"):
            engine(s, PrimeContext(5))

    def test_refuses_degenerate_with_witness(self):
        # (x+y+z^2, x^2+y^2+z^4) is degenerate at p=3: the full system has a
        # rank-1 torus zero.
        with pytest.raises(HypothesisError) as err:
            zeta_full(sys_nonsimple(), PrimeContext(3))
        assert err.value.witness is not None

    def test_triangulation_independence(self):
        # Re-triangulate the three quadrilateral classes with the opposite
        # diagonal and check the assembled zeta is unchanged.
        s = sys71()
        ctx = PrimeContext(5)
        rep = zeta_origin(s, ctx)
        tri = triangulate(dual_subdivision(s))
        from igusa.fan import barycenter

        total = FRF.zero(5)
        retiled, alt_parts = _flipped_diagonals(s)
        for cone in alt_parts:
            b = barycenter(cone)
            if all(x > 0 for x in b):
                total = total + compute_L(s, ctx, b) * compute_S(cone, s, ctx)
        for cone in tri.cones:
            if cone.generators in retiled:
                continue
            b = barycenter(cone)
            if not all(x > 0 for x in b):
                continue
            total = total + compute_L(s, ctx, b) * compute_S(cone, s, ctx)
        assert total == rep.zeta


class TestCandidatePoles:
    def test_71(self):
        cands = candidate_poles(sys71())
        by_re = {l.re: l for l in cands.lines}
        assert set(by_re) == {Fraction(-1), Fraction(-3, 8), Fraction(-1, 3)}
        assert by_re[Fraction(-1, 3)].period == 6
        assert by_re[Fraction(-3, 8)].period == 8
        assert sorted(by_re[Fraction(-3, 8)].rays) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
        assert cands.gamma_f == Fraction(-1, 3)
        assert cands.multiplicity_bound == 2

    def test_72_zero_line(self):
        cands = candidate_poles(sys72(2))
        res = {l.re for l in cands.lines}
        assert Fraction(0) in res
        # gamma only maximises over rays with positive numerator
        assert cands.gamma_f == Fraction(-1, 2)

    def test_non_strictly_positive_rays_excluded(self):
        cands = candidate_poles(sys71())
        for line in cands.lines:
            for ray in line.rays:
                assert all(x > 0 for x in ray)


class TestPoincare:
    def test_closed_form_line_system(self):
        p = 3
        s = sys_line()
        series = poincare_series(s, PrimeContext(p))
        z = FRF(p, {0: Fraction(p - 1, p)}, {(-1, 2): 1})
        expected = (FRF.one(p) - z.shifted(1)) * FRF(p, {0: 1}, {(0, 1): 1})
        assert series == expected

    def test_unit_zeta_gives_unit_series(self):
        # algebraic identity: Z = 1 => P = 1
        p = 5
        one = FRF.one(p)
        numerator = one - one.shifted(1)
        series = numerator * FRF(p, {0: 1}, {(0, 1): 1})
        assert series == one

    def test_requires_good_reduction(self):
        s = sys72(2)  # x^2+y^2 has a singular point at the origin mod 5
        with pytest.raises(HypothesisError):
            poincare_series(s, PrimeContext(5))

    def test_head_measure_below_one_matches_congruence_oracle(self):
        # Half of these heads have measure Z(1) = #V(F_p) / p^(n-l+1) other
        # than 1, where the series needs Z(1) itself, not (1 - tZ) / (1 - t).
        from igusa.oracle import congruence_table

        rng = random.Random(1)
        checked = 0
        for _ in range(20):
            p = rng.choice([3, 5, 7, 11])
            s, ctx = _random_convenient_system(rng, p), PrimeContext(p)
            try:
                rep = zeta_full(s, ctx)
            except IgusaError:
                continue
            if not rep.hypotheses["good_reduction"]:
                continue
            counts = congruence_table(s, ctx, 3).counts
            expected = [Fraction(counts[m], p ** (m * (s.n - s.l + 1))) for m in range(4)]
            assert poincare_series(s, ctx, report=rep).taylor(3) == expected, (s.polys, p)
            checked += 1
        assert checked == 10

    def test_factor_without_q_leaves_z1_undefined(self):
        # (1 - t) / (1 - t^2) keeps 1 - t^2: Z(1) cannot be read off it.
        z = FRF(5, {0: 1, 1: -1}, {(0, 2): 1})
        report = SimpleNamespace(zeta=z, hypotheses={"good_reduction": True})
        with pytest.raises(IgusaError, match=r"\(1 - t\^2\)"):
            poincare_series(sys_line(), PrimeContext(5), report=report)

    def test_theorem5_growth(self):
        from math import log

        from igusa.oracle import count_Nm

        s = sys71()
        ctx = PrimeContext(3)
        gamma = candidate_poles(s).gamma_f
        assert gamma == Fraction(-1, 3)
        for m in (1, 2, 3):
            nm = count_Nm(s, ctx, m)
            rate = log(nm, 3) / m - 2 if nm else -100.0
            assert rate <= float(gamma) + 1e-9


def _random_convenient_system(rng, p):
    """Two polynomials in 2 or 3 variables, each with a pure power of every
    variable and up to three mixed terms, coefficients in 1..p-1."""
    names = V3[: rng.choice([2, 3])]
    polys = []
    for _ in range(2):
        terms = {}
        for k in range(len(names)):
            terms[tuple(rng.randint(1, 4) if j == k else 0 for j in range(len(names)))] = rng.randint(1, p - 1)
        for _ in range(rng.randint(0, 3)):
            terms[tuple(rng.randint(0, 3) for _ in names)] = rng.randint(1, p - 1)
        terms.pop((0,) * len(names), None)
        polys.append(" + ".join(
            f"{c}*" + "*".join(f"{v}^{d}" for v, d in zip(names, e) if d) for e, c in terms.items()
        ))
    return PolySystem(len(names), [parse_polynomial(f, names) for f in polys])


# Two systems whose numerator shares a factor's cyclotomic cofactor
# (1 + 11^-1 t of 1 - 11^-2 t^2, and t^2 + 11 t + 121 of 1 - 11^-3 t^3).
COFACTOR_SYSTEMS = [
    (["4*y*z^2 + 2*y^3 + 3*z^2 + 2*x^2", "4*x^3 + z + 3*y + 2*x^2*y^2"], 11),
    (["4*x^3*z^2 + z + 2*y + 4*x^2", "2*z^4 + 2*x^2*y*z + 3*x^3 + y^3 + 2*x*y*z^2 + 2*x^3*z"], 11),
]
# Its numerator shares 1 - t, and only that, with 1 - t^2, in Z and in Z_0.
LEFTOVER_SYSTEM = (["6*x^4 + 5*y^3 + 5*z^4 + 2*y^2*z", "3*x^2 + 6*y^2 + 2*z^2 + 2*y^2*z^3 + 3*x^3*z^3 + 2*x^2*y^3"], 7)


class TestReducedZeta:
    @pytest.fixture
    def sp(self):
        return pytest.importorskip("sympy")

    def test_engine_values_match_sympy_cancel(self, sp):
        rng = random.Random(20261019)
        systems = [(PolySystem(3, [parse_polynomial(f, V3) for f in fs]), p)
                   for fs, p in [*COFACTOR_SYSTEMS, LEFTOVER_SYSTEM]]
        for _ in range(40):
            p = rng.choice([3, 5, 7, 11])
            systems.append((_random_convenient_system(rng, p), p))
        t = sp.Symbol("t")
        values = reduced = 0
        for s, p in systems:
            for engine in (zeta_full, zeta_origin):
                try:
                    z = engine(s, PrimeContext(p)).zeta
                except IgusaError:
                    continue
                values += 1
                num, den = (sp.Poly({(k,): sp.Rational(c.numerator, c.denominator) for k, c in poly.items()}, t)
                            for poly in z.expanded())
                top, bottom = (sp.Poly(e, t) for e in sp.fraction(sp.cancel(num.as_expr() / den.as_expr())))
                assert (num * bottom - top * den).is_zero, (s.polys, p, z)
                shared = [(a, b) for a, b in z.den
                          if sp.gcd(num, sp.Poly(1 - sp.Rational(p) ** a * t**b, t)).degree() > 0]
                for a, b in shared:
                    # The rule cannot take 1 - x alone out of 1 - x^k: that leaves
                    # a factor which is not a binomial (an open item in ROADMAP.md).
                    # A root shared in any other way is a missed cancellation.
                    g = gcd(a, b)
                    x = sp.Rational(p) ** (a // g) * t ** (b // g)
                    assert sp.rem(num, sp.Poly(1 - x, t)).is_zero, (s.polys, p, z, (a, b))
                if not shared:
                    reduced += 1
                    scale = bottom.eval(0)
                    assert (top - num * scale).is_zero and (bottom - den * scale).is_zero, (s.polys, p, z)
        assert values >= 70 and values - reduced == 2
