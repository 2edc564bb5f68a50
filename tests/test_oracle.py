import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from igusa.cli import parse_config, run
from igusa.errors import BudgetExceededError
from igusa.oracle import (
    MultChar,
    all_characters,
    coeff_extract,
    congruence_table,
    count_Nm,
    deltaR_measures,
    exp_sum,
    expsum_table,
    gaussian_sum,
    lemma1A_eval,
    prop3_residual,
)
from igusa.polycore import IntPolynomial, PolySystem, PrimeContext, eval_on_grid, evaluate_mod, parse_polynomial
from igusa.ratfun import FactoredRationalFunction

V2 = ["x", "y"]
V3 = ["x", "y", "z"]


def sys_line():
    return PolySystem(2, [parse_polynomial("x+y", V2), parse_polynomial("x^2+y^2", V2)])


def sys71():
    return PolySystem(
        3,
        [
            parse_polynomial("x+y-z", V3),
            parse_polynomial("x^8+y^8+z^8+x^2*y^2*z^2", V3),
        ],
    )


class TestCongruenceCounts:
    def test_line_p3(self):
        assert count_Nm(sys_line(), PrimeContext(3), 1) == 1

    def test_axes_smoke(self):
        s = PolySystem(2, [parse_polynomial("x", V2), parse_polynomial("y", V2)])
        assert count_Nm(s, PrimeContext(5), 2) == 1

    def test_zero_level(self):
        assert count_Nm(sys71(), PrimeContext(3), 0) == 1

    def test_brute_force_crosscheck(self):
        # count_Nm (vectorised) against a direct nested loop
        s = sys_line()
        p, m = 3, 2
        mod = p**m
        direct = sum(
            1
            for x in range(mod)
            for y in range(mod)
            if all(evaluate_mod(f, (x, y), mod) == 0 for f in s.polys)
        )
        assert count_Nm(s, PrimeContext(p), m) == direct

    def test_table_monotonicity(self):
        table = congruence_table(sys71(), PrimeContext(3), 3)
        assert table.counts[0] == 1
        for m in range(3):
            assert table.counts[m + 1] <= 3**3 * table.counts[m]
            assert table.counts[m] <= 3 ** (3 * m)


class TestExpSum:
    def test_level_zero(self):
        assert exp_sum(sys_line(), PrimeContext(3), 0) == 1.0

    def test_three_term_sum(self):
        val = exp_sum(sys_line(), PrimeContext(3), 1, 1)
        expected = (1 + 2 * cmath.exp(4j * cmath.pi / 3)) / 3
        assert abs(val - expected) < 1e-12

    def test_conjugation_symmetry(self):
        s = sys_line()
        for p, m in [(3, 1), (3, 2), (5, 1), (5, 2)]:
            ctx = PrimeContext(p)
            mod = p**m
            for u in range(1, min(mod, 8)):
                if u % p == 0:
                    continue
                lhs = exp_sum(s, ctx, m, mod - u)
                rhs = exp_sum(s, ctx, m, u).conjugate()
                assert abs(lhs - rhs) < 1e-9

    def test_unit_congruence_invariance(self):
        s = sys_line()
        ctx = PrimeContext(5)
        assert abs(exp_sum(s, ctx, 2, 3) - exp_sum(s, ctx, 2, 28)) < 1e-12

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            exp_sum(sys_line(), PrimeContext(5), 1, 10)


class TestCharacters:
    def test_group_size(self):
        assert len(all_characters(7)) == 6

    def test_conductors(self):
        chars = all_characters(5)
        assert [c.conductor for c in chars].count(0) == 1
        assert all(c.conductor == 1 for c in chars if not c.trivial)

    def test_orthogonality(self):
        p = 7
        for chi in all_characters(p):
            total = sum(chi.value(v) for v in range(1, p))
            expected = p - 1 if chi.trivial else 0
            assert abs(total - expected) < 1e-9

    def test_gaussian_quadratic_p5(self):
        chi = MultChar(5, 2)
        assert abs(gaussian_sum(chi) - math.sqrt(5) / 4) < 1e-12

    def test_gaussian_quadratic_p3(self):
        chi = MultChar(3, 1)
        assert abs(gaussian_sum(chi) - 1j * math.sqrt(3) / 2) < 1e-12

    def test_gaussian_magnitude(self):
        for p in (3, 5, 7, 11):
            for chi in all_characters(p):
                if chi.trivial:
                    continue
                assert abs(abs(gaussian_sum(chi)) - math.sqrt(p) / (p - 1)) < 1e-12

    def test_trivial_gaussian_rejected(self):
        with pytest.raises(ValueError):
            gaussian_sum(MultChar(5, 0))


class TestCoeffExtract:
    def test_trivial_measure(self):
        c0 = coeff_extract(sys_line(), PrimeContext(3), 0, MultChar(3, 0))
        assert abs(c0 - 2 / 3) < 1e-12

    def test_odd_orders_vanish(self):
        for k in (1, 3):
            ck = coeff_extract(sys_line(), PrimeContext(3), k, MultChar(3, 0))
            assert abs(ck) < 1e-12

    def test_quadratic_twist(self):
        c0 = coeff_extract(sys_line(), PrimeContext(3), 0, MultChar(3, 1))
        assert abs(c0 + 2 / 3) < 1e-12

    def test_partial_sums_exhaust_measure(self):
        # sum_{k<=K} c_k(triv) = total measure - q^{-(K+1)(n-l+1)} N_{K+1}
        s = sys_line()
        p = 3
        ctx = PrimeContext(p)
        total_measure = Fraction(count_Nm(s, ctx, 1), p)  # = #V(F_p) * p^{-(n-l+1)}... see below
        # For this system the head variety is the line x+y=0: measure 1.
        head_points = sum(
            1 for x in range(p) for y in range(p) if (x + y) % p == 0
        )
        total_measure = Fraction(head_points, p)
        for K in (0, 1, 2):
            partial = sum(
                Fraction(
                    sum(c for c in _ac_counts_exact(s, ctx, k).values()),
                    p ** ((k + 1) * (s.n - s.l + 1)),
                )
                for k in range(K + 1)
            )
            tail = Fraction(count_Nm(s, ctx, K + 1), p ** (K + 1))
            assert partial + tail == total_measure


def _ac_counts_exact(s, ctx, k):
    from igusa.oracle import _ac_counts

    return _ac_counts(s, ctx, k, 10**8)


class TestProp3:
    def test_degenerate_level_zero(self):
        assert prop3_residual(sys_line(), PrimeContext(5), 0) == 0.0

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("u", [1, 2])
    def test_line_system_p5(self, m, u):
        assert prop3_residual(sys_line(), PrimeContext(5), m, u) < 1e-9

    def test_level_one_for_71(self):
        # At m = 1 the identity only involves conductor <= 1 characters.
        assert prop3_residual(sys71(), PrimeContext(3), 1, 1) < 1e-9


class TestLemma1A:
    def test_off_variety(self):
        tag, val = lemma1A_eval(sys_line(), PrimeContext(5), (1, 1), 2, (0, 0))
        assert tag == "off_variety" and val.is_zero()

    def test_low_order_case(self):
        tag, val = lemma1A_eval(sys_line(), PrimeContext(5), (1, 4), 1, (0, 0))
        assert tag == "unit_times_tk"
        assert val.num == {0: Fraction(1, 5)}

    def test_positive_order_case(self):
        # f_l = x + y at (1, 4) is 5 mod 125: order k = 1 below m = 3.
        s = PolySystem(2, [parse_polynomial("x+y", V2)])
        tag, val = lemma1A_eval(s, PrimeContext(5), (1, 4), 3, (1, 1))
        assert tag == "unit_times_tk"
        assert val == FactoredRationalFunction(5, {1: Fraction(1, 5**6)})

    def test_closed_case(self):
        s = PolySystem(2, [parse_polynomial("x+y", V2), parse_polynomial("x^2-y^2", V2)])
        tag, val = lemma1A_eval(s, PrimeContext(5), (1, 4), 1, (0, 0))
        assert tag == "on_closed_variety"
        expected_num = {1: Fraction(1, 5) * Fraction(4, 5)}
        assert val.num == expected_num and dict(val.den) == {(-1, 1): 1}

    def test_against_coset_enumeration(self):
        # Taylor coefficients of the local integral = stabilised measures of
        # {ord f_l = k} on the head variety within the coset.
        s = sys_line()
        p, m = 3, 1
        ctx = PrimeContext(p)
        a = (1, 1)
        for x0 in [(1, 2), (1, 1), (2, 2)]:
            tag, val = lemma1A_eval(s, ctx, x0, m, a)
            taylor = val.taylor(3)
            level, r = 6, 4
            mod = p**level
            counts = {k: 0 for k in range(4)}
            for dx in range(p ** (level - m)):
                for dy in range(p ** (level - m)):
                    x = (x0[0] + p**m * dx) % mod
                    y = (x0[1] + p**m * dy) % mod
                    from igusa.polycore import face_function

                    f1 = face_function(s.polys[0], a)
                    f2 = face_function(s.polys[1], a)
                    if evaluate_mod(f1, (x, y), mod) % p**r != 0:
                        continue
                    v = evaluate_mod(f2, (x, y), mod)
                    for k in range(4):
                        if v % p**k == 0 and (v // p**k) % p != 0:
                            counts[k] += 1
            scale = Fraction(p**r, p ** (2 * (level - m)) * p ** (2 * m))
            for k in range(4):
                assert taylor[k] == counts[k] * scale

    def test_rejects_non_unit_point(self):
        with pytest.raises(ValueError):
            lemma1A_eval(sys_line(), PrimeContext(5), (5, 1), 1, (0, 0))


class TestDeltaR:
    def test_72_origin_example(self):
        s = PolySystem(
            2,
            [parse_polynomial("x^2+y^2", V2), parse_polynomial("x^4+y^4+x*y", V2)],
        )
        ctx = PrimeContext(3)
        rep = deltaR_measures(s, ctx, r=5, level=7, region="origin", k_max=2)
        assert rep.stabilized
        from igusa.zeta import zeta_origin

        engine = zeta_origin(s, ctx).zeta.taylor(2)
        for k in range(3):
            assert rep.measures[k] == engine[k]

    def test_full_region_matches_coefficients(self):
        s = sys_line()
        ctx = PrimeContext(3)
        rep = deltaR_measures(s, ctx, r=3, level=5, region="full", k_max=3)
        assert rep.stabilized
        for k in range(4):
            expected = Fraction(
                sum(_ac_counts_exact(s, ctx, k).values()),
                3 ** ((k + 1) * (s.n - s.l + 1)),
            )
            assert rep.measures[k] == expected

    def test_origin_example_nontrivial_at_p5(self):
        s = PolySystem(
            2,
            [parse_polynomial("x^2+y^2", V2), parse_polynomial("x^4+y^4+x*y", V2)],
        )
        ctx = PrimeContext(5)
        rep = deltaR_measures(s, ctx, r=3, level=5, region="origin", k_max=2)
        from igusa.zeta import zeta_origin

        engine = zeta_origin(s, ctx).zeta.taylor(2)
        assert rep.stabilized
        for k in range(3):
            assert rep.measures[k] == engine[k]

    def test_k_beyond_level_rejected(self):
        with pytest.raises(ValueError):
            deltaR_measures(sys_line(), PrimeContext(3), r=2, level=4, k_max=4)


# ---------------------------------------------------------------------------
# The lift tree against a full-grid reference
# ---------------------------------------------------------------------------


def _full_grid(n, modulus, step=1):
    """Every point of (step Z / modulus Z)^n, as int64 coordinate arrays."""
    axes = np.meshgrid(*[np.arange(0, modulus, step, dtype=np.int64)] * n, indexing="ij")
    return [a.ravel() for a in axes]


def _ref_last_on_head(s, modulus, head_modulus, step=1):
    """f_l mod modulus at every grid point where the head vanishes mod head_modulus."""
    coords = _full_grid(s.n, modulus, step)
    for f in s.polys[:-1]:
        keep = eval_on_grid(f, coords, head_modulus) == 0
        coords = [x[keep] for x in coords]
    return eval_on_grid(s.polys[-1], coords, modulus)


def _ref_has_order(fl, p, k):
    pk = p**k
    return (fl % pk == 0) & ((fl // pk) % p != 0)


def _ref_ac_counts(s, p, k):
    fl = _ref_last_on_head(s, p ** (k + 1), p ** (k + 1))
    ac = (fl[_ref_has_order(fl, p, k)] // p**k) % p
    return {unit: int((ac == unit).sum()) for unit in range(1, p) if (ac == unit).any()}


def _ref_exp_sum(s, p, m, u):
    mod = p**m
    fl = _ref_last_on_head(s, mod, mod)
    return complex(np.exp(2j * np.pi * ((u * fl) % mod) / mod).sum()) / p ** (m * (s.n - s.l + 1))


def _ref_delta(s, p, r, level, region, k_max):
    mod = p**level
    fl = _ref_last_on_head(s, mod, p**r, p if region == "origin" else 1)
    scale = Fraction(p ** (r * (s.l - 1)), mod**s.n)
    return {k: scale * int(_ref_has_order(fl, p, k).sum()) for k in range(k_max + 1)}


def _random_poly(rng, n):
    """Up to four nonconstant terms of degree <= 2 per variable, nonzero
    coefficients in [-3, 3]."""
    terms = {}
    while not terms:
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(0, 2) for _ in range(n))
            if any(exps):
                terms[exps] = rng.choice([-3, -2, -1, 1, 2, 3])
    return IntPolynomial(n, terms)


def _tree_cases():
    """(label, system, p): seeded random systems and the named heads."""
    rng = random.Random(20091)
    cases = []
    for n, l in ((2, 2), (3, 2), (3, 3)):
        for p in (3, 5, 7):
            for i in range(2):
                polys = [_random_poly(rng, n) for _ in range(l)]
                cases.append((f"random-n{n}-l{l}-p{p}-{i}", PolySystem(n, polys), p))
    named = [
        ("smooth-line", ["x+2*y-z", "x^3+y*z-2*x"], V3, (3, 5, 7)),
        ("smooth-conic", ["x^2+y^2+x", "x*y+3*x-y"], V2, (3, 5, 7)),
        ("singular-sum-of-squares", ["x^2+y^2", "x^4+y^4+x*y"], V2, (3, 7)),
        ("singular-node", ["x*y", "x^2+y^3+x-y"], V2, (3, 5)),
        ("empty-head", ["x^2-y^3+x*y"], V2, (3, 5)),
        ("empty-head-3var", ["x*y*z+x^2-z"], V3, (3,)),
    ]
    for label, polys, variables, primes in named:
        s = PolySystem(len(variables), [parse_polynomial(f, variables) for f in polys])
        cases += [(f"{label}-p{p}", s, p) for p in primes]
    return cases


def _top_level(n, p, cap=200_000):
    """Largest level <= 3 whose full grid has at most ``cap`` points."""
    return max(m for m in (1, 2, 3) if p ** (m * n) <= cap)


@pytest.mark.parametrize("label,s,p", _tree_cases(), ids=[c[0] for c in _tree_cases()])
class TestLiftTreeAgainstFullGrid:
    def test_congruence_counts(self, label, s, p):
        ctx = PrimeContext(p)
        top = _top_level(s.n, p)
        expected = {0: 1}
        for m in range(1, top + 1):
            expected[m] = int((_ref_last_on_head(s, p**m, p**m) == 0).sum())
            assert count_Nm(s, ctx, m) == expected[m]
        assert congruence_table(s, ctx, top).counts == expected

    def test_exp_sums(self, label, s, p):
        ctx = PrimeContext(p)
        top = _top_level(s.n, p)
        table = expsum_table(s, ctx, top, 2)
        assert [e.m for e in table] == list(range(top + 1)) and table[0].value == 1
        for m in range(1, top + 1):
            ref = _ref_exp_sum(s, p, m, 2)
            assert abs(exp_sum(s, ctx, m, 2) - ref) < 1e-12
            assert abs(table[m].value - ref) < 1e-12

    def test_ac_counts(self, label, s, p):
        ctx = PrimeContext(p)
        for k in range(_top_level(s.n, p)):
            assert _ac_counts_exact(s, ctx, k) == _ref_ac_counts(s, p, k)

    @pytest.mark.parametrize("region", ["full", "origin"])
    def test_delta_measures(self, label, s, p, region):
        ctx = PrimeContext(p)
        for r in range(_top_level(s.n, p) - 1):
            level = r + 2
            rep = deltaR_measures(s, ctx, r, level, region)
            assert rep.measures == _ref_delta(s, p, r, level, region, level - 1)
            assert rep.measures_next == _ref_delta(s, p, r + 1, level, region, level - 1)


def test_head_without_zeros_gives_empty_levels():
    # x^2 = 2 has no solution mod 5, so no level of the tree has a point.
    # PolySystem requires f(0) = 0, which the oracle never relies on.
    s = object.__new__(PolySystem)
    s.n, s.polys = 2, [IntPolynomial(2, {(2, 0): 1, (0, 0): -2}), parse_polynomial("x+y", V2)]
    s.scans = {}
    ctx = PrimeContext(5)
    assert congruence_table(s, ctx, 3).counts == {0: 1, 1: 0, 2: 0, 3: 0}
    assert [e.value for e in expsum_table(s, ctx, 3)] == [1, 0, 0, 0]
    assert exp_sum(s, ctx, 2) == 0 and _ac_counts_exact(s, ctx, 2) == {}
    rep = deltaR_measures(s, ctx, 1, 3)
    assert rep.measures == rep.measures_next == {0: 0, 1: 0, 2: 0}


def test_chunk_boundaries_change_nothing(monkeypatch):
    # Lifts are made polycore.GRID_CHUNK points at a time; a chunk may end
    # inside the p^n lifts of one point, and p^n = 27 > 7 splits each point's
    # digits.  Exact counts, and so E, must not move.  A fresh system per
    # call keeps the kept lift tree from answering the second pass.
    import igusa.polycore as polycore_mod

    ctx = PrimeContext(3)

    def results():
        s = sys71()
        return (
            congruence_table(s, ctx, 3).counts,
            [e.value for e in expsum_table(s, ctx, 3)],
            deltaR_measures(s, ctx, 0, 2, "origin"),
            deltaR_measures(s, ctx, 1, 3, "full"),
        )

    expected = results()
    monkeypatch.setattr(polycore_mod, "GRID_CHUNK", 7)
    assert results() == expected


def _reference_lifts(base, modulus, width, grid_chunk):
    """The lifts x + modulus*d chunked by their own flat digit index: base
    rows broadcast against blocks of at most grid_chunk offsets."""
    size = width ** len(base)
    block = min(size, grid_chunk)
    rows = grid_chunk // block
    offsets = None
    for start in range(0, len(base[0]) or 1, rows):
        for lo in range(0, size, block):
            if offsets is None or block < size:
                digits = np.unravel_index(np.arange(lo, min(lo + block, size)), (width,) * len(base), order="F")
                offsets = [modulus * d for d in digits]
            yield [(x[start : start + rows, None] + d).ravel() for x, d in zip(base, offsets)]


@pytest.mark.parametrize("grid_chunk", [7, 64, 1 << 20])
def test_lifts_match_reference_chunk_by_chunk(monkeypatch, grid_chunk):
    import igusa.polycore as polycore_mod
    from igusa.oracle import _lifts

    monkeypatch.setattr(polycore_mod, "GRID_CHUNK", grid_chunk)
    rng = np.random.default_rng(grid_chunk)
    for n in (1, 2, 3):
        for width in (1, 2, 3, 5):
            for size in (0, 1, 4, 30):
                base = [rng.integers(0, 50, size, dtype=np.int64) for _ in range(n)]
                got = list(_lifts(base, 50, width))
                ref = list(_reference_lifts(base, 50, width, grid_chunk))
                assert len(got) == len(ref), (n, width, size)
                for a, b in zip(got, ref):
                    assert len(a) == len(b) == n
                    for x, y in zip(a, b):
                        assert x.dtype == y.dtype and np.array_equal(x, y), (n, width, size)


@pytest.mark.parametrize(
    "call",
    [
        lambda s, ctx: count_Nm(s, ctx, -1),
        lambda s, ctx: exp_sum(s, ctx, -1),
        lambda s, ctx: prop3_residual(s, ctx, -1),
        lambda s, ctx: deltaR_measures(s, ctx, -1, 2),
        lambda s, ctx: coeff_extract(s, ctx, -1, MultChar(ctx.p, 0)),
        lambda s, ctx: congruence_table(s, ctx, -1),
        lambda s, ctx: expsum_table(s, ctx, -2),
    ],
)
def test_negative_level_rejected(call):
    with pytest.raises(ValueError, match="negative"):
        call(sys71(), PrimeContext(5))


# ---------------------------------------------------------------------------
# Budget: each level is checked on the points it tests
# ---------------------------------------------------------------------------


def sys72(k):
    return PolySystem(2, [parse_polynomial(f"x^{k}+y^{k}", V2), parse_polynomial("x^4+y^4+x*y", V2)])


class TestTreeBudget:
    @pytest.mark.parametrize("k", [2, 3])
    def test_level_two_refuses_at_its_own_size(self, k):
        # Level 2 tests the p^n lifts of every zero of x^k + y^k mod 47.
        p = 47
        head_zeros = sum(1 for x in range(p) for y in range(p) if (x**k + y**k) % p == 0)
        required = head_zeros * p**2
        s, ctx = sys72(k), PrimeContext(p)
        calls = [
            (lambda b: congruence_table(s, ctx, 2, b), "congruence"),
            (lambda b: expsum_table(s, ctx, 2, 1, b), "exponential-sum"),
            (lambda b: count_Nm(s, ctx, 2, b), "congruence"),
            (lambda b: exp_sum(s, ctx, 2, 1, b), "exponential-sum"),
            (lambda b: prop3_residual(s, ctx, 2, 1, b), "exponential-sum"),
            (lambda b: coeff_extract(s, ctx, 1, MultChar(p, 0), b), "coefficient"),
        ]
        for call, what in calls:
            with pytest.raises(BudgetExceededError) as err:
                call(required - 1)
            assert err.value.required == required
            assert str(err.value).startswith(f"{what} enumeration:")
            call(required)
        assert required < p**4

    def test_all_job_within_a_budget_below_the_full_grid(self):
        # Ex. 7.2, k = 2, p = 47: the tree tests 2 * 47^2 points where the
        # full grid of level 2 has 47^4.
        job = "vars = x, y\nprime = 47\ndepth = 2\nexpsum_levels = 2\n[polys]\nx^2 + y^2\nx^4 + y^4 + x*y\n"
        cfg = parse_config(job)
        cfg.mode = "all"
        reference, code = run(cfg)
        assert code == 0
        cfg.budget = 10_000
        report, code = run(cfg)
        assert code == 0 and report["oracle"] == reference["oracle"]


# ---------------------------------------------------------------------------
# One walk of the lift tree per system and prime
# ---------------------------------------------------------------------------


@pytest.fixture
def tested(monkeypatch):
    """A one-element list counting the points the lift tree tests."""
    import igusa.oracle as oracle_mod

    count = [0]
    real = oracle_mod.grid_zeros

    def shim(polys, coords, modulus):
        count[0] += len(coords[0])
        return real(polys, coords, modulus)

    monkeypatch.setattr(oracle_mod, "grid_zeros", shim)
    return count


class TestOneWalk:
    # Ex. 7.1 at p = 5: H_1 and H_2 are the 5^2 and 5^4 points of the plane
    # x + y = z, so levels 1, 2, 3 test 5^3, 25 * 5^3 and 625 * 5^3 lifts.
    WALK_71_P5 = 125 + 25 * 125 + 625 * 125

    def test_every_reader_shares_one_walk(self, tested):
        ctx, chi = PrimeContext(5), MultChar(5, 1)

        def readers(system):
            return (
                congruence_table(system(), ctx, 3).counts,
                count_Nm(system(), ctx, 2),
                [e.value for e in expsum_table(system(), ctx, 3)],
                exp_sum(system(), ctx, 3),
                coeff_extract(system(), ctx, 2, chi),
                prop3_residual(system(), ctx, 2),
                deltaR_measures(system(), ctx, 1, 3),
            )

        expected = readers(sys71)  # a fresh system, so a walk of its own, per call
        s = sys71()
        tested[0] = 0
        congruence_table(s, ctx, 3)
        assert tested[0] == self.WALK_71_P5
        assert readers(lambda: s) == expected
        assert tested[0] == self.WALK_71_P5

    def test_fresh_system_walks_again(self, tested):
        ctx = PrimeContext(5)
        congruence_table(sys71(), ctx, 3)
        congruence_table(sys71(), ctx, 3)
        assert tested[0] == 2 * self.WALK_71_P5

    def test_deeper_call_walks_only_the_new_level(self, tested):
        s, ctx = sys71(), PrimeContext(5)
        congruence_table(s, ctx, 2)
        assert tested[0] == 125 + 25 * 125
        expsum_table(s, ctx, 3)
        assert tested[0] == self.WALK_71_P5

    def test_kept_levels_keep_the_budget(self):
        # The tree is filled within budget; a later reader with a budget one
        # below level 2's size is refused at that size and with its message.
        p = 47
        required = sum(1 for x in range(p) for y in range(p) if (x**2 + y**2) % p == 0) * p**2
        s, ctx = sys72(2), PrimeContext(p)
        congruence_table(s, ctx, 2, required)
        with pytest.raises(BudgetExceededError) as err:
            expsum_table(s, ctx, 2, 1, required - 1)
        assert err.value.required == required
        assert str(err.value).startswith("exponential-sum enumeration:")
        expsum_table(s, ctx, 2, 1, required)
