import math
import random
import time
from collections import Counter
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from igusa import counting
from igusa.counting import (
    NondegWitness,
    _slices,
    _torus_slice,
    check_good_reduction,
    check_nondegenerate,
    jacobian_rank,
    torus_count,
    verify_witness,
)
from igusa.errors import BudgetExceededError
from igusa.fan import barycenter, dual_subdivision, triangulate
from igusa.polycore import (
    IntPolynomial,
    PolySystem,
    PrimeContext,
    eval_on_grid,
    face_function,
    grid_zeros,
    parse_polynomial,
    product_chunks,
)

V2 = ["x", "y"]
V3 = ["x", "y", "z"]


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


def degenerate_curve():
    # x^8 + y^8 + (x+y)^8 + x^2 y^2 (x+y)^2, entered expanded.
    text = (
        "2*x^8 + 8*x^7*y + 28*x^6*y^2 + 56*x^5*y^3 + 70*x^4*y^4 + 56*x^3*y^5"
        " + 28*x^2*y^6 + 8*x*y^7 + 2*y^8 + x^4*y^2 + 2*x^3*y^3 + x^2*y^4"
    )
    return PolySystem(2, [parse_polynomial(text, V2)])


class TestTorusCount:
    def test_direction_311(self):
        tc = torus_count(sys71(), (3, 1, 1), PrimeContext(5))
        assert (tc.c_open, tc.c_closed) == (16, 0)

    def test_direction_111(self):
        tc = torus_count(sys71(), (1, 1, 1), PrimeContext(5))
        assert (tc.c_open, tc.c_closed) == (12, 0)

    def test_72_barycenter(self):
        tc = torus_count(sys72(), (1, 1), PrimeContext(5))
        assert (tc.c_open, tc.c_closed) == (8, 0)

    def test_scaling_invariance(self):
        ctx = PrimeContext(5)
        s = sys71()
        for a in [(1, 1, 1), (3, 1, 1), (1, 2, 1)]:
            base = torus_count(s, a, ctx)
            for lam in (2, 3):
                scaled = torus_count(s, tuple(lam * x for x in a), ctx)
                assert (scaled.c_open, scaled.c_closed) == (base.c_open, base.c_closed)

    def test_constant_on_cone_interiors(self):
        from igusa.fan import dual_subdivision

        ctx = PrimeContext(3)
        s = sys71()
        for cone in dual_subdivision(s).cones:
            gens = cone.generators
            rep = cone.interior_point()
            other = tuple(sum(((2 + i) * g[j]) for i, g in enumerate(gens)) for j in range(3))
            a = torus_count(s, rep, ctx)
            b = torus_count(s, other, ctx)
            assert (a.c_open, a.c_closed) == (b.c_open, b.c_closed)

    def test_open_plus_closed_counts_head_variety(self):
        ctx = PrimeContext(5)
        s = sys71()
        for a in [(1, 1, 1), (2, 1, 1), (0, 0, 0)]:
            tc = torus_count(s, a, ctx)
            head = face_function(s.polys[0], a)
            total = sum(
                1
                for x in range(1, 5)
                for y in range(1, 5)
                for z in range(1, 5)
                if head.evaluate_mod((x, y, z), 5) == 0
            )
            assert tc.c_open + tc.c_closed == total

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            torus_count(sys71(), (1, 1, 1), PrimeContext(5), budget=10)


class TestJacobianRank:
    def test_linear_form(self):
        s = sys71()
        ctx = PrimeContext(5)
        assert jacobian_rank(s.polys[:1], (1, 1, 1), ctx) == 1

    def test_diagonal_squares(self):
        polys = [parse_polynomial("x^2", V2), parse_polynomial("y^2", V2)]
        assert jacobian_rank(polys, (1, 1), PrimeContext(5)) == 2

    def test_face_system_direction_311(self):
        # No common torus zeros exist, so this is a direct rank probe.
        s = sys71()
        faces = [face_function(f, (3, 1, 1)) for f in s.polys]
        assert jacobian_rank(faces, (1, 1, 1), PrimeContext(5)) == 2


class TestNondegeneracy:
    def test_71_global_ok(self):
        for p in (5, 7):
            cert = check_nondegenerate(sys71(), PrimeContext(p))
            assert cert.ok and cert.scope == "global"

    def test_72_origin_ok(self):
        cert = check_nondegenerate(sys72(), PrimeContext(5), at_origin=True)
        assert cert.ok and cert.scope == "at_origin"

    def test_degenerate_curve_with_witness(self):
        found = None
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
            ctx = PrimeContext(p)
            cert = check_nondegenerate(degenerate_curve(), ctx)
            if not cert.ok:
                found = (ctx, cert)
                break
        assert found is not None
        ctx, cert = found
        assert cert.witness is not None
        assert verify_witness(degenerate_curve(), ctx, cert.witness)

    def test_witness_reverifies_components(self):
        ctx = PrimeContext(3)
        cert = check_nondegenerate(degenerate_curve(), ctx)
        assert not cert.ok
        w = cert.witness
        faces = [face_function(f, w.direction) for f in degenerate_curve().polys]
        assert all(g.evaluate_mod(w.point, 3) == 0 for g in faces)
        assert jacobian_rank(faces, w.point, ctx) == w.rank < 1

    def test_verify_witness_rejects(self):
        # (x^3 - y^2)^2 at p = 13 has the witness ((2, 3), (1, 1), 0).  The
        # origin is a rank-0 zero of the face but not on the torus; (1, 2)
        # is on the torus but off the face variety.
        s = PolySystem(2, [parse_polynomial("x^6 - 2*x^3*y^2 + y^4", V2)])
        ctx = PrimeContext(13)
        assert verify_witness(s, ctx, NondegWitness((2, 3), (1, 1), 0))
        assert not verify_witness(s, ctx, NondegWitness((2, 3), (0, 0), 0))
        assert not verify_witness(s, ctx, NondegWitness((2, 3), (1, 2), 0))

    @pytest.mark.parametrize("at_origin", [False, True])
    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("make", [sys71, degenerate_curve])
    def test_supplied_subdivision_agrees(self, make, p, at_origin, monkeypatch):
        # A subdivision built on another system with the same polynomials,
        # handed to the certificate in place of the kept one, gives the
        # certificate the certificate builds for itself.
        ctx = PrimeContext(p)
        built_on = make()
        built = check_nondegenerate(built_on, ctx, at_origin=at_origin)
        sub = dual_subdivision(make())
        asked = []
        monkeypatch.setattr(counting.fan_mod, "dual_subdivision", lambda t: asked.append(t) or sub)
        s = make()
        given = check_nondegenerate(s, ctx, at_origin=at_origin)
        assert asked and all(t is s for t in asked)
        assert dual_subdivision(built_on) == sub
        assert given == built  # ok, scope, witness, directions checked


class TestGoodReduction:
    def test_linear_head(self):
        assert check_good_reduction(sys71(), PrimeContext(5))

    def test_cone_head_fails(self):
        s = PolySystem(
            3,
            [parse_polynomial("x^2+y^2-z^2", V3), parse_polynomial("x+y+z", V3)],
        )
        assert not check_good_reduction(s, PrimeContext(5))

    def test_line_head(self):
        s = PolySystem(2, [parse_polynomial("x+y", V2), parse_polynomial("x^2+y^2", V2)])
        assert check_good_reduction(s, PrimeContext(3))

    def test_empty_head_is_smooth(self, monkeypatch):
        # With l = 1 the head cuts out all of F_p^n: no scan and no budget.
        monkeypatch.setattr(counting, "product_chunks", lambda axes: pytest.fail("scanned"))
        assert check_good_reduction(degenerate_curve(), PrimeContext(3), budget=1)

    def test_constant_jacobian_ranked_once(self, monkeypatch):
        # The head x+y-z has a constant Jacobian: one rank for its 529 zeros.
        calls = []
        real = counting._rank_mod_p
        monkeypatch.setattr(counting, "_rank_mod_p", lambda rows, p: calls.append(rows) or real(rows, p))
        assert check_good_reduction(sys71(), PrimeContext(23))
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# Point-by-point reference: itertools.product order and scalar evaluate_mod
# ---------------------------------------------------------------------------


def reference_torus_count(s, a, p):
    faces = [face_function(f, a) for f in s.polys]
    c_open = c_closed = 0
    for z in product(range(1, p), repeat=s.n):
        if any(g.evaluate_mod(z, p) for g in faces[:-1]):
            continue
        if faces[-1].evaluate_mod(z, p):
            c_open += 1
        else:
            c_closed += 1
    return c_open, c_closed


def reference_good_reduction(s, ctx):
    head = s.polys[:-1]
    for z in product(range(ctx.p), repeat=s.n):
        if not any(f.evaluate_mod(z, ctx.p) for f in head) and jacobian_rank(head, z, ctx) != s.l - 1:
            return False
    return True


def reference_witness(s, ctx, at_origin):
    """First failing point, in product order, of the first failing direction."""
    directions = [cone.interior_point() for cone in dual_subdivision(s).cones]
    if at_origin:
        directions = [a for a in directions if all(x > 0 for x in a)]
    else:
        directions.append((0,) * s.n)
    for a in directions:
        faces = [face_function(f, a) for f in s.polys]
        for z in product(range(1, ctx.p), repeat=s.n):
            if any(g.evaluate_mod(z, ctx.p) for g in faces):
                continue
            r = jacobian_rank(faces, z, ctx)
            if r != min(s.l, s.n):
                return tuple(a), z, r
    return None


class TestAgainstPointwiseReference:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_torus_counts_71_cones_and_L0(self, p):
        s = sys71()
        directions = [barycenter(cone) for cone in triangulate(dual_subdivision(s)).cones]
        for a in directions + [(0, 0, 0)]:
            tc = torus_count(s, a, PrimeContext(p))
            assert (tc.c_open, tc.c_closed) == reference_torus_count(s, a, p), a

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_good_reduction(self, p):
        systems = [
            sys71(),
            sys72(2),
            sys72(3),
            PolySystem(3, [parse_polynomial("x^2+y^2-z^2", V3), parse_polynomial("x+y+z", V3)]),
            PolySystem(3, [parse_polynomial("x*y-z^2", V3), parse_polynomial("x+y+z", V3)]),
            PolySystem(3, [parse_polynomial("x^2-y^3", V3), parse_polynomial("y^2-z^3", V3), parse_polynomial("x+z", V3)]),
        ]
        verdicts = []
        for s in systems:
            verdicts.append(check_good_reduction(s, PrimeContext(p)))
            assert verdicts[-1] == reference_good_reduction(s, PrimeContext(p))
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    @pytest.mark.parametrize("at_origin", [False, True])
    def test_degeneracy_witness(self, p, at_origin):
        # degenerate_curve() is the acceptance suite's collapsed_curve(); it
        # first degenerates at p = 3.
        s = degenerate_curve()
        ctx = PrimeContext(p)
        cert = check_nondegenerate(s, ctx, at_origin=at_origin)
        expected = reference_witness(s, ctx, at_origin)
        if expected is None:
            assert cert.ok and cert.witness is None
        else:
            w = cert.witness
            assert not cert.ok and (w.direction, w.point, w.rank) == expected


# ---------------------------------------------------------------------------
# Orbit slices: for a != 0 the scans visit g (p-1)^(n-1) torus points
# ---------------------------------------------------------------------------


def full_grid_torus_count(s, a, p):
    """(c_open, c_closed) over every point of the torus (F_p^x)^n."""
    faces = [face_function(f, a) for f in s.polys]
    c_open = c_closed = 0
    for coords in product_chunks([np.arange(1, p)] * s.n):
        head = grid_zeros(faces[:-1], coords, p)
        closed = int(np.count_nonzero(eval_on_grid(faces[-1], head, p) == 0))
        c_open += len(head[0]) - closed
        c_closed += closed
    return c_open, c_closed


def _dot(a, m):
    return sum(x * y for x, y in zip(a, m))


def _random_polynomial(rng, n, a):
    """Two or three terms of equal a-weight (the face in direction a; any
    terms when a = 0) plus up to two terms of larger a-weight."""
    box = [m for m in product(range(4), repeat=n) if any(m)]
    levels = {}
    for m in box:
        levels.setdefault(_dot(a, m), []).append(m)
    d = rng.choice(sorted(w for w, ms in levels.items() if len(ms) >= 2))
    face = rng.sample(levels[d], min(3, len(levels[d])))
    higher = [m for m in box if _dot(a, m) > d]
    terms = face + rng.sample(higher, min(2, len(higher)))
    return IntPolynomial(n, {m: rng.choice([-3, -2, -1, 1, 2, 3]) for m in terms})


SLICE_DIRECTIONS = {
    2: [(1, 1), (2, 3), (3, 2), (4, 6), (0, 1), (2, 0), (0, 0)],
    3: [(0, 1, 2), (2, 2, 4), (3, 3, 2), (1, 2, 3), (0, 0, 3), (0, 0, 0)],
    4: [(1, 1, 1, 1), (0, 1, 2, 0), (2, 2, 4, 6), (3, 3, 2, 3), (0, 0, 0, 0)],
}


class TestOrbitSlice:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    @pytest.mark.parametrize("n", [2, 3])
    def test_slice_meets_every_orbit_g_times(self, n, p):
        # With a' = a / gcd(a), t.x = (t^{a'_1} x_1, ..., t^{a'_n} x_n) maps
        # F_p^x x slice onto the torus, hitting every point exactly
        # g = (p-1)/weight times.
        for a in SLICE_DIRECTIONS[n]:
            axes, weight = _torus_slice(a, n, p)
            assert (p - 1) % weight == 0
            g = (p - 1) // weight
            assert math.prod(len(x) for x in axes) == (g * (p - 1) ** (n - 1) if any(a) else (p - 1) ** n)
            if not any(a):
                continue
            c = math.gcd(*a)
            hits = Counter(
                tuple(pow(t, e // c, p) * x % p for e, x in zip(a, s))
                for t in range(1, p)
                for s in product(*(list(x) for x in axes))
            )
            assert set(hits) == set(product(range(1, p), repeat=n))
            assert set(hits.values()) == {g}

    def test_g_above_one_where_every_entry_shares_a_factor(self):
        assert _torus_slice((2, 3), 2, 7)[1] == 3  # g = 2
        assert _torus_slice((3, 3, 2), 3, 7)[1] == 3  # g = 2
        assert _torus_slice((4, 6), 2, 7)[1] == 3  # primitive (2, 3)
        assert _torus_slice((2, 2, 4), 3, 7)[1] == 6  # primitive (1, 1, 2): g = 1

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    @pytest.mark.parametrize("n,l", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3)])
    def test_sliced_counts_equal_full_grid(self, n, l, p):
        seen = 0
        for seed in range(2):
            for a in SLICE_DIRECTIONS[n]:
                rng = random.Random(f"{n}-{l}-{p}-{seed}-{a}")
                s = PolySystem(n, [_random_polynomial(rng, n, a) for _ in range(l)])
                tc = torus_count(s, a, PrimeContext(p))
                expected = full_grid_torus_count(s, a, p)
                assert (tc.c_open, tc.c_closed) == expected, (s, a)
                seen += sum(expected) > 0
        assert seen > 0


def _square(h):
    out = {}
    for m1, c1 in h.terms.items():
        for m2, c2 in h.terms.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return IntPolynomial(h.n, out)


def _degenerate_system(rng, n, a=None):
    """f_l = h^2 + x_1^D + ... + x_n^D with h of equal weight a > 0 (random
    unless given), so the face of f_l in direction a is h^2, singular
    wherever h vanishes; for n = 3, f_1 is a linear form."""
    while a is None:
        a = tuple(rng.randint(1, 3) for _ in range(n))
        if math.gcd(*a) != 1:
            a = None
    levels = {}
    for m in product(range(4), repeat=n):
        levels.setdefault(_dot(a, m), []).append(m)
    d = rng.choice(sorted(w for w, ms in levels.items() if w and len(ms) >= 2))
    h = IntPolynomial(n, {m: rng.choice([-3, -2, -1, 1, 2, 3]) for m in rng.sample(levels[d], 2)})
    powers = {tuple(2 * d + 1 if i == k else 0 for i in range(n)): 1 for k in range(n)}
    last = IntPolynomial(n, {**_square(h).terms, **powers})
    if n == 2:
        return PolySystem(2, [last])
    linear = IntPolynomial(n, {tuple(int(i == k) for i in range(n)): rng.choice([-2, -1, 1, 2]) for k in range(n)})
    return PolySystem(n, [linear, last])


def _in_slice(s, p, w):
    axes, _ = _torus_slice(w.direction, s.n, p)
    return all(x in list(axis) for x, axis in zip(w.point, axes))


class TestSlicedWitness:
    """The witness is the least failure on the slice at the first nonzero
    coordinate, and still the full-torus reference's."""

    @pytest.mark.parametrize("at_origin", [False, True])
    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_cusp_squared(self, p, at_origin):
        # (x^3 - y^2)^2: edge normal (2, 3), so g = 2 at p = 7 and p = 13.
        s = PolySystem(2, [parse_polynomial("x^6 - 2*x^3*y^2 + y^4", V2)])
        ctx = PrimeContext(p)
        cert = check_nondegenerate(s, ctx, at_origin=at_origin)
        w = cert.witness
        assert not cert.ok and (w.direction, w.point, w.rank) == reference_witness(s, ctx, at_origin)
        assert verify_witness(s, ctx, w)
        assert w.direction == (2, 3)
        assert _torus_slice(w.direction, 2, p)[1] == (p - 1) // (1 if p == 5 else 2)

    def test_first_failure_outside_slice(self):
        # (y^2 - 4x)^2 at p = 5: direction (2, 1) slices at y = 1, but the
        # lexicographically first failure is (1, 2).
        s = PolySystem(2, [parse_polynomial("y^4 - 8*x*y^2 + 16*x^2", V2)])
        ctx = PrimeContext(5)
        cert = check_nondegenerate(s, ctx)
        w = cert.witness
        assert (w.direction, w.point, w.rank) == reference_witness(s, ctx, False) == ((2, 1), (1, 2), 0)
        assert not _in_slice(s, 5, w) and verify_witness(s, ctx, w)

    @pytest.mark.parametrize("at_origin", [False, True])
    def test_witness_within_the_budget(self, at_origin):
        # The slice of direction (2, 3) at p = 13 has 24 points and the torus
        # 144: a budget of 100 admits the slice, which alone gives the witness.
        s = PolySystem(2, [parse_polynomial("x^6 - 2*x^3*y^2 + y^4", V2)])
        ctx = PrimeContext(13)
        cert = check_nondegenerate(s, ctx, at_origin=at_origin, budget=100)
        w = cert.witness
        assert not cert.ok
        assert (w.direction, w.point, w.rank) == reference_witness(s, ctx, at_origin) == ((2, 3), (1, 1), 0)
        assert verify_witness(s, ctx, w)

    def test_non_primitive_direction(self, monkeypatch):
        # Direction (4, 2) has the face system of (2, 1), and F_p^x acts
        # through a' = (2, 1): at p = 5 the slice's only failure (4, 1) maps
        # to the torus's first failure (1, 2), which t -> (t^4, t^2) misses.
        s = PolySystem(2, [parse_polynomial("y^4 - 8*x*y^2 + 16*x^2", V2)])
        ctx = PrimeContext(5)
        sub = SimpleNamespace(cones=[SimpleNamespace(interior_point=lambda: (4, 2))])
        monkeypatch.setattr(counting.fan_mod, "dual_subdivision", lambda t: sub)
        w = check_nondegenerate(s, ctx).witness
        assert (w.direction, w.point, w.rank) == ((4, 2), (1, 2), 0)
        assert verify_witness(s, ctx, w)

    @pytest.mark.parametrize("n", [2, 3])
    def test_lead_slice_witness(self, n):
        # Directions whose first nonzero coordinate has a larger g than the
        # slice's coordinate: that slice need not hold the orbits' least
        # points, and the witness comes from the rescan of the lead slice,
        # the one at the first nonzero coordinate.
        directions = {2: [(2, 1), (2, 3)], 3: [(2, 1, 1), (2, 1, 2), (2, 3, 2), (4, 2, 1)]}[n]
        rescanned = 0
        for seed in range(8):
            rng = random.Random(seed)
            s = _degenerate_system(rng, n, rng.choice(directions))
            for p in (5, 7, 13) if n == 2 else (5, 7):
                ctx = PrimeContext(p)
                for at_origin in (False, True):
                    cert = check_nondegenerate(s, ctx, at_origin=at_origin)
                    expected = reference_witness(s, ctx, at_origin)
                    if expected is None:
                        assert cert.ok and cert.witness is None
                        continue
                    w = cert.witness
                    assert not cert.ok and (w.direction, w.point, w.rank) == expected, (seed, p, at_origin)
                    assert verify_witness(s, ctx, w)
                    rescanned += _slices(w.direction, n, p)[0][1] * _torus_slice(w.direction, n, p)[1] > p - 1
        assert rescanned > 0

    def test_lead_rescan_points(self, monkeypatch):
        # (y^2 - x)^2 + z^4 at p = 1009 first fails at direction (2, 1, 2),
        # whose slice sits at y (g = 1) and lead slice at x (g = 2): the
        # certificate scans each direction's slice and one lead slice.
        s = PolySystem(3, [parse_polynomial("y^4 - 2*y^2*x + x^2 + z^4", V3)])
        p = 1009
        scanned = []

        def counted(axes):
            scanned.append(math.prod(len(x) for x in axes))
            return product_chunks(axes)

        monkeypatch.setattr(counting, "product_chunks", counted)
        w = check_nondegenerate(s, PrimeContext(p), at_origin=True).witness
        assert (w.direction, w.point, w.rank) == ((2, 1, 2), (1, 1, 1), 0)
        directions = [a for a in (cone.interior_point() for cone in dual_subdivision(s).cones) if all(x > 0 for x in a)]
        slices = sum(math.prod(len(x) for x in _torus_slice(a, 3, p)[0]) for a in directions)
        assert sum(scanned) <= slices + 2 * (p - 1) ** 2
        assert scanned[-1] == 2 * (p - 1) ** 2

    def test_every_slice_point_fails(self):
        # (x - y)^2 + z^4 at p = 1009: directions (0, 0, 1) and (2, 2, 2) fail
        # at all p - 1 points of their slices.  Trying every t formed
        # (p - 1)^2 images per certificate, over a second each.
        s = PolySystem(3, [parse_polynomial("x^2 - 2*x*y + y^2 + z^4", V3)])
        ctx = PrimeContext(1009)
        start = time.perf_counter()
        certs = [check_nondegenerate(s, ctx, at_origin=at_origin) for at_origin in (False, True)]
        assert time.perf_counter() - start < 1.5
        witnesses = [(c.witness.direction, c.witness.point, c.witness.rank) for c in certs]
        assert witnesses == [((0, 0, 1), (1, 1, 1), 0), ((2, 2, 2), (1, 1, 1), 0)]

    def test_seeded_degenerate_systems(self):
        outside = 0
        for seed in range(12):
            rng = random.Random(seed)
            n = 2 if seed % 3 else 3
            s = _degenerate_system(rng, n)
            for p in (5, 7, 11, 13) if n == 2 else (5, 7):
                ctx = PrimeContext(p)
                for at_origin in (False, True):
                    cert = check_nondegenerate(s, ctx, at_origin=at_origin)
                    expected = reference_witness(s, ctx, at_origin)
                    if expected is None:
                        assert cert.ok and cert.witness is None
                        continue
                    w = cert.witness
                    assert not cert.ok and (w.direction, w.point, w.rank) == expected, (seed, p, at_origin)
                    assert verify_witness(s, ctx, w)
                    outside += not _in_slice(s, p, w)
        assert outside > 0


class TestSlicedBudget:
    """The budget sees the points each scan tests: g (p-1)^(n-1) for a
    sliced direction, (p-1)^n for a = 0.  Ex. 7.1 at p = 7: 36, 72 or 216."""

    @pytest.mark.parametrize("a,sliced", [((1, 1, 1), 36), ((3, 3, 2), 72), ((2, 2, 3), 72), ((2, 2, 4), 36)])
    def test_torus_count(self, a, sliced):
        s, ctx = sys71(), PrimeContext(7)
        expected = full_grid_torus_count(s, a, 7)
        for budget in (sliced, 215):
            tc = torus_count(s, a, ctx, budget=budget)
            assert (tc.c_open, tc.c_closed) == expected
        with pytest.raises(BudgetExceededError) as err:
            torus_count(s, a, ctx, budget=sliced - 1)
        assert err.value.required == sliced

    def test_torus_count_zero_direction_scans_whole_torus(self):
        s, ctx = sys71(), PrimeContext(7)
        with pytest.raises(BudgetExceededError) as err:
            torus_count(s, (0, 0, 0), ctx, budget=215)
        assert err.value.required == 216
        tc = torus_count(s, (0, 0, 0), ctx, budget=216)
        assert (tc.c_open, tc.c_closed) == full_grid_torus_count(s, (0, 0, 0), 7)

    def test_at_origin_certificate(self):
        # The largest at-origin scan is g = 2, e.g. on the cone through (3, 3, 2).
        s, ctx = sys71(), PrimeContext(7)
        unlimited = check_nondegenerate(s, ctx, at_origin=True)
        for budget in (72, 215):
            assert check_nondegenerate(s, ctx, at_origin=True, budget=budget) == unlimited
        with pytest.raises(BudgetExceededError) as err:
            check_nondegenerate(s, ctx, at_origin=True, budget=71)
        assert err.value.required == 72

    def test_global_certificate_scans_zero_direction_whole(self):
        s, ctx = sys71(), PrimeContext(7)
        with pytest.raises(BudgetExceededError) as err:
            check_nondegenerate(s, ctx, budget=215)
        assert err.value.required == 216
        assert check_nondegenerate(s, ctx, budget=216).ok

    def test_nineteen_digit_prime_refused_before_any_axis_exists(self):
        # A whole axis would hold p - 1 = 10^18 + 2 values.
        p = 1_000_000_000_000_000_003
        with pytest.raises(BudgetExceededError) as err:
            torus_count(sys71(), (1, 1, 1), PrimeContext(p))
        assert err.value.required == (p - 1) ** 2

    def test_refusal_before_the_subdivision_uses_the_lower_bound(self, monkeypatch):
        def no_subdivision(*args, **kwargs):
            raise AssertionError("subdivision built before the budget check")

        monkeypatch.setattr(counting.fan_mod, "dual_subdivision", no_subdivision)
        with pytest.raises(BudgetExceededError) as err:
            check_nondegenerate(sys71(), PrimeContext(7), budget=35)
        assert err.value.required == 36


# ---------------------------------------------------------------------------
# Scans kept on the system: one per face system and prime
# ---------------------------------------------------------------------------


def _memo_cases():
    cases = [pytest.param(degenerate_curve(), p, id=f"degenerate-p{p}") for p in (3, 5, 7)]
    for n, l in ((2, 2), (3, 2), (3, 3)):
        for p in (5, 7):
            for a in SLICE_DIRECTIONS[n][:3]:
                rng = random.Random(f"{n}-{l}-{p}-0-{a}")
                s = PolySystem(n, [_random_polynomial(rng, n, a) for _ in range(l)])
                cases.append(pytest.param(s, p, id=f"n{n}-l{l}-p{p}-{'.'.join(map(str, a))}"))
    return cases


def _refusal(call):
    with pytest.raises(BudgetExceededError) as err:
        call()
    return err.value.required, str(err.value)


class TestScanMemo:
    """A scan kept on the system never changes an answer and never skips a
    budget check: every call on a system whose scans are filled equals the
    same call on a fresh copy."""

    @pytest.mark.parametrize("system,p", _memo_cases())
    def test_filled_equals_fresh(self, system, p, monkeypatch):
        ctx = PrimeContext(p)
        s = PolySystem(system.n, system.polys)
        sub = dual_subdivision(s)
        monkeypatch.setattr(counting.fan_mod, "dual_subdivision", lambda t: sub)
        certs = {scope: check_nondegenerate(s, ctx, at_origin=scope) for scope in (False, True)}
        assert s.scans
        for scope, cert in certs.items():
            again = check_nondegenerate(s, ctx, at_origin=scope)
            fresh = check_nondegenerate(PolySystem(s.n, s.polys), ctx, at_origin=scope)
            assert again == cert == fresh
            if not cert.ok:
                assert verify_witness(s, ctx, cert.witness)
        directions = [barycenter(cone) for cone in triangulate(sub).cones] + [(0,) * s.n]
        for a in directions:
            tc = torus_count(s, a, ctx)
            assert tc == torus_count(PolySystem(s.n, s.polys), a, ctx)
            assert (tc.c_open, tc.c_closed) == full_grid_torus_count(s, a, p), a
        verdict = check_good_reduction(s, ctx)
        assert check_good_reduction(s, ctx) == verdict == check_good_reduction(PolySystem(s.n, s.polys), ctx)

    @pytest.mark.parametrize("system,p", _memo_cases())
    def test_filled_scans_keep_the_budget(self, system, p, monkeypatch):
        ctx = PrimeContext(p)
        s = PolySystem(system.n, system.polys)
        directions = [barycenter(cone) for cone in triangulate(dual_subdivision(s)).cones] + [(0,) * s.n]
        for a in directions:
            torus_count(s, a, ctx)
        check_good_reduction(s, ctx)
        for a in directions:
            size = math.prod(len(x) for x in _torus_slice(a, s.n, p)[0])
            one = SimpleNamespace(cones=[SimpleNamespace(interior_point=lambda a=a: a)])
            monkeypatch.setattr(counting.fan_mod, "dual_subdivision", lambda t, one=one: one)
            for call in (
                lambda t: torus_count(t, a, ctx, budget=size - 1),
                lambda t: check_nondegenerate(t, ctx, budget=size - 1),
            ):
                required, message = _refusal(lambda: call(s))
                assert (required, message) == _refusal(lambda: call(PolySystem(s.n, s.polys)))
                assert required == size
        if s.l >= 2:  # an empty head is smooth without a scan, so it has no budget to keep
            required, message = _refusal(lambda: check_good_reduction(s, ctx, budget=p**s.n - 1))
            assert (required, message) == _refusal(lambda: check_good_reduction(PolySystem(s.n, s.polys), ctx, budget=p**s.n - 1))
            assert required == p**s.n

    def test_filled_scan_keeps_the_lead_slice_budget(self, monkeypatch):
        # (x^3 - y^2)^2 at p = 5, direction (2, 3): the slice at y has 4
        # points and the lead slice at x 8, which the witness needs.  A
        # budget of 6 admits the first only, on a fresh and a filled system.
        s = PolySystem(2, [parse_polynomial("x^6 - 2*x^3*y^2 + y^4", V2)])
        ctx = PrimeContext(5)
        one = SimpleNamespace(cones=[SimpleNamespace(interior_point=lambda: (2, 3))])
        monkeypatch.setattr(counting.fan_mod, "dual_subdivision", lambda t: one)
        fresh = _refusal(lambda: check_nondegenerate(PolySystem(s.n, s.polys), ctx, budget=6))
        assert fresh[0] == 8
        cert = check_nondegenerate(s, ctx, budget=8)
        assert s.scans and not cert.ok
        assert _refusal(lambda: check_nondegenerate(s, ctx, budget=6)) == fresh
        assert check_nondegenerate(s, ctx, budget=8) == cert == check_nondegenerate(PolySystem(s.n, s.polys), ctx, budget=8)


# ---------------------------------------------------------------------------
# Scans cut short: monomial faces mod p and linear heads
# ---------------------------------------------------------------------------


def _units_mod_p(face, p):
    return sum(c % p != 0 for c in face.terms.values())


class TestMonomialFaces:
    """A face with exactly one coefficient prime to p has no torus zero."""

    def _walks(self, monkeypatch):
        walks = []
        real = counting.product_chunks
        monkeypatch.setattr(counting, "product_chunks", lambda axes: walks.append(axes) or real(axes))
        return walks

    def test_monomial_head_face_is_not_scanned(self, monkeypatch):
        # Direction (1, 1) picks x*y from the head: no torus zero at all.
        s = PolySystem(2, [parse_polynomial("x*y + x^3 + y^3", V2), parse_polynomial("x^2 + y^2", V2)])
        walks = self._walks(monkeypatch)
        tc = torus_count(s, (1, 1), PrimeContext(5))
        assert (tc.c_open, tc.c_closed) == full_grid_torus_count(s, (1, 1), 5) == (0, 0)
        assert walks == []

    def test_monomial_last_face_scans_the_head_only(self, monkeypatch):
        # Direction (1, 1) picks x + y from the head and 5*x^2 + x*y from
        # f_l, whose one unit coefficient mod 5 leaves no common zero.
        s = PolySystem(2, [parse_polynomial("x + y", V2), parse_polynomial("5*x^2 + x*y + y^3", V2)])
        walks = self._walks(monkeypatch)
        monkeypatch.setattr(counting, "_failures", lambda *args: pytest.fail("Jacobian evaluated"))
        tc = torus_count(s, (1, 1), PrimeContext(5))
        assert (tc.c_open, tc.c_closed) == full_grid_torus_count(s, (1, 1), 5) == (4, 0)
        assert len(walks) == 1

    @pytest.mark.parametrize("l", [1, 2])
    def test_lone_coefficient_divisible_by_p_is_scanned(self, l, monkeypatch):
        # The face 5*x*y of direction (1, 1) vanishes on the whole torus mod 5.
        s = PolySystem(2, [parse_polynomial(f, V2) for f in ["5*x*y + x^3 + y^3", "x^2 + y^2"][:l]])
        walks = self._walks(monkeypatch)
        tc = torus_count(s, (1, 1), PrimeContext(5))
        assert (tc.c_open, tc.c_closed) == full_grid_torus_count(s, (1, 1), 5)
        assert len(walks) == 1 and sum((tc.c_open, tc.c_closed)) > 0

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_seeded_systems_match_the_full_torus(self, p):
        # Faces of one or two terms with coefficients often divisible by p:
        # counts on every cone and a = 0, and the certificates' witnesses,
        # equal the full-torus references.
        shortcuts = 0
        for seed in range(12):
            rng = random.Random(f"monomial-{p}-{seed}")
            n, l = rng.choice([(2, 1), (2, 2), (3, 2)])
            polys = []
            for _ in range(l):
                support = rng.sample([m for m in product(range(4), repeat=n) if any(m)], rng.randint(2, 4))
                polys.append(IntPolynomial(n, {m: rng.choice([1, -1, 2, p, -p, 2 * p]) for m in support}))
            s = PolySystem(n, polys)
            ctx = PrimeContext(p)
            for a in [barycenter(cone) for cone in triangulate(dual_subdivision(s)).cones] + [(0,) * n]:
                tc = torus_count(s, a, ctx)
                assert (tc.c_open, tc.c_closed) == full_grid_torus_count(s, a, p), (s, a)
                shortcuts += any(_units_mod_p(face_function(f, a), p) == 1 for f in s.polys)
            for at_origin in (False, True):
                cert = check_nondegenerate(s, ctx, at_origin=at_origin)
                expected = reference_witness(s, ctx, at_origin)
                got = None if cert.ok else (cert.witness.direction, cert.witness.point, cert.witness.rank)
                assert got == expected, (s, at_origin)
        assert shortcuts > 10


class TestLinearHead:
    @pytest.mark.parametrize("second", ["6*x + 6*y + 6*z + x^2", "6*x + 6*y + 6*z"])
    def test_rank_below_l_minus_one_mod_p_still_scans(self, second, monkeypatch):
        # Both heads have linear parts of rank 1 mod 5, below l - 1 = 2:
        # the origin is a singular point, found by the p^n scan.
        s = PolySystem(3, [parse_polynomial(f, V3) for f in ("x + y + z", second, "x^2 + y^2 + z^2")])
        walks = []
        real = counting.product_chunks
        monkeypatch.setattr(counting, "product_chunks", lambda axes: walks.append(axes) or real(axes))
        ctx = PrimeContext(5)
        assert check_good_reduction(s, ctx) is False
        assert reference_good_reduction(s, ctx) is False
        assert len(walks) == 1

    def test_full_rank_linear_head_is_not_scanned(self, monkeypatch):
        monkeypatch.setattr(counting, "product_chunks", lambda axes: pytest.fail("scanned"))
        s = PolySystem(3, [parse_polynomial("x + y", V3), parse_polynomial("y - 2*z", V3), parse_polynomial("x^2 + y^2 + z^2", V3)])
        assert check_good_reduction(s, PrimeContext(7))
        assert check_good_reduction(sys71(), PrimeContext(23))

    def test_budget_below_p_to_the_n_refuses(self):
        s, ctx = sys71(), PrimeContext(23)
        for _ in range(2):  # on a fresh system, then with the verdict kept
            with pytest.raises(BudgetExceededError) as err:
                check_good_reduction(s, ctx, budget=23**3 - 1)
            assert err.value.required == 23**3
            assert check_good_reduction(s, ctx, budget=23**3)
