from itertools import product

import pytest

from igusa.counting import (
    check_good_reduction,
    check_nondegenerate,
    jacobian_rank,
    torus_count,
    verify_witness,
)
from igusa.errors import BudgetExceededError
from igusa.fan import barycenter, dual_subdivision, triangulate
from igusa.polycore import PolySystem, PrimeContext, face_function, parse_polynomial

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

    @pytest.mark.parametrize("at_origin", [False, True])
    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("make", [sys71, degenerate_curve])
    def test_supplied_subdivision_agrees(self, make, p, at_origin):
        s, ctx = make(), PrimeContext(p)
        built = check_nondegenerate(s, ctx, at_origin=at_origin)
        sub = dual_subdivision(s)
        given = check_nondegenerate(s, ctx, at_origin=at_origin, subdivision=sub)
        assert given.subdivision is sub and built.subdivision == sub
        assert (given.ok, given.scope, given.witness, given.directions_checked) == (
            built.ok, built.scope, built.witness, built.directions_checked
        )


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

    def test_l1_rejected(self):
        with pytest.raises(ValueError):
            check_good_reduction(degenerate_curve(), PrimeContext(3))


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
