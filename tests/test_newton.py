import random
from itertools import combinations, product

import pytest

from igusa import linalg
from igusa.newton import (
    MAX_DIMENSION,
    Facet,
    build_polyhedron,
    cone_facet_normals,
    first_meet_locus,
    polyhedron_from_points,
    support_value,
    system_polyhedron,
    system_support_value,
)
from igusa.polycore import IntPolynomial, PolySystem, parse_polynomial

V2 = ["x", "y"]
V3 = ["x", "y", "z"]
V4 = ["x", "y", "z", "w"]


def octic():
    return parse_polynomial("x^8+y^8+z^8+x^2*y^2*z^2", V3)


def hyperplane():
    return parse_polynomial("x+y-z", V3)


def sys71():
    return PolySystem(3, [hyperplane(), octic()])


def _vertices(gamma):
    """Support points at which the active facet normals have full rank."""
    out = []
    for m in gamma.generators:
        active = [f.normal for f in gamma.facets if sum(a * x for a, x in zip(f.normal, m)) == f.offset]
        if active and linalg.rank(active) == gamma.n:
            out.append(m)
    return out


class TestBuild:
    def test_octic_facets(self):
        gamma = build_polyhedron(octic())
        normals = {f.normal for f in gamma.facets}
        assert {(2, 1, 1), (1, 2, 1), (1, 1, 2)} <= normals
        assert {(1, 0, 0), (0, 1, 0), (0, 0, 1)} <= normals
        offsets = {f.normal: f.offset for f in gamma.facets}
        assert offsets[(2, 1, 1)] == 8
        assert set(_vertices(gamma)) == {(8, 0, 0), (0, 8, 0), (0, 0, 8), (2, 2, 2)}

    def test_system_polyhedron_normals(self):
        gamma = system_polyhedron(sys71())
        assert sorted(f.normal for f in gamma.facets) == [
            (0, 0, 1),
            (0, 1, 0),
            (1, 0, 0),
            (1, 1, 1),
            (1, 1, 2),
            (1, 2, 1),
            (2, 1, 1),
        ]

    def test_half_line(self):
        f = parse_polynomial("x", ["x"])
        gamma = build_polyhedron(f)
        assert _vertices(gamma) == [(1,)]
        assert [(fc.normal, fc.offset) for fc in gamma.facets] == [((1,), 1)]

    def test_two_vertex_curve(self):
        gamma = build_polyhedron(parse_polynomial("x^2+y^3", V2))
        assert set(_vertices(gamma)) == {(2, 0), (0, 3)}
        bounded = [f for f in gamma.facets if all(x > 0 for x in f.normal)]
        assert bounded == [Facet((3, 2), 6)]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            build_polyhedron(IntPolynomial(2))

    def test_dimension_cap(self):
        assert MAX_DIMENSION == 6
        polyhedron_from_points(6, [tuple(int(i == j) for j in range(6)) for i in range(6)])
        with pytest.raises(ValueError, match="dimension 7 exceeds the supported cap 6"):
            polyhedron_from_points(7, [tuple(int(i == j) for j in range(7)) for i in range(7)])


class TestSupportValue:
    def test_octic_values(self):
        gamma = build_polyhedron(octic())
        assert support_value(gamma, (2, 1, 1)) == 8
        assert support_value(gamma, (0, 0, 0)) == 0
        assert support_value(gamma, (1, 1, 1)) == 6

    def test_hyperplane(self):
        gamma = build_polyhedron(hyperplane())
        assert support_value(gamma, (1, 1, 1)) == 1

    def test_negative_rejected(self):
        gamma = build_polyhedron(hyperplane())
        with pytest.raises(ValueError):
            support_value(gamma, (1, -1, 0))

    def test_positive_homogeneity(self):
        gamma = build_polyhedron(octic())
        for a in [(1, 1, 1), (2, 1, 1), (0, 3, 5)]:
            base = support_value(gamma, a)
            for lam in (2, 3, 7):
                assert support_value(gamma, tuple(lam * x for x in a)) == lam * base


class TestFirstMeetLocus:
    def test_octic_interior_vertex(self):
        gamma = build_polyhedron(octic())
        fd = first_meet_locus(gamma, (1, 1, 1))
        assert fd.attaining == [(2, 2, 2)]
        assert fd.value == 6

    def test_hyperplane_edge(self):
        gamma = build_polyhedron(hyperplane())
        fd = first_meet_locus(gamma, (3, 1, 1))
        assert fd.attaining == [(0, 0, 1), (0, 1, 0)]
        assert fd.value == 1

    def test_zero_direction(self):
        gamma = build_polyhedron(octic())
        fd = first_meet_locus(gamma, (0, 0, 0))
        assert set(fd.attaining) == set(gamma.generators)
        assert fd.value == 0


class TestSystemSupport:
    def test_additivity_anchor(self):
        assert system_support_value(sys71(), (1, 1, 1)) == 7  # 1 + 6

    def test_zero(self):
        assert system_support_value(sys71(), (0, 0, 0)) == 0

    def test_power_family(self):
        sys_ = PolySystem(
            2,
            [parse_polynomial("x^2+y^2", V2), parse_polynomial("x^4+y^4+x*y", V2)],
        )
        assert system_support_value(sys_, (1, 1)) == 4  # 2 + 2

    def test_matches_polyhedron_sum(self):
        s = sys71()
        gamma = system_polyhedron(s)
        for a in [(1, 1, 1), (2, 1, 1), (1, 0, 0), (0, 2, 3), (5, 1, 2)]:
            assert support_value(gamma, a) == system_support_value(s, a)

    def test_zero_offset_facets_are_coordinate_normals(self):
        # On a convenient system every facet supported at level zero comes
        # from a coordinate hyperplane.
        for s in (sys71(), PolySystem(2, [parse_polynomial("x^2+y^2", V2),
                                          parse_polynomial("x^4+y^4+x*y", V2)])):
            gamma = system_polyhedron(s)
            for facet in gamma.facets:
                if facet.offset == 0:
                    assert sum(facet.normal) == 1 and set(facet.normal) <= {0, 1}

    def test_face_additivity(self):
        # Dot-value decomposition: the face of the sum at a is attained
        # exactly by sums of per-factor attaining points.
        s = sys71()
        gamma = system_polyhedron(s)
        for a in [(1, 1, 1), (3, 1, 1), (1, 4, 2), (0, 1, 1)]:
            parts = [first_meet_locus(build_polyhedron(f), a) for f in s.polys]
            total = first_meet_locus(gamma, a)
            assert total.value == sum(p.value for p in parts)
            sums = {
                tuple(x + y for x, y in zip(m1, m2))
                for m1 in parts[0].attaining
                for m2 in parts[1].attaining
            }
            # Attaining points of the pruned generator set all arise as sums.
            assert set(total.attaining) <= sums


def _prune_dominated(pts):
    """Reference: the pass that once dropped, before the facet search, every
    Minkowski sum that coordinatewise dominates another."""
    out = []
    for m in pts:
        if any(m != m2 and all(a >= b for a, b in zip(m, m2)) for m2 in pts):
            continue
        out.append(m)
    return out


class TestDominatedSums:
    def test_dense_systems_match_pruned_sums(self):
        # Supports sampled from a shell of total degree, so that many sums
        # dominate others and many do not: about 200 sums, up to 87 kept.
        rng = random.Random(20261021)
        for n in range(2, 6):
            degree = {2: 24, 3: 10, 4: 6, 5: 5}[n]
            shell = [m for m in product(range(degree + 1), repeat=n) if degree // 2 <= sum(m) <= degree]
            for l in range(1, min(3, n) + 1):
                size = min(round(200 ** (1 / l)), len(shell))
                s = PolySystem(n, [IntPolynomial(n, dict.fromkeys(rng.sample(shell, size), 1)) for _ in range(l)])
                sums = {tuple(map(sum, zip(*ms))) for ms in product(*(f.terms for f in s.polys))}
                assert len(sums) > 100
                pruned = _prune_dominated(sorted(sums))
                assert system_polyhedron(s).facets == polyhedron_from_points(n, pruned).facets, (n, l)


def _hyperplane_facets(n, pts):
    """Reference facet search: every hyperplane spanned by k support points
    and n-k coordinate directions, kept when its normal is nonnegative and
    the face it cuts out has affine dimension n-1."""
    if n == 1:
        return [Facet((1,), min(m[0] for m in pts))]
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    seen, facets = set(), []
    for k in range(1, n + 1):
        for subset in combinations(pts, k):
            dirs = [[a - b for a, b in zip(m, subset[0])] for m in subset[1:]]
            for axes in combinations(range(n), n - k):
                kernel = linalg.nullspace(dirs + [unit[j] for j in axes])
                if len(kernel) != 1:
                    continue
                normal = linalg.primitive_integer_vector(kernel[0])
                if normal in seen or min(normal) < 0:
                    continue
                seen.add(normal)
                dots = [sum(a * x for a, x in zip(normal, m)) for m in pts]
                face = [m for m, d in zip(pts, dots) if d == min(dots)]
                face_dirs = [[a - b for a, b in zip(m, face[0])] for m in face[1:]]
                face_dirs += [unit[j] for j in range(n) if normal[j] == 0]
                if face_dirs and linalg.rank(face_dirs) == n - 1:
                    facets.append(Facet(normal, min(dots)))
    return sorted(facets, key=lambda f: f.normal)


class TestAgainstHyperplaneSearch:
    """Facets of the homogenisation cone against the direct hyperplane search."""

    def test_random_point_sets(self):
        rng = random.Random(20261018)
        for t in range(160):
            n = 1 + t % 4
            pts = sorted({tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(rng.randint(1, 9 - n))})
            if (0,) * n in pts:
                pts.remove((0,) * n)
            if not pts:
                continue
            assert polyhedron_from_points(n, pts).facets == _hyperplane_facets(n, pts), pts

    @pytest.mark.parametrize(
        "variables, polys",
        [
            (V3, ["x+y-z", "x^8+y^8+z^8+x^2*y^2*z^2"]),
            (V4, ["x+2*y+z^2-w", "x^2+3*y^2+z^2+2*w^2"]),
            (V4, ["x+2*y+z^2-w", "x^6+y^6+z^6+w^6+x^2*y^2*z*w+x*y^3*w"]),
            (V3, ["x+y+z", "x^12+y^11+z^10+x^6*y+y^5*z^2+z^4*x^3+x^2*y^3*z+x*y*z^4+x^3*y^4"]),
            (V3, ["x+y+z", "x^17+y^16+z^15+x^9*y+y^8*z+z^7*x+x^5*y^3+y^5*z^3+z^5*x^3"
                           "+x^2*y^2*z^2+x*y^6*z+x^3*y*z^4"]),
        ],
        ids=["ex71", "quadric-4var", "sextic-4var", "15-normals", "17-normals"],
    )
    def test_systems(self, variables, polys):
        gamma = system_polyhedron(PolySystem(len(variables), [parse_polynomial(f, variables) for f in polys]))
        assert gamma.facets == _hyperplane_facets(gamma.n, gamma.generators)


def _subset_facet_normals(gens):
    """Reference: the exhaustive facet search that double description
    replaced.  Every (dim-1)-subset of the generators, with the span's
    equations, gives a candidate kernel; it is a facet normal when every
    generator lies on one side.  Normals come in the order of their first
    subset."""
    ncols = len(gens[0])
    eqs = [linalg.primitive_integer_vector(v) for v in linalg.nullspace(gens)]
    dim = ncols - len(eqs)
    out, seen = [], set()
    for subset in combinations(gens, dim - 1):
        u = linalg.kernel_vector(list(subset) + eqs, ncols)
        if u is None or u in seen:
            continue
        seen.add(u)
        sides = [sum(a * x for a, x in zip(u, g)) for g in gens]
        if min(sides) >= 0:
            out.append(u)
        elif max(sides) <= 0:
            out.append(tuple(-x for x in u))
    return out


def _random_cone(rng, n):
    """Up to dim+5 random combinations of a random basis of a dim-space;
    coefficients of both signs sometimes, so the cone need not be pointed."""
    dim = max(1, n - rng.choice((0, 0, 1, 2)))
    basis = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(dim)]
    low = rng.choice((0, 0, -1))
    gens = []
    for _ in range(rng.randint(1, dim + 5)):
        c = [rng.randint(low, 3) for _ in range(dim)]
        g = tuple(sum(ci * b[j] for ci, b in zip(c, basis)) for j in range(n))
        if any(g):
            gens.append(g)
    return gens


def _homogenisation_cone(n, pts):
    return [tuple(int(i == j) for j in range(n)) + (0,) for i in range(n)] + [tuple(m) + (1,) for m in pts]


NAMED_SYSTEMS = {
    "ex71": (V3, ["x+y-z", "x^8+y^8+z^8+x^2*y^2*z^2"]),
    "quadric-4var": (V4, ["x+2*y+z^2-w", "x^2+3*y^2+z^2+2*w^2"]),
    "sextic-4var": (V4, ["x+2*y+z^2-w", "x^6+y^6+z^6+w^6+x^2*y^2*z*w+x*y^3*w"]),
    "15-normals": (V3, ["x+y+z", "x^12+y^11+z^10+x^6*y+y^5*z^2+z^4*x^3+x^2*y^3*z+x*y*z^4+x^3*y^4"]),
    "17-normals": (V3, ["x+y+z", "x^17+y^16+z^15+x^9*y+y^8*z+z^7*x+x^5*y^3+y^5*z^3+z^5*x^3"
                                 "+x^2*y^2*z^2+x*y^6*z+x^3*y*z^4"]),
}


def _named_system(name):
    variables, polys = NAMED_SYSTEMS[name]
    return PolySystem(len(variables), [parse_polynomial(f, variables) for f in polys])


class TestDoubleDescription:
    """cone_facet_normals against the exhaustive subset search, sorted."""

    def test_random_cones(self):
        rng = random.Random(20261019)
        for t in range(600):
            gens = _random_cone(rng, 1 + t % 5)
            if gens:
                assert cone_facet_normals(gens) == sorted(_subset_facet_normals(gens)), gens

    def test_random_homogenisation_cones(self):
        rng = random.Random(20261020)
        for t in range(120):
            n = 1 + t % 5
            pts = sorted({tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(rng.randint(1, 10 - n))})
            gens = _homogenisation_cone(n, pts)
            assert cone_facet_normals(gens) == sorted(_subset_facet_normals(gens)), pts

    @pytest.mark.parametrize("name", sorted(NAMED_SYSTEMS))
    def test_named_systems(self, name):
        gamma = system_polyhedron(_named_system(name))
        gens = _homogenisation_cone(gamma.n, gamma.generators)
        assert cone_facet_normals(gens) == sorted(_subset_facet_normals(gens))

    @pytest.mark.parametrize("name", ["sextic-4var", "17-normals"])
    def test_eliminations_counted(self, name, monkeypatch):
        # The subset search made 17,570 and 5,479 eliminations here.
        calls = []
        real = linalg._eliminate
        monkeypatch.setattr(linalg, "_eliminate", lambda rows: calls.append(1) or real(rows))
        system_polyhedron(_named_system(name))
        assert len(calls) < 500
