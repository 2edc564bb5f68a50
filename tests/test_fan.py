import random
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd

import pytest

from igusa import linalg, newton
from igusa.fan import (
    Cone,
    Fan,
    barycenter,
    dual_subdivision,
    parallelepiped_points,
    parallelepiped_points_with_coords,
    triangulate,
)
from igusa.newton import cone_facet_normals, system_polyhedron
from igusa.polycore import IntPolynomial, PolySystem, face_function, is_convenient, parse_polynomial

V2 = ["x", "y"]
V3 = ["x", "y", "z"]

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
P, P1, P2, P3 = (1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)


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


# Relative-interior membership: the pipeline never asks whether a point lies
# in a cone, but the partition checks and the probing triangulation do.


@cache
def facet_normals(cone):
    """The cone's primitive inner facet normals inside its span."""
    return newton.cone_facet_normals(cone.generators)


@cache
def span_equations(cone):
    """Primitive integer equations of the cone's linear span."""
    return [linalg.primitive_integer_vector(v) for v in linalg.nullspace(cone.generators)]


def contains_relint(cone, point):
    """Exact test: is the point in the relative interior of the cone?

    It is when every equation of the span vanishes at the point and every
    facet normal is positive there.
    """
    def side(u):
        return sum(a * x for a, x in zip(u, point))

    return all(side(eq) == 0 for eq in span_equations(cone)) and all(
        side(normal) > 0 for normal in facet_normals(cone)
    )


def locate(fan, point):
    """The cones of the fan whose relative interior holds the point."""
    return [c for c in fan.cones if contains_relint(c, point)]


class TestDualSubdivision:
    def test_skeleton_71(self):
        sub = dual_subdivision(sys71())
        assert set(sub.skeleton) == {E1, E2, E3, P, P1, P2, P3}

    def test_skeleton_72(self):
        sub = dual_subdivision(sys72())
        assert set(sub.skeleton) == {(0, 1), (1, 3), (1, 1), (3, 1), (1, 0)}

    def test_single_binomial(self):
        sub = dual_subdivision(PolySystem(2, [parse_polynomial("x+y", V2)]))
        assert set(sub.skeleton) == {(1, 0), (0, 1), (1, 1)}
        gens = sorted(c.generators for c in sub.cones)
        assert gens == [
            (((0, 1),)),
            ((0, 1), (1, 1)),
            (((1, 0),)),
            ((1, 0), (1, 1)),
            (((1, 1),)),
        ]

    def test_class_counts_71(self):
        sub = dual_subdivision(sys71())
        by_dim = {d: sum(c.dim == d for c in sub.cones) for d in (1, 2, 3)}
        assert by_dim == {1: 7, 2: 12, 3: 6}

    def test_kept_per_system(self):
        s = sys71()
        sub = dual_subdivision(s)
        assert dual_subdivision(s) is sub
        assert dual_subdivision(s).triangulation is sub.triangulation
        fresh = dual_subdivision(PolySystem(s.n, s.polys))
        assert fresh is not sub and fresh == sub
        sys_ = PolySystem(2, [parse_polynomial("x*y + x^2", V2)])
        kept = dual_subdivision(sys_)
        assert dual_subdivision(sys_) is kept

    def test_face_constant_on_cones(self):
        # The defining equivalence: every polynomial's face is constant on
        # each cone, sampled at several interior points.
        s = sys71()
        sub = dual_subdivision(s)
        for cone in sub.cones:
            gens = cone.generators
            samples = [cone.interior_point()]
            weights = [1] + [3] * (len(gens) - 1)
            samples.append(tuple(sum(w * g[i] for w, g in zip(weights, gens)) for i in range(3)))
            weights = [5] + [2] * (len(gens) - 1)
            samples.append(tuple(sum(w * g[i] for w, g in zip(weights, gens)) for i in range(3)))
            for f in s.polys:
                faces = {frozenset(face_function(f, a).terms) for a in samples}
                assert len(faces) == 1


class TestTriangulate:
    def test_71_counts(self):
        tri = triangulate(dual_subdivision(sys71()))
        by_dim = {d: sum(c.dim == d for c in tri.cones) for d in (1, 2, 3)}
        assert by_dim == {1: 7, 2: 15, 3: 9}
        positive = [c for c in tri.cones if all(x > 0 for x in barycenter(c))]
        assert len(positive) == 25

    def test_idempotent(self):
        tri = triangulate(dual_subdivision(sys71()))
        tri2 = triangulate(tri)
        assert sorted(c.generators for c in tri.cones) == sorted(c.generators for c in tri2.cones)

    def test_no_new_rays(self):
        sub = dual_subdivision(sys71())
        tri = triangulate(sub)
        skeleton = set(sub.skeleton)
        for cone in tri.cones:
            assert set(cone.generators) <= skeleton

    def test_all_simplicial(self):
        tri = triangulate(dual_subdivision(sys71()))
        assert all(c.simplicial for c in tri.cones)

    def test_four_ray_cone_splits_in_two(self):
        sub = dual_subdivision(sys71())
        quads = [c for c in sub.cones if len(c.generators) == 4]
        assert len(quads) == 3
        tri = triangulate(sub)
        tri_gens = {c.generators for c in tri.cones}
        for quad in quads:
            pieces = [g for g in tri_gens if len(g) == 3 and set(g) <= set(quad.generators)]
            assert len(pieces) == 2


def _is_simple(cone):
    """Reference: the generators extend to a Z-basis, i.e. the gcd of the
    maximal minors is 1."""
    gens = cone.generators
    g = 0
    for rows in combinations(range(cone.n), len(gens)):
        g = gcd(g, linalg.det([[gen[r] for gen in gens] for r in rows]).numerator)
    return g == 1


class TestConeData:
    def test_barycenters(self):
        assert barycenter(Cone((E1, P1))) == (3, 1, 1)
        assert barycenter(Cone((P,))) == P
        assert barycenter(Cone((P, P1))) == (3, 2, 2)

    def test_parallelepiped_examples(self):
        assert parallelepiped_points(Cone(((1, 0, 0), (2, 1, 1)))) == [(0, 0, 0)]
        assert parallelepiped_points(Cone(((1, 2), (2, 1)))) == [(0, 0), (1, 1), (2, 2)]
        assert parallelepiped_points(Cone(((5, 3),))) == [(0, 0)]

    def test_simple_examples(self):
        assert _is_simple(Cone(((1, 0, 0), (2, 1, 1))))
        assert not _is_simple(Cone(((1, 2), (2, 1))))
        assert _is_simple(Cone((E1, E2, E3)))

    def test_simple_iff_trivial_parallelepiped(self):
        for gens in [((1, 2), (2, 1)), ((1, 3), (1, 1)), ((2, 2, 1), (0, 0, 1)), ((1, 0), (0, 1))]:
            cone = Cone(gens)
            assert _is_simple(cone) == (parallelepiped_points(cone) == [(0,) * cone.n])

    def test_relint_membership(self):
        cone = Cone((E1, P1))
        assert contains_relint(cone, (3, 1, 1))
        assert contains_relint(cone, (Fraction(5, 2), Fraction(1, 2), Fraction(1, 2)))
        assert not contains_relint(cone, E1)
        assert not contains_relint(cone, (1, 1, 1))

    def test_primitive_generators_required(self):
        with pytest.raises(ValueError):
            Cone(((2, 4),))


def _pp_group_filter(cone):
    """Reference parallelepiped points by the group B^-1 Z^e / Z^e.

    B is a full-rank square row-submatrix of the generator matrix A and
    D = |det B|; the group is generated modulo D by the columns of D B^-1
    and walked breadth first, and its members nu / D with A nu = 0 mod D
    are the points' coefficients.
    """
    gens, e = cone.generators, len(cone.generators)
    rows_idx = []
    for i in range(cone.n):
        trial = rows_idx + [i]
        if linalg.rank([[gens[k][r] for k in range(e)] for r in trial]) == len(trial):
            rows_idx = trial
        if len(rows_idx) == e:
            break
    sub = [[gens[k][r] for k in range(e)] for r in rows_idx]
    D = abs(linalg.det(sub).numerator)
    steps = [tuple(int(row[j] * D) % D for row in linalg.invert(sub)) for j in range(e)]
    group, frontier = {(0,) * e}, [(0,) * e]
    while frontier:
        nxt = []
        for nu in frontier:
            for s in steps:
                cand = tuple((a + b) % D for a, b in zip(nu, s))
                if cand not in group:
                    group.add(cand)
                    nxt.append(cand)
        frontier = nxt
    out = []
    for nu in group:
        point = [sum(v * g[i] for v, g in zip(nu, gens)) for i in range(cone.n)]
        if all(x % D == 0 for x in point):
            out.append((tuple(x // D for x in point), tuple(Fraction(v, D) for v in nu)))
    return sorted(out)


def _random_simplicial_cone(rng):
    """Independent nonnegative primitive generators, n in 1..5, often fewer
    than n of them; entries shrink as the number of generators grows.
    Returns None when the draw is dependent."""
    n = rng.randint(1, 5)
    e = rng.randint(1, n)
    gens = set()
    while len(gens) < e:
        g = [rng.randint(0, 9 - e) for _ in range(n)]
        if any(g):
            gens.add(tuple(x // gcd(*g) for x in g))
    gens = tuple(sorted(gens))
    return Cone(gens) if linalg.rank(gens) == e else None


def test_parallelepiped_against_group_filter():
    rng = random.Random(2008)
    cones = points = lower_dim = 0
    while cones < 1000:
        cone = _random_simplicial_cone(rng)
        if cone is None:
            continue
        pts = parallelepiped_points_with_coords(cone)
        assert pts == _pp_group_filter(cone), cone.generators
        cones += 1
        points += len(pts)
        # Cones that are not full-dimensional, with a nontrivial parallelepiped.
        lower_dim += cone.dim < cone.n and len(pts) > 1
    assert lower_dim >= 50 and points >= 10000


def test_facet_normals_once_per_cone(monkeypatch):
    # Ex. 7.1 at p = 23, `igusa zeta`: the triangulation reads its walls off
    # the fan's faces, so no cone in R^3 asks for its facet normals.  The
    # Newton polyhedron's facets come from the same routine on its
    # homogenisation cone in R^4; only the calls on cones in R^3 are counted.
    import collections

    import igusa.newton as newton_mod
    from igusa.cli import parse_config, run

    expected = {c.generators for c in dual_subdivision(sys71()).cones if not c.simplicial}
    calls = collections.Counter()
    real = newton_mod.cone_facet_normals

    def shim(gens):
        if len(gens[0]) == 3:
            calls[tuple(gens)] += 1
        return real(gens)

    monkeypatch.setattr(newton_mod, "cone_facet_normals", shim)
    cfg = parse_config("vars = x, y, z\nprime = 23\n[polys]\nx+y-z\nx^8+y^8+z^8+x^2*y^2*z^2\n")
    cfg.mode = "zeta"
    assert run(cfg)[1] == 0
    assert len(expected) == 3 and calls == {}


def _gram_facet_normals(gens):
    """Reference facet normals: for each rank dim-1 subset of generators,
    solve for u = sum mu_k g_k orthogonal to the subset through the Gram
    matrix, and keep u when every generator lies on one side of it."""
    d = linalg.rank(gens)
    out = []
    for subset in combinations(gens, d - 1):
        if linalg.rank(subset) != d - 1:
            continue
        rows = [[sum(a * b for a, b in zip(s, g)) for g in gens] for s in subset]
        for mu in linalg.nullspace(rows):
            u = tuple(sum(m * g[i] for m, g in zip(mu, gens)) for i in range(len(gens[0])))
            if not any(u):
                continue
            u = linalg.primitive_integer_vector(u)
            sides = [sum(a * b for a, b in zip(u, g)) for g in gens]
            if min(sides) < 0:
                if max(sides) > 0:
                    continue
                u, sides = tuple(-x for x in u), [-x for x in sides]
            zero = [g for g, x in zip(gens, sides) if x == 0]
            if zero and linalg.rank(zero) == d - 1 and u not in out:
                out.append(u)
    return out


def _relint_by_solve(gens, normals, point):
    """Reference membership: solve for the point in the generator span; a
    simplicial cone needs positive coefficients, any other cone a positive
    side of every reference facet normal."""
    sol = linalg.solve([[g[i] for g in gens] for i in range(len(point))], point)
    if sol is None:
        return False
    if linalg.rank(gens) == len(gens):
        return all(c > 0 for c in sol)
    return all(sum(a * x for a, x in zip(u, point)) > 0 for u in normals)


def _random_cone(rng):
    """Nonnegative primitive generators of a random rank inside a random
    subspace: rays, cones that are not full-dimensional, and cones with
    more generators than their dimension."""
    n = rng.randint(1, 4)
    dim = rng.randint(1, n)
    basis = [[rng.randint(0, 3) for _ in range(n)] for _ in range(dim)]
    gens = set()
    for _ in range(dim if rng.random() < 0.4 else rng.randint(dim, dim + 3)):
        g = [sum(rng.randint(0, 2) * b[i] for b in basis) for i in range(n)]
        if any(g):
            gens.add(tuple(x // gcd(*g) for x in g))
    return Cone(tuple(sorted(gens))) if gens else None


def test_membership_against_solve():
    rng = random.Random(20261018)
    outcomes = {True: 0, False: 0}
    while sum(outcomes.values()) < 3000:
        cone = _random_cone(rng)
        if cone is None:
            continue
        gens = cone.generators
        normals = _gram_facet_normals(gens)
        # The reference finds no facet of a ray; its one facet is {0}.
        assert facet_normals(cone) == (sorted(normals) or [gens[0]]), gens
        for _ in range(10):
            kind = rng.randrange(4)
            if kind < 2:  # a nonnegative combination: interior or boundary
                point = [
                    sum(c * g[i] for c, g in zip([rng.randint(0, 3) for _ in gens], gens))
                    for i in range(cone.n)
                ]
            else:  # anywhere, mostly off the span, sometimes outside the orthant
                point = [rng.randint(-2 if kind == 3 else 0, 5) for _ in range(cone.n)]
            if rng.random() < 0.5:
                den = rng.randint(2, 7)
                point = [Fraction(x, den) for x in point]
            inside = contains_relint(cone, tuple(point))
            assert inside == _relint_by_solve(gens, normals, point), (gens, point)
            outcomes[inside] += 1
    assert min(outcomes.values()) > 500


def _probed_classes(sys_):
    """Reference class enumeration by probing every subset of facet normals.

    The sum of each subset lies in the relative interior of some class; the
    class is keyed by the probe's argmin sets and zero axes, and spanned by
    the normals whose facet contains the probe's face.
    """
    rays = sorted({f.normal for f in system_polyhedron(sys_).facets}, key=lambda r: (sum(r), r))

    def argmins(a):
        out = []
        for f in sys_.polys:
            dots = {m: sum(x * y for x, y in zip(a, m)) for m in f.terms}
            out.append(frozenset(m for m, d in dots.items() if d == min(dots.values())))
        return tuple(out)

    classes = {}
    for k in range(1, len(rays) + 1):
        for subset in combinations(rays, k):
            probe = tuple(map(sum, zip(*subset)))
            key = (argmins(probe), tuple(x == 0 for x in probe))
            if key not in classes:
                classes[key] = tuple(
                    r
                    for r in rays
                    if all(i <= o for i, o in zip(key[0], argmins(r)))
                    and all(x == 0 for p, x in zip(probe, r) if p == 0)
                )
    return sorted((Cone(span) for span in classes.values()), key=Cone.sorted_key), rays


def _random_system(rng, n, l, convenient):
    polys = []
    for _ in range(l):
        terms = {}
        if convenient:
            for j in range(n):
                terms[tuple(rng.randint(1, 6) if i == j else 0 for i in range(n))] = 1
        while not terms or rng.random() < 0.85:
            m = tuple(rng.randint(0, 4) for _ in range(n))
            if any(m):
                terms[m] = rng.randint(1, 3)
        polys.append(IntPolynomial(n, terms))
    return PolySystem(n, polys)


def test_incidence_closure_matches_subset_probing():
    rng = random.Random(20261018)
    compared = {True: 0, False: 0}
    while min(compared.values()) < 15:
        n = rng.choice([2, 3, 4])
        sys_ = _random_system(rng, n, rng.randint(1, 2), convenient=rng.random() < 0.5)
        if len(system_polyhedron(sys_).facets) > 12:
            continue
        fan = dual_subdivision(sys_)
        cones, rays = _probed_classes(sys_)
        assert [c.generators for c in fan.cones] == [c.generators for c in cones], sys_
        assert fan.skeleton == rays
        compared[is_convenient(sys_).convenient] += 1


def _probed_triangulation(fan):
    """Reference triangulation: pull each non-simplicial class from its first
    generator over its facet normals, recursing into the facets that miss
    the apex, and keep every proper face of a piece whose barycentre lies
    in the class's relative interior."""
    out = []
    for cone in fan.cones:
        if cone.simplicial:
            out.append(cone)
            continue
        pieces = _pulling_triangulation(list(cone.generators), cone.dim, facet_normals(cone))
        emitted = set(pieces)
        for piece in pieces:
            for size in range(1, len(piece)):
                for sub in combinations(piece, size):
                    if sub not in emitted and contains_relint(cone, tuple(map(sum, zip(*sub)))):
                        emitted.add(sub)
        out.extend(Cone(gens) for gens in emitted)
    out.sort(key=Cone.sorted_key)
    return Fan(fan.n, out, skeleton=list(fan.skeleton))


def _pulling_triangulation(gens, dim, normals=None):
    """Simplicial cones on subsets of gens covering cone(gens): the apex
    gens[0] joined to the split facets that miss it."""
    if len(gens) == dim:
        return [tuple(sorted(gens))]
    apex = gens[0]
    pieces = set()
    for normal in normals or cone_facet_normals(gens):
        if sum(u * x for u, x in zip(normal, apex)) == 0:
            continue
        wall = [g for g in gens if sum(u * x for u, x in zip(normal, g)) == 0]
        for sub in _pulling_triangulation(wall, dim - 1):
            pieces.add(tuple(sorted(set(sub) | {apex})))
    return sorted(pieces)


def _refuse(*args):
    raise AssertionError("the triangulation reads no facet normals and probes no interiors")


def _assert_same_triangulation(fan):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(newton, "cone_facet_normals", _refuse)
        tri = triangulate(fan)
    ref = _probed_triangulation(fan)
    assert [c.generators for c in tri.cones] == [c.generators for c in ref.cones]
    assert tri.skeleton == ref.skeleton


V4, V5, V6 = list("xyzw"), list("abcde"), list("abcdef")
TRIANGULATED_SYSTEMS = {
    "ex71": (V3, ["x+y-z", "x^8+y^8+z^8+x^2*y^2*z^2"]),
    "17-normals": (V3, ["x+y+z", "x^17+y^16+z^15+x^9*y+y^8*z+z^7*x+x^5*y^3+y^5*z^3+z^5*x^3"
                                 "+x^2*y^2*z^2+x*y^6*z+x^3*y*z^4"]),
    "quadric-4var": (V4, ["x+2*y+z^2-w", "x^2+3*y^2+z^2+2*w^2"]),
    "sextic-4var": (V4, ["x+2*y+z^2-w", "x^6+y^6+z^6+w^6+x^2*y^2*z*w+x*y^3*w"]),
    "5-var": (V5, ["a+b+c+d-e", "a^6+b^6+c^6+d^6+e^6+a^2*b*c*d*e+a*b^3*e^2+c^2*d^2*e"]),
    "6-var": (V6, ["a+b+c+d+e-f", "a^6+b^6+c^6+d^6+e^6+f^6+a^2*b*c*d*e*f+a*b^3*e^2+c^2*d^2*f+b*c*d^2*e*f"]),
    "ex72-k2": (V2, ["x^2+y^2", "x^4+y^4+x*y"]),
    "nonsimple": (V3, ["x+y+z^2", "x^2+y^2+z^4"]),
}


@pytest.mark.parametrize("name", list(TRIANGULATED_SYSTEMS))
def test_triangulation_matches_probing_on_named_systems(name):
    variables, polys = TRIANGULATED_SYSTEMS[name]
    _assert_same_triangulation(
        dual_subdivision(PolySystem(len(variables), [parse_polynomial(f, variables) for f in polys]))
    )


def test_triangulation_matches_probing_on_random_systems():
    # 150 convenient pairs of polynomials; 88 of their fans have a
    # non-simplicial class, none of them in R^2.
    rng = random.Random(20261019)
    non_simplicial = {2: 0, 3: 0, 4: 0}
    for _ in range(150):
        fan = dual_subdivision(_random_system(rng, rng.choice([2, 3, 4]), 2, convenient=True))
        _assert_same_triangulation(fan)
        non_simplicial[fan.n] += not all(c.simplicial for c in fan.cones)
    assert non_simplicial[2] == 0 and sum(non_simplicial.values()) == 88
