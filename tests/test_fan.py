import random
import warnings
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from igusa import linalg
from igusa.fan import (
    Cone,
    barycenter,
    dual_subdivision,
    parallelepiped_points,
    triangulate,
)
from igusa.newton import system_polyhedron
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

    def test_warns_on_non_convenient(self):
        sys_ = PolySystem(2, [parse_polynomial("x*y + x^2", V2)])
        with pytest.warns(UserWarning):
            dual_subdivision(sys_)

    def test_kept_per_system(self):
        s = sys71()
        sub = dual_subdivision(s)
        assert dual_subdivision(s) is sub
        assert dual_subdivision(s).triangulation is sub.triangulation
        fresh = dual_subdivision(PolySystem(s.n, s.polys))
        assert fresh is not sub and fresh == sub
        # The first build warns, at the caller's line; the kept fan does not.
        sys_ = PolySystem(2, [parse_polynomial("x*y + x^2", V2)])
        with pytest.warns(UserWarning) as record:
            kept = dual_subdivision(sys_)
        assert len(record) == 1 and record[0].filename == __file__
        with warnings.catch_warnings():
            warnings.simplefilter("error")
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
        assert cone.contains_relint((3, 1, 1))
        assert cone.contains_relint((Fraction(5, 2), Fraction(1, 2), Fraction(1, 2)))
        assert not cone.contains_relint(E1)
        assert not cone.contains_relint((1, 1, 1))

    def test_primitive_generators_required(self):
        with pytest.raises(ValueError):
            Cone(((2, 4),))


def test_facet_normals_once_per_cone(monkeypatch):
    # Ex. 7.1 at p = 23, `igusa zeta`: triangulating the fan asks each
    # non-simplicial class for its facet normals many times.  The Newton
    # polyhedron's facets come from the same routine on its homogenisation
    # cone in R^4; only the calls on cones in R^3 are counted.
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
    assert len(expected) == 3 and calls == dict.fromkeys(expected, 1)


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
        assert cone.facet_normals == (normals or [gens[0]]), gens
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
            inside = cone.contains_relint(tuple(point))
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fan = dual_subdivision(sys_)
        cones, rays = _probed_classes(sys_)
        assert [c.generators for c in fan.cones] == [c.generators for c in cones], sys_
        assert fan.skeleton == rays
        compared[is_convenient(sys_).convenient] += 1
