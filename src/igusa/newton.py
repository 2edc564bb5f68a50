"""Newton polyhedra at the origin: facets, support values, first meet loci.

A polyhedron here is conv(union of m + R_+^n over the support points m);
its recession cone is always R_+^n.  Facets are enumerated exactly as the
facets of the homogenisation cone{(m, 1)} + cone{(e_j, 0)}, leaving out the
one at infinity.  ``cone_facet_normals`` finds the facets of any rational
cone and serves only these Newton facets.  It runs the double description
method (Fukuda and Prodon, "Double description method revisited", 1996):
the facets of a simplicial cone on a basis of generators are integer
kernels read off the fraction-free elimination, and each further generator
cuts them, combining the adjacent facet pairs it separates.  Everything is
exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd
from operator import mul

from . import linalg
from .polycore import Exponent, IntPolynomial, PolySystem

MAX_DIMENSION = 6


@dataclass(frozen=True)
class Facet:
    normal: tuple[int, ...]  # primitive, entrywise >= 0
    offset: int              # d(normal, Gamma)


@dataclass
class NewtonPolyhedron:
    n: int
    generators: list[Exponent]   # support points (possibly redundant)
    facets: list[Facet]


def _check_dimension(n: int):
    if n > MAX_DIMENSION:
        raise ValueError(f"dimension {n} exceeds the supported cap {MAX_DIMENSION}")


def _dot(a, m) -> int:
    return sum(int(x) * int(y) for x, y in zip(a, m))


def polyhedron_from_points(n: int, points) -> NewtonPolyhedron:
    """Build conv(union (m + R_+^n)) from an explicit generator set."""
    _check_dimension(n)
    pts = sorted({tuple(int(e) for e in m) for m in points})
    if not pts:
        raise ValueError("cannot build a Newton polyhedron from an empty support")
    if any(len(m) != n or min(m) < 0 for m in pts):
        raise ValueError("support points must be nonnegative vectors of length n")

    return NewtonPolyhedron(n, pts, _enumerate_facets(n, pts))


def build_polyhedron(f: IntPolynomial) -> NewtonPolyhedron:
    if f.is_zero():
        raise ValueError("the zero polynomial has no Newton polyhedron")
    if f.has_constant_term():
        raise ValueError("Newton polyhedron at the origin requires f(0) = 0")
    return polyhedron_from_points(f.n, f.support())


def _enumerate_facets(n: int, pts: list[Exponent]) -> list[Facet]:
    """All facets, as primitive nonnegative normals with their offsets.

    They are the facets of the homogenisation cone{(m, 1)} + cone{(e_j, 0)}
    other than the one at infinity, t = 0: an inner normal (a, -b) of the
    cone is the facet <a, x> >= b of the polyhedron.  Every such facet holds
    a support point, so b is a multiple of gcd(a) and a is primitive too.
    """
    # Axes first: their sides are the normal's own entries, so a normal with
    # entries of both signs is rejected at once.
    unit = [tuple(int(i == j) for j in range(n)) + (0,) for i in range(n)]
    normals = cone_facet_normals(unit + [m + (1,) for m in pts])
    return [Facet(u[:n], -u[n]) for u in normals if any(u[:n])]


def cone_facet_normals(gens) -> list[tuple[int, ...]]:
    """Primitive integer inner facet normals of cone(gens), inside span(gens),
    for the Newton polyhedron's facets.

    Each returned vector u lies in span(gens) and satisfies <u, g> >= 0 for
    all generators, with equality on a subset of rank dim-1.  They are the
    extreme rays of the dual cone, found by double description (Fukuda and
    Prodon 1996): start from the simplicial cone of a greedy basis, whose
    facets are integer kernels (``linalg.kernel_vector``), then cut by each
    other generator in index order.  A facet with the generator on its
    negative side is dropped, and each adjacent pair across the cut gives the
    primitive combination on the cut.  Adjacency is combinatorial: no third
    facet's zero set (its generators on the hyperplane) contains the pair's
    common zero set, which is exact since the dual cone is pointed inside the
    span.  A generator inside the cone built so far is on no facet's negative
    side and cuts nothing.  The normals come sorted; a ray's one facet is
    {0}, with normal its generator.
    """
    ncols = len(gens[0])
    eqs = [linalg.primitive_integer_vector(v) for v in linalg.nullspace(gens)]
    dim = ncols - len(eqs)
    basis = _greedy_basis(gens, dim)
    facets = []  # (normal, indices of the generators on its hyperplane)
    for b in basis:
        u = linalg.kernel_vector([gens[c] for c in basis if c != b] + eqs, ncols)
        facets.append((u if sum(map(mul, u, gens[b])) > 0 else tuple(-x for x in u), set(basis) - {b}))
    for k, g in enumerate(gens):
        if k in basis:
            continue
        sides = [sum(map(mul, u, g)) for u, _ in facets]
        pos = [i for i, s in enumerate(sides) if s > 0]
        neg = [j for j, s in enumerate(sides) if s < 0]
        cut = []
        for i, j in product(pos, neg):
            (ui, zi), (uj, zj) = facets[i], facets[j]
            z = zi & zj
            if len(z) < dim - 2 or any(z <= zt for t, (_, zt) in enumerate(facets) if t != i and t != j):
                continue
            w = [sides[i] * y - sides[j] * x for x, y in zip(ui, uj)]
            d = gcd(*w)
            cut.append((tuple(x // d for x in w), z | {k}))
        facets = [(u, z | {k} if s == 0 else z) for s, (u, z) in zip(sides, facets) if s >= 0] + cut
    return sorted(u for u, _ in facets)


def _greedy_basis(gens, size: int) -> list[int]:
    """The indices of the lexicographically first ``size`` independent
    generators: the pivot columns of the matrix with them as columns."""
    rref = linalg.row_echelon(list(zip(*gens)))
    return [next(c for c, x in enumerate(row) if x) for row in rref if any(row)][:size]


@dataclass
class FaceDescriptor:
    attaining: list[Exponent]
    value: int


def support_value(gamma: NewtonPolyhedron, a) -> int:
    """d(a, Gamma) = min over Gamma of <a, x>; requires a >= 0 entrywise."""
    a = tuple(int(x) for x in a)
    if len(a) != gamma.n:
        raise ValueError("weight vector has wrong length")
    if any(x < 0 for x in a):
        raise ValueError("support value needs a nonnegative weight vector")
    return min(_dot(a, m) for m in gamma.generators)


def first_meet_locus(gamma: NewtonPolyhedron, a) -> FaceDescriptor:
    """Support points where <a, .> attains d(a, Gamma)."""
    d = support_value(gamma, a)
    attaining = sorted(m for m in gamma.generators if _dot(a, m) == d)
    return FaceDescriptor(attaining, d)


def support_min(points, a) -> int:
    """min <a, m> over an iterable of exponents m (no polyhedron needed)."""
    return min(_dot(a, m) for m in points)


def system_support_value(sys: PolySystem, a) -> int:
    """d(a, Gamma(f)) via additivity over the factors: sum_j d(a, Gamma(f_j))."""
    a = tuple(int(x) for x in a)
    if any(x < 0 for x in a):
        raise ValueError("support value needs a nonnegative weight vector")
    total = 0
    for f in sys.polys:
        total += support_min(f.support(), a)
    return total


def system_polyhedron(sys: PolySystem) -> NewtonPolyhedron:
    """Newton polyhedron of the product (= Minkowski sum of the factors).

    Generators are all the sums of one support point per factor.  A sum
    that dominates another sorts after it, so ``cone_facet_normals`` meets it
    inside the cone built so far, where it costs one side test per facet.
    """
    _check_dimension(sys.n)
    sums = {(0,) * sys.n}
    for f in sys.polys:
        sums = {tuple(a + b for a, b in zip(s, m)) for s in sums for m in f.terms}
    return polyhedron_from_points(sys.n, sums)
