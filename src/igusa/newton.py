"""Newton polyhedra at the origin: facets, support values, first meet loci.

A polyhedron here is conv(union of m + R_+^n over the support points m);
its recession cone is always R_+^n.  Facets are enumerated exactly as the
facets of the homogenisation cone{(m, 1)} + cone{(e_j, 0)}, leaving out the
one at infinity.  ``cone_facet_normals`` finds the facets of any rational
cone, and the fan's triangulation walls and cone membership tests use it
too: each candidate normal is the integer kernel of dim-1 generators and
the span's equations, read off the fraction-free elimination, and it
survives when every generator lies on one side.  This is exhaustive and
exact at the scales this package targets (n <= 6, a few dozen support
points).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
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
    vertices: list[Exponent]     # minimal generating subset
    facets: list[Facet]

    def support_value(self, a) -> int:
        return support_value(self, a)


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

    facets = _enumerate_facets(n, pts)
    vertices = []
    for m in pts:
        active = [f.normal for f in facets if _dot(f.normal, m) == f.offset]
        if active and linalg.rank(active) == n:
            vertices.append(m)
    return NewtonPolyhedron(n, pts, vertices, facets)


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
    facets = [Facet(u[:n], -u[n]) for u in normals if any(u[:n])]
    return sorted(facets, key=lambda f: f.normal)


def cone_facet_normals(gens) -> list[tuple[int, ...]]:
    """Primitive integer inner facet normals of cone(gens), inside span(gens).

    Each returned vector u lies in span(gens) and satisfies <u, g> >= 0 for
    all generators, with equality on a subset of rank dim-1.  The candidates
    are the one-dimensional kernels of each (dim-1)-subset of the generators
    together with the equations of the span; such a subset has rank dim-1,
    so a candidate with every generator on one side is a facet normal.  The
    normals come in the order of their first subset; a ray's one facet is
    {0}, with normal its generator.  Works in any dimension at the small
    scales used here.
    """
    ncols = len(gens[0])
    eqs = [linalg.primitive_integer_vector(v) for v in linalg.nullspace(gens)]
    dim = ncols - len(eqs)
    out = []
    seen = set()
    for subset in combinations(gens, dim - 1):
        u = linalg.kernel_vector(list(subset) + eqs, ncols)
        if u is None or u in seen:
            continue
        seen.add(u)
        lo = hi = 0
        for g in gens:
            side = sum(map(mul, u, g))
            lo, hi = min(lo, side), max(hi, side)
            if lo < 0 < hi:
                break
        else:
            out.append(u if lo == 0 else tuple(-x for x in u))
    return out


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
    """min <a, m> over an explicit point set (no polyhedron needed)."""
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

    Generators are the pairwise sums of the factor supports; points that are
    coordinatewise dominated generate nothing new and are pruned up front.
    """
    _check_dimension(sys.n)
    sums = {(0,) * sys.n}
    for f in sys.polys:
        sums = {tuple(a + b for a, b in zip(s, m)) for s in sums for m in f.terms}
    pruned = _prune_dominated(sorted(sums))
    return polyhedron_from_points(sys.n, pruned)


def _prune_dominated(pts: list[Exponent]) -> list[Exponent]:
    out = []
    for m in pts:
        if any(m != m2 and all(a >= b for a, b in zip(m, m2)) for m2 in pts):
            continue
        out.append(m)
    return out
