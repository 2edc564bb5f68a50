"""Newton polyhedra at the origin: facets, support values, first meet loci.

A polyhedron here is conv(union of m + R_+^n over the support points m);
its recession cone is always R_+^n.  Facets are enumerated exactly: every
candidate hyperplane is spanned by support points together with coordinate
directions, the primitive integer normal is solved for over Q, and a
candidate survives only if its minimal face has affine dimension n-1.
This is exhaustive and exact at the scales this package targets (n <= 6,
a few dozen support points).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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
    """All facets, as primitive nonnegative normals with their offsets."""
    if n == 1:
        off = min(m[0] for m in pts)
        return [Facet((1,), off)]

    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    seen: set[tuple[int, ...]] = set()
    facets: list[Facet] = []

    def consider(normal: tuple[int, ...]):
        if normal in seen:
            return
        seen.add(normal)
        if any(x < 0 for x in normal):
            return
        dots = [_dot(normal, m) for m in pts]
        off = min(dots)
        attaining = [m for m, d in zip(pts, dots) if d == off]
        # Face of the polyhedron: conv(attaining) + cone{e_j : normal_j = 0}.
        base = attaining[0]
        dirs = [[mi - bi for mi, bi in zip(m, base)] for m in attaining[1:]]
        dirs += [list(unit[j]) for j in range(n) if normal[j] == 0]
        if dirs and linalg.rank(dirs) == n - 1:
            facets.append(Facet(normal, off))

    # Hyperplane spanned by k support points and n-k coordinate directions.
    for k in range(1, n + 1):
        for subset in combinations(pts, k):
            base = subset[0]
            point_dirs = [[mi - bi for mi, bi in zip(m, base)] for m in subset[1:]]
            for axes in combinations(range(n), n - k):
                # n - 1 rows, so rank n - 1 <=> a one-dimensional kernel.
                kernel = linalg.nullspace(point_dirs + [list(unit[j]) for j in axes])
                if len(kernel) != 1:
                    continue
                normal = linalg.primitive_integer_vector(kernel[0])
                consider(normal)
    return sorted(facets, key=lambda f: f.normal)


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
