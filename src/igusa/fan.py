"""Polyhedral subdivision of R_+^n subordinate to Gamma(f), and its
simplicial refinement.

The subdivision's relatively open cones are the equivalence classes of the
first-meet-locus relation, computed per polynomial (two weight vectors are
equivalent iff they pick the same face of every Gamma(f_j)).  There is one
class per proper face tau of the system polyhedron, spanned by the normals
of the facets that contain tau.  Every proper face is an intersection of
facets, so the classes are found by closing the facet incidences (argmin
sets and recession axes) under intersection; there is no cap on the number
of facets.

Triangulation never introduces new rays: each non-simplicial class is split
by pulling from its first generator, and the internal walls of the split
are kept as cones so the result is again a partition of R_+^n minus 0.  The
walls join the apex to the class's faces, split first: no linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from . import linalg, newton
from .polycore import PolySystem, _content, face_function

Ray = tuple[int, ...]


@dataclass(frozen=True)
class Cone:
    """Rational cone strictly spanned by primitive integer generators.

    The cone is the set of strictly positive combinations of the generators
    (its relative interior); ``closure`` adds the boundary.
    """

    generators: tuple[Ray, ...]

    def __post_init__(self):
        if not self.generators:
            raise ValueError("a cone needs at least one generator")
        object.__setattr__(
            self, "generators", tuple(tuple(int(x) for x in g) for g in self.generators)
        )
        for g in self.generators:
            if all(x == 0 for x in g):
                raise ValueError("zero generator")
            if min(g) < 0:
                raise ValueError("generators must be nonnegative")
            div = 0
            for x in g:
                div = gcd(div, x)
            if div != 1:
                raise ValueError(f"generator {g} is not primitive")

    @property
    def n(self) -> int:
        return len(self.generators[0])

    @cached_property
    def dim(self) -> int:
        return linalg.rank([list(g) for g in self.generators])

    @property
    def simplicial(self) -> bool:
        return self.dim == len(self.generators)

    def sorted_key(self):
        return (len(self.generators), self.generators)

    def interior_point(self) -> Ray:
        return tuple(sum(g[j] for g in self.generators) for j in range(self.n))


@dataclass
class Fan:
    """A set of pairwise disjoint relatively open cones covering R_+^n \\ {0}."""

    n: int
    cones: list[Cone]
    skeleton: list[Ray] = field(default_factory=list)

    @cached_property
    def triangulation(self) -> "Fan":
        """The simplicial refinement, computed on first use and kept."""
        return triangulate(self)


# ---------------------------------------------------------------------------
# Dual subdivision
# ---------------------------------------------------------------------------


def _signature(sys: PolySystem, a) -> tuple[frozenset, ...]:
    """Per-polynomial argmin sets of <a, .> over the supports."""
    return tuple(frozenset(face_function(f, a).terms) for f in sys.polys)


def _incidence(sys: PolySystem, a) -> tuple[frozenset, ...]:
    """The face of the system polyhedron that ``a`` picks.

    It is the per-polynomial argmin sets followed by the axes where ``a``
    vanishes, the directions along which the face recedes.  Faces nest iff
    their incidences nest componentwise, and two faces meet in the
    componentwise intersection when no argmin component of it is empty.
    """
    return _signature(sys, a) + (frozenset(j for j, x in enumerate(a) if x == 0),)


def dual_subdivision(sys: PolySystem) -> Fan:
    """Equivalence classes of the joint first-meet-locus relation.

    The classes are the relatively open cones Delta_tau; each is spanned by
    the facet normals of the system polyhedron whose facet contains tau.
    The fan depends only on the polynomials, so one ``Fan`` is built, for
    a non-convenient system too and without a warning, and kept on ``sys``
    under their content (its triangulation once asked for) for every call.
    """
    kept = ("dual subdivision", _content(sys.polys))
    if kept in sys.scans:
        return sys.scans[kept]
    gamma_f = newton.system_polyhedron(sys)
    rays = sorted({f.normal for f in gamma_f.facets}, key=lambda r: (sum(r), r))
    incidence = {r: _incidence(sys, r) for r in rays}

    def spanning(face) -> tuple[Ray, ...]:
        return tuple(r for r in rays if all(x <= y for x, y in zip(face, incidence[r])))

    # Every proper face is an intersection of facets: close the facets
    # under meets, keyed by the facets that contain each face.
    faces = {spanning(incidence[r]): incidence[r] for r in rays}
    todo = list(faces.items())
    while todo:
        span, face = todo.pop()
        for r in rays:
            if r in span:
                continue
            meet = tuple(x & y for x, y in zip(face, incidence[r]))
            if not all(meet[:-1]):
                continue
            key = spanning(meet)
            if key not in faces:
                faces[key] = meet
                todo.append((key, meet))

    cones = []
    for span, face in faces.items():
        cone = Cone(span)
        # The defining property of the class: its interior point picks the face.
        if _incidence(sys, cone.interior_point()) != face:
            raise RuntimeError(f"incidence mismatch for class spanned by {span}")
        cones.append(cone)
    cones.sort(key=Cone.sorted_key)
    sys.scans[kept] = Fan(sys.n, cones, skeleton=list(rays))
    return sys.scans[kept]


# ---------------------------------------------------------------------------
# Triangulation
# ---------------------------------------------------------------------------


def triangulate(fan: Fan) -> Fan:
    """Refine every cone to simplicial ones without adding rays.

    A pulling triangulation (De Loera, Rambau and Santos, 2010) read off the
    fan's faces, walked by generator count so faces split first.  A
    non-simplicial class C is pulled from its first generator g: its open
    cones join g to each open cone of a face G of C with g not in G and G
    and g in no proper face of C.  Precondition: every face of a class is a
    class, and every class lists its generators in one global order;
    ``dual_subdivision`` and this function's own output meet it.
    """
    pieces: dict[frozenset, list[Cone]] = {}
    for cone in sorted(fan.cones, key=lambda c: len(c.generators)):
        gens = frozenset(cone.generators)
        if cone.simplicial:
            pieces[gens] = [cone]
            continue
        apex = cone.generators[0]
        faces = [face for face in pieces if face < gens]
        pieces[gens] = [
            Cone(tuple(sorted(sigma.generators + (apex,))))
            for face in faces
            if apex not in face and not any(face | {apex} <= other for other in faces)
            for sigma in pieces[face]
        ]
    out = sorted((c for part in pieces.values() for c in part), key=Cone.sorted_key)
    return Fan(fan.n, out, skeleton=list(fan.skeleton))


# ---------------------------------------------------------------------------
# Simplicial cone data
# ---------------------------------------------------------------------------


def barycenter(cone: Cone) -> Ray:
    """Entrywise sum of the generators (the paper's b(Delta))."""
    if not cone.simplicial:
        raise ValueError("barycenter is defined for simplicial cones")
    return cone.interior_point()


def parallelepiped_points(cone: Cone) -> list[Ray]:
    """Integer points of {sum mu_i a_i : 0 <= mu_i < 1}."""
    return sorted(h for h, _ in parallelepiped_points_with_coords(cone))


def parallelepiped_points_with_coords(cone: Cone) -> list[tuple[Ray, tuple[Fraction, ...]]]:
    """Same, returning the coefficient vector mu of each point.

    With U A V = diag(d) from ``linalg.smith``, A mu is integral iff
    V^-1 mu lies in prod (1/d_i) Z: the points are mu = V (k/d) mod 1 over
    the box k in prod range(d_i), with nu = D mu for D = lcm(d).
    """
    if not cone.simplicial:
        raise ValueError("parallelepiped points are defined for simplicial cones")
    d, V = linalg.smith(list(zip(*cone.generators)))
    D = lcm(*d)
    out = []
    for k in product(*map(range, d)):
        nu = [sum(x * c * (D // di) for x, c, di in zip(row, k, d)) % D for row in V]
        point = tuple(sum(v * g[i] for v, g in zip(nu, cone.generators)) // D for i in range(cone.n))
        out.append((point, tuple(Fraction(v, D) for v in nu)))
    return sorted(out)
