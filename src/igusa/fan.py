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
are kept as cones so the result is again a partition of R_+^n minus 0.

A cone's facet normals come from ``newton.cone_facet_normals``, the routine
that also gives the Newton polyhedron its facets.  A point lies in a cone's
relative interior when every equation of the cone's span vanishes there and
every facet normal is positive there: two integer tests, no solve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from math import gcd

from . import linalg, newton
from .polycore import PolySystem, _content, face_function, is_convenient

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

    @cached_property
    def facet_normals(self) -> list[Ray]:
        return newton.cone_facet_normals(self.generators)

    @cached_property
    def _span_equations(self) -> list[Ray]:
        return [linalg.primitive_integer_vector(v) for v in linalg.nullspace(self.generators)]

    def sorted_key(self):
        return (len(self.generators), self.generators)

    def interior_point(self) -> Ray:
        return tuple(sum(g[j] for g in self.generators) for j in range(self.n))

    def contains_relint(self, point) -> bool:
        """Exact test: is the point in the relative interior of this cone?

        It is when every equation of the span vanishes at the point and every
        facet normal is positive there.
        """
        def side(u):
            return sum(a * x for a, x in zip(u, point))

        return all(side(eq) == 0 for eq in self._span_equations) and all(
            side(normal) > 0 for normal in self.facet_normals
        )


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

    def locate(self, point) -> list[Cone]:
        return [c for c in self.cones if c.contains_relint(point)]


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
    The fan depends only on the polynomials, so it is built once and kept
    on ``sys`` under their content, together with its triangulation once
    that is asked for; every later call returns the same ``Fan``.
    """
    kept = ("dual subdivision", _content(sys.polys))
    if kept in sys.scans:
        return sys.scans[kept]
    report = is_convenient(sys)
    if not report.convenient:
        warnings.warn(
            f"system is not convenient (missing pure powers: {report.missing}); "
            "the subdivision is built anyway but the zeta engine will refuse",
            stacklevel=2,
        )

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

    Non-simplicial classes are pulling-triangulated from their first
    generator; the internal faces of the split (those whose relative
    interior lies inside the class) become cones of the refined fan, so the
    open-cone partition property is preserved.
    """
    out: list[Cone] = []
    for cone in fan.cones:
        if cone.simplicial:
            out.append(cone)
            continue
        pieces = _pulling_triangulation(list(cone.generators), cone.dim, cone.facet_normals)
        emitted = set()
        for piece in pieces:
            emitted.add(tuple(piece))
        # Internal faces: proper faces of pieces interior to the class.
        for piece in pieces:
            for size in range(1, len(piece)):
                for sub in combinations(piece, size):
                    if sub in emitted:
                        continue
                    probe = tuple(sum(col) for col in zip(*sub))
                    if cone.contains_relint(probe):
                        emitted.add(sub)
        out.extend(Cone(gens) for gens in emitted)
    out.sort(key=Cone.sorted_key)
    return Fan(fan.n, out, skeleton=list(fan.skeleton))


def _pulling_triangulation(gens: list[Ray], dim: int, normals=None) -> list[tuple[Ray, ...]]:
    """Split cone(gens) into simplicial cones spanned by subsets of gens.

    Pulls from the first generator: cone over the facets not containing it.
    Deterministic in the generator order.  ``normals`` are the cone's facet
    normals when the caller already has them.
    """
    if len(gens) == dim:
        return [tuple(sorted(gens))]
    apex = gens[0]
    pieces = []
    for normal in normals or newton.cone_facet_normals(gens):
        side_apex = sum(u * x for u, x in zip(normal, apex))
        if side_apex == 0:
            continue
        wall = [g for g in gens if sum(u * x for u, x in zip(normal, g)) == 0]
        for sub in _pulling_triangulation(wall, dim - 1):
            piece = tuple(sorted(set(sub) | {apex}))
            pieces.append(piece)
    return sorted(set(pieces))


# ---------------------------------------------------------------------------
# Simplicial cone data
# ---------------------------------------------------------------------------


def barycenter(cone: Cone) -> Ray:
    """Entrywise sum of the generators (the paper's b(Delta))."""
    if not cone.simplicial:
        raise ValueError("barycenter is defined for simplicial cones")
    return cone.interior_point()


def _pp_group(cone: Cone) -> tuple[int, set[tuple[int, ...]]]:
    """The group B^-1 Z^e / Z^e as ``(D, group)``: its members are nu / D.

    B is a full-rank square row-submatrix of the generator matrix A and
    D = |det B|, so the group is generated modulo D by the columns of
    D B^-1.  It contains L/Z^e, where L = {mu : A mu integral}; the members
    with A nu = 0 mod D are exactly L/Z^e.
    """
    gens = cone.generators
    e = len(gens)
    n = cone.n
    # Full-rank e x e row submatrix.
    rows_idx: list[int] = []
    for i in range(n):
        trial = rows_idx + [i]
        if linalg.rank([[gens[k][r] for k in range(e)] for r in trial]) == len(trial):
            rows_idx = trial
        if len(rows_idx) == e:
            break
    sub = [[gens[k][r] for k in range(e)] for r in rows_idx]
    D = abs(linalg.det(sub).numerator)
    inv = linalg.invert(sub)
    steps = [tuple(int(row[j] * D) % D for row in inv) for j in range(e)]

    group = {(0,) * e}
    frontier = list(group)
    while frontier:
        nxt = []
        for nu in frontier:
            for s in steps:
                cand = tuple((a + b) % D for a, b in zip(nu, s))
                if cand not in group:
                    group.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return D, group


def parallelepiped_points(cone: Cone) -> list[Ray]:
    """Integer points of {sum mu_i a_i : 0 <= mu_i < 1}."""
    return sorted(h for h, _ in parallelepiped_points_with_coords(cone))


def parallelepiped_points_with_coords(cone: Cone) -> list[tuple[Ray, tuple[Fraction, ...]]]:
    """Same, returning the coefficient vector mu of each point."""
    if not cone.simplicial:
        raise ValueError("parallelepiped points are defined for simplicial cones")
    D, group = _pp_group(cone)
    out = []
    for nu in group:
        point = [sum(v * g[i] for v, g in zip(nu, cone.generators)) for i in range(cone.n)]
        if all(x % D == 0 for x in point):
            out.append((tuple(x // D for x in point), tuple(Fraction(v, D) for v in nu)))
    return sorted(out)

