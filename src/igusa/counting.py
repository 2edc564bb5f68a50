"""Exhaustive finite-field enumeration over F_p.

Torus point counts of face systems, Jacobian ranks, and certification of
the non-degeneracy and good-reduction hypotheses.  All counts are exact;
"p big enough" is the caller's responsibility -- a certificate is only
valid at the prime it was computed for.

Every enumeration evaluates each face polynomial over whole chunks of the
int64 grid of ``polycore`` and keeps the points where it vanishes; Jacobian
ranks are computed only at the common zeros that survive.  A degeneracy
witness is the lexicographically first failing point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fan as fan_mod
from .errors import DEFAULT_ENUM_BUDGET, check_budget
from .polycore import IntPolynomial, PolySystem, PrimeContext, eval_on_grid, face_function, grid_chunks, grid_zeros


@dataclass
class TorusCount:
    c_open: int    # z in (F_p^x)^n with f_{1,a} = ... = f_{l-1,a} = 0, f_{l,a} != 0
    c_closed: int  # additionally f_{l,a} = 0


@dataclass
class NondegWitness:
    direction: tuple[int, ...]
    point: tuple[int, ...]
    rank: int


@dataclass
class NondegCertificate:
    ok: bool
    scope: str  # "at_origin" or "global"
    p: int
    witness: NondegWitness | None = None
    directions_checked: int = 0
    # The cones the certificate covers: the system's dual subdivision.
    subdivision: fan_mod.Fan | None = field(default=None, repr=False, compare=False)


def torus_count(sys: PolySystem, a, ctx: PrimeContext, budget: int = DEFAULT_ENUM_BUDGET) -> TorusCount:
    """Exact counts of the face system of direction a on the torus (F_p^x)^n.

    a = 0 means the full polynomials (used for the constant-chart term).
    """
    p = ctx.p
    check_budget((p - 1) ** sys.n, budget, "torus enumeration")
    faces = [face_function(f, a) for f in sys.polys]
    c_open = 0
    c_closed = 0
    for coords in grid_chunks(np.arange(1, p), sys.n):
        head = grid_zeros(faces[:-1], coords, p)
        closed = int(np.count_nonzero(eval_on_grid(faces[-1], head, p) == 0))
        c_closed += closed
        c_open += len(head[0]) - closed
    return TorusCount(c_open, c_closed)


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    m = [[x % p for x in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, len(m)) if m[r][col] % p != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = pow(m[row][col], p - 2, p)
        m[row] = [(x * inv) % p for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col]:
                f = m[r][col]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[row])]
        row += 1
        rank += 1
        if row == len(m):
            break
    return rank


def _jacobian(polys: list[IntPolynomial]) -> list[list[IntPolynomial]]:
    return [[f.partial(j) for j in range(f.n)] for f in polys]


def jacobian_rank(polys: list[IntPolynomial], z, ctx: PrimeContext) -> int:
    """Rank over F_p of the matrix of formal partials evaluated at z."""
    return _rank_mod_p([[d.evaluate_mod(z, ctx.p) for d in row] for row in _jacobian(polys)], ctx.p)


def _ranks_at(jac: list[list[IntPolynomial]], coords: list[np.ndarray], p: int) -> list[tuple[tuple[int, ...], int]]:
    """(point, Jacobian rank over F_p) at each point of the coordinate arrays."""
    values = [[eval_on_grid(d, coords, p).tolist() for d in row] for row in jac]
    points = zip(*(x.tolist() for x in coords))
    return [(z, _rank_mod_p([[v[k] for v in row] for row in values], p)) for k, z in enumerate(points)]


def check_nondegenerate(
    sys: PolySystem,
    ctx: PrimeContext,
    at_origin: bool = False,
    budget: int = DEFAULT_ENUM_BUDGET,
    subdivision: fan_mod.Fan | None = None,
) -> NondegCertificate:
    """Certify strong non-degeneracy over F_p (globally or at the origin).

    Face systems are constant on each cone of the dual subdivision, so one
    integer representative per cone covers every positive vector; a = 0 is
    added in the global case (the paper's "including the origin").  For
    each representative direction, every common torus zero of all l face
    polynomials must have Jacobian rank min(l, n).  The first failure is
    returned as an independently checkable witness.  The subdivision is
    built here unless the caller passes the one it already has.
    """
    p = ctx.p
    scope = "at_origin" if at_origin else "global"
    target = min(sys.l, sys.n)
    check_budget((p - 1) ** sys.n, budget, "non-degeneracy enumeration")
    if subdivision is None:
        subdivision = fan_mod.dual_subdivision(sys)
    directions = [cone.interior_point() for cone in subdivision.cones]
    if at_origin:
        directions = [a for a in directions if all(x > 0 for x in a)]
    else:
        directions.append((0,) * sys.n)
    for a in directions:
        faces = [face_function(f, a) for f in sys.polys]
        jac = _jacobian(faces)
        failures = []
        for coords in grid_chunks(np.arange(1, p), sys.n):
            zeros = grid_zeros(faces, coords, p)
            failures += [(z, r) for z, r in _ranks_at(jac, zeros, p) if r != target]
        if failures:
            z, r = min(failures)
            return NondegCertificate(False, scope, p, NondegWitness(tuple(a), z, r), len(directions), subdivision)
    return NondegCertificate(True, scope, p, None, len(directions), subdivision)


def verify_witness(sys: PolySystem, ctx: PrimeContext, witness: NondegWitness) -> bool:
    """Re-check a degeneracy witness by direct evaluation."""
    faces = [face_function(f, witness.direction) for f in sys.polys]
    if any(x % ctx.p == 0 for x in witness.point):
        return False
    if any(g.evaluate_mod(witness.point, ctx.p) != 0 for g in faces):
        return False
    return jacobian_rank(faces, witness.point, ctx) == witness.rank < min(sys.l, sys.n)


def check_good_reduction(sys: PolySystem, ctx: PrimeContext, budget: int = DEFAULT_ENUM_BUDGET) -> bool:
    """Does (f_1, ..., f_{l-1}) cut out a smooth variety over F_p?

    True iff the Jacobian of the first l-1 polynomials has rank l-1 at every
    solution in the full affine space F_p^n.
    """
    if sys.l < 2:
        raise ValueError("good reduction concerns the first l-1 polynomials; need l >= 2")
    p = ctx.p
    head = sys.polys[:-1]
    check_budget(p**sys.n, budget, "good-reduction enumeration")
    jac = _jacobian(head)
    for coords in grid_chunks(np.arange(p), sys.n):
        zeros = grid_zeros(head, coords, p)
        if any(r != sys.l - 1 for _, r in _ranks_at(jac, zeros, p)):
            return False
    return True
