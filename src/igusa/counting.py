"""Exhaustive finite-field enumeration over F_p.

Torus point counts of face systems, Jacobian ranks, and certification of
the non-degeneracy and good-reduction hypotheses.  All counts are exact;
"p big enough" is the caller's responsibility -- a certificate is only
valid at the prime it was computed for.

Every enumeration evaluates each face polynomial over whole chunks of the
int64 grid of ``polycore`` and keeps the points where it vanishes; Jacobian
ranks are computed only at the common zeros that survive.

For a direction a != 0 the face functions are quasi-homogeneous of weight
a: f_a(t.x) = t^d f_a(x) with t.x = (t^{a_1} x_1, ..., t^{a_n} x_n), and
J(t.x) = D_1 J(x) D_2 with invertible diagonal D_1, D_2.  So F_p^x acts on
the torus keeping zeros and Jacobian ranks, and a torus scan needs one
slice that meets every orbit: with a' = a / gcd(a) and the coordinate j
minimising g = gcd(|a'_j|, p-1) (ties to the first), x_j runs over the
least residue of each of the g cosets of (F_p^x)^g, the values t^{a'_j},
and the other coordinates over all of F_p^x.  Every orbit meets the slice,
each torus point is hit g times by F_p^x x slice, so counts are the
slice's times (p-1)/g.  That is g (p-1)^(n-1) points instead of (p-1)^n,
and the budget is checked at that size.  a = 0 (the constant chart term
and the global "including the origin" direction) is scanned in full.  A
degeneracy witness is the lexicographically first failing point of the
whole torus.  t.x fixes the coordinates before the first nonzero a'_{j0}
and keeps x_{j0} in its coset, so the slice at j0 holds every orbit's
least point, and its least failure is the witness.  If j != j0 and the
face system fails, that slice is scanned too, within the budget.

One pass over a slice gives the head zeros (c_open + c_closed), the common
zeros (c_closed) and the first failure.  All three depend only on the face
polynomials, so each face system is scanned once per prime and the result
is kept on the ``PolySystem`` (``_scan``): every certificate and every
``torus_count`` call whose direction has that face system reads it.  Good
reduction is kept the same way.  The budget is still checked at each
caller's own slice sizes (p^n for good reduction) before the kept result is
read, so a call refused on a fresh system is refused on a scanned one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fan as fan_mod
from .errors import DEFAULT_ENUM_BUDGET, check_budget
from .polycore import IntPolynomial, PolySystem, PrimeContext, eval_on_grid, face_function, grid_zeros
from .polycore import _content, product_chunks


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


def _slices(a, n: int, p: int) -> list[tuple[list, int]]:
    """(axes, g) of the orbit slice of (F_p^x)^n at each nonzero coordinate j
    of direction a, in order (see the module docstring); x and y share a
    coset of (F_p^x)^g iff x^((p-1)/g) = y^((p-1)/g).  a = 0 gives the whole
    torus as g = p - 1.  No axis is an array, so the caller can check the
    size g (p-1)^(n-1) before any point exists."""
    a = [int(x) for x in a]
    out = []
    for j in (j for j, x in enumerate(a) if x):
        g = math.gcd(abs(a[j]) // math.gcd(*a), p - 1)
        least: dict[int, int] = {}
        x = 1
        while len(least) < g:
            least.setdefault(pow(x, (p - 1) // g, p), x)
            x += 1
        axes = [range(1, p)] * n
        axes[j] = list(least.values())
        out.append((axes, g))
    return out or [([range(1, p)] * n, p - 1)]


def _torus_slice(a, n: int, p: int) -> tuple[list, int]:
    """The smallest of ``_slices`` (ties to the first), and the number
    (p-1)/g of torus points each of its points stands for."""
    axes, g = min(_slices(a, n, p), key=lambda s: s[1])
    return axes, (p - 1) // g


def torus_count(sys: PolySystem, a, ctx: PrimeContext, budget: int = DEFAULT_ENUM_BUDGET) -> TorusCount:
    """Exact counts of the face system of direction a on the torus (F_p^x)^n.

    a = 0 means the full polynomials (used for the constant-chart term).
    Only one orbit slice is scanned when a != 0 (see the module docstring).
    """
    return TorusCount(*_scan(sys, a, ctx.p, budget, "torus enumeration")[0])


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


def _failures(jac: list[list[IntPolynomial]], coords: list[np.ndarray], p: int, target: int) -> list[tuple[tuple[int, ...], int]]:
    """(point, Jacobian rank over F_p) at the points of the coordinate arrays
    whose rank is not ``target``; each distinct value matrix is ranked once."""
    values = [[eval_on_grid(d, coords, p).tolist() for d in row] for row in jac]
    matrices = [tuple(tuple(v[k] for v in row) for row in values) for k in range(len(coords[0]))]
    ranks = {m: _rank_mod_p(m, p) for m in set(matrices)}
    points = [x.tolist() for x in coords]
    return [(tuple(x[k] for x in points), ranks[m]) for k, m in enumerate(matrices) if ranks[m] != target]


def _scan(sys: PolySystem, a, p: int, budget: int, what: str) -> tuple[tuple[int, int], tuple[tuple[int, ...], int] | None]:
    """((c_open, c_closed), first failure on the torus or None) for the face
    system of direction a over F_p.

    The budget is checked on every call at a's slice size, and at the size
    of the slice at a's first nonzero coordinate when that is larger and
    the face system fails.  The scan itself runs once per face system and
    prime: both results depend only on the face polynomials, so they are
    kept on ``sys`` under the face system's content and shared by every
    direction and caller that meets it.
    """
    axes, weight = _torus_slice(a, sys.n, p)
    lead, g_lead = _slices(a, sys.n, p)[0]
    rest, g = (p - 1) ** (sys.n - 1), (p - 1) // weight
    check_budget(g * rest, budget, what)
    faces = [face_function(f, a) for f in sys.polys]
    key = (p, _content(faces))
    if key not in sys.scans:
        jac = _jacobian(faces)
        target = min(sys.l, sys.n)
        c_open = c_closed = 0
        failures = []
        for coords in product_chunks(axes):
            head = grid_zeros(faces[:-1], coords, p)
            common = grid_zeros(faces[-1:], head, p)
            c_closed += len(common[0])
            c_open += len(head[0]) - len(common[0])
            failures += _failures(jac, common, p, target)
        if failures and g_lead > g:
            check_budget(g_lead * rest, budget, what)
            failures = [z for coords in product_chunks(lead) for z in _failures(jac, grid_zeros(faces, coords, p), p, target)]
        sys.scans[key] = ((weight * c_open, weight * c_closed), min(failures, default=None))
    elif sys.scans[key][1] is not None and g_lead > g:
        check_budget(g_lead * rest, budget, what)
    return sys.scans[key]


def check_nondegenerate(
    sys: PolySystem,
    ctx: PrimeContext,
    at_origin: bool = False,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> NondegCertificate:
    """Certify strong non-degeneracy over F_p (globally or at the origin).

    Face systems are constant on each cone of the dual subdivision, so one
    integer representative per cone covers every positive vector; a = 0 is
    added in the global case (the paper's "including the origin").  For
    each representative direction, every common torus zero of all l face
    polynomials must have Jacobian rank min(l, n).  One orbit slice is
    scanned per face system (``_scan``), and the first failure on the whole
    torus is returned as an independently checkable witness.
    """
    p = ctx.p
    scope = "at_origin" if at_origin else "global"
    # Every direction's scan tests at least (p-1)^(n-1) points; refuse
    # before building the subdivision if even that is too many.
    check_budget((p - 1) ** (sys.n - 1), budget, "non-degeneracy enumeration")
    directions = [cone.interior_point() for cone in fan_mod.dual_subdivision(sys).cones]
    if at_origin:
        directions = [a for a in directions if all(x > 0 for x in a)]
    else:
        directions.append((0,) * sys.n)
    for a in directions:
        first = _scan(sys, a, p, budget, "non-degeneracy enumeration")[1]
        if first is not None:
            z, r = first
            return NondegCertificate(False, scope, p, NondegWitness(tuple(a), z, r), len(directions))
    return NondegCertificate(True, scope, p, None, len(directions))


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
    solution in the full affine space F_p^n.  The verdict is kept on ``sys``
    per prime and head; the budget is checked at p^n on every call.
    """
    if sys.l < 2:
        raise ValueError("good reduction concerns the first l-1 polynomials; need l >= 2")
    p = ctx.p
    check_budget(p**sys.n, budget, "good-reduction enumeration")
    head = sys.polys[:-1]
    key = (p, "good reduction", _content(head))
    if key not in sys.scans:
        jac = _jacobian(head)
        chunks = product_chunks([np.arange(p)] * sys.n)
        sys.scans[key] = not any(_failures(jac, grid_zeros(head, coords, p), p, sys.l - 1) for coords in chunks)
    return sys.scans[key]
