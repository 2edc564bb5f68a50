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
polynomials, so each face system is scanned at most once per prime and the
result is kept on the ``PolySystem`` (``_scan``), as is each direction's
face system, which does not depend on p: every certificate and every
``torus_count`` call whose direction has that face system reads it.  A face
with exactly one coefficient prime to p is a unit times a monomial, with no
torus zero: in the head it leaves nothing to scan, as the last face only the
head zeros to count.  Good reduction is kept the same way; a head of linear
forms whose coefficient matrix has rank l-1 mod p is smooth with no scan.
The budget is still checked at each caller's own slice sizes (p^n for good
reduction) before the kept result is read, so a call refused on a fresh
system is refused on a scanned one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fan as fan_mod
from .errors import DEFAULT_ENUM_BUDGET, check_budget
from .polycore import IntPolynomial, PolySystem, PrimeContext, eval_on_grid, face_function, grid_zeros
from .polycore import _check_grid_modulus, _content, product_chunks


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
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [(x * inv) % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _jacobian(polys: list[IntPolynomial]) -> list[list[IntPolynomial]]:
    return [[f.partial(j) for j in range(f.n)] for f in polys]


def jacobian_rank(polys: list[IntPolynomial], z, ctx: PrimeContext) -> int:
    """Rank over F_p of the matrix of formal partials evaluated at z."""
    return _rank_mod_p([[d.evaluate_mod(z, ctx.p) for d in row] for row in _jacobian(polys)], ctx.p)


def _failures(jac: list[list[IntPolynomial]], coords: list[np.ndarray], p: int, target: int) -> list[tuple[tuple[int, ...], int]]:
    """(point, Jacobian rank over F_p) at the points of the coordinate arrays
    whose rank is not ``target``; each distinct value matrix is ranked once."""
    if not len(coords[0]):
        return []
    values = [[eval_on_grid(d, coords, p).tolist() for d in row] for row in jac]
    matrices = [tuple(tuple(v[k] for v in row) for row in values) for k in range(len(coords[0]))]
    ranks = {m: _rank_mod_p(m, p) for m in set(matrices)}
    points = [x.tolist() for x in coords]
    return [(tuple(x[k] for x in points), ranks[m]) for k, m in enumerate(matrices) if ranks[m] != target]


def _scan(sys: PolySystem, a, p: int, budget: int, what: str) -> tuple[tuple[int, int], tuple[tuple[int, ...], int] | None]:
    """((c_open, c_closed), first failure on the torus or None) for the face
    system of direction a over F_p, kept on ``sys`` (see the module docstring).

    The budget is checked on every call at a's slice size, and at the size
    of the slice at a's first nonzero coordinate when that is larger and
    the face system fails.
    """
    a = tuple(int(x) for x in a)
    gs = [math.gcd(abs(x) // math.gcd(*a), p - 1) for x in a if x] or [p - 1]
    g, g_lead, rest = min(gs), gs[0], (p - 1) ** (sys.n - 1)
    check_budget(g * rest, budget, what)
    _check_grid_modulus(p)  # as the grid scan would, even one cut short
    kept = sys.scans.setdefault(("face systems", _content(sys.polys)), {})
    if a not in kept:
        faces = [face_function(f, a) for f in sys.polys]
        kept[a] = faces, _content(faces)
    faces, key = kept[a][0], (p, kept[a][1])
    if key not in sys.scans:
        monomial = [sum(c % p != 0 for c in f.terms.values()) == 1 for f in faces]
        c_open = c_closed = 0
        failures = []
        if not any(monomial[:-1]):
            jac = _jacobian(faces)
            for coords in product_chunks(_torus_slice(a, sys.n, p)[0]):
                head = grid_zeros(faces[:-1], coords, p)
                c_open += len(head[0])
                if not monomial[-1]:
                    common = grid_zeros(faces[-1:], head, p)
                    c_closed += len(common[0])
                    failures += _failures(jac, common, p, sys.l)
            if failures and g_lead > g:
                check_budget(g_lead * rest, budget, what)
                failures = [z for coords in product_chunks(_slices(a, sys.n, p)[0][0]) for z in _failures(jac, grid_zeros(faces, coords, p), p, sys.l)]
        weight = (p - 1) // g
        sys.scans[key] = ((weight * (c_open - c_closed), weight * c_closed), min(failures, default=None))
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
    polynomials must have Jacobian rank l.  One orbit slice is
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
    return jacobian_rank(faces, witness.point, ctx) == witness.rank < sys.l


def check_good_reduction(sys: PolySystem, ctx: PrimeContext, budget: int = DEFAULT_ENUM_BUDGET) -> bool:
    """Does (f_1, ..., f_{l-1}) cut out a smooth variety over F_p?

    True iff the Jacobian of the first l-1 polynomials has rank l-1 at every
    solution in the full affine space F_p^n.  The verdict is kept on ``sys``
    per prime and head; the budget is checked at p^n on every call.  An
    empty head (l = 1) cuts out F_p^n itself, which is smooth: no scan.
    """
    head = sys.polys[:-1]
    if not head:
        return True
    p = ctx.p
    check_budget(p**sys.n, budget, "good-reduction enumeration")
    key = (p, "good reduction", _content(head))
    if key not in sys.scans:
        jac = _jacobian(head)
        # Linear forms have a constant Jacobian: their coefficient matrix.
        linear = all(sum(m) <= 1 for f in head for m in f.terms)
        smooth = linear and _rank_mod_p([[d.terms.get((0,) * sys.n, 0) for d in row] for row in jac], p) == sys.l - 1
        chunks = () if smooth else product_chunks([np.arange(p)] * sys.n)
        sys.scans[key] = not any(_failures(jac, grid_zeros(head, coords, p), p, sys.l - 1) for coords in chunks)
    return sys.scans[key]
