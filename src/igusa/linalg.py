"""Exact linear algebra over the rationals, sized for desk-scale problems.

Every result but ``smith``'s diagonal form comes from one fraction-free
Gauss-Jordan elimination over the integers (Bareiss 1968): each rational
input row is scaled to integers by the lcm of its denominators, and every
division in the elimination is exact, so no ``Fraction`` arithmetic runs
inside it.  Dimensions stay in the single digits throughout the package, so
no effort is spent on pivoting strategies or sparsity.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vector = tuple[Fraction, ...]


def _eliminate(rows) -> tuple[list[list[int]], list[int], int, int, int]:
    """Fraction-free Gauss-Jordan elimination of a rational matrix.

    Returns ``(m, pivots, d, sign, scale)``: the eliminated integer matrix,
    whose pivot in row ``r`` sits in column ``pivots[r]`` and equals ``d`` for
    every pivot row (rows past the rank are zero), so ``m / d`` is the reduced
    row echelon form; ``sign`` of the row permutation; and the product of the
    row scales.  For a square matrix of full rank, ``sign * d`` is the
    determinant of the scaled matrix.
    """
    m: list[list[int]] = []
    scale = 1
    for row in rows:
        if all(type(x) is int for x in row):
            m.append(list(row))
            continue
        fracs = [Fraction(x) for x in row]
        s = lcm(*(f.denominator for f in fracs))
        m.append([f.numerator * (s // f.denominator) for f in fracs])
        scale *= s
    pivots: list[int] = []
    sign, prev = 1, 1
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        prow = m[r]
        piv = prow[col]
        # Every entry is a minor of the scaled input (Sylvester's identity),
        # so the division by the previous pivot is exact.
        for i, row in enumerate(m):
            if i != r:
                f = row[col]
                m[i] = [(piv * a - f * b) // prev for a, b in zip(row, prow)]
        pivots.append(col)
        prev = piv
    return m, pivots, prev, sign, scale


def row_echelon(rows) -> list[list[Fraction]]:
    """Reduced row echelon form; input is not modified."""
    m, _, d, _, _ = _eliminate(rows)
    return [[Fraction(x, d) for x in row] for row in m]


def rank(rows) -> int:
    return len(_eliminate(rows)[1])


def nullspace(rows) -> list[Vector]:
    """Basis of the right kernel {x : A x = 0}."""
    m, pivots, d, _, _ = _eliminate(rows)
    if not m:
        return []
    ncols = len(m[0])
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = Fraction(-m[r][fc], d)
        basis.append(tuple(v))
    return basis


def kernel_vector(rows, ncols: int) -> tuple[int, ...] | None:
    """The primitive integer vector spanning a one-dimensional right kernel.

    It is read straight off the integer elimination, with no ``Fraction``
    arithmetic, and its first nonzero entry is positive, so it equals
    ``primitive_integer_vector(nullspace(rows)[0])``.  ``ncols`` is the number
    of columns, which ``rows`` cannot tell when it is empty.  Returns None when
    the kernel is not one-dimensional.
    """
    m, pivots, d, _, _ = _eliminate(rows)
    if ncols - len(pivots) != 1:
        return None
    fc = min(set(range(ncols)) - set(pivots))
    v = [0] * ncols
    v[fc] = d
    for r, c in enumerate(pivots):
        v[c] = -m[r][fc]
    g = gcd(*v)
    if next(x for x in v if x != 0) < 0:
        g = -g
    return tuple(x // g for x in v)


def solve(rows, rhs) -> Vector | None:
    """One exact solution of A x = b, or None if inconsistent.

    If the system is underdetermined the free variables are set to 0.
    """
    rows = [list(row) for row in rows]
    if not rows:
        return None
    b = list(rhs)
    ncols = len(rows[0])
    red = row_echelon([row + [bv] for row, bv in zip(rows, b)])
    sol = [Fraction(0)] * ncols
    for row in red:
        lead = next((c for c, x in enumerate(row) if x != 0), None)
        if lead is None:
            continue
        if lead == ncols:
            return None
        # Every other entry of sol is still 0 here: later pivots are set
        # afterwards and free variables stay 0.
        sol[lead] = row[ncols]
    for row, bv in zip(rows, b):
        if sum(a * x for a, x in zip(row, sol)) != bv:
            return None
    return tuple(sol)


def invert(rows) -> list[list[Fraction]] | None:
    """Inverse of a square matrix, or None if singular."""
    rows = [list(row) for row in rows]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    red = row_echelon([row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)])
    for i in range(n):
        if red[i][i] != 1 or any(red[i][j] != 0 for j in range(n) if j != i):
            return None
    return [row[n:] for row in red]


def det(rows) -> Fraction:
    """Determinant (exact)."""
    rows = list(rows)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    _, pivots, d, sign, scale = _eliminate(rows)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * d, scale)


def smith(rows) -> tuple[list[int], list[list[int]]]:
    """Diagonal form of an integer n x e matrix A of rank e (Cohen 1993, §2.4.4).

    Returns positive ``d`` and a unimodular e x e ``V`` with U A V = diag(d)
    for some unimodular U, which is not tracked.  Unlike the Smith normal
    form, the d_i need not divide one another; their product is still the
    gcd of the e x e minors of A.
    """
    a, e = [list(row) for row in rows], len(rows[0])
    v = [[int(i == j) for j in range(e)] for i in range(e)]
    for k in range(e):
        while True:  # Pivot on the least nonzero entry left; clear its row and column.
            pivot = min(((abs(x), i, j) for i in range(k, len(a)) for j, x in enumerate(a[i][k:], k) if x), default=None)
            if pivot is None:
                raise ValueError("matrix does not have full column rank")
            _, i, j = pivot
            a[k], a[i] = a[i], a[k]
            for row in a + v:
                row[k], row[j] = row[j], row[k]
            for i in range(k + 1, len(a)):
                f = a[i][k] // a[k][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
            for j in range(k + 1, e):
                f = a[k][j] // a[k][k]
                for row in a + v:
                    row[j] -= f * row[k]
            if not any(a[k][k + 1:]) and not any(row[k] for row in a[k + 1:]):
                break
    return [abs(a[k][k]) for k in range(e)], v


def primitive_integer_vector(vec) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, preserving direction.

    The sign is normalised so the first nonzero entry is positive.
    """
    fracs = [Fraction(x) for x in vec]
    if all(f == 0 for f in fracs):
        raise ValueError("zero vector has no primitive representative")
    denom_lcm = lcm(*(f.denominator for f in fracs))
    ints = [f.numerator * (denom_lcm // f.denominator) for f in fracs]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    lead = next(x for x in ints if x != 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)
