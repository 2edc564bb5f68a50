import random
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest

from igusa.linalg import (
    det,
    invert,
    kernel_vector,
    nullspace,
    primitive_integer_vector,
    rank,
    row_echelon,
    smith,
    solve,
)


def test_rank():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert rank([[0, 0], [0, 0]]) == 0


def test_nullspace_orthogonality():
    rows = [[1, 1, 1], [1, 2, 3]]
    basis = nullspace(rows)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0


def test_solve_consistent_and_inconsistent():
    assert solve([[2, 0], [0, 4]], [6, 8]) == (3, 2)
    assert solve([[1, 1], [2, 2]], [1, 3]) is None
    sol = solve([[1, 1]], [5])
    assert sol is not None and sum(sol) == 5


def test_invert():
    inv = invert([[2, 1], [1, 1]])
    assert inv == [[1, -1], [-1, 2]]
    assert invert([[1, 2], [2, 4]]) is None
    with pytest.raises(ValueError):
        invert([[1, 2, 3]])


def test_det():
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[Fraction(1, 2), 0], [0, 4]]) == 2
    assert det([[1, 1], [1, 1]]) == 0


def test_primitive_integer_vector():
    assert primitive_integer_vector([Fraction(2, 3), Fraction(4, 3)]) == (1, 2)
    assert primitive_integer_vector([-2, -4]) == (1, 2)
    assert primitive_integer_vector([0, Fraction(-5, 7)]) == (0, 1)
    with pytest.raises(ValueError):
        primitive_integer_vector([0, 0])


def _corpus(seed=1968, count=240):
    """Seeded matrices: wide, tall and square, integer and rational, with
    zero rows and columns and rows that are combinations of others."""
    rng = random.Random(seed)
    out = [[[]], [[], []], [[0, 0, 0]], [[0], [0]]]
    for t in range(count):
        r = rng.randint(1, 5)
        c = (r, rng.randint(r + 1, 7), rng.randint(1, max(1, r - 1)))[t % 3]
        rational = t % 4 == 3
        m = [
            [
                0 if rng.random() < 0.3
                else Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rational
                else rng.randint(-6, 6)
                for _ in range(c)
            ]
            for _ in range(r)
        ]
        if r >= 2 and t % 5 == 0:
            i, j = rng.sample(range(r), 2)
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            m[rng.randrange(r)] = [a * x + b * y for x, y in zip(m[i], m[j])]
        if t % 7 == 0:
            m[rng.randrange(r)] = [0] * c
        if t % 11 == 0:
            z = rng.randrange(c)
            for row in m:
                row[z] = 0
        out.append(m)
    return out


def test_empty_input():
    assert row_echelon([]) == []
    assert rank([]) == 0
    assert nullspace([]) == []
    assert solve([], []) is None
    assert invert([]) == []
    assert det([]) == 1


def test_kernel_vector_matches_nullspace():
    one_dimensional = 0
    for m in _corpus():
        basis = nullspace(m)
        expected = primitive_integer_vector(basis[0]) if len(basis) == 1 else None
        assert kernel_vector(m, len(m[0])) == expected, m
        one_dimensional += expected is not None
    assert one_dimensional >= 20
    # No rows: the kernel is all of Q^ncols.
    assert kernel_vector([], 1) == (1,)
    assert kernel_vector([], 3) is None
    assert kernel_vector([[0, 0, 0], [-2, 0, 4], [3, 0, -6]], 3) is None
    assert kernel_vector([[2, -4, 0], [0, 0, Fraction(1, 3)]], 3) == (2, 1, 0)


def _full_column_rank(corpus):
    """The integer matrices of the corpus whose columns are independent."""
    return [
        m for m in corpus
        if m[0] and all(type(x) is int for row in m for x in row) and rank(m) == len(m[0])
    ]


def test_smith_diagonalises():
    matrices = _full_column_rank(_corpus())
    assert len(matrices) >= 60
    for m in matrices:
        d, v = smith(m)
        e = len(m[0])
        assert len(d) == e and min(d) > 0, m
        assert abs(det(v)) == 1, m
        # A V = U^-1 diag(d): column i of A V is d_i times an integer column.
        av = [[sum(a * v[k][i] for k, a in enumerate(row)) for i in range(e)] for row in m]
        assert all(x % d[i] == 0 for row in av for i, x in enumerate(row)), m
        minors = 0
        for rows in combinations(m, e):
            minors = gcd(minors, det(rows).numerator)
        assert prod(d) == minors, m


def test_smith_rejects_rank_deficient():
    with pytest.raises(ValueError):
        smith([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        smith([[1, 0, 0], [0, 1, 0]])


class TestAgainstSympy:
    """Reference test: every exact result of the elimination kernel against
    sympy's independent implementation, on the seeded corpus."""

    @pytest.fixture
    def sp(self):
        return pytest.importorskip("sympy")

    @staticmethod
    def _frac(x) -> Fraction:
        return Fraction(int(x.p), int(x.q))

    @staticmethod
    def _matrix(sp, m):
        return sp.Matrix(len(m), len(m[0]), [sp.Rational(Fraction(x).numerator, Fraction(x).denominator)
                                             for row in m for x in row])

    def _rows(self, mat):
        return [[self._frac(mat[i, j]) for j in range(mat.cols)] for i in range(mat.rows)]

    def test_row_echelon_rank_nullspace(self, sp):
        for m in _corpus():
            ref = self._matrix(sp, m)
            assert row_echelon(m) == self._rows(ref.rref()[0]), m
            assert rank(m) == ref.rank(), m
            assert nullspace(m) == [tuple(self._frac(x) for x in v) for v in ref.nullspace()], m

    def test_solve(self, sp):
        rng = random.Random(7)
        for m in _corpus():
            ref = self._matrix(sp, m)
            x0 = [rng.randint(-4, 4) for _ in m[0]]
            consistent = [sum(a * x for a, x in zip(row, x0)) for row in m]
            for rhs in (consistent, [rng.randint(-5, 5) for _ in m]):
                try:
                    sol, params = ref.gauss_jordan_solve(self._matrix(sp, [[v] for v in rhs]))
                except ValueError:  # sympy: no solution
                    assert solve(m, rhs) is None, (m, rhs)
                    continue
                sol = sol.subs({p: 0 for p in params})  # free variables at 0
                assert solve(m, rhs) == tuple(self._frac(x) for x in sol), (m, rhs)

    def test_det_invert(self, sp):
        for m in _corpus():
            ref = self._matrix(sp, m)
            if ref.rows != ref.cols:
                with pytest.raises(ValueError):
                    det(m)
                with pytest.raises(ValueError):
                    invert(m)
                continue
            assert det(m) == self._frac(ref.det()), m
            assert invert(m) == (None if ref.det() == 0 else self._rows(ref.inv())), m

    def test_smith_invariants(self, sp):
        from sympy.matrices.normalforms import smith_normal_form

        for m in _full_column_rank(_corpus()):
            ref = smith_normal_form(self._matrix(sp, m), domain=sp.ZZ)
            assert prod(smith(m)[0]) == abs(prod(int(ref[i, i]) for i in range(len(m[0])))), m
