"""Integer-coefficient multivariate polynomials indexed by exponent vectors.

Supports the handful of operations the zeta machinery needs: parsing from a
small ASCII grammar (the regexes ``_TERM_RE`` and ``_FACTOR_RE`` are the
grammar), face functions with respect to a weight vector, evaluation over
residue rings (one point at a time, or exactly in int64 over whole grids of
points), formal partial derivatives, and the convenience test.  There is
deliberately no general polynomial arithmetic.

The grid evaluator reduces lazily: each int64 array carries an upper bound,
and is reduced, as x - (x // m) * m, only when the next product or sum could
reach 2^63.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ModulusOverflowError, PolynomialSyntaxError

Exponent = tuple[int, ...]


@dataclass
class IntPolynomial:
    """Sparse polynomial sum_m c_m x^m with integer c_m, m in N^n."""

    n: int
    terms: dict[Exponent, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ambient dimension must be >= 1")
        clean: dict[Exponent, int] = {}
        for m, c in self.terms.items():
            m = tuple(int(e) for e in m)
            if len(m) != self.n:
                raise ValueError(f"exponent vector {m} has length != {self.n}")
            if any(e < 0 for e in m):
                raise ValueError(f"negative exponent in {m}")
            if c != 0:
                clean[m] = int(c)
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[Exponent]:
        return sorted(self.terms)

    def has_constant_term(self) -> bool:
        return (0,) * self.n in self.terms

    def evaluate_mod(self, point, modulus: int) -> int:
        return evaluate_mod(self, point, modulus)

    def partial(self, j: int) -> "IntPolynomial":
        """Formal partial derivative with respect to variable j (0-based)."""
        out: dict[Exponent, int] = {}
        for m, c in self.terms.items():
            if m[j] == 0:
                continue
            dm = list(m)
            dm[j] -= 1
            key = tuple(dm)
            out[key] = out.get(key, 0) + c * m[j]
        return IntPolynomial(self.n, out)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.n == other.n and self.terms == other.terms


def _content(polys) -> tuple:
    """A hashable key for the coefficients of ``polys``, in order."""
    return tuple(tuple(sorted(f.terms.items())) for f in polys)


@dataclass
class PolySystem:
    """Ordered system f_1, ..., f_l; the last polynomial plays the role of f_l."""

    n: int
    polys: list[IntPolynomial]
    # Results keyed by polynomial content, kept as long as the system: the
    # dual subdivision of ``fan`` (with its triangulation), and per prime
    # the face-system scans and good-reduction verdicts of ``counting`` and
    # the lift tree of ``oracle._head_levels``.
    scans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= len(self.polys) <= self.n:
            raise ValueError(f"need 1 <= l <= n, got l={len(self.polys)}, n={self.n}")
        for i, f in enumerate(self.polys):
            if f.n != self.n:
                raise ValueError(f"polynomial {i} lives in dimension {f.n}, system in {self.n}")
            if f.is_zero():
                raise ValueError(f"polynomial {i} is zero")
            if f.has_constant_term():
                raise ValueError(f"polynomial {i} has a constant term (f(0) != 0)")

    @property
    def l(self) -> int:
        return len(self.polys)


@dataclass(frozen=True)
class PrimeContext:
    """Fixed computation prime; the residue field is F_p, so q = p."""

    p: int

    def __post_init__(self):
        if self.p < 3 or not _is_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")

    @property
    def q(self) -> int:
        return self.p


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the first 13 prime bases: exact below ``MR_EXACT_BELOW``
    (Sorenson and Webster, Math. Comp. 86, 2017), refused at or above it."""
    if n >= MR_EXACT_BELOW:
        raise ValueError(f"primality is only decided below {MR_EXACT_BELOW}, got {n}")
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1
    for a in _MR_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and n - 1 not in (pow(x, 1 << k, n) for k in range(s)):
            return False
    return True


def primitive_root(p: int) -> int:
    """The smallest generator of the cyclic group F_p^x."""
    order = p - 1
    factors = set()
    x, f = order, 2
    while f * f <= x:
        while x % f == 0:
            factors.add(f)
            x //= f
        f += 1
    if x > 1:
        factors.add(x)
    for g in range(2, p):
        if all(pow(g, order // fac, p) != 1 for fac in factors):
            return g
    raise RuntimeError("no primitive root found")


# ---------------------------------------------------------------------------
# Parsing.  These regexes are the grammar.  Terms are separated by "+" or
# "-" (the first term may also carry one); a term is an optional natural
# coefficient with an optional "*", then one or more factors name[^natural]
# joined by "*".  Blanks may separate any two tokens.
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_FACTOR_RE = re.compile(rf"({_NAME_RE.pattern})(?:\s*\^\s*(\d+))?")
_TERM_RE = re.compile(
    rf"\s*(?P<sign>[+-])?\s*(?:(?P<coeff>\d+)\s*\*?\s*)?"
    rf"(?P<factors>{_FACTOR_RE.pattern}(?:\s*\*\s*{_FACTOR_RE.pattern})*)\s*"
)


def parse_polynomial(text: str, variables) -> IntPolynomial:
    """Parse the grammar above into an IntPolynomial.

    ``variables`` fixes the coordinate order of the exponent vectors.
    Like terms are combined; exact cancellation yields the zero polynomial.
    A rejection's position is that of the unknown variable's name, or of
    the first non-blank character of the first term that does not match.
    """
    variables = list(variables)
    n = len(variables)
    if n < 1:
        raise ValueError("need at least one variable")
    var_index = {v: i for i, v in enumerate(variables)}
    if len(var_index) != n:
        raise ValueError("duplicate variable names")
    for v in variables:
        if not _NAME_RE.fullmatch(v):
            raise ValueError(f"variable name {v!r} is not a name the grammar can read")
    terms: dict[Exponent, int] = {}
    pos = 0
    while pos == 0 or pos < len(text):
        term = _TERM_RE.match(text, pos)
        if term is None or (pos and not term["sign"]):
            raise PolynomialSyntaxError("expected a term such as '-3*x^2*y'", len(text) - len(text[pos:].lstrip()))
        expo = [0] * n
        for factor in _FACTOR_RE.finditer(text, term.start("factors"), term.end("factors")):
            name, power = factor.groups()
            if name not in var_index:
                raise PolynomialSyntaxError(f"unknown variable {name!r}", factor.start())
            expo[var_index[name]] += int(power or 1)
        key = tuple(expo)
        terms[key] = terms.get(key, 0) + (-1 if term["sign"] == "-" else 1) * int(term["coeff"] or 1)
        pos = term.end()
    return IntPolynomial(n, terms)


# ---------------------------------------------------------------------------
# Faces, evaluation, convenience
# ---------------------------------------------------------------------------


def face_function(f: IntPolynomial, a) -> IntPolynomial:
    """Terms of f whose exponent minimises <a, m> over supp(f)."""
    a = tuple(int(x) for x in a)
    if f.is_zero():
        raise ValueError("face function of the zero polynomial is undefined")
    if len(a) != f.n:
        raise ValueError("weight vector has wrong length")
    dots = {m: sum(ai * mi for ai, mi in zip(a, m)) for m in f.terms}
    d = min(dots.values())
    return IntPolynomial(f.n, {m: c for m, c in f.terms.items() if dots[m] == d})


def evaluate_mod(f: IntPolynomial, point, modulus: int) -> int:
    """Exact value of f at an integer point, reduced into [0, modulus)."""
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    pt = [int(x) % modulus for x in point]
    if len(pt) != f.n:
        raise ValueError("point has wrong length")
    total = 0
    for m, c in f.terms.items():
        v = c % modulus
        for x, e in zip(pt, m):
            if e:
                v = (v * pow(x, e, modulus)) % modulus
        total = (total + v) % modulus
    return total


GRID_CHUNK = 1 << 20


def _check_grid_modulus(modulus: int) -> None:
    if modulus * modulus >= 1 << 63:
        raise ModulusOverflowError(f"modulus {modulus} too large for exact int64 grid evaluation (needs modulus^2 < 2^63)")


@dataclass(slots=True)
class _Bounded:
    """Nonnegative int64 values (or an int) with a Python-int upper bound;
    ``mine`` marks an array allocated here and held by no one else."""

    values: np.ndarray | int
    top: int
    mine: bool = False

    def reduce(self, modulus: int) -> None:
        """Bring the values into [0, modulus), as x - (x // modulus) * modulus."""
        if self.top >= modulus:
            q = self.values // modulus
            q *= modulus
            if self.mine:
                self.values -= q
            else:
                self.values, self.mine = self.values - q, True
            self.top = modulus - 1


def _combine(op, a: _Bounded, b: _Bounded, modulus: int) -> _Bounded:
    """op(a, b), op np.multiply or np.add, in place on a if a is mine.  While
    the result's bound could reach 2^63, the larger operand is reduced."""
    while (top := a.top * b.top if op is np.multiply else a.top + b.top) >= 1 << 63:
        (a if a.top >= b.top else b).reduce(modulus)
    return _Bounded(op(a.values, b.values, out=a.values if a.mine else None), top, True)


def eval_on_grid(f: IntPolynomial, coords: list[np.ndarray], modulus: int) -> np.ndarray:
    """Values of f mod modulus at the points with coordinate arrays ``coords``.

    Exact in int64 and reduced lazily: coordinates are brought into
    [0, modulus), then an array is reduced only when the next product or sum
    could reach 2^63, so modulus^2 < 2^63 is required and checked.  Only
    arrays allocated here are changed in place, never the caller's.
    """
    _check_grid_modulus(modulus)
    points = []
    for x in coords:
        x = np.asarray(x, dtype=np.int64)
        # Grid coordinates are usually residues already; reduce only those that are not.
        points.append(_Bounded(x if not x.size or 0 <= x.min() and x.max() < modulus else x % modulus, modulus - 1))
    total = None
    for m, c in f.terms.items():
        c %= modulus
        if not c:
            continue
        term = None
        for x, e in zip(points, m):
            # Square-and-multiply, from the first power, with no square past the top bit.
            while e:
                if e & 1 and term is None:
                    # The term takes x over; x keeps its values only to square them into a new array.
                    term, x = _Bounded(x.values, x.top, x.mine), _Bounded(x.values, x.top)
                elif e & 1:
                    term = _combine(np.multiply, term, x, modulus)
                e >>= 1
                if e:
                    x = _combine(np.multiply, x, x, modulus)
        if term is None:
            term = _Bounded(np.full(points[0].values.shape, c, dtype=np.int64), c, True)
        elif c != 1:
            term = _combine(np.multiply, term, _Bounded(c, c), modulus)
        total = term if total is None else _combine(np.add, total, term, modulus)
    if total is None:
        return np.zeros(points[0].values.shape, dtype=np.int64)
    total.reduce(modulus)
    return total.values if total.mine else total.values.copy()


def product_chunks(axes):
    """Yield coordinate arrays covering the product of ``axes`` (one array of
    values per coordinate), GRID_CHUNK points at a time, coordinate 0
    fastest.  Coordinate j repeats each value stride_j (the product of the
    earlier axis lengths) times: a slice of one tiled block when its period
    fits in a chunk, else built from its runs.  The arrays are read-only.
    """
    axes = [np.asarray(axis, dtype=np.int64) for axis in axes]
    total = math.prod(len(axis) for axis in axes)
    strides = [math.prod(len(axis) for axis in axes[:j]) for j in range(len(axes))]
    periods = strides[1:] + [total]
    tiled = []
    for axis, stride, period in zip(axes, strides, periods):
        block = axis.repeat(stride) if 0 < period <= GRID_CHUNK else None
        if block is not None and period < total:
            # Long enough for a chunk from any offset within the period.
            block = block[None].repeat(-(-min(total, period - 1 + GRID_CHUNK) // period), 0).ravel()
        tiled.append(block)
    for start in range(0, total, GRID_CHUNK):
        end = min(start + GRID_CHUNK, total)
        chunk = []
        for axis, stride, period, block in zip(axes, strides, periods, tiled):
            if block is None:
                runs = np.arange(start // stride, (end - 1) // stride + 2)  # the runs met, and one past
                block = np.repeat(axis[runs[:-1] % len(axis)], np.diff(np.clip(runs * stride, start, end)))
            else:
                block = block[start % period : start % period + end - start]
            block.flags.writeable = False
            chunk.append(block)
        yield chunk


def grid_zeros(polys, coords: list[np.ndarray], modulus: int) -> list[np.ndarray]:
    """The points of ``coords`` where every polynomial vanishes mod modulus,
    as coordinate arrays in the same order."""
    for f in polys:
        if not len(coords[0]):
            break
        keep = eval_on_grid(f, coords, modulus) == 0
        coords = [x[keep] for x in coords]
    return coords


@dataclass
class ConvenienceReport:
    convenient: bool
    missing: list[tuple[int, int]]  # (poly index, axis index), 0-based


def is_convenient(sys: PolySystem) -> ConvenienceReport:
    """Every f_i must contain a pure power x_k^{m_k} for every axis k."""
    missing = []
    for i, f in enumerate(sys.polys):
        for k in range(sys.n):
            ok = any(m[k] > 0 and all(e == 0 for j, e in enumerate(m) if j != k) for m in f.terms)
            if not ok:
                missing.append((i, k))
    return ConvenienceReport(not missing, missing)
