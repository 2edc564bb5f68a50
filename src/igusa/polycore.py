"""Integer-coefficient multivariate polynomials indexed by exponent vectors.

Supports the handful of operations the zeta machinery needs: parsing from a
small ASCII grammar (the regexes ``_TERM_RE`` and ``_FACTOR_RE`` are the
grammar), face functions with respect to a weight vector, evaluation over
residue rings (one point at a time, or exactly in int64 over whole grids of
points), formal partial derivatives, and the convenience test.  There is
deliberately no general polynomial arithmetic.
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


def eval_on_grid(f: IntPolynomial, coords: list[np.ndarray], modulus: int) -> np.ndarray:
    """Values of f mod modulus at the points with coordinate arrays ``coords``.

    Exact in int64: coordinates are cast to int64 and reduced, every product
    has factors below modulus, so modulus^2 < 2^63 is required and checked,
    and the terms, each below modulus < 2^32, are summed before one reduction.
    """
    _check_grid_modulus(modulus)
    coords = [np.asarray(x, dtype=np.int64) for x in coords]
    # Grid coordinates are usually residues already; reduce only those that are not.
    coords = [x if not x.size or 0 <= x.min() and x.max() < modulus else x % modulus for x in coords]
    total = np.zeros(coords[0].shape, dtype=np.int64)
    for m, c in f.terms.items():
        c %= modulus
        if not c:
            continue
        term = None
        for x, e in zip(coords, m):
            # Square-and-multiply, from the first power, with no square past the top bit.
            while e:
                if e & 1:
                    term = x if term is None else term * x % modulus
                e >>= 1
                if e:
                    x = x * x % modulus
        if term is None:
            total += c
        else:
            total += term if c == 1 else term * c % modulus
    return total % modulus


def product_chunks(axes):
    """Yield coordinate arrays covering the product of ``axes`` (one array of
    values per coordinate), GRID_CHUNK points at a time, coordinate 0
    fastest."""
    axes = [np.asarray(axis, dtype=np.int64) for axis in axes]
    shape = tuple(len(axis) for axis in axes)
    total = math.prod(shape)
    for start in range(0, total, GRID_CHUNK):
        idx = np.arange(start, min(start + GRID_CHUNK, total))
        yield [axis[d] for axis, d in zip(axes, np.unravel_index(idx, shape, order="F"))]


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
