import random
import re
import time
from itertools import product

import numpy as np
import polycore_reference
import pytest

from igusa import polycore
from igusa.errors import BudgetExceededError, ModulusOverflowError, PolynomialSyntaxError
from igusa.polycore import (
    IntPolynomial,
    PolySystem,
    PrimeContext,
    eval_on_grid,
    evaluate_mod,
    face_function,
    is_convenient,
    parse_polynomial,
    primitive_root,
    product_chunks,
)

V2 = ["x", "y"]
V3 = ["x", "y", "z"]


class TestParse:
    def test_octic_surface(self):
        f = parse_polynomial("x^8+y^8+z^8+x^2*y^2*z^2", V3)
        assert len(f.terms) == 4
        assert set(f.terms.values()) == {1}
        assert (2, 2, 2) in f.terms

    def test_hyperplane(self):
        f = parse_polynomial("x+y-z", V3)
        assert f.terms == {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): -1}

    def test_cancellation_gives_zero(self):
        f = parse_polynomial("x - x", V2)
        assert f.is_zero()

    def test_coefficients_and_implicit_star(self):
        f = parse_polynomial("2x^3 - 3*x*y + y", V2)
        assert f.terms == {(3, 0): 2, (1, 1): -3, (0, 1): 1}

    def test_leading_minus(self):
        f = parse_polynomial("-x + y", V2)
        assert f.terms == {(1, 0): -1, (0, 1): 1}

    def test_repeated_variable_multiplies(self):
        f = parse_polynomial("x*x*y", V2)
        assert f.terms == {(2, 1): 1}

    @pytest.mark.parametrize("name", ["y z", "2y", "y^2", "", "x-1", "é"])
    def test_unreadable_variable_name_rejected(self, name):
        with pytest.raises(ValueError, match=re.escape(f"variable name {name!r} is not a name the grammar can read")):
            parse_polynomial("x", ["x", name])

    def test_unknown_variable(self):
        # The error names the variable and points at it.
        for text, position in (("x + w", 4), ("x + 2*w^3", 6), ("w + x^", 0)):
            with pytest.raises(PolynomialSyntaxError, match="unknown variable 'w'") as err:
                parse_polynomial(text, V2)
            assert err.value.position == position

    def test_negative_exponent_rejected(self):
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial("x^-2", V2)
        assert err.value.position >= 0

    def test_bare_constant_rejected(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("5", V2)

    def test_garbage_rejected(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x + (y)", V2)

    EXPLICIT = {
        "x+y-z": {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): -1},
        "x^8+y^8+z^8+x^2*y^2*z^2": {(8, 0, 0): 1, (0, 8, 0): 1, (0, 0, 8): 1, (2, 2, 2): 1},
        "-2*x^3*y + 7*z^2 - x": {(3, 1, 0): -2, (0, 0, 2): 7, (1, 0, 0): -1},
        "x - x": {},
    }

    @pytest.mark.parametrize("text", EXPLICIT)
    def test_explicit_terms(self, text):
        assert parse_polynomial(text, V3) == IntPolynomial(3, self.EXPLICIT[text])

    @pytest.mark.parametrize(
        "text, position",
        [("x*", 1), ("x + y*", 5), ("3*x*y*", 5), ("x^2 + y^2*", 9), ("x*+y", 1), ("x y", 2), ("  5", 2),
         ("", 0), ("   ", 3), ("x + (y)", 2), ("x^-2", 1)],
    )
    def test_rejection_position_is_first_unreadable_term(self, text, position):
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial(text, V2)
        assert err.value.position == position


# The tokenizer and recursive-descent loop that the regex grammar replaced,
# kept as the reference for the differential test below.  It reads a "*"
# that no factor follows ("x*", "x*+y") as if it were absent.

_REF_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^]))")


def _reference_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise PolynomialSyntaxError(f"unexpected character {text[bad_at]!r}", bad_at)
        if m.group(1) is not None:
            tokens.append(("int", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    return tokens


def _reference_parse(text, variables):
    variables = list(variables)
    n = len(variables)
    var_index = {v: i for i, v in enumerate(variables)}
    tokens = _reference_tokenize(text)
    if not tokens:
        raise PolynomialSyntaxError("empty polynomial", 0)
    terms = {}
    i = 0

    def peek():
        return tokens[i] if i < len(tokens) else ("end", "", len(text))

    while True:
        sign = 1
        kind, val, pos = peek()
        if kind == "op" and val in "+-":
            sign = -1 if val == "-" else 1
            i += 1
        kind, val, pos = peek()
        coeff = 1
        expo = [0] * n
        saw_factor = False
        if kind == "int":
            coeff = int(val)
            i += 1
            kind, val, pos = peek()
            if kind == "op" and val == "*":
                i += 1
                kind, val, pos = peek()
        while True:
            kind, val, pos = peek()
            if kind != "name":
                break
            if val not in var_index:
                raise PolynomialSyntaxError(f"unknown variable {val!r}", pos)
            j = var_index[val]
            i += 1
            power = 1
            kind2, val2, pos2 = peek()
            if kind2 == "op" and val2 == "^":
                i += 1
                kind3, val3, pos3 = peek()
                if kind3 != "int":
                    raise PolynomialSyntaxError("expected a natural number after '^'", pos3)
                power = int(val3)
                i += 1
            expo[j] += power
            saw_factor = True
            kind2, val2, pos2 = peek()
            if kind2 == "op" and val2 == "*":
                i += 1
                continue
            break
        if not saw_factor:
            raise PolynomialSyntaxError("expected a variable factor", pos)
        key = tuple(expo)
        terms[key] = terms.get(key, 0) + sign * coeff
        kind, val, pos = peek()
        if kind == "end":
            break
        if kind == "op" and val in "+-":
            continue
        raise PolynomialSyntaxError(f"unexpected token {val!r}", pos)

    return IntPolynomial(n, terms)


FUZZ_TOKENS = ["x", "y", "z", "x2", "w", "2", "13", "0", "+", "-", "*", "^", "(", "x^3", "y^10", "3*", "-x", "^2"]
FUZZ_VARS = ["x", "y", "z", "x2"]
DANGLING_STAR = re.compile(r"\*(?!\s*[A-Za-z_])")


def _parse_outcome(parse, text):
    try:
        return parse(text, FUZZ_VARS)
    except PolynomialSyntaxError as exc:
        return exc


class TestParseMatchesReference:
    def test_seeded_random_strings(self):
        rng = random.Random(20261019)
        accepted = dangling_only = 0
        for _ in range(25_000):
            text = rng.choice(("", " ")) + "".join(
                rng.choice(FUZZ_TOKENS) + rng.choice(("", "", " ")) for _ in range(rng.randint(1, 7))
            )
            new, ref = _parse_outcome(parse_polynomial, text), _parse_outcome(_reference_parse, text)
            if isinstance(new, PolynomialSyntaxError):
                assert 0 <= new.position <= len(text), text
            if DANGLING_STAR.search(text):
                assert isinstance(new, PolynomialSyntaxError), text
                dangling_only += isinstance(ref, IntPolynomial)
            elif isinstance(new, IntPolynomial):
                assert isinstance(ref, IntPolynomial) and new.terms == ref.terms, text
                accepted += 1
            else:
                assert isinstance(ref, PolynomialSyntaxError), text
        # Both outcomes are well represented, so the comparison is not vacuous.
        assert accepted > 1000 and dangling_only > 100

    @pytest.mark.parametrize("text", ["x*", "x + y*", "3*x*y*", "x*+y", "x^2 + y^2*"])
    def test_dangling_star_only_reference_accepts(self, text):
        assert isinstance(_parse_outcome(_reference_parse, text), IntPolynomial)
        assert isinstance(_parse_outcome(parse_polynomial, text), PolynomialSyntaxError)


class TestFaceFunction:
    def test_octic_at_ones(self):
        f = parse_polynomial("x^8+y^8+z^8+x^2*y^2*z^2", V3)
        face = face_function(f, (1, 1, 1))
        assert face.terms == {(2, 2, 2): 1}

    def test_zero_direction_returns_whole(self):
        f = parse_polynomial("x^8+y^8+z^8+x^2*y^2*z^2", V3)
        assert face_function(f, (0, 0, 0)) == f

    def test_hyperplane_direction(self):
        f = parse_polynomial("x+y-z", V3)
        face = face_function(f, (2, 1, 1))
        assert face.terms == {(0, 1, 0): 1, (0, 0, 1): -1}

    def test_idempotent(self):
        f = parse_polynomial("x^8+y^8+z^8+x^2*y^2*z^2", V3)
        for a in [(1, 1, 1), (3, 1, 1), (0, 2, 5)]:
            face = face_function(f, a)
            assert face_function(face, a) == face

    def test_support_shrinks(self):
        f = parse_polynomial("x^8+y^8+z^8+x^2*y^2*z^2", V3)
        for a in [(1, 1, 1), (2, 1, 1), (1, 0, 0)]:
            face = face_function(f, a)
            assert set(face.terms) <= set(f.terms)
            dots = {sum(ai * mi for ai, mi in zip(a, m)) for m in face.terms}
            assert len(dots) == 1

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            face_function(IntPolynomial(2), (1, 1))


class TestEvaluate:
    def test_linear(self):
        f = parse_polynomial("x+y-z", V3)
        assert evaluate_mod(f, (1, 2, 3), 5) == 0

    def test_octic_at_ones_mod5(self):
        f = parse_polynomial("x^8+y^8+z^8+x^2*y^2*z^2", V3)
        assert evaluate_mod(f, (1, 1, 1), 5) == 4

    def test_prime_power_modulus(self):
        f = parse_polynomial("x^2+y^2", V2)
        assert evaluate_mod(f, (1, 2), 9) == 5

    def test_reduction_tower(self):
        f = parse_polynomial("2x^3 - 3*x*y + y", V2)
        for pt in [(4, 7), (12, 5), (0, 8)]:
            assert evaluate_mod(f, pt, 125) % 25 == evaluate_mod(f, pt, 25)
            assert evaluate_mod(f, pt, 25) % 5 == evaluate_mod(f, pt, 5)


class TestGrid:
    def test_overflow_guard(self):
        f = parse_polynomial("x^2+x", ["x"])
        below = 3037000499  # largest modulus with modulus^2 < 2^63
        x = np.array([below - 1], dtype=np.int64)
        assert eval_on_grid(f, [x], below).tolist() == [evaluate_mod(f, (below - 1,), below)]
        with pytest.raises(ModulusOverflowError):
            eval_on_grid(f, [x], below + 1)

    def test_narrow_integer_coordinates(self):
        # The modulus passes the overflow guard, but int32 products of
        # residues near 50021 overflow unless the coordinates are widened.
        f = parse_polynomial("x^2+x*y", V2)
        x, y = np.array([50000, 49999], dtype=np.int32), np.array([49000, 3], dtype=np.int32)
        values = eval_on_grid(f, [x, y], 50021)
        assert values.dtype == np.int64 and values.tolist() == [21882, 418]
        assert values.tolist() == [evaluate_mod(f, pt, 50021) for pt in [(50000, 49000), (49999, 3)]]

    @pytest.mark.parametrize("modulus", [2, 7, 125, 50021, 3037000499])
    def test_matches_evaluate_mod(self, modulus):
        # Exponents 0, 1, odd and even; coefficients 1, -1 and = 0 mod the
        # modulus; a constant term.  x holds residues, y negative integers
        # and z values on both sides of [0, modulus).
        f = IntPolynomial(3, {
            (0, 0, 0): 5, (1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 1): -3, (3, 0, 2): 1, (2, 5, 0): -1,
            (0, 4, 7): modulus, (1, 1, 1): 2 * modulus - 1, (8, 0, 0): 7, (0, 6, 3): 2,
        })
        rng = np.random.default_rng(modulus)
        coords = [
            np.append(rng.integers(0, modulus, 60), [0, modulus - 1]),
            np.append(rng.integers(-3 * modulus, 0, 60), [-1, -modulus]),
            np.append(rng.integers(-2 * modulus, 3 * modulus, 60), [modulus, 3 * modulus - 1]),
        ]
        expected = [evaluate_mod(f, pt, modulus) for pt in zip(*(x.tolist() for x in coords))]
        assert eval_on_grid(f, coords, modulus).tolist() == expected
        zero = IntPolynomial(2, {(2, 1): modulus, (0, 3): -modulus})
        assert eval_on_grid(zero, coords[:2], modulus).tolist() == [0] * len(coords[0])
        empty = eval_on_grid(f, [np.array([], dtype=np.int64)] * 3, modulus)
        assert empty.dtype == np.int64 and empty.shape == (0,)

    @pytest.mark.parametrize("modulus", [2, 5, 3037000499])
    @pytest.mark.parametrize("e", [64, 2001])
    def test_large_exponents(self, modulus, e):
        # Squares past 2^63 at every modulus above 2, unless reduced.
        f = IntPolynomial(2, {(e, 0): 1, (1, e): -1, (e, e): 3})
        x = np.array([0, 1, 2, modulus - 1, 3 % modulus, 12345 % modulus], dtype=np.int64)
        y = np.array([modulus - 1, 0, 1, 2, modulus - 2, 7 % modulus], dtype=np.int64)
        expected = [evaluate_mod(f, pt, modulus) for pt in zip(x.tolist(), y.tolist())]
        assert eval_on_grid(f, [x, y], modulus).tolist() == expected

    def test_running_sum_is_reduced(self):
        # 64 terms of value (modulus - 1)^2 before reduction: their sum would
        # pass 2^63 unless the running total is reduced on the way.
        modulus = 3037000499
        f = IntPolynomial(2, {(k, 63 - k): modulus - 1 for k in range(64)})
        x = np.array([modulus - 1, 1, 2, modulus - 2], dtype=np.int64)
        y = np.array([modulus - 1, modulus - 1, 3, 5], dtype=np.int64)
        expected = [evaluate_mod(f, pt, modulus) for pt in zip(x.tolist(), y.tolist())]
        assert eval_on_grid(f, [x, y], modulus).tolist() == expected

    def test_constant_only(self):
        x = np.array([0, 4, -9], dtype=np.int64)
        assert eval_on_grid(IntPolynomial(1, {(0,): -3}), [x], 7).tolist() == [4, 4, 4]
        assert eval_on_grid(IntPolynomial(1, {(0,): 14}), [x], 7).tolist() == [0, 0, 0]

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    @pytest.mark.parametrize("signed", [False, True])
    def test_coordinates_unchanged(self, dtype, signed):
        # x, y and x*y alone, a power of each, and a coefficient: every way a
        # term can start from, or be, a caller's coordinate array.
        modulus = 50021
        rng = np.random.default_rng(7)
        coords = [rng.integers(-modulus if signed else 0, modulus, 40).astype(dtype) for _ in range(2)]
        before = [x.copy() for x in coords]
        points = list(zip(*(x.tolist() for x in coords)))
        for terms in ({(1, 0): 1, (0, 1): 1, (1, 1): 1, (5, 0): 2, (0, 3): -1}, {(1, 0): 1}, {(0, 1): 1}):
            f = IntPolynomial(2, terms)
            values = eval_on_grid(f, coords, modulus)
            assert values.tolist() == [evaluate_mod(f, pt, modulus) for pt in points]
            assert not any(np.shares_memory(values, x) for x in coords)
        for x, old in zip(coords, before):
            assert x.dtype == dtype and np.array_equal(x, old)

    def test_seeded_sweep_against_evaluate_mod(self):
        # Large moduli, exponents and term counts, so that products and sums
        # are reduced at every point the bounds allow.
        rng = random.Random(20261020)
        for _ in range(200):
            n = rng.randint(1, 4)
            modulus = rng.choice([3, 23, 47**4, 2**31 - 1, rng.randint(2, 3037000499), 3037000499])
            terms = {
                tuple(rng.choice([0, 0, 1, 2, 7, 64, rng.randint(0, 300)]) for _ in range(n)):
                rng.choice([1, -1, modulus - 1, rng.randint(-10**20, 10**20)])
                for _ in range(rng.randint(1, 12))
            }
            f = IntPolynomial(n, terms)
            points = [tuple(rng.choice([0, modulus - 1, rng.randint(-2 * modulus, 2 * modulus)]) for _ in range(n)) for _ in range(20)]
            coords = [np.array(x, dtype=np.int64) for x in zip(*points)]
            assert eval_on_grid(f, coords, modulus).tolist() == [evaluate_mod(f, pt, modulus) for pt in points]

    def test_chunks_cover_grid_in_order(self, monkeypatch):
        monkeypatch.setattr(polycore, "GRID_CHUNK", 7)
        chunks = list(product_chunks([[1, 2, 4]] * 3))
        assert [len(c[0]) for c in chunks] == [7, 7, 7, 6]
        points = [tuple(x[k] for x in c) for c in chunks for k in range(len(c[0]))]
        # coordinate 0 varies fastest
        assert points == [z[::-1] for z in product([1, 2, 4], repeat=3)]

    def test_product_chunks_mixed_axes(self, monkeypatch):
        monkeypatch.setattr(polycore, "GRID_CHUNK", 4)
        axes = [[1, 2, 3], [5], [2, 7]]
        chunks = list(product_chunks(axes))
        assert [len(c[0]) for c in chunks] == [4, 2]
        points = [tuple(x[k] for x in c) for c in chunks for k in range(len(c[0]))]
        assert points == [z[::-1] for z in product(*axes[::-1])]

    @pytest.mark.parametrize("grid_chunk", [1, 3, 7, 64, 1 << 20])
    def test_chunks_match_reference(self, monkeypatch, grid_chunk):
        monkeypatch.setattr(polycore, "GRID_CHUNK", grid_chunk)
        rng = np.random.default_rng(grid_chunk)
        cases = [[rng.integers(-40, 40, rng.integers(1, 9)) for _ in range(rng.integers(1, 6))] for _ in range(30)]
        # Later strides past the chunk (8 * 9 > 64), a length-1 axis, an
        # axis longer than the chunk, and an empty product.
        cases += [[np.arange(8), np.arange(9), np.arange(5), [3], np.arange(4)], [np.arange(70)], [np.arange(3), []]]
        strides_past_chunk = 0
        for axes in cases:
            chunks = list(product_chunks(axes))
            expected = list(polycore_reference.product_chunks(axes))
            assert len(chunks) == len(expected)
            for chunk, ref in zip(chunks, expected):
                assert len(chunk) == len(ref)
                for x, y in zip(chunk, ref):
                    assert x.dtype == np.int64 and len(x) <= grid_chunk and x.tolist() == y.tolist()
            strides_past_chunk += any(np.prod([len(a) for a in axes[:j]]) > grid_chunk for j in range(len(axes)))
        assert strides_past_chunk or grid_chunk == 1 << 20


class TestPrimitiveRoot:
    def test_order_is_p_minus_1(self):
        primes = [p for p in range(3, 200) if all(p % d for d in range(2, p))]
        assert len(primes) == 45
        for p in primes:
            g = primitive_root(p)
            order, acc = 1, g % p
            while acc != 1:
                acc = acc * g % p
                order += 1
            assert order == p - 1, p


class TestSystemAndContext:
    def test_convenient_example(self):
        sys71 = PolySystem(
            3,
            [
                parse_polynomial("x+y-z", V3),
                parse_polynomial("x^8+y^8+z^8+x^2*y^2*z^2", V3),
            ],
        )
        assert is_convenient(sys71).convenient

    def test_not_convenient(self):
        sys_ = PolySystem(2, [parse_polynomial("x*y", V2)])
        report = is_convenient(sys_)
        assert not report.convenient
        assert set(report.missing) == {(0, 0), (0, 1)}

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_power_family_convenient(self, k):
        sys_ = PolySystem(
            2,
            [
                parse_polynomial(f"x^{k}+y^{k}", V2),
                parse_polynomial("x^4+y^4+x*y", V2),
            ],
        )
        assert is_convenient(sys_).convenient

    def test_system_size_bounds(self):
        f = parse_polynomial("x+y", V2)
        with pytest.raises(ValueError):
            PolySystem(2, [f, f, f])

    def test_constant_term_rejected(self):
        f = IntPolynomial(2, {(0, 0): 1, (1, 0): 1})
        with pytest.raises(ValueError):
            PolySystem(2, [f])

    def test_prime_context(self):
        assert PrimeContext(5).q == 5
        for bad in (2, 4, 9, 1):
            with pytest.raises(ValueError):
                PrimeContext(bad)

    def test_partial_derivative(self):
        f = parse_polynomial("x^2*y + 3*y^2", V2)
        assert f.partial(0).terms == {(1, 1): 2}
        assert f.partial(1).terms == {(2, 0): 1, (0, 1): 6}


def _trial_division_is_prime(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


class TestPrimality:
    def test_agrees_with_trial_division(self):
        assert [n for n in range(20000) if polycore._is_prime(n)] == [
            n for n in range(20000) if _trial_division_is_prime(n)
        ]

    def test_rejects_strong_pseudoprimes(self):
        # A Carmichael number, then strong pseudoprimes to bases 2, 3, 5, 7;
        # to every base up to 31; and to every base up to 37.
        for n in (561, 3215031751, 3825123056546413051, 318665857834031151167461):
            assert not polycore._is_prime(n)

    def test_accepts_large_prime_fast(self):
        start = time.perf_counter()
        assert PrimeContext(10**18 + 3).q == 10**18 + 3
        assert time.perf_counter() - start < 0.1

    def test_refuses_at_the_exact_bound(self):
        # The bound itself is composite and a strong pseudoprime to all 13 bases.
        assert not polycore._is_prime(polycore.MR_EXACT_BELOW - 1)
        with pytest.raises(ValueError, match=str(polycore.MR_EXACT_BELOW)):
            PrimeContext(polycore.MR_EXACT_BELOW)

    def test_large_prime_job_refused_by_budget(self):
        # Ex. 7.1 at p = 10^18 + 3: the prime is accepted at once and the
        # non-degeneracy budget refuses the (p-1)^2 points of a scan.
        from igusa.cli import parse_config, run

        p = 10**18 + 3
        cfg = parse_config(f"vars = x, y, z\nprime = {p}\n[polys]\nx+y-z\nx^8+y^8+z^8+x^2*y^2*z^2\n")
        cfg.mode = "check"
        with pytest.raises(BudgetExceededError) as info:
            run(cfg)
        assert info.value.required == (p - 1) ** 2
