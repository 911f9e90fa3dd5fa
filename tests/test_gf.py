import itertools
import math
import random

import pytest

from gfalign import (FieldMismatch, FieldSpec, Mat, NotPrime, NotPrimitive, Poly,
                     TooLarge, conjugates, format_element, make_field, minpoly_degree,
                     parse_element, parse_poly, prime_field,
                     primitive_element)
from gfalign import gf
from gfalign.gf import (_PSI_13, _TRIAL_LIMIT, _code_to_coeffs, _default_modulus,
                        _randbelow, _randbelow_blocks, is_prime, prime_factors)
from oracles import (add_code, default_modulus_by_scan, dense_tables,
                     is_prime_by_trial_division, log_walk, mul_code, neg_code,
                     pow_code, prime_factors_by_trial_division)


def brute_order(e):
    """Multiplicative order by repeated multiplication."""
    assert e.code != 0
    acc = e
    k = 1
    while acc != e.spec.one:
        acc = acc * e
        k += 1
    return k


class TestConstruction:
    def test_ground_field_default_modulus_is_x(self):
        spec = make_field(2, 1)
        assert spec.modulus_coeffs == (0, 1)
        assert spec.order == 2

    def test_f4_default_modulus(self):
        # x^2+x+1 is the unique primitive quadratic over GF(2)
        assert make_field(2, 2).modulus_coeffs == (1, 1, 1)

    def test_explicit_f4_modulus_accepted(self):
        assert make_field(2, 2, [1, 1, 1]).modulus_coeffs == (1, 1, 1)
        # implicit leading coefficient
        assert make_field(2, 2, [1, 1]).modulus_coeffs == (1, 1, 1)

    def test_reducible_modulus_rejected(self):
        # x^2+1 = (x+1)^2 over GF(2)
        with pytest.raises(NotPrimitive):
            make_field(2, 2, [1, 0, 1])

    def test_irreducible_but_not_primitive_rejected(self):
        # x^4+x^3+x^2+x+1 divides x^5-1, so the class of x has order 5 < 15
        with pytest.raises(NotPrimitive):
            make_field(2, 4, [1, 1, 1, 1, 1])

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            make_field(4, 2)
        with pytest.raises(NotPrime):
            make_field(1, 1)

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            make_field(2, 0)

    def test_modulus_length_mismatch(self):
        with pytest.raises(ValueError):
            make_field(2, 2, [1, 1, 1, 1])

    def test_nonmonic_rejected(self):
        with pytest.raises(ValueError):
            make_field(3, 2, [1, 1, 2])
        with pytest.raises(ValueError, match="monic"):
            make_field(3, 2, parse_poly(3, "2x^2+x+1"))

    @pytest.mark.parametrize("p,m,text", [
        (3, 2, "x+2"), (2, 2, "x+1"), (2, 2, "[1,1,0]"), (2, 2, "2x^2+x+1"),
        (2, 3, "x^2+x+1"), (2, 2, "x^3+x+1"), (2, 2, "0")])
    def test_polynomial_of_wrong_degree_rejected(self, p, m, text):
        # a polynomial is never read as the m low coefficients: x+2 is not
        # x^2 + x + 2, and 2x^2 + x + 1 over GF(2) has degree 1
        with pytest.raises(ValueError, match=f"modulus must have degree {m}"):
            make_field(p, m, parse_poly(p, text))

    @pytest.mark.parametrize("p,m,pi", [
        (2, 2, [3, 1, 1]), (2, 2, [1, 1, 3]), (3, 2, [5, 1]), (3, 2, [-1, 1]),
        (5, 1, [5])])
    def test_list_modulus_outside_field_rejected(self, p, m, pi):
        # a list entry is a coefficient in [0, p), never reduced mod p: at
        # p = 2, [3, 1, 1] is not 1 + x + x^2 and [1, 1, 3] is not monic
        with pytest.raises(ValueError, match=r"must lie in \[0, "):
            make_field(p, m, pi)
        with pytest.raises(ValueError, match=r"must lie in \[0, "):
            parse_poly(p, str(pi))

    def test_text_modulus_reads_signed_coefficients(self):
        assert make_field(2, 2, parse_poly(2, "x^2 - x - 1")).modulus_coeffs \
            == (1, 1, 1)
        assert make_field(3, 2, parse_poly(3, "x^2 - x - 1")).modulus_coeffs \
            == (2, 2, 1)

    def test_polynomial_of_degree_m_accepted(self):
        assert make_field(3, 2, parse_poly(3, "x^2+x+2")).modulus_coeffs == (2, 1, 1)
        assert make_field(2, 2, Poly(prime_field(2), [1, 1, 1])).modulus_coeffs \
            == (1, 1, 1)
        # a plain list of length m stays the low-coefficient form
        assert make_field(3, 2, [2, 1]).modulus_coeffs == (2, 1, 1)

    def test_default_moduli_are_lex_smallest(self):
        # oracle: first candidate (low-degree-first lexicographic order)
        # whose class of x has full multiplicative order
        for p, m in [(2, 2), (2, 3), (3, 2)]:
            spec = make_field(p, m)
            seen = []
            for cand in itertools.product(range(p), repeat=m):
                try:
                    s = make_field(p, m, list(cand) + [1])
                except NotPrimitive:
                    continue
                if brute_order(primitive_element(s)) == p ** m - 1:
                    seen.append(cand)
                    break
            assert seen[0] == spec.pi

    def test_default_modulus_skips_only_dead_codes(self):
        # the search starts at the first code with a nonzero constant term;
        # compare it, uncached, with a scan over every code
        _default_modulus.cache_clear()
        for p, top in ((2, 12), (3, 7), (5, 5), (7, 4), (11, 3), (13, 3)):
            for m in range(1, top + 1):
                assert _default_modulus(p, m) == default_modulus_by_scan(p, m)

    @pytest.mark.parametrize("p,m,terms", [
        (2, 61, {0: 1, 56: 1, 59: 1, 60: 1}), (2, 64, {0: 1, 60: 1, 61: 1, 63: 1}),
        (3, 40, {0: 2, 39: 1}), (7, 20, {0: 3, 18: 1, 19: 1}), (101, 3, {0: 2, 2: 2})])
    def test_default_modulus_pinned(self, p, m, terms):
        # the nonzero low coefficients of the default modulus, as found by the
        # order test that exponentiated before factoring; the oracle scan
        # shares _passes_order_test, so these values are the independent check
        pi = make_field(p, m).pi
        assert len(pi) == m and {i: c for i, c in enumerate(pi) if c} == terms

    def test_wide_order_refused_before_exponentiating(self, monkeypatch):
        # 2^200 - 1 leaves a composite cofactor past the trial limit; the
        # factors are asked for first, so make_field refuses before its
        # first exponentiation
        def exponentiate(*args):
            raise AssertionError("exponentiated before factoring")

        monkeypatch.setattr(gf, "_pow_coeffs", exponentiate)
        with pytest.raises(TooLarge, match="trial division"):
            make_field(2, 200)

    def test_constructor_validates_like_make_field(self):
        # a coefficient outside [0, p) is refused, never reduced mod p
        with pytest.raises(ValueError, match=r"must lie in \[0, 2\)"):
            FieldSpec(2, 2, (3, 1))
        with pytest.raises(NotPrime):
            FieldSpec(4, 1, (0,))
        with pytest.raises(ValueError):
            FieldSpec(2, 0, ())
        with pytest.raises(ValueError, match="monic"):
            FieldSpec(3, 2, (1, 1, 2))
        assert FieldSpec(2, 2, (1, 1)) == make_field(2, 2)
        assert FieldSpec(2, 2, (1, 1, 1)).pi == (1, 1)

    def test_is_prime_matches_trial_division(self):
        # Chernick's Carmichael numbers (6k+1)(12k+1)(18k+1), with all three
        # factors prime, pass Fermat's test to every base prime to them
        plain = is_prime_by_trial_division
        carmichael = [(6 * k + 1) * (12 * k + 1) * (18 * k + 1)
                      for k in range(1, 200)
                      if all(map(plain, (6 * k + 1, 12 * k + 1, 18 * k + 1)))]
        assert carmichael[:3] == [1729, 294409, 56052361] and len(carmichael) >= 10
        # an even n with a large cofactor must stop at its divisor 2
        for n in [*range(-50, 2 * 10 ** 5), 1000003, 999983 * 1000003,
                  2 * 1000000000039, 561, 1105, 2465, 2821, 6601, *carmichael]:
            assert is_prime(n) == plain(n), n
        assert is_prime(1000003) and not is_prime(999983 * 1000003)

    def test_prime_is_tested_once(self, monkeypatch):
        calls = []

        def counted(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(gf, "is_prime", counted)
        monkeypatch.setattr(gf, "_PRIMES", set())
        make_field(65537, 1)
        assert calls == [65537]
        make_field(65537, 1)
        prime_field(65537)
        gf.check_field_params(65537, 3)
        assert calls == [65537]
        # an equal value of another type is not the cached prime
        for p in (65537.0, 5.0, True):
            with pytest.raises(NotPrime):
                make_field(p, 1)
        with pytest.raises(NotPrime):
            make_field(65535, 1)

    def test_is_prime_beyond_trial_division(self):
        assert is_prime(2 ** 61 - 1) and is_prime(2 ** 31 - 1)
        # strong pseudoprimes to the first 9 and the first 12 prime bases
        for n, factors in ((3825123056546413051, (149491, 747451, 34233211)),
                           (318665857834031151167461, (399165290221, 798330580441))):
            assert math.prod(factors) == n and not is_prime(n)
        # the least strong pseudoprime to all 13 bases, and 2^89 - 1 beyond it
        for n in (3317044064679887385961981, 2 ** 89 - 1):
            with pytest.raises(TooLarge, match="primality"):
                is_prime(n)

    def test_prime_factors_match_trial_division(self):
        plain = prime_factors_by_trial_division
        for n in range(1, 2 * 10 ** 5 + 1):
            assert prime_factors(n) == plain(n), n

    @pytest.mark.parametrize("p,m", [
        *((2, m) for m in range(1, 25)), *((3, m) for m in range(1, 13)),
        *((5, m) for m in range(1, 7)), (1009, 1), (1009, 2), (2, 120), (3, 40)])
    def test_field_orders_factor_as_by_trial_division(self, p, m):
        # every field the golden cases build (extension fields included), and
        # 2^120 - 1, above _PSI_13, whose last cofactor 4562284561 is prime
        n = p ** m - 1
        assert prime_factors(n) == prime_factors_by_trial_division(n)

    def test_prime_factors_stop_at_a_prime_cofactor(self):
        # trial division to the root of 2^61 - 1 or of the safe prime's
        # cofactor would take 10^9 steps; each is prime, so the answer is read
        # back by multiplying out and by is_prime
        safe = 1000000000000007243
        for n, want in ((2 ** 61 - 1, [2 ** 61 - 1]), (safe - 1, [2, (safe - 1) // 2]),
                        (safe, [safe]), (2 * 3 ** 5 * (2 ** 61 - 1), [2, 3, 2 ** 61 - 1])):
            assert prime_factors(n) == want and all(map(is_prime, want))

    def test_prime_factors_refuse_past_the_trial_limit(self):
        big = [q for q in range(_TRIAL_LIMIT + 1, _TRIAL_LIMIT + 200) if is_prime(q)][:2]
        # a composite cofactor with no factor below the limit, and cofactors
        # at or above _PSI_13, whose primality is not decided
        for n in (big[0] * big[1], 2 ** 89 - 1, 6 * (2 ** 89 - 1), _PSI_13):
            with pytest.raises(TooLarge, match="trial division"):
                prime_factors(n)
        # a factor at the limit is still found by trial division
        small = max(q for q in range(_TRIAL_LIMIT - 100, _TRIAL_LIMIT + 1) if is_prime(q))
        assert prime_factors(small ** 2) == [small]
        assert prime_factors(small * big[0]) == [small, big[0]]

    def test_spec_caching_and_equality(self):
        assert make_field(2, 3) is make_field(2, 3)
        assert make_field(2, 3, [1, 0, 1, 1]) is make_field(2, 3)  # the default, spelled out
        assert make_field(2, 4, [1, 0, 0, 1, 1]) is make_field(2, 4)  # with its leading 1
        other = make_field(2, 3, [1, 1, 0, 1])                     # x^3+x+1
        assert other != make_field(2, 3)


class TestArithmetic:
    def test_inequality_inverts_equality(self):
        # Python's default __ne__ negates __eq__ and falls back to identity
        # when __eq__ returns NotImplemented
        f4, f8 = make_field(2, 2), make_field(2, 3)
        one = Poly(prime_field(2), [1])
        pairs = [(f4.one, f4.element(1), f4.zero), (f4, make_field(2, 2), f8),
                 (Mat.identity(f4, 2), Mat.identity(f4, 2), Mat.zeros(f4, 2, 2)),
                 (one, Poly(prime_field(2), [1, 0]), Poly(prime_field(2), [0, 1]))]
        for value, equal, other in pairs:
            assert (value != equal) is False and (value != other) is True
            assert (value != "x") is True and (value != None) is True  # noqa: E711
        assert (f4.one != f8.one) is True

    def test_f4_table(self):
        f4 = make_field(2, 2)
        a = primitive_element(f4)
        assert (a * a).coeffs == (1, 1)          # a^2 = 1 + a
        assert a.inv().coeffs == (1, 1)          # a * (1+a) = 1
        assert (a ** 3) == f4.one

    def test_additive_inverse(self):
        for spec in [make_field(2, 2), make_field(3, 2), make_field(5, 1)]:
            for e in spec.elements():
                assert e + (-e) == spec.zero

    @pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2)])
    def test_field_axioms_exhaustive(self, p, m):
        spec = make_field(p, m)
        elems = list(spec.elements())
        one, zero = spec.one, spec.zero
        for a in elems:
            assert a + zero == a and a * one == a
            if a.code:
                assert a * a.inv() == one
            for b in elems:
                assert a + b == b + a
                assert a * b == b * a
                for c in elems:
                    assert (a + b) + c == a + (b + c)
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c

    def test_generic_path_matches_tables(self):
        # interned orders run on the log/antilog/Zech tables and, above the
        # interning limit, on raw polynomial arithmetic
        big = make_field(3, 7)       # 2187 elements: table path
        assert big._log is not None and len(big._zech) == big.order - 1
        huge = make_field(2, 17)     # 131072: generic path
        assert huge._log is None
        import random
        rng = random.Random(0)
        for spec in (big, huge):
            for _ in range(50):
                x = spec.random_element(rng, nonzero=True)
                y = spec.random_element(rng, nonzero=True)
                assert (x * y) * y.inv() == x
                assert x ** (spec.order - 1) == spec.one

    def test_pow_conventions(self):
        f4 = make_field(2, 2)
        a = primitive_element(f4)
        assert a ** 0 == f4.one
        assert a ** -1 == a.inv()
        assert f4.zero ** 0 == f4.one
        assert f4.zero ** 5 == f4.zero
        with pytest.raises(ZeroDivisionError):
            f4.zero ** -1

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            make_field(2, 2).zero.inv()

    def test_field_mismatch(self):
        a = primitive_element(make_field(2, 2))
        b = primitive_element(make_field(2, 3))
        with pytest.raises(FieldMismatch):
            a + b
        with pytest.raises(FieldMismatch):
            a * b
        # same (p, m) but different modulus is a different context
        c = primitive_element(make_field(2, 3, [1, 1, 0]))
        with pytest.raises(FieldMismatch):
            b + c

    def test_int_operands_are_constants(self):
        f9 = make_field(3, 2)
        a = primitive_element(f9)
        assert a + 0 == a
        assert a * 1 == a
        assert 2 * a == a + a
        assert (a + 3) == a          # constants reduce mod p


SMALL_FIELDS = [(p, m) for p in (2, 3, 5, 7) for m in range(1, 9)
                if p ** m <= 256]
SEEDED_FIELDS = [(7, 3), (2, 9), (3, 6), (2, 12), (3, 7), (2, 16)]
EXPONENTS = (0, 1, 2, 3, 5, -1, -2, 1000)


ALL_FIELDS_TO_256 = [(p, m) for p in range(2, 257) if is_prime(p)
                     for m in range(1, 9) if p ** m <= 256]


class TestTablesAgainstOracle:
    """Log, antilog and Zech tables against coefficient arithmetic."""

    @pytest.mark.parametrize("p,m", ALL_FIELDS_TO_256 + [(2, 16)])
    def test_log_tables_match_product_walk(self, p, m):
        spec = make_field(p, m)
        assert (spec._log, spec._exp) == log_walk(spec)
        assert [e.coeffs for e in spec.elements()] == [
            _code_to_coeffs(c, p, m) for c in range(spec.order)]

    def check_unary(self, spec, x):
        a = x.code
        assert (-x).code == neg_code(spec, a)
        if a:
            assert x.inv().code == pow_code(spec, a, -1)
            for e in EXPONENTS:
                assert (x ** e).code == pow_code(spec, a, e)

    @pytest.mark.parametrize("p,m", SMALL_FIELDS)
    def test_exhaustive(self, p, m):
        spec = make_field(p, m)
        add_t, mul_t = dense_tables(spec)
        neg = [neg_code(spec, c) for c in range(spec.order)]
        elems = list(spec.elements())
        for x in elems:
            self.check_unary(spec, x)
            row_add, row_mul = add_t[x.code], mul_t[x.code]
            for y in elems:
                b = y.code
                assert (x + y).code == row_add[b]
                assert (x - y).code == row_add[neg[b]]
                assert (x * y).code == row_mul[b]

    @pytest.mark.parametrize("p,m", SEEDED_FIELDS)
    def test_seeded_pairs(self, p, m):
        import random
        spec = make_field(p, m)
        rng = random.Random(p * 100 + m)
        pairs = [(spec.random_element(rng), spec.random_element(rng))
                 for _ in range(300)]
        x = spec.random_element(rng, nonzero=True)
        pairs += [(spec.zero, x), (x, spec.zero), (spec.zero, spec.zero),
                  (x, x), (x, -x), (spec.one, -spec.one)]
        for x, y in pairs:
            self.check_unary(spec, x)
            a, b = x.code, y.code
            assert (x + y).code == add_code(spec, a, b)
            assert (x - y).code == add_code(spec, a, neg_code(spec, b))
            assert (x * y).code == mul_code(spec, a, b)


class TestPrimitiveElement:
    def test_ground_fields(self):
        assert primitive_element(make_field(2, 1)).code == 1
        assert primitive_element(make_field(3, 1)).code == 2
        assert primitive_element(make_field(5, 1)).code == 2
        assert primitive_element(make_field(7, 1)).code == 3

    def test_extension_is_class_of_x(self):
        f4 = make_field(2, 2)
        assert primitive_element(f4).coeffs == (0, 1)
        f8 = make_field(2, 3, [1, 1, 0, 1])   # x^3+x+1
        g = primitive_element(f8)
        assert g.coeffs == (0, 1, 0)
        assert brute_order(g) == 7

    @pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (3, 2), (5, 1)])
    def test_full_order(self, p, m):
        spec = make_field(p, m)
        assert brute_order(primitive_element(spec)) == spec.order - 1


class TestMinpolyDegree:
    def test_zero_has_degree_one(self):
        assert minpoly_degree(make_field(2, 3).zero) == 1

    @pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (3, 2)])
    def test_degree_divides_m(self, p, m):
        spec = make_field(p, m)
        for e in spec.elements():
            assert m % minpoly_degree(e) == 0

    def test_conjugate_orbit_matches_degree(self):
        spec = make_field(2, 4)
        for e in spec.elements():
            assert len(conjugates(e)) == minpoly_degree(e)


class TestNotation:
    def test_power_roundtrip(self):
        # 'a^k' is an input notation: a^0 .. a^6 and a^inf name every
        # element of GF(8) once, and a^k equals the k-th generator power
        f8 = make_field(2, 3)
        a = primitive_element(f8)
        named = [parse_element(f8, f"a^{k}") for k in range(7)]
        assert named == [a ** k for k in range(7)]
        assert parse_element(f8, "a^inf") == f8.zero
        assert set(named) | {f8.zero} == set(f8.elements())
        assert parse_element(f8, "a^7") == f8.one

    def test_coeff_roundtrip(self):
        f9 = make_field(3, 2)
        for e in f9.elements():
            assert parse_element(f9, format_element(e)) == e

    def test_int_constant(self):
        f9 = make_field(3, 2)
        assert parse_element(f9, 2) == f9.element(2)

    def test_bad_string(self):
        with pytest.raises(ValueError):
            parse_element(make_field(2, 2), "b^2")

    def test_lift(self):
        gf2 = prime_field(2)
        f4 = make_field(2, 2)
        assert gf2.one.lift(f4) == f4.one
        with pytest.raises(FieldMismatch):
            primitive_element(f4).lift(make_field(2, 3))


class TestRandbelow:
    """_randbelow is rng.randrange on a random.Random at the cost of its
    generator words: the same values and the same state afterwards.  n = 1
    still uses words, and 2^k takes k + 1 bits."""

    SIZES = [1, 2, 3, 4, 5, 7, 8, 9, 1009, 2 ** 16 + 1, 4294967291, 2 ** 32,
             2 ** 32 + 15, 3 ** 40]

    @pytest.mark.parametrize("n", SIZES)
    def test_matches_randrange(self, n):
        for seed in range(20):
            rng, ref = random.Random(seed), random.Random(seed)
            assert [_randbelow(rng, n) for _ in range(40)] == \
                [ref.randrange(n) for _ in range(40)], seed
            assert rng.getstate() == ref.getstate(), seed

    @pytest.mark.parametrize("n", [n for n in SIZES if n > 1])
    def test_matches_randrange_from_one(self, n):
        for seed in range(20):
            rng, ref = random.Random(seed), random.Random(seed)
            assert [1 + _randbelow(rng, n - 1) for _ in range(40)] == \
                [ref.randrange(1, n) for _ in range(40)], seed
            assert rng.getstate() == ref.getstate(), seed

    @pytest.mark.parametrize("p,m", [(2, 1), (2, 3), (3, 2), (2, 20)])
    def test_random_element_matches_randrange(self, p, m):
        spec = make_field(p, m)
        for nonzero in (False, True):
            rng, ref = random.Random(p * m), random.Random(p * m)
            got = [spec.random_element(rng, nonzero).code for _ in range(200)]
            assert got == [ref.randrange(int(nonzero), spec.order) for _ in range(200)]
            assert rng.getstate() == ref.getstate()


class TestRandbelowBlocks:
    """_randbelow_blocks yields the values of rng.randrange(n) in blocks and,
    once closed, leaves rng as randrange would: for top bytes decoded in
    bulk (n < 256), with chunks of the default size and of 1-3 words, so
    that blocks end on and across chunk boundaries, and for one _randbelow
    per value above, where the chunk size plays no part."""

    SIZES = [1, 2, 3, 5, 7, 128, 129, 251, 255, 256, 257, 1009, 65537,
             2 ** 31 - 1, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 15, 2 ** 61 - 1, 3 ** 50]

    @pytest.mark.parametrize("chunk", [None, 1, 2, 3])
    @pytest.mark.parametrize("n", SIZES)
    def test_matches_randrange(self, n, chunk, monkeypatch):
        if chunk:
            monkeypatch.setattr(gf, "_CHUNK_WORDS", chunk)
        for seed in range(8):
            for size, count in ((1, 1), (4, 3), (9, 40), (36, 7)):
                rng, ref = random.Random(seed), random.Random(seed)
                blocks = _randbelow_blocks(rng, n, size)
                got = [list(next(blocks)) for _ in range(count)]
                blocks.close()
                assert got == [[ref.randrange(n) for _ in range(size)]
                               for _ in range(count)], (seed, size)
                assert rng.getstate() == ref.getstate(), (seed, size)

    def test_unstarted_generator_draws_nothing(self):
        rng = random.Random(5)
        state = rng.getstate()
        _randbelow_blocks(rng, 3, 4).close()
        assert rng.getstate() == state

    def test_close_inside_a_chunk_rewinds_its_tail(self):
        # the first chunk holds size attempts; with n = 2 about half of them
        # are rejected, so a second block comes from a later chunk
        rng, ref = random.Random(1), random.Random(1)
        blocks = _randbelow_blocks(rng, 2, 64)
        assert [list(next(blocks)) for _ in range(2)] == \
            [[ref.randrange(2) for _ in range(64)] for _ in range(2)]
        blocks.close()
        assert rng.getstate() == ref.getstate()
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("fail_at", [1, 2, 5, 40, 130, 131])
    def test_error_inside_the_draw_rewinds_to_the_last_block(self, monkeypatch, fail_at):
        # one-word chunks: most draws end without a new block, so the error
        # hits after a chunk none of whose values was yielded, or mid-block
        monkeypatch.setattr(gf, "_CHUNK_WORDS", 1)

        class Failing(random.Random):
            calls = 0

            def getrandbits(self, k):
                Failing.calls += 1
                if Failing.calls == fail_at:
                    raise MemoryError
                return super().getrandbits(k)

        rng, ref = Failing(3), random.Random(3)
        blocks = _randbelow_blocks(rng, 2, 16)
        got = []
        with pytest.raises(MemoryError):
            for block in blocks:
                got.append(list(block))
        assert got == [[ref.randrange(2) for _ in range(16)] for _ in got]
        assert rng.getstate() == ref.getstate()
