import itertools

import pytest

from gfalign import (FieldMismatch, Poly, TooLarge, count_irreducible, divisors,
                     factor_poly, format_poly, make_field, mobius,
                     parse_poly, polys, prime_field, primitive_element)
from oracles import (all_monic, enumerate_irreducible, factor_by_trial_division,
                     is_irreducible, minimal_polynomial, poly_divmod, poly_eval,
                     poly_mul)

GF2 = prime_field(2)
GF3 = prime_field(3)


def brute_minimal_polynomial(e):
    """Lowest-degree monic annihilator by exhaustive search (unique, so the
    first hit per degree is the answer)."""
    spec = e.spec
    ground = prime_field(spec)
    for d in range(1, spec.m + 1):
        for low in itertools.product(range(spec.p), repeat=d):
            f = Poly(ground, list(low) + [1])
            if not poly_eval(f.coeffs, e).code:
                return f
    raise AssertionError("element not annihilated by any small polynomial")


class TestPolyArithmetic:
    def test_normalization(self):
        assert Poly(GF2, [1, 1, 0, 0]).degree == 1
        assert Poly(GF2, []).degree == -1
        assert not Poly(GF2, [0, 0])

    @pytest.mark.parametrize("call,error,message", [
        (lambda: factor_poly(Poly(GF3, [1, 2])), ValueError, "monic polynomials"),
        (lambda: factor_poly(Poly(make_field(2, 2), [1, 1])), FieldMismatch,
         r"prime field, not GF\(4\)"),
    ], ids=["factor-non-monic", "factor-over-GF4"])
    def test_refusals(self, call, error, message):
        with pytest.raises(error, match=message):
            call()


class TestMobiusAndCounting:
    @pytest.mark.parametrize("d,val", [(1, 1), (2, -1), (3, -1), (4, 0),
                                       (6, 1), (12, 0), (30, -1), (9, 0)])
    def test_mobius(self, d, val):
        assert mobius(d) == val

    def test_mobius_matches_definition(self):
        # oracle: 0 when a square q^2 > 1 divides d, else (-1)^(prime count)
        for d in range(1, 400):
            if any(d % (q * q) == 0 for q in range(2, d + 1)):
                expected = 0
            else:
                primes = [q for q in range(2, d + 1) if d % q == 0
                          and all(q % r for r in range(2, q))]
                expected = (-1) ** len(primes)
            assert mobius(d) == expected

    def test_mobius_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mobius(0)

    def test_divisors(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(1) == [1]

    @pytest.mark.parametrize("p,m,expected", [(2, 3, 2), (2, 4, 3), (3, 2, 3),
                                              (2, 1, 2), (2, 2, 1), (5, 1, 5)])
    def test_count_frozen(self, p, m, expected):
        assert count_irreducible(p, m) == expected

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_count_matches_enumeration(self, p, m):
        assert count_irreducible(p, m) == len(enumerate_irreducible(p, m))


class TestIrreducibility:
    def test_frozen_cases(self):
        assert is_irreducible(Poly(GF2, [1, 1, 1]))
        assert not is_irreducible(Poly(GF2, [1, 0, 1]))   # 1 is a root
        assert enumerate_irreducible(2, 2) == [Poly(GF2, [1, 1, 1])]

    def test_enumeration_order_is_lex(self):
        cubics = enumerate_irreducible(2, 3)
        assert [f.coeff_codes() for f in cubics] == [(1, 0, 1, 1), (1, 1, 0, 1)]

    def test_requires_monic(self):
        with pytest.raises(ValueError):
            is_irreducible(Poly(GF3, [1, 2]))

    @pytest.mark.parametrize("spec", [GF2, GF3])
    def test_matches_trial_division(self, spec):
        # oracle: no monic polynomial of degree 1..deg/2 divides f
        for d in range(1, 6 if spec.p == 2 else 5):
            for low in itertools.product(range(spec.p), repeat=d):
                f = Poly(spec, list(low) + [1])
                divisible = any(not any(poly_divmod(f.coeffs, g.coeffs)[1])
                                for k in range(1, d // 2 + 1)
                                for g in all_monic(spec, k))
                assert is_irreducible(f) == (not divisible)


class TestFactoring:
    def test_frozen(self):
        x_plus_1 = Poly(GF2, [1, 1])
        assert factor_poly(Poly(GF2, [1, 0, 1])) == [(x_plus_1, 2)]
        assert factor_poly(Poly(GF2, [1, 1, 1, 1])) == [(x_plus_1, 3)]
        assert factor_poly(Poly(GF2, [1, 1, 1])) == [(Poly(GF2, [1, 1, 1]), 1)]

    def test_sort_order(self):
        # x^4 + x = x (x+1) (x^2+x+1): largest degree first, then lex
        factors = factor_poly(Poly(GF2, [0, 1, 0, 0, 1]))
        assert [(f.coeff_codes(), mult) for f, mult in factors] == [
            ((1, 1, 1), 1), ((0, 1), 1), ((1, 1), 1)]

    @pytest.mark.parametrize("spec", [GF2, GF3])
    def test_remultiplication_all_small_monics(self, spec):
        for d in range(1, 5):
            for low in itertools.product(range(spec.p), repeat=d):
                f = Poly(spec, list(low) + [1])
                prod = [spec.one]
                for g, mult in factor_poly(f):
                    assert is_irreducible(g)
                    for _ in range(mult):
                        prod = poly_mul(prod, g.coeffs)
                assert Poly(spec, prod) == f

    @pytest.mark.parametrize("p,max_degree", [(2, 8), (3, 5), (5, 3)])
    def test_matches_poly_trial_division(self, p, max_degree):
        # every monic polynomial of each degree up to max_degree, against
        # trial division by every monic candidate on coefficient lists
        spec = prime_field(p)
        for d in range(1, max_degree + 1):
            for f in all_monic(spec, d):
                assert factor_poly(f) == factor_by_trial_division(f), f

    def test_candidates_have_no_root_0_or_1(self):
        # past degree 1 a candidate with a root 0 or 1 has the factor x or
        # x - 1, divided out before it, so it is not listed
        for p, d in ((2, 1), (2, 2), (2, 5), (3, 1), (3, 3), (5, 2)):
            spec = prime_field(p)
            want = [f.coeff_codes() for f in all_monic(spec, d)
                    if d == 1 or poly_eval(f.coeffs, spec.zero).code
                    and poly_eval(f.coeffs, spec.one).code]
            assert list(polys._monic_codes(p, d)) == want
        assert polys._monic_codes(2, 2) == ((1, 1, 1),)

    def test_squarefree(self):
        # a repeated factor shows as a multiplicity above 1, also for a
        # p-th power, whose formal derivative vanishes
        def multiplicities(codes, spec):
            return [mult for _, mult in factor_poly(Poly(spec, codes))]
        assert multiplicities([1, 1, 1], GF2) == [1]
        assert multiplicities([1, 0, 1], GF2) == [2]      # (x+1)^2
        assert multiplicities([0, 0, 1], GF3) == [2]      # x^2
        assert multiplicities([1, 0, 0, 1], GF3) == [3]   # (x+1)^3
        assert multiplicities([0, 1, 1, 1], GF2) == [1, 1]

    def test_guard_counts_candidates_before_dividing(self, monkeypatch):
        # sum over d <= deg/2 of p^d candidates: degree 7 over F_2 tries
        # 2 + 4 + 8 = 14, degree 8 adds 16 more
        def unlisted(*args):
            raise AssertionError("candidates listed before the guard")
        monkeypatch.setattr(polys, "_FACTOR_LIMIT", 14)
        x7 = Poly(GF2, [1, 1] + [0] * 5 + [1])                # x^7 + x + 1
        assert factor_poly(x7) == [(x7, 1)]
        monkeypatch.setattr(polys, "_monic_codes", unlisted)
        with pytest.raises(TooLarge, match="degree 8 over GF\\(2\\) .* more than 14"):
            factor_poly(Poly(GF2, [1] + [0] * 7 + [1]))
        # one prime above the real limit is too many linear candidates
        monkeypatch.undo()
        with pytest.raises(TooLarge, match="more than 10000 candidate"):
            factor_poly(Poly(prime_field(10007), [1, 0, 1]))
        assert factor_poly(Poly(prime_field(9973), [0, 1, 1])) == [
            (Poly(prime_field(9973), [0, 1]), 1), (Poly(prime_field(9973), [1, 1]), 1)]


class TestMinimalPolynomial:
    def test_frozen_cases(self):
        f4 = make_field(2, 2)
        a = primitive_element(f4)
        assert minimal_polynomial(f4.one) == Poly(GF2, [1, 1])
        assert minimal_polynomial(a) == Poly(GF2, [1, 1, 1])
        f16 = make_field(2, 4)
        a16 = primitive_element(f16)
        # a^5 has order 3, so it sits in the quadratic subfield
        assert minimal_polynomial(a16 ** 5) == Poly(GF2, [1, 1, 1])

    def test_zero_maps_to_x(self):
        assert minimal_polynomial(make_field(2, 3).zero) == Poly(GF2, [0, 1])

    @pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (2, 4)])
    def test_against_brute_force(self, p, m):
        spec = make_field(p, m)
        for e in spec.elements():
            mu = minimal_polynomial(e)
            assert mu == brute_minimal_polynomial(e)
            assert mu.is_monic
            assert m % mu.degree == 0
            assert not poly_eval(mu.coeffs, e).code

    @pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (3, 2)])
    def test_full_degree_count_matches_formula(self, p, m):
        spec = make_field(p, m)
        full = sum(1 for e in spec.elements()
                   if minimal_polynomial(e).degree == m)
        assert full == m * count_irreducible(p, m)


class TestNotation:
    def test_format(self):
        assert format_poly(Poly(GF2, [1, 1, 0, 1])) == "1 + x + x^3"
        assert format_poly(Poly(GF3, [0, 2])) == "2*x"
        assert format_poly(Poly(GF2, [])) == "0"
        assert format_poly(Poly(GF3, [1])) == "1"

    def test_parse_text(self):
        assert parse_poly(2, "1 + x + x^2") == Poly(GF2, [1, 1, 1])
        assert parse_poly(2, "x^2+x+1") == Poly(GF2, [1, 1, 1])
        assert parse_poly(3, "2*x + 1") == Poly(GF3, [1, 2])
        assert parse_poly(3, "x**2 - x") == Poly(GF3, [0, 2, 1])

    def test_parse_list(self):
        assert parse_poly(2, "[1,1,1]") == Poly(GF2, [1, 1, 1])
        assert parse_poly(3, "[2, 1]") == Poly(GF3, [2, 1])

    def test_roundtrip(self):
        for codes in itertools.product(range(3), repeat=4):
            f = Poly(GF3, codes)
            assert parse_poly(3, format_poly(f)) == f

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_poly(2, "[1,1")
        with pytest.raises(ValueError):
            parse_poly(2, "")
        # an exponent is exactly ^k or **k
        for text in ("x^^2+x+1", "x^*2+x+1", "x***2+x+1", "x**^2+x+1"):
            with pytest.raises(ValueError, match="cannot parse term"):
                parse_poly(2, text)

    def test_parse_refuses_a_huge_power_before_building_it(self):
        # the coefficient list is as long as the largest power: 10^9 entries
        # asked for about 25 GB; a cancelled power does not count
        with pytest.raises(TooLarge, match="degree 1000000000: the limit is 65536"):
            parse_poly(2, "x^1000000000+1")
        assert parse_poly(2, "x^1000000000 + x^1000000000 + x").degree == 1
        assert parse_poly(2, "x^65536 + 1").degree == 65536

    def test_parse_coefficient_forms(self):
        # a coefficient is written k*x, kx, x or -x, and a term is empty
        # only before a leading minus
        assert parse_poly(3, "2x^2 + x + 1") == Poly(GF3, [1, 1, 2])
        assert parse_poly(3, "-x^2 - 2*x") == Poly(GF3, [0, 1, 2])
        assert parse_poly(3, "- x + 1") == Poly(GF3, [1, 2])
        for text in ("2**x+1", "2***x^2+1", "*x+1", "-*x+1", "2*-x+1"):
            with pytest.raises(ValueError, match="cannot parse term"):
                parse_poly(3, text)
        for text in ("x^2++x+1", "1+x+x^2+", "+x+1", "x^2+ +1"):
            with pytest.raises(ValueError, match="empty term"):
                parse_poly(3, text)

    def test_parse_list_entries_must_be_integers(self):
        # an empty or non-integer entry names the list, not int()'s message
        for text, entry in (("[1,,1]", "''"), ("[1,1,]", "''"), ("[,1]", "''"),
                            ("[1, x, 1]", "'x'"), ("[1,1.0,1]", "'1.0'")):
            with pytest.raises(ValueError) as info:
                parse_poly(2, text)
            assert str(info.value) == (f"coefficient list {text!r} has an entry "
                                       f"that is not an integer: {entry}")
        assert parse_poly(2, "[ 1 , 1 ]") == Poly(GF2, [1, 1])
        assert parse_poly(2, "[]") == Poly(GF2, [])
