import itertools

import pytest

from gfalign import (Poly, count_irreducible, divisors, enumerate_irreducible,
                     factor_poly, format_poly, is_irreducible, make_field,
                     minimal_polynomial, mobius, parse_poly, prime_field,
                     primitive_element)
from gfalign.polys import all_monic

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
            if not f(e).code:
                return f
    raise AssertionError("element not annihilated by any small polynomial")


class TestPolyArithmetic:
    def test_normalization(self):
        assert Poly(GF2, [1, 1, 0, 0]).degree == 1
        assert Poly(GF2, []).degree == -1
        assert not Poly(GF2, [0, 0])

    def test_divmod_roundtrip(self):
        import random
        rng = random.Random(3)
        for _ in range(200):
            f = Poly(GF3, [rng.randrange(3) for _ in range(rng.randrange(1, 7))])
            g = Poly(GF3, [rng.randrange(3) for _ in range(rng.randrange(1, 5))])
            if not g:
                continue
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.degree < g.degree

    def test_eval_with_lift(self):
        f4 = make_field(2, 2)
        a = primitive_element(f4)
        f = Poly(GF2, [1, 1, 1])          # 1 + x + x^2
        assert f(a).code == 0             # a^2 + a + 1 = 0
        assert f(f4.one) == f4.one


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
                divisible = any(g.divides(f) for k in range(1, d // 2 + 1)
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
                prod = Poly.one(spec)
                for g, mult in factor_poly(f):
                    assert is_irreducible(g)
                    for _ in range(mult):
                        prod = prod * g
                assert prod == f

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
        assert minimal_polynomial(make_field(2, 3).zero) == Poly.x(GF2)

    @pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (2, 4)])
    def test_against_brute_force(self, p, m):
        spec = make_field(p, m)
        for e in spec.elements():
            mu = minimal_polynomial(e)
            assert mu == brute_minimal_polynomial(e)
            assert mu.is_monic
            assert m % mu.degree == 0
            assert not mu(e).code

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
        assert format_poly(Poly.zero(GF2)) == "0"
        assert format_poly(Poly.one(GF3)) == "1"

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
        assert parse_poly(2, "[]") == Poly.zero(GF2)
