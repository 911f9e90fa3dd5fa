"""Univariate polynomials over a field: factoring, counting irreducibles, text.

A ``Poly`` only records coefficients.  Everything here is desk-scale by
design: factoring, over a prime field only, divides integer coefficient
tuples mod p by the monic polynomials of each degree in turn, and
irreducibility and squarefreeness are read off that factorization.  The
Moebius closed form counts irreducibles; nothing here enumerates them.
That is exact, simple, and fast enough for the field sizes targeted.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from typing import Sequence

from .errors import FieldMismatch, TooLarge
from .gf import FieldElem, FieldSpec, parse_int, prime_factors, prime_field

_FACTOR_LIMIT = 10000   # candidates, p^d per degree: 8190 (degree 25 over F_2) in 0.03 s
_PARSE_DEGREE_LIMIT = 1 << 16   # degree of polynomial text: a list of 65537 coefficients


class Poly:
    """Coefficients in one field, low degree first, with no arithmetic.

    The zero polynomial has an empty coefficient tuple; otherwise the leading
    coefficient is nonzero.
    """

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: Sequence = ()):
        elems = [spec.element(c) for c in coeffs]
        while elems and elems[-1].code == 0:
            elems.pop()
        self.spec = spec
        self.coeffs = tuple(elems)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1].code == 1

    def coeff_codes(self) -> tuple[int, ...]:
        return tuple(c.code for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.spec == other.spec and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.spec, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"Poly({self.spec!r}, {format_poly(self)!r})"


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def mobius(d: int) -> int:
    """Moebius function: 1 at 1, (-1)^r on squarefree d with r prime
    factors, 0 otherwise."""
    if d < 1:
        raise ValueError("argument must be a positive integer")
    primes = prime_factors(d)
    if math.prod(primes) != d:
        return 0
    return -1 if len(primes) % 2 else 1


def count_irreducible(p: int, m: int) -> int:
    """Number of monic irreducible polynomials of degree m over F_p:
    (1/m) * sum over d | m of mobius(d) * p^(m/d)."""
    total = sum(mobius(d) * p ** (m // d) for d in divisors(m))
    if total % m:
        raise AssertionError(f"necklace sum {total} is not divisible by {m}")
    return total // m


@functools.cache
def _monic_codes(p: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Coefficient tuples, low degree first, of the monic polynomials of
    degree d over F_p that trial division needs, in lexicographic order of
    their low coefficients: all p^d for d = 1, and for d > 1 those with no
    root 0 or 1, since x and x - 1 are divided out before them."""
    monic = (low + (1,) for low in itertools.product(range(p), repeat=d))
    return tuple(g for g in monic if d == 1 or g[0] and sum(g) % p)


def _exact_quotient(f: tuple[int, ...], g: tuple[int, ...], p: int) -> tuple[int, ...] | None:
    """f / g over F_p for a monic g, or None when g does not divide f; both
    coefficient tuples low degree first.  Remainder entries are reduced
    only where they are read."""
    d = len(g) - 1
    rem, quo = list(f), [0] * (len(f) - d)
    for k in range(len(f) - 1 - d, -1, -1):
        c = rem[k + d] % p
        if c:
            quo[k] = c
            rem[k:k + d] = [r - c * a for r, a in zip(rem[k:k + d], g)]
    return None if any(r % p for r in rem[:d]) else tuple(quo)


def factor_poly(f: Poly) -> list[tuple[Poly, int]]:
    """Factor a monic polynomial over a prime field into monic irreducibles
    with multiplicities, by ``_factor_codes``; FieldMismatch over F_{p^m}."""
    if not f.is_monic or f.degree < 1:
        raise ValueError("factoring is defined for monic polynomials of degree >= 1")
    spec = f.spec
    if spec.m != 1:
        raise FieldMismatch(f"factoring is defined over a prime field, not GF({spec.order})")
    return [(Poly(spec, g), mult) for g, mult in _factor_codes(spec.p, f.coeff_codes())]


def _factor_codes(p: int, f: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """Monic irreducible factors with multiplicities of a monic f over F_p
    of degree >= 1, as coefficient tuples low degree first, sorted by degree
    descending, then lexicographically: trial division mod p by the monic
    polynomials of each degree d <= deg f / 2 (``_monic_codes``).  TooLarge
    when the p^d candidates of those degrees exceed _FACTOR_LIMIT, counted
    before any is listed."""
    degree, candidates = len(f) - 1, 0
    for d in range(1, degree // 2 + 1):
        candidates += p ** d
        if candidates > _FACTOR_LIMIT:
            raise TooLarge(f"factoring a polynomial of degree {degree} over GF({p}) "
                           f"by trial division tries more than {_FACTOR_LIMIT} candidate divisors")
    out: list[tuple[tuple[int, ...], int]] = []
    rest = f
    d = 1
    while len(rest) > 1:
        if 2 * d > len(rest) - 1:
            # what is left is irreducible
            out.append((rest, 1))
            break
        for g in _monic_codes(p, d):
            mult = 0
            while (q := _exact_quotient(rest, g, p)) is not None:
                rest, mult = q, mult + 1
            if mult:
                out.append((g, mult))
                if len(rest) == 1:
                    break
        d += 1
    out.sort(key=lambda gm: (-len(gm[0]), gm[0]))
    return out


# -- textual notation ---------------------------------------------------------


def format_poly(f: Poly) -> str:
    """Low-degree-first text form, e.g. '1 + x + x^3'."""
    if not f.coeffs:
        return "0"
    parts = []
    for i, c in enumerate(f.coeffs):
        if c.code == 0:
            continue
        if i == 0:
            parts.append(_coeff_text(c))
        else:
            power = "x" if i == 1 else f"x^{i}"
            parts.append(power if c.code == 1 else f"{_coeff_text(c)}*{power}")
    return " + ".join(parts)


def _coeff_text(c: FieldElem) -> str:
    if c.spec.m == 1:
        return str(c.code)
    return str(list(c.coeffs))


# a term: a constant k, or k*x^e, kx^e, x^e or -x^e (e as ^e or **e, or
# omitted for 1)
_TERM = re.compile(r"(-?[0-9]+)|(-?)(?:([0-9]+)\*?)?x(?:(?:\^|\*\*)([0-9]+))?")


def parse_poly(p: int, text: str, modulus_degree: int | None = None) -> Poly:
    """Parse '[a0,a1,...,1]' (each a_i in [0, p)) or 'a0 + a1*x + ... + x^m'
    over F_p.  Text terms are read by _TERM, with coefficients mod p; only
    a leading '-' may stand before the first term.  Text whose degree
    exceeds ``modulus_degree`` is refused, with make_field's message, and
    text of degree above _PARSE_DEGREE_LIMIT with TooLarge, before its
    coefficient list is built: its length is the exponent."""
    spec = prime_field(p)
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ValueError(f"unterminated coefficient list: {text!r}")
        inner = text[1:-1].strip()
        vals = [parse_int(v, f"coefficient list {text!r}")
                for v in (inner.split(",") if inner else [])]
        if any(not 0 <= v < p for v in vals):
            raise ValueError(f"list coefficients must lie in [0, {p})")
        return Poly(spec, vals)
    coeffs: dict[int, int] = {}
    terms = text.replace(" ", "").replace("-", "+-").split("+")
    if text.startswith("-"):
        terms = terms[1:]       # the empty term before a leading "-"
    for term in terms:
        if not term:
            raise ValueError(f"empty term in polynomial text {text!r}")
        match = _TERM.fullmatch(term)
        if not match:
            raise ValueError(f"cannot parse term {term!r}")
        const, sign, k, e = match.groups()
        coeff, power = ((int(const), 0) if const
                        else (int(sign + (k or "1")), int(e or 1)))
        coeffs[power] = coeffs.get(power, 0) + coeff
    coeffs = {power: coeff % p for power, coeff in coeffs.items() if coeff % p}
    degree = max(coeffs, default=0)
    if modulus_degree is not None and degree > modulus_degree:
        raise ValueError(f"modulus must have degree {modulus_degree}, not {degree}")
    if degree > _PARSE_DEGREE_LIMIT:
        raise TooLarge(f"polynomial text of degree {degree}: the limit is {_PARSE_DEGREE_LIMIT}")
    return Poly(spec, [coeffs.get(k, 0) for k in range(degree + 1)])
