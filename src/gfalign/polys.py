"""Univariate polynomials over a field, irreducibility and factoring.

Everything here is desk-scale by design: factoring divides by the monic
polynomials of each degree in turn, irreducibility and squarefreeness are
read off that factorization, and enumeration walks all monic polynomials of
a degree.  That is exact, simple, and fast enough for the field sizes this
package targets.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import Sequence

from .errors import FieldMismatch
from .gf import (FieldElem, FieldSpec, conjugates, parse_int, prime_factors,
                 prime_field)


class Poly:
    """Dense polynomial with coefficients in one field, low degree first.

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

    @classmethod
    def zero(cls, spec: FieldSpec) -> "Poly":
        return cls(spec, ())

    @classmethod
    def one(cls, spec: FieldSpec) -> "Poly":
        return cls(spec, (1,))

    @classmethod
    def x(cls, spec: FieldSpec) -> "Poly":
        return cls(spec, (0, 1))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1].code == 1

    def coeff_codes(self) -> tuple[int, ...]:
        return tuple(c.code for c in self.coeffs)

    def _check(self, other: "Poly") -> None:
        if other.spec is not self.spec and other.spec != self.spec:
            raise FieldMismatch("polynomials over different fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.spec, out)

    def __neg__(self) -> "Poly":
        return Poly(self.spec, [-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        if not self.coeffs or not other.coeffs:
            return Poly.zero(self.spec)
        zero = self.spec.zero
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.code:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
        return Poly(self.spec, out)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dv = other.coeffs
        dd = len(dv) - 1
        lead_inv = dv[-1].inv()
        quo = [self.spec.zero] * max(0, len(rem) - dd)
        for k in range(len(rem) - dd - 1, -1, -1):
            c = rem[k + dd] * lead_inv
            if c.code:
                quo[k] = c
                for i, d in enumerate(dv):
                    rem[k + i] = rem[k + i] - c * d
        return Poly(self.spec, quo), Poly(self.spec, rem[:dd])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        return not (other % self).coeffs

    def __call__(self, point: FieldElem) -> FieldElem:
        """Evaluate at a point, lifting ground-field coefficients if the
        point lives in an extension of the coefficient field."""
        target = point.spec
        if target is self.spec or target == self.spec:
            lift = None
        elif self.spec.m == 1 and target.p == self.spec.p:
            lift = target
        else:
            raise FieldMismatch("evaluation point is not in a compatible field")
        acc = target.zero
        for c in reversed(self.coeffs):
            cv = c if lift is None else c.lift(lift)
            acc = acc * point + cv
        return acc

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


def all_monic(spec: FieldSpec, degree: int):
    """All monic polynomials of the given degree, in lexicographic order of
    the low-degree-first coefficient vector."""
    for low in itertools.product(range(spec.order), repeat=degree):
        yield Poly(spec, [spec.from_code(c) for c in low] + [spec.one])


def is_irreducible(f: Poly) -> bool:
    """True iff f is its own factorization (see factor_poly)."""
    if not f.is_monic or f.degree < 1:
        raise ValueError("irreducibility is defined for monic polynomials of degree >= 1")
    return factor_poly(f) == [(f, 1)]


def enumerate_irreducible(p: int, d: int) -> list[Poly]:
    """All monic irreducible polynomials of degree d over F_p, lexicographic."""
    spec = prime_field(p)
    return [f for f in all_monic(spec, d) if is_irreducible(f)]


def factor_poly(f: Poly) -> list[tuple[Poly, int]]:
    """Factor a monic polynomial into monic irreducibles with multiplicities.

    Factors are sorted by degree descending, then lexicographically by the
    low-degree-first coefficient vector.  Trial division against enumerated
    irreducibles; fine at desk scale.
    """
    if not f.is_monic or f.degree < 1:
        raise ValueError("factoring is defined for monic polynomials of degree >= 1")
    out: list[tuple[Poly, int]] = []
    rest = f
    d = 1
    while rest.degree > 0:
        if d > rest.degree:
            raise AssertionError("factoring ran past the remaining degree")
        if d * 2 > rest.degree:
            # what is left is irreducible
            out.append((rest, 1))
            break
        for g in all_monic(f.spec, d):
            mult = 0
            while g.divides(rest):
                rest = rest // g
                mult += 1
            if mult:
                out.append((g, mult))
                if rest.degree == 0:
                    break
        d += 1
    out.sort(key=lambda fm: (-fm[0].degree, fm[0].coeff_codes()))
    return out


def minimal_polynomial(e: FieldElem) -> Poly:
    """Monic polynomial over F_p of least degree annihilating e.

    Built as the product of (x - c) over the orbit of e under the p-power
    map; the coefficients necessarily collapse into F_p.  The zero element
    gets x.
    """
    spec = e.spec
    ground = prime_field(spec)
    acc = Poly(spec, (1,))
    for c in conjugates(e):
        acc = acc * Poly(spec, (-c, spec.one))
    codes = []
    for coeff in acc.coeffs:
        if any(coeff.coeffs[1:]):
            raise AssertionError("orbit product has a coefficient outside F_p")
        codes.append(coeff.coeffs[0])
    return Poly(ground, codes)


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
    exceeds ``modulus_degree`` is refused, with make_field's message,
    before its coefficient list is built: its length is the exponent."""
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
    return Poly(spec, [coeffs.get(k, 0) for k in range(degree + 1)])
