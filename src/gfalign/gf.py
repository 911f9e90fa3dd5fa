"""Exact arithmetic in prime fields F_p and their extensions F_{p^m}.

A field is described by a :class:`FieldSpec` holding the characteristic ``p``,
the extension degree ``m`` and a monic degree-``m`` modulus over F_p.  For
``m >= 2`` the modulus must be primitive, so the residue class of ``x``
generates the whole multiplicative group.  Elements are immutable coefficient
vectors ``(b_0, ..., b_{m-1})`` with respect to the power basis of ``x``;
every element also carries an integer ``code`` (base-``p`` packing of the
coefficients) used for table lookups and serialization.

Construction goes through :func:`make_field`, which validates primality and
primitivity, picks the lexicographically smallest primitive modulus when none
is given, and caches specs so repeated lookups share arithmetic tables.

Fields of order up to ``2**16`` intern all their elements and run on one
set of tables indexed by the exponent of a generator g: log, antilog and the
Zech logarithm ``zech[k] = log(1 + g^k)`` (Lidl & Niederreiter, *Finite
Fields*), which turns addition into ``g^a + g^b = g^(a + zech[b - a])``.
Larger fields fall back to plain polynomial arithmetic.
"""

from __future__ import annotations

import functools
from itertools import compress, count, islice
from typing import Iterator, Sequence

from .errors import FieldMismatch, NotPrime, NotPrimitive, TooLarge

_INTERN_LIMIT = 1 << 16  # intern elements and build log/antilog/Zech up to this order
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981   # least strong pseudoprime to all of _BASES
_TRIAL_LIMIT = 1 << 20   # largest trial divisor of prime_factors, about 0.05 s of division


def is_prime(n: int) -> bool:
    """True iff n is a prime, by Miller-Rabin to the first 13 prime bases,
    which no composite below _PSI_13 (about 3.3 * 10^24) passes (Sorenson &
    Webster, *Math. Comp.* 2017); TooLarge from there on."""
    if n < 4:
        return n >= 2
    if n >= _PSI_13:
        raise TooLarge(f"primality is decided below {_PSI_13} only, not for {n}")
    if any(n % a == 0 for a in _BASES):
        return n in _BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1      # n - 1 = d 2^s with d odd
    for a in _BASES:
        x = pow(a, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending, by trial division.  It
    stops once the cofactor left is 1 or a prime: is_prime is asked for a
    cofactor above _TRIAL_LIMIT and below _PSI_13 (a smaller one needs at
    most 512 more divisions).  TooLarge when the divisor passes
    _TRIAL_LIMIT with a cofactor left that is composite or too large to
    test."""
    out = []
    d, prime = 2, _TRIAL_LIMIT < n < _PSI_13 and is_prime(n)
    while not prime and d * d <= n:
        if d > _TRIAL_LIMIT:
            raise TooLarge(f"factoring {n} needs trial division beyond {_TRIAL_LIMIT}")
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
            prime = _TRIAL_LIMIT < n < _PSI_13 and is_prime(n)
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _randbelow(rng, n: int) -> int:
    """rng.randrange(n) for n >= 1 on a random.Random, at the cost of the
    generator words it uses: getrandbits(n.bit_length()), redrawn while the
    result is >= n.  That is CPython's Random._randbelow_with_getrandbits,
    so each value and the generator state afterwards equal randrange's
    (tests/test_gf.py checks both against randrange itself); randrange(a, b)
    is a + _randbelow(rng, b - a).  n = 1 still draws, and 2^k takes k + 1
    bits."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


_CHUNK_WORDS = 512   # most generator words _top_byte_blocks takes per getrandbits call


@functools.cache
def _top_byte_tables(n: int) -> tuple[bytes, bytes]:
    """bytes.translate arguments that turn the top bytes of generator words
    into the values of randrange(n), n < 256: the table t -> t >> (8 - k)
    and the rejected bytes t >= n << (8 - k), for k = n.bit_length()."""
    shift = 8 - n.bit_length()
    return bytes(t >> shift for t in range(256)), bytes(range(n << shift, 256))


def _randbelow_blocks(rng, n: int, size: int):
    """Iterator of consecutive blocks of ``size`` values of rng.randrange(n),
    n >= 1, on a random.Random.  Close it when done, also when raising: rng
    is then as randrange would have left it after the values yielded (tests
    compare both with randrange).  One never started draws nothing.  n < 256
    decode words drawn in bulk; larger n take one _randbelow per value,
    which draws no word past the last value and so needs no rewind.
    """
    if n < 256:
        return _top_byte_blocks(rng, n, size)
    return ([_randbelow(rng, n) for _ in range(size)] for _ in count())


def _top_byte_blocks(rng, n: int, size: int):
    """_randbelow_blocks for n < 256, in bytes blocks.

    An attempt of randrange(n) is getrandbits(k), k = n.bit_length(): the
    top k bits of one word (_randbelow).  One getrandbits(32 K) draws K
    words, K doubling from ``size`` up to _CHUNK_WORDS, and
    to_bytes(..., "little") puts word i at bytes 4i..4i+3 on every
    platform.  So an attempt is the top byte t of its word, t >> (8 - k),
    accepted iff t < n << (8 - k), and one bytes.translate decodes a chunk.
    A chunk runs past the last value used, and the caller reads rng next
    (symbol-ext draws its message after the channel), so each chunk's
    attempts are kept; on close the state found is restored and exactly the
    words up to the last value yielded are redrawn.
    """
    limit = n << (8 - n.bit_length())       # on the top bytes
    table, reject = _top_byte_tables(n)
    state = rng.getstate()
    chunk = min(size, _CHUNK_WORDS)
    # kept, counts: each chunk's attempts and its number of accepted values;
    # done: the values trimmed from the front of buf
    kept, counts, buf, pos, done = [], [], b"", 0, 0
    try:
        while True:
            attempts = rng.getrandbits(32 * chunk).to_bytes(4 * chunk, "little")[3::4]
            vals = attempts.translate(table, reject)
            kept.append(attempts)
            counts.append(len(vals))
            buf, pos, done = buf[pos:] + vals, 0, done + pos
            chunk = min(2 * chunk, _CHUNK_WORDS)
            while len(buf) - pos >= size:
                pos += size
                yield buf[pos - size:pos]
    finally:
        rng.setstate(state)
        left = done + pos                   # values yielded
        for attempts, accepted in zip(kept, counts):
            if left <= accepted:
                if left:                    # up to the left-th accepted attempt
                    hits = compress(count(), map(limit.__gt__, attempts))
                    rng.getrandbits(32 * next(islice(hits, left - 1, None)) + 32)
                break
            rng.getrandbits(32 * len(attempts))
            left -= accepted


def _code_to_coeffs(code: int, p: int, m: int) -> tuple[int, ...]:
    out = []
    for _ in range(m):
        out.append(code % p)
        code //= p
    return tuple(out)


def _coeffs_to_code(coeffs: Sequence[int], p: int) -> int:
    code = 0
    for c in reversed(coeffs):
        code = code * p + c
    return code


def _mul_coeffs(a, b, p, m, x_pow_m):
    """Product of two coefficient tuples modulo the field modulus.

    x_pow_m holds the coefficients of x^m reduced by the modulus.
    """
    if m == 1:
        return ((a[0] * b[0]) % p,)
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for k in range(2 * m - 2, m - 1, -1):
        c = prod[k] % p
        if c:
            base = k - m
            for i, ri in enumerate(x_pow_m):
                if ri:
                    prod[base + i] += c * ri
        prod[k] = 0
    return tuple(v % p for v in prod[:m])


def _pow_coeffs(a, e, p, m, x_pow_m):
    result = tuple([1] + [0] * (m - 1))
    base = a
    while e:
        if e & 1:
            result = _mul_coeffs(result, base, p, m, x_pow_m)
        base = _mul_coeffs(base, base, p, m, x_pow_m)
        e >>= 1
    return result


@functools.cache
def _order_factors(p: int, m: int) -> tuple[int, ...]:
    """The distinct prime factors of p^m - 1, the order of F_{p^m}*."""
    return tuple(prime_factors(p ** m - 1))


@functools.cache
def _passes_order_test(p: int, m: int, pi: tuple[int, ...]) -> bool:
    """True iff the class of x modulo the monic polynomial pi + x^m has
    multiplicative order exactly p^m - 1.

    That is equivalent to pi being primitive: a full-order unit forces the
    quotient ring to be a field and pi to be the minimal polynomial of a
    generator.  At m = 1 the class of x modulo x + pi[0] is -pi[0], so this
    is the primitive-root test.  p^m - 1 is factored first, so an order too
    wide to factor raises TooLarge before any exponentiation.  Memoized, so
    make_field does not re-test the modulus _default_modulus chose.
    """
    factors = _order_factors(p, m)
    n = p ** m - 1
    if m == 1:
        g = -pi[0] % p
        return g != 0 and all(pow(g, n // q, p) != 1 for q in factors)
    x_pow_m = tuple((-a) % p for a in pi)
    one = tuple([1] + [0] * (m - 1))
    x = tuple([0, 1] + [0] * (m - 2))
    if _pow_coeffs(x, n, p, m, x_pow_m) != one:
        return False
    return all(_pow_coeffs(x, n // q, p, m, x_pow_m) != one for q in factors)


class FieldElem:
    """Element of F_{p^m} as coefficients (b_0, ..., b_{m-1}) over F_p."""

    __slots__ = ("spec", "coeffs", "code")

    def __init__(self, spec: "FieldSpec", coeffs: tuple[int, ...], code: int):
        self.spec = spec
        self.coeffs = coeffs
        self.code = code

    def _coerce(self, other):
        spec = self.spec
        if isinstance(other, FieldElem):
            if other.spec is spec or other.spec == spec:
                return other
            raise FieldMismatch(
                f"operands live in different fields: {self.spec!r} vs {other.spec!r}")
        if isinstance(other, int):
            return spec.element(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        spec = self.spec
        log = spec._log
        if log is not None:
            a, b = self.code, other.code
            if a == 0:
                return spec._elems[b]
            if b == 0:
                return self
            n = spec.order - 1
            la = log[a]
            z = spec._zech[(log[b] - la) % n]
            if z < 0:
                return spec._elems[0]
            return spec._elems[spec._exp[(la + z) % n]]
        p = spec.p
        coeffs = tuple((x + y) % p for x, y in zip(self.coeffs, other.coeffs))
        return spec._from_coeffs(coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        spec = self.spec
        code = self.code
        if spec.p == 2 or code == 0:
            return self
        log = spec._log
        if log is not None:
            # -1 = g^(n/2), the one element of order 2
            n = spec.order - 1
            return spec._elems[spec._exp[(log[code] + n // 2) % n]]
        p = spec.p
        return spec._from_coeffs(tuple((-x) % p for x in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        spec = self.spec
        log = spec._log
        if log is not None:
            a, b = self.code, other.code
            if a == 0 or b == 0:
                return spec._elems[0]
            return spec._elems[spec._exp[(log[a] + log[b]) % (spec.order - 1)]]
        coeffs = _mul_coeffs(self.coeffs, other.coeffs, spec.p, spec.m, spec._x_pow_m)
        return spec._from_coeffs(coeffs)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, e: int):
        spec = self.spec
        if self.code == 0:
            if e < 0:
                raise ZeroDivisionError("inverse power of the zero element")
            return spec.one if e == 0 else spec.zero
        n = spec.order - 1
        e %= n
        log = spec._log
        if log is not None:
            return spec._elems[spec._exp[(log[self.code] * e) % n]]
        coeffs = _pow_coeffs(self.coeffs, e, spec.p, spec.m, spec._x_pow_m)
        return spec._from_coeffs(coeffs)

    def inv(self) -> "FieldElem":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if self.code == 0:
            raise ZeroDivisionError("inverse of the zero element")
        return self ** (-1)

    def lift(self, target: "FieldSpec") -> "FieldElem":
        """Embed an F_p element into an extension of F_p as a constant."""
        if self.spec.m != 1:
            raise FieldMismatch("only ground-field elements can be lifted")
        if target.p != self.spec.p:
            raise FieldMismatch("lift target has a different characteristic")
        return target.from_code(self.code)

    def __bool__(self):
        return self.code != 0

    def __eq__(self, other):
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.code == other.code and (
            other.spec is self.spec or other.spec == self.spec)

    def __hash__(self):
        return hash((self.spec._hash, self.code))

    def __repr__(self):
        return f"{self.spec!r}({list(self.coeffs)})"


class FieldSpec:
    """Descriptor of F_{p^m} plus its arithmetic tables.

    ``pi`` holds the low coefficients (a_0, ..., a_{m-1}) of the monic
    modulus a_0 + a_1 x + ... + x^m.  The constructor validates p, m and pi
    exactly as :func:`make_field` does (NotPrime, ValueError for a bad
    degree or a coefficient outside [0, p), NotPrimitive).  Two specs with
    equal (p, m, pi) define identical arithmetic.  Instances are immutable
    after construction and safe to share across threads; prefer
    :func:`make_field`, which caches.
    """

    __slots__ = ("p", "m", "pi", "order", "_hash", "_x_pow_m", "_gen_code",
                 "_elems", "_log", "_exp", "_zech", "_cache",
                 "__weakref__")

    def __init__(self, p: int, m: int, pi):
        check_field_params(p, m)
        pi = _normalize_modulus(p, m, pi)
        if m >= 2 and not _passes_order_test(p, m, pi):
            raise NotPrimitive(
                f"modulus {list(pi) + [1]} is not primitive over GF({p})")
        self.p = p
        self.m = m
        self.pi = pi
        self.order = p ** m
        self._hash = hash((p, m, pi))
        self._x_pow_m = tuple((-a) % p for a in pi)
        self._cache: dict = {}
        self._gen_code = self._find_generator_code()
        if self.order <= _INTERN_LIMIT:
            self._elems, log, exp = self._build_tables()
            self._log, self._exp = log, exp
            # 1 + g^k only moves the constant coefficient, the lowest base-p
            # digit of the code; log[0] = -1 marks 1 + g^k = 0
            self._zech = [log[c - c % p + (c + 1) % p] for c in exp]
        else:
            self._elems = None
            self._log = self._exp = self._zech = None

    # -- construction helpers -------------------------------------------------

    def _find_generator_code(self) -> int:
        if self.m >= 2:
            return self.p  # the class of x; full order by the modulus check
        return next(g for g in range(1, self.p)
                    if _passes_order_test(self.p, 1, (-g % self.p,)))

    def _build_tables(self):
        # interned elements, log and antilog tables in one walk over the
        # powers of the generator, x for m >= 2: a shift of the coefficients
        # plus a fold of x^m as x_pow_m (for m = 1 the fold multiplies by g)
        p, m, n = self.p, self.m, self.order - 1
        red = self._x_pow_m if m > 1 else (self._gen_code,)
        elems = [FieldElem(self, (0,) * m, 0)] * self.order
        exp, log = [0] * n, [-1] * self.order
        acc = (1,) + (0,) * (m - 1)
        for k in range(n):
            code = _coeffs_to_code(acc, p)
            exp[k], log[code] = code, k
            elems[code] = FieldElem(self, acc, code)
            top = acc[-1]
            acc = (0,) + acc[:-1]
            if top:
                acc = tuple([(a + top * r) % p for a, r in zip(acc, red)])
        if _coeffs_to_code(acc, p) != 1:
            raise AssertionError("generator does not have full order")
        return elems, log, exp

    # -- element factories ----------------------------------------------------

    def _from_coeffs(self, coeffs: tuple[int, ...]) -> FieldElem:
        elems = self._elems
        if elems is not None:
            return elems[_coeffs_to_code(coeffs, self.p)]
        return FieldElem(self, coeffs, _coeffs_to_code(coeffs, self.p))

    def from_code(self, code: int) -> FieldElem:
        """Element with base-p packed coefficient code in [0, p^m)."""
        if not 0 <= code < self.order:
            raise ValueError(f"code {code} out of range for {self!r}")
        elems = self._elems
        if elems is not None:
            return elems[code]
        return FieldElem(self, _code_to_coeffs(code, self.p, self.m), code)

    def element(self, value) -> FieldElem:
        """Coerce an int (constant mod p), coefficient sequence, or element."""
        if isinstance(value, FieldElem):
            if value.spec is self or value.spec == self:
                return value
            raise FieldMismatch(f"element of {value.spec!r} is not in {self!r}")
        if isinstance(value, int):
            return self.from_code(value % self.p)
        coeffs = [int(c) % self.p for c in value]
        if len(coeffs) > self.m:
            if any(coeffs[self.m:]):
                raise ValueError("coefficient vector longer than the degree")
            coeffs = coeffs[: self.m]
        coeffs += [0] * (self.m - len(coeffs))
        return self._from_coeffs(tuple(coeffs))

    @property
    def zero(self) -> FieldElem:
        return self.from_code(0)

    @property
    def one(self) -> FieldElem:
        return self.from_code(1)

    def elements(self) -> Iterator[FieldElem]:
        """All elements in ascending code order."""
        for code in range(self.order):
            yield self.from_code(code)

    def nonzero_elements(self) -> Iterator[FieldElem]:
        for code in range(1, self.order):
            yield self.from_code(code)

    def random_element(self, rng, nonzero: bool = False) -> FieldElem:
        """Uniform element (nonzero: uniform on the units) from a
        random.Random, by _randbelow: the same value and the same generator
        state afterwards as rng.randrange(1 if nonzero else 0, order), which
        tests/test_gf.py checks against randrange itself."""
        low = 1 if nonzero else 0
        return self.from_code(low + _randbelow(rng, self.order - low))

    @property
    def modulus_coeffs(self) -> tuple[int, ...]:
        """Full modulus coefficient vector (a_0, ..., a_{m-1}, 1)."""
        return self.pi + (1,)

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return self.p == other.p and self.m == other.m and self.pi == other.pi

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"


@functools.cache
def _default_modulus(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest primitive monic modulus, coefficients
    compared low-degree-first.  For m = 1 the conventional placeholder is x;
    ground-field arithmetic never consults it."""
    if m == 1:
        return (0,)
    # the constant term a0 is the top base-p digit of the code; it equals
    # (-1)^m N(x), and the norm of a generator generates F_p*
    block = p ** (m - 1)
    codes = (code for a0 in range(1, p)
             if _passes_order_test(p, 1, ((-1) ** (m + 1) * a0 % p,))
             for code in range(a0 * block, (a0 + 1) * block))
    cands = (tuple(reversed(_code_to_coeffs(code, p, m))) for code in codes)
    return next(c for c in cands if _passes_order_test(p, m, c))


def _normalize_modulus(p: int, m: int, pi) -> tuple[int, ...]:
    coeffs = getattr(pi, "coeffs", pi)
    if coeffs is not pi and len(coeffs) != m + 1:
        raise ValueError(f"modulus must have degree {m}, not {len(coeffs) - 1}")
    vals = [int(getattr(c, "code", c)) for c in coeffs]
    if any(not 0 <= v < p for v in vals):
        raise ValueError(f"modulus coefficients must lie in [0, {p})")
    if len(vals) == m + 1:
        if vals[-1] != 1:
            raise ValueError("modulus must be monic")
        vals = vals[:-1]
    if len(vals) != m:
        raise ValueError(
            f"modulus must have degree {m}: got coefficient vector of length {len(vals)}")
    return tuple(vals)


_PRIMES: set[int] = set()   # every p check_field_params has passed


def check_field_params(p: int, m: int) -> None:
    """Raise NotPrime unless p is a prime, ValueError unless m >= 1.  Each
    prime is tested once per process: a p already passed skips is_prime."""
    if type(p) is not int or p not in _PRIMES:
        if not isinstance(p, int) or not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        _PRIMES.add(p)
    if not isinstance(m, int) or m < 1:
        raise ValueError("extension degree must be a positive integer")


_shared_spec = functools.cache(FieldSpec)   # one spec per normalized (p, m, pi)


def make_field(p: int, m: int, pi=None) -> FieldSpec:
    """Build (or fetch from cache) the field F_{p^m}.

    ``pi`` may be omitted (lexicographically smallest primitive modulus is
    selected), or given as a low-degree-first coefficient sequence of length
    m (leading 1 implicit) or m+1 (explicit leading 1), or as a polynomial
    (any object with a ``coeffs`` attribute) of degree exactly m.  Every
    coefficient must lie in [0, p), else ValueError.
    """
    check_field_params(p, m)
    if pi is None:
        return _shared_spec(p, m, _default_modulus(p, m))
    return _shared_spec(p, m, _normalize_modulus(p, m, pi))


def prime_field(p_or_spec) -> FieldSpec:
    """The ground field F_p of a spec (or of a prime given directly)."""
    if isinstance(p_or_spec, FieldSpec):
        return make_field(p_or_spec.p, 1)
    return make_field(p_or_spec, 1)


def primitive_element(spec: FieldSpec) -> FieldElem:
    """A generator of the multiplicative group.

    For m >= 2 this is the class of x, primitive because the modulus is.
    For m = 1 it is the smallest generator of F_p* (the element 1 when p = 2).
    """
    return spec.from_code(spec._gen_code)


def minpoly_degree(e: FieldElem) -> int:
    """Degree of the minimal polynomial of e over F_p.

    Computed as the size of the orbit of e under the p-power map; always a
    divisor of m.  The zero element has degree 1 (annihilated by x).
    """
    return len(conjugates(e))


def conjugates(e: FieldElem) -> list[FieldElem]:
    """Orbit of e under the p-power map: e, e^p, e^{p^2}, ..."""
    out = [e]
    p = e.spec.p
    y = e ** p
    while y != e:
        out.append(y)
        y = y ** p
    return out


# -- element notation ---------------------------------------------------------


def format_element(e: FieldElem) -> list[int]:
    """Serialize an element as its coefficient list, low degree first, the
    one output notation (parse_element reads it back)."""
    return list(e.coeffs)


def parse_int(entry: str, source: str) -> int:
    """int(entry), or a ValueError naming the text ``source`` it came from."""
    try:
        return int(entry)
    except ValueError:
        raise ValueError(f"{source} has an entry that is not an integer: "
                         f"{entry.strip()!r}") from None


def parse_element(spec: FieldSpec, value) -> FieldElem:
    """Parse an element from an int (constant mod p), a coefficient list, or
    an 'a^k' / 'a^inf' exponent string."""
    if isinstance(value, str):
        text = value.strip()
        if not text.startswith("a^"):
            raise ValueError(f"cannot parse element notation {value!r}")
        suffix = text[2:]
        if suffix == "inf":
            return spec.zero
        return primitive_element(spec) ** parse_int(
            suffix, f"element notation {value!r}")
    return spec.element(value)
