"""Slow, independent reference computations that the tests check the
library against.  Nothing here is imported by the package itself."""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction


def is_prime_by_trial_division(n: int) -> bool:
    """True iff n is a prime, by trial division that stops at the first
    divisor up to isqrt(n)."""
    if n < 4:
        return n >= 2
    return n % 2 != 0 and all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def prime_factors_by_trial_division(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending, by trial division up to
    the square root of the cofactor left."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# -- polynomials as coefficient lists ------------------------------------------
# A polynomial here is a list of FieldElem in one field, low degree first;
# trailing zeros may stand, and Poly(spec, coeffs) drops them.


def poly_add(a, b):
    """Sum of two coefficient lists."""
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + list(a[len(b):])


def poly_mul(a, b):
    """Product of two nonempty coefficient lists, by schoolbook convolution."""
    out = [a[0].spec.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def poly_divmod(a, b):
    """(quotient, remainder) of a by b, whose last coefficient is nonzero,
    by long division; the remainder has len(b) - 1 entries."""
    rem, d = list(a), len(b) - 1
    lead_inv = b[-1].inv()
    quo = [b[0].spec.zero] * max(0, len(a) - d)
    for k in range(len(a) - d - 1, -1, -1):
        quo[k] = c = rem[k + d] * lead_inv
        for i, y in enumerate(b):
            rem[k + i] = rem[k + i] - c * y
    return quo, rem[:d]


def poly_eval(a, x):
    """The coefficient list a at x by Horner's rule, each coefficient
    lifted into x's field when it lies in the ground field of an extension."""
    spec = x.spec
    acc = spec.zero
    for c in reversed(a):
        acc = acc * x + (c if c.spec is spec or c.spec == spec else c.lift(spec))
    return acc


def det_by_elimination(p, entries):
    """Determinant over F_p of the square matrix with row-major integer codes
    ``entries``, the signed pivot product of the list elimination
    linalg._gauss_jordan_lists, also for p = 2."""
    from gfalign.linalg import _gauss_jordan_lists
    n = math.isqrt(len(entries))
    return _gauss_jordan_lists([list(entries[i:i + n]) for i in range(0, n * n, n)], n, p)[1]


def matmul_by_lists(p, *mats):
    """Product, left to right, of matrices of integer codes over F_p, one
    sum of products mod p per entry, also for p = 2."""
    out = mats[0]
    for b in mats[1:]:
        out = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)]
               for row in out]
    return out


def roots_by_enumeration(f, ext):
    """All roots of f in ext, ascending by code, by evaluating f at every
    element of ext."""
    return [e for e in ext.elements() if not poly_eval(f.coeffs, e).code]


def vandermonde_det(values):
    """prod over i < j of (values[j] - values[i])."""
    spec = values[0].spec
    acc = spec.one
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            acc = acc * (values[j] - values[i])
    return acc


def eigenvector_sum_in_extension(a, ext):
    """Codes over F_p of the sum of the eigenvectors of a ground-field matrix
    a, found in the splitting field ext: every eigenvalue by
    roots_in_field, every eigenvector by eigenvectors_in, summed there.
    Fails unless the sum lies in the ground field."""
    from gfalign.linalg import Mat, char_poly, roots_in_field
    values = roots_in_field(char_poly(a), ext)
    assert len(values) == a.nrows, "ext does not split the matrix"
    total = eigenvectors_in(a, ext, values) @ Mat.build(ext, [[1]] * a.nrows)
    codes = tuple(row[0].code for row in total.rows)
    assert all(c < ext.p for c in codes), "the sum is not fixed by Frobenius"
    return codes


def rref(a, aug=None):
    """Gauss-Jordan on [a | aug] over field elements, pivoting on the
    columns of a.  Returns (rows, pivot_cols, det); det is the pivot
    product with the sign flipped at each row swap (zero once a column
    has no pivot), the determinant of a square a.  The field-element
    reference for Mat's elimination on integer codes, over any field."""
    width = a.ncols
    if aug is not None:
        work = [list(r) + list(x) for r, x in zip(a.rows, aug.rows)]
    else:
        work = [list(r) for r in a.rows]
    pivots = []
    det = a.spec.one
    r = 0
    for c in range(width):
        pr = next((i for i in range(r, len(work)) if work[i][c].code), None)
        if pr is None:
            det = a.spec.zero
            continue
        if pr != r:
            work[r], work[pr] = work[pr], work[r]
            det = -det
        det = det * work[r][c]
        inv = work[r][c].inv()
        work[r] = [v * inv for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c].code:
                f = work[i][c]
                work[i] = [v - f * w for v, w in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, pivots, det


def rank_by_rref(a):
    """Rank of a matrix over any field: the pivot count of rref."""
    return len(rref(a)[1])


def det_by_rref(a):
    """Determinant of a square matrix over any field: the signed pivot
    product of rref."""
    return rref(a)[2]


def solve_by_rref(a, b):
    """Mat.solve over any field, by rref of [a | b], with the library's
    Singular and InconsistentSystem outcomes and messages."""
    from gfalign.linalg import Mat, _solution
    work, pivots, _ = rref(a, b)
    return Mat(a.spec, tuple(map(tuple, _solution(work, pivots, a.ncols))))


def inv_by_rref(a):
    """Inverse of a square matrix over any field, as solve_by_rref against I."""
    from gfalign.linalg import Mat
    return solve_by_rref(a, Mat.identity(a.spec, a.nrows))


def eigenvectors_by_vandermonde(hop):
    """HopPlan.eigenvectors as v1 V^-1, for the main precoder v1 and the
    Vandermonde matrix V[j][l] = lambda_j^l of the eigenvalues, V inverted
    by rref in the extension field."""
    from gfalign.linalg import Mat, krylov_precoders, lift_matrix
    ground = hop.product.spec
    v1, _ = krylov_precoders(hop.product, Mat.column(ground, hop.lead),
                             Mat.from_code_rows(ground, hop.cross_codes))
    vandermonde = Mat(hop.ext, tuple(tuple(lam ** l for l in range(len(hop.lead)))
                                     for lam in hop.eigenvalues))
    return lift_matrix(v1, hop.ext) @ inv_by_rref(vandermonde)


def null_space_vector(a):
    """Nonzero kernel vector of a singular square matrix: the basis vector of
    the first free column, scaled so its lowest nonzero entry is 1."""
    from gfalign.errors import Singular
    from gfalign.linalg import Mat
    work, pivots, _ = rref(a)
    n = a.ncols
    free = next((c for c in range(n) if c not in pivots), None)
    if free is None:
        raise Singular("matrix has a trivial kernel")
    spec = a.spec
    v = [spec.zero] * n
    v[free] = spec.one
    for r, c in enumerate(pivots):
        v[c] = -work[r][free]
    low = next(x for x in v if x.code)
    inv = low.inv()
    return Mat.column(spec, [x * inv for x in v])


def eigenvectors_in(a, ext, values):
    """Eigenvector columns of a (lifted into ext) for the given eigenvalues,
    each scaled so its lowest nonzero entry is 1: one kernel search of
    a - lambda I per eigenvalue."""
    from gfalign.linalg import Mat, lift_matrix
    lifted = lift_matrix(a, ext) if a.spec.m == 1 and a.spec != ext else a
    ident = Mat.identity(ext, a.nrows)
    cols = []
    for lam in values:
        shifted = lifted - ident.scale(lam)
        cols.append(null_space_vector(shifted))
    return Mat.from_columns(ext, cols)


def all_monic(spec, degree: int):
    """All monic polynomials of the given degree, in lexicographic order of
    the low-degree-first coefficient vector."""
    from gfalign.polys import Poly
    for low in itertools.product(range(spec.order), repeat=degree):
        yield Poly(spec, [spec.from_code(c) for c in low] + [spec.one])


def factor_by_trial_division(f) -> list:
    """factor_poly of a monic f of degree >= 1 by long division of
    coefficient lists (poly_divmod), over any field: divide by every monic
    polynomial of each degree d <= deg / 2 in turn (all_monic), as often as
    it divides; what is left past that is irreducible.  Sorted as
    factor_poly sorts."""
    from gfalign.polys import Poly
    out = []
    rest, d = f, 1
    while rest.degree > 0:
        if d * 2 > rest.degree:
            out.append((rest, 1))
            break
        for g in all_monic(f.spec, d):
            mult = 0
            quo, rem = poly_divmod(rest.coeffs, g.coeffs)
            while not any(rem):
                rest, mult = Poly(f.spec, quo), mult + 1
                quo, rem = poly_divmod(rest.coeffs, g.coeffs)
            if mult:
                out.append((g, mult))
        d += 1
    out.sort(key=lambda fm: (-fm[0].degree, fm[0].coeff_codes()))
    return out


def is_irreducible(f) -> bool:
    """True iff f is its own factorization (see factor_poly)."""
    from gfalign.polys import factor_poly
    if not f.is_monic or f.degree < 1:
        raise ValueError("irreducibility is defined for monic polynomials of degree >= 1")
    return factor_poly(f) == [(f, 1)]


def enumerate_irreducible(p: int, d: int) -> list:
    """All monic irreducible polynomials of degree d over F_p, lexicographic."""
    from gfalign.gf import prime_field
    spec = prime_field(p)
    return [f for f in all_monic(spec, d) if is_irreducible(f)]


def minimal_polynomial(e):
    """Monic polynomial over F_p of least degree annihilating e.

    Built as the product of (x - c) over the orbit of e under the p-power
    map; the coefficients necessarily collapse into F_p.  The zero element
    gets x.
    """
    from gfalign.gf import conjugates, prime_field
    from gfalign.polys import Poly
    spec = e.spec
    ground = prime_field(spec)
    acc = [spec.one]
    for c in conjugates(e):
        acc = poly_mul(acc, [-c, spec.one])
    codes = []
    for coeff in acc:
        if any(coeff.coeffs[1:]):
            raise AssertionError("orbit product has a coefficient outside F_p")
        codes.append(coeff.coeffs[0])
    return Poly(ground, codes)


def berkowitz_char_poly(a):
    """Monic characteristic polynomial det(xI - a) of a square matrix over
    any field, by Berkowitz's algorithm on field elements: step k extends
    the leading block B (k x k) to [[B, c], [r, d]] by multiplying its
    coefficient vector, highest degree first, by the lower-triangular
    Toeplitz matrix with first column (1, -d, -r c, -r B c, ...,
    -r B^(k-1) c)."""
    from operator import mul
    from gfalign.polys import Poly
    spec, rows = a.spec, a.rows
    zero = spec.zero
    coeffs = [spec.one]
    for k in range(a.nrows):
        r = rows[k][:k]
        v = [row[k] for row in rows[:k]]
        toeplitz = [spec.one, -rows[k][k]]
        for power in range(k):
            if power:
                v = [sum(map(mul, row[:k], v), zero) for row in rows[:k]]
            toeplitz.append(-sum(map(mul, r, v), zero))
        coeffs = [sum((toeplitz[i - j] * c for j, c in enumerate(coeffs) if j <= i),
                      zero) for i in range(k + 2)]
    return Poly(spec, coeffs[::-1])


@functools.cache
def _companion_powers(spec):
    """I, C, ..., C^(m-1) as integer rows mod p, C the companion matrix built
    row by row from the modulus: subdiagonal ones and last column the
    negated modulus coefficients."""
    p, m = spec.p, spec.m
    c = [[int(j == i - 1) for j in range(m - 1)] + [-spec.pi[i] % p]
         for i in range(m)]
    powers = [[[int(i == j) for j in range(m)] for i in range(m)]]
    for _ in range(m - 1):
        powers.append([[sum(row[k] * c[k][j] for k in range(m)) % p
                        for j in range(m)] for row in powers[-1]])
    return powers


def matrix_rep_by_companion_powers(e):
    """The multiplication matrix of e as sum_i b_i C^i over its coefficients
    b_i, C the companion matrix."""
    from gfalign.gf import prime_field
    from gfalign.linalg import Mat
    spec = e.spec
    rows = [[0] * spec.m for _ in range(spec.m)]
    for b, power in zip(e.coeffs, _companion_powers(spec)):
        rows = [[(a + b * x) % spec.p for a, x in zip(ra, rx)]
                for ra, rx in zip(rows, power)]
    return Mat.from_code_rows(prime_field(spec), rows)


def diag_exhaustive_by_enumeration(p, m):
    """Diagonal-model feasibility by enumerating each hop's (p-1)^(4m) slot
    tuples (q11, q12, q21, q22) per slot: hop 1 needs m distinct cross
    ratios q12 q21 / (q11 q22), the inverted hop 2 also needs no ratio
    equal to 1 (every slot invertible).  The hops are independent, so the
    joint fraction is the product of the per-hop fractions."""
    nonzero = range(1, p)
    hop1 = hop2 = 0
    for slots in itertools.product(itertools.product(nonzero, repeat=4), repeat=m):
        ratios = {q12 * q21 * pow(q11 * q22, -1, p) % p
                  for q11, q12, q21, q22 in slots}
        if len(ratios) == m:
            hop1 += 1
            hop2 += 1 not in ratios
    per_hop = (p - 1) ** (4 * m)
    return Fraction(hop1, per_hop) * Fraction(hop2, per_hop)


def random_mimo_channel_by_det(p, m, rng):
    """The channel stream of random_mimo_channel, drawn as Mat objects and
    tested by the list elimination of det_by_elimination: every block until
    one is nonsingular, eight blocks per draw, and the draw kept when both
    compound hops are nonsingular too."""
    from gfalign.gf import prime_field
    from gfalign.linalg import Mat, block2x2
    from gfalign.mimo import MimoChannel
    from gfalign.scheme import _MAX_DRAWS
    ground = prime_field(p)

    def nonsingular(mat):
        return det_by_elimination(p, [e.code for row in mat.rows for e in row]) % p

    def random_invertible():
        while True:
            mat = Mat.build(ground, [[rng.randrange(p) for _ in range(m)]
                                     for _ in range(m)])
            if nonsingular(mat):
                return mat

    for _ in range(_MAX_DRAWS):
        mats = tuple(random_invertible() for _ in range(8))
        if nonsingular(block2x2(*mats[:4])) and nonsingular(block2x2(*mats[4:])):
            return MimoChannel.create(p, m, mats)
    raise AssertionError(f"no valid channel found in {_MAX_DRAWS} draws")


def default_modulus_by_scan(p, m):
    """Lexicographically smallest primitive monic modulus of degree m,
    comparing coefficients low-degree-first, by testing every monic
    polynomial in code order (dead candidates with a zero constant term
    included)."""
    from gfalign.gf import _code_to_coeffs, _passes_order_test
    if m == 1:
        return (0,)
    for code in range(p ** m):
        cand = tuple(reversed(_code_to_coeffs(code, p, m)))
        if cand[0] == 0:
            continue
        if _passes_order_test(p, m, cand):
            return cand
    raise AssertionError("a primitive polynomial always exists")


def add_code(spec, a, b):
    """Code of the sum of the elements with codes a and b, by adding
    coefficient tuples."""
    from gfalign.gf import _code_to_coeffs, _coeffs_to_code
    p, m = spec.p, spec.m
    return _coeffs_to_code(tuple(
        (x + y) % p for x, y in zip(_code_to_coeffs(a, p, m),
                                    _code_to_coeffs(b, p, m))), p)


def neg_code(spec, a):
    """Code of the additive inverse of the element with code a, by negating
    its coefficients."""
    from gfalign.gf import _code_to_coeffs, _coeffs_to_code
    p = spec.p
    return _coeffs_to_code(
        tuple((-x) % p for x in _code_to_coeffs(a, p, spec.m)), p)


def mul_code(spec, a, b):
    """Code of the product of the elements with codes a and b, by polynomial
    multiplication modulo the field modulus."""
    from gfalign.gf import _code_to_coeffs, _coeffs_to_code, _mul_coeffs
    p, m = spec.p, spec.m
    return _coeffs_to_code(_mul_coeffs(
        _code_to_coeffs(a, p, m), _code_to_coeffs(b, p, m), p, m,
        spec._x_pow_m), p)


def pow_code(spec, a, e):
    """Code of a^e for a nonzero code a, by square-and-multiply on
    coefficient tuples."""
    from gfalign.gf import _code_to_coeffs, _coeffs_to_code, _pow_coeffs
    p, m = spec.p, spec.m
    return _coeffs_to_code(_pow_coeffs(
        _code_to_coeffs(a, p, m), e % (spec.order - 1), p, m,
        spec._x_pow_m), p)


def log_walk(spec):
    """Log and antilog tables of an interned field, by multiplying by the
    generator with a full polynomial product at every step."""
    from gfalign.gf import _code_to_coeffs, _coeffs_to_code, _mul_coeffs
    p, m = spec.p, spec.m
    log, exp = [-1] * spec.order, []
    gen = _code_to_coeffs(spec._gen_code, p, m)
    acc = (1,) + (0,) * (m - 1)
    for k in range(spec.order - 1):
        code = _coeffs_to_code(acc, p)
        exp.append(code)
        log[code] = k
        acc = _mul_coeffs(acc, gen, p, m, spec._x_pow_m)
    return log, exp


def dense_tables(spec):
    """Addition and multiplication tables indexed by code, built from
    add_code and mul_code without the library's log tables."""
    codes = range(spec.order)
    return ([[add_code(spec, a, b) for b in codes] for a in codes],
            [[mul_code(spec, a, b) for b in codes] for a in codes])


class ExtensionFieldPipeline:
    """The matrix-channel scheme computed in the extension field F_{p^L}.

    The precoders are built from lifted matrices, every stage is an
    extension-field matrix product or a solve by rref, and each hop acts on
    the coefficient rows of its inputs one slot at a time.  Shares no code
    with the library's F_p core beyond Mat arithmetic and _solution."""

    def __init__(self, plan):
        from gfalign.linalg import Mat, lift_matrix
        ext = self.ext = plan.ext
        ch = self.channel = plan.channel
        m = self.m = ch.m
        q11, q12, q21, q22 = ch.hop1
        s11, s12, s21, s22 = plan.s_blocks

        def lift(a):
            return lift_matrix(a, ext)

        def precoders(hop, cross):
            product = lift(hop.product)
            cols = [hop.eigenvectors @ Mat.build(ext, [[1]] * m)]
            for _ in range(m - 1):
                cols.append(product @ cols[-1])
            side = [lift(cross) @ cols[l] for l in range(m - 1)]
            return (Mat.from_columns(ext, cols),
                    Mat.from_columns(ext, side, nrows=m))

        self.v1, self.v2 = precoders(plan.hop1, q22.inv() @ q21)
        self.v3, self.v4 = precoders(plan.hop2, s22.inv() @ s21)
        self.relay1 = lift(q11) @ self.v1
        self.relay2 = lift(q21) @ self.v1
        self.enc1 = lift(s11) @ self.v3
        self.enc2 = lift(s21) @ self.v3

    def _transport(self, qa, qb, xa, xb):
        from gfalign.linalg import coeff_rows, vector_from_coeff_rows
        slots = qa @ coeff_rows(xa) + qb @ coeff_rows(xb)
        return vector_from_coeff_rows(slots, self.ext)

    def run(self, w1, w2):
        """(decoded_w1, decoded_w2, u1, u2) as tuples of ext symbols."""
        from gfalign.linalg import Mat
        ext, m, ch = self.ext, self.m, self.channel
        q11, q12, q21, q22 = ch.hop1
        q33, q34, q43, q44 = ch.hop2
        x1 = self.v1 @ Mat.column(ext, list(w1))
        x2 = (self.v2 @ Mat.column(ext, list(w2)) if m > 1
              else Mat.zeros(ext, 1, 1))
        u1 = solve_by_rref(self.relay1, self._transport(q11, q12, x1, x2))
        u2 = solve_by_rref(self.relay2, self._transport(q21, q22, x1, x2))
        x3 = self.enc1 @ u1
        x4 = self.enc2 @ u2
        got1 = solve_by_rref(self.v3, self._transport(q33, q34, x3, x4))
        y4 = self._transport(q43, q44, x3, x4)
        got2 = solve_by_rref(self.v4, y4).col_entries(0) if m > 1 else ()
        return (got1.col_entries(0), got2, u1.col_entries(0),
                u2.col_entries(0))


def digit_codec_by_formula(p):
    """scheme._digit_codec entry by entry from its definition: each spread
    from the digits of its code, each residue from the fields of its
    index, in tables of at most 2^12 entries."""
    b, bits = (2 * (p - 1)).bit_length(), 12
    kr, ks, field = bits // b, 1, (1 << b) - 1
    while p ** (ks + 1) <= 1 << bits:
        ks += 1
    spreads = [sum((c // p ** i % p) << (b * i) for i in range(ks))
               for c in range(p ** ks)]
    residues = [sum(((v >> (b * i)) & field) % p * p ** i for i in range(kr))
                for v in range(1 << (kr * b))]
    return spreads, residues, kr * b, p ** kr


def lane_apply(p, rows, vectors, digits):
    """rows applied to vectors of symbol codes, each code a base-p packed
    element of F_p^digits, one digit lane at a time: every code is split
    into its digits, each lane is a separate F_p matrix-vector product, and
    the outputs are packed again."""
    from operator import mul
    from gfalign.gf import _code_to_coeffs, _coeffs_to_code
    out = []
    for x in vectors:
        lanes = zip(*[_code_to_coeffs(c, p, digits) for c in x])
        outputs = [[sum(map(mul, row, lane)) % p for row in rows]
                   for lane in lanes]
        out.append(tuple(_coeffs_to_code(d, p) for d in zip(*outputs)))
    return out


class TwoMapPipeline:
    """A LinearPipeline applied as its two F_p maps, one after the other:
    relay_map to the message, then destination_map to the relay sums, each
    through its own scheme._CodeMap.  Neither map of an intact core is
    made of relay sums alone, so each goes one base-p digit at a time.  The
    reference for the composed map of LinearPipeline.transmit, which
    applies both at once.  The maps are read when the oracle is built."""

    def __init__(self, core):
        from gfalign.scheme import _CodeMap
        self.m = core.m
        self._relay = _CodeMap(core.p, core.relay_map)
        self._destination = _CodeMap(core.p, core.destination_map)

    def relay_half(self, w1, w2):
        """Symbol-code tuples (u1, u2) of the sums both relays decode from
        the message (w1, w2), itself m and m-1 symbol codes."""
        u = self._relay.apply([*w1, *w2])
        return tuple(u[:self.m]), tuple(u[self.m:])

    def destination_half(self, u1, u2):
        """Symbol-code tuples (w1, w2) decoded from the relay sums (u1, u2);
        InconsistentSystem when the destination-2 observation leaves the
        column space of v4."""
        w = self._decode([*u1, *u2])
        return tuple(w[:self.m]), tuple(w[self.m:])

    def transmit(self, x):
        """Both halves on flat code lists: (u1; u2) and the decoded (w1; w2)
        of the message x = (w1; w2)."""
        u = self._relay.apply(x)
        return u, self._decode(u)

    def _decode(self, u):
        from gfalign.errors import InconsistentSystem
        w = self._destination.apply(u)
        if w.pop():
            raise InconsistentSystem(
                "destination-2 observation left the side-precoder column space")
        return w


def lane_relay_half(core, w1, w2, digits):
    """TwoMapPipeline.relay_half computed lane by lane."""
    m = core.m
    (u,) = lane_apply(core.p, core.relay_map, [[*w1, *w2]], digits)
    return u[:m], u[m:]


def lane_destination_half(core, u1, u2, digits):
    """TwoMapPipeline.destination_half computed lane by lane."""
    from gfalign.errors import InconsistentSystem
    m = core.m
    (w,) = lane_apply(core.p, core.destination_map, [[*u1, *u2]], digits)
    if w[-1]:
        raise InconsistentSystem("residual is nonzero")
    return w[:m], w[m:-1]


def batch(half, xs, ys):
    """A one-message half (relay_half or destination_half) applied to each
    pair of xs and ys, as the list of first and the list of second
    outputs."""
    outs = [half(x, y) for x, y in zip(xs, ys)]
    return [a for a, _ in outs], [b for _, b in outs]


def lane_run(pipe, w1, w2):
    """MimoPipeline.run computed lane by lane, with symbols built by
    from_code."""
    ext, core = pipe.ext, pipe.core
    x1 = [ext.element(v).code for v in w1]
    x2 = [ext.element(v).code for v in w2]
    u1, u2 = lane_relay_half(core, x1, x2, ext.m)
    got1, got2 = lane_destination_half(core, u1, u2, ext.m)
    return tuple(tuple(ext.from_code(c) for c in codes)
                 for codes in (got1, got2, u1, u2))


def element_run(pipe, w1, w2):
    """MimoPipeline.run on elements, generic in m: each symbol's code (an
    element of ext as it is, any other symbol through ext.element) in one
    flat list through LinearPipeline.transmit, the residual tested, and the
    output codes wrapped by ext's element table or from_code."""
    from gfalign.errors import InconsistentSystem
    from gfalign.gf import FieldElem
    from gfalign.linalg import _element_of_code
    m, ext, symbol = pipe.core.m, pipe.ext, _element_of_code(pipe.ext)
    if len(w1) != m or len(w2) != m - 1:
        raise ValueError(f"expected message lengths {m} and {m - 1}")
    out = pipe.core.transmit([
        v.code if type(v) is FieldElem and v.spec is ext else ext.element(v).code
        for v in (*w1, *w2)])
    if out[0]:
        raise InconsistentSystem(
            "destination-2 observation left the side-precoder column space")
    out, n = tuple([*map(symbol, out[1:])]), 2 * m - 1
    return out[:m], out[m:n], out[n:n + m], out[n + m:]


def relay_sums(p, msg):
    """The symbol sums relays 1 and 2 decode: w1_i + w2_{i-1} and
    w1_i + w2_i."""
    return (tuple((a + b) % p for a, b in zip(msg.w1, (0,) + msg.w2)),
            tuple((a + b) % p for a, b in zip(msg.w1, msg.w2 + (0,))))


def mismatches(got, want):
    """Messages whose lanes differ between two (lanes_1, lanes_2) pairs."""
    return sum(g != w for g, w in zip(zip(*got), zip(*want)))


def sweep_failures(core, factored):
    """Failing messages of one LinearPipeline, by sending every one of the
    p^(2m-1) messages through the two maps (TwoMapPipeline).  Factored,
    the relay half must return the sums, and the destination half is fed
    the true sums instead of the relayed ones.  A message whose decode
    raises InconsistentSystem (a nonzero residual) fails."""
    import itertools
    from gfalign.errors import InconsistentSystem
    from gfalign.scheme import MessagePair
    p, m = core.p, core.m
    messages = [MessagePair(w1, w2)
                for w1 in itertools.product(range(p), repeat=m)
                for w2 in itertools.product(range(p), repeat=m - 1)]
    sent = ([msg.w1 for msg in messages], [msg.w2 for msg in messages])
    sums = tuple(zip(*(relay_sums(p, msg) for msg in messages)))
    failures = 0
    core = TwoMapPipeline(core)
    relayed = batch(core.relay_half, *sent)
    if factored:
        failures += mismatches(relayed, sums)
        relayed = sums

    def decode(u1, u2):
        try:
            return core.destination_half(u1, u2)
        except InconsistentSystem:
            return None
    return failures + sum(decode(*u) != w
                          for u, w in zip(zip(*relayed), zip(*sent)))


def composed_maps(p, hop1, hop2, s11, s21, v1, v2, v3, v4):
    """(relay_map, destination_map) of LinearPipeline composed from explicit
    inverses: relay_map = diag((Q11 v1)^-1, (Q21 v1)^-1) hop1 diag(v1, v2)
    and destination_map = diag(v3^-1, T) hop2 diag(S11 v3, S21 v3), with T
    the row operations that reduce [v4 | I] to [T v4 | T].  Singular when
    Q11 v1, Q21 v1 or v3 has no inverse, checked in that order."""
    from gfalign.linalg import _block_diag, _gauss_jordan_mod_p, _inv_mod_p, _matmul_mod_p
    m = v1.nrows
    hop1, hop2, v1, v2, v3, v4, s11, s21 = (
        mat.to_code_rows() for mat in (hop1, hop2, v1, v2, v3, v4, s11, s21))
    work = [r + [int(i == j) for j in range(m)] for i, r in enumerate(v4)]
    _gauss_jordan_mod_p(work, m - 1, p)
    t = [row[m - 1:] for row in work]
    q11, q21 = [row[:m] for row in hop1[:m]], [row[:m] for row in hop1[m:]]
    relays = _block_diag(_inv_mod_p(_matmul_mod_p(p, q11, v1), p),
                         _inv_mod_p(_matmul_mod_p(p, q21, v1), p))
    relay_map = _matmul_mod_p(p, relays, hop1, _block_diag(v1, v2))
    encoders = _block_diag(_matmul_mod_p(p, s11, v3), _matmul_mod_p(p, s21, v3))
    destination_map = _matmul_mod_p(p, _block_diag(_inv_mod_p(v3, p), t),
                                    hop2, encoders)
    return relay_map, destination_map


@dataclass(frozen=True)
class HopScan:
    """Exhaustive classification of the all-nonzero hop coefficient 4-tuples.

    It serves both hops: a tuple's cross ratio is the same whether it is
    read as the first hop or, through the inverted matrix, as the second.
    """

    tuples: int
    valid: int          # full-rank matrices among all-nonzero tuples
    feasible: int       # valid and full-degree cross ratio
    feasible_tuples: list       # of 4-tuples of field elements


def _scan_hop(spec) -> HopScan:
    """Every all-nonzero hop tuple classified one at a time: its
    determinant, then the minimal-polynomial degree of its cross ratio."""
    from gfalign.gf import minpoly_degree
    from gfalign.scheme import _cross_ratio
    elems = list(spec.nonzero_elements())
    valid = 0
    keep = []
    for t in itertools.product(elems, repeat=4):
        a, b, c, d = t
        if not a * d - b * c:
            continue
        valid += 1
        if minpoly_degree(_cross_ratio(*t)) == spec.m:
            keep.append(t)
    return HopScan(len(elems) ** 4, valid, len(keep), keep)


def scan_by_sweep(p, m, pi=None):
    """exhaustive_scan computed by sending every message through every
    channel's pipeline instead of certifying the two maps; it picks its mode
    by the scan's own rule, scheme._PAIR_LIMIT."""
    import itertools
    from gfalign import scheme
    from gfalign.gf import make_field
    from gfalign.scheme import (ScanReport, TwoHopChannel, build_precoders,
                                scalar_pipeline)
    spec = make_field(p, m, pi)
    scan = _scan_hop(spec)
    valid_channels = scan.valid ** 2
    feasible_channels = scan.feasible ** 2
    paired = valid_channels <= scheme._PAIR_LIMIT
    channels = (list(itertools.product(scan.feasible_tuples, repeat=2)) if paired
                else [(t, t) for t in scan.feasible_tuples])
    failures = 0
    for t1, t2 in channels:
        ch = TwoHopChannel(spec, t1, t2)
        core = scalar_pipeline(ch, build_precoders(ch))
        failures += sweep_failures(core, not paired)
    messages = spec.order * spec.order // p
    round_trips = len(channels) * messages * (1 if paired else 2)
    counts = (scan.tuples, scan.valid, scan.feasible)
    return ScanReport(
        p, m, list(spec.modulus_coeffs), "paired" if paired else "factored",
        counts, counts, valid_channels, feasible_channels,
        feasible_channels / valid_channels if valid_channels else None,
        feasible_channels / scan.tuples ** 2,
        messages, round_trips, failures)
