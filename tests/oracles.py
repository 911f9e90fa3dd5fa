"""Slow, independent reference computations that the tests check the
library against.  Nothing here is imported by the package itself."""

import functools
import itertools
from fractions import Fraction


def roots_by_enumeration(f, ext):
    """All roots of f in ext, ascending by code, by evaluating f at every
    element of ext."""
    return [e for e in ext.elements() if not f(e).code]


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
    from gfalign.linalg import Mat, char_poly, eigenvectors_in, roots_in_field
    values = roots_in_field(char_poly(a), ext)
    assert len(values) == a.nrows, "ext does not split the matrix"
    total = eigenvectors_in(a, ext, values) @ Mat.build(ext, [[1]] * a.nrows)
    codes = tuple(row[0].code for row in total.rows)
    assert all(c < ext.p for c in codes), "the sum is not fixed by Frobenius"
    return codes


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
    tested by Mat.det: every block until one is nonsingular, eight blocks
    per draw, and the draw kept when both compound hops are nonsingular
    too."""
    from gfalign.gf import prime_field
    from gfalign.linalg import Mat, block2x2
    from gfalign.mimo import MimoChannel
    from gfalign.scheme import _MAX_DRAWS
    ground = prime_field(p)

    def random_invertible():
        while True:
            mat = Mat.build(ground, [[rng.randrange(p) for _ in range(m)]
                                     for _ in range(m)])
            if mat.det():
                return mat

    for _ in range(_MAX_DRAWS):
        mats = tuple(random_invertible() for _ in range(8))
        if block2x2(*mats[:4]).det() and block2x2(*mats[4:]).det():
            return MimoChannel(ground, m, mats)
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
    extension-field matrix product or solve, and each hop acts on the
    coefficient rows of its inputs one slot at a time.  Shares no code with
    the library's F_p core beyond Mat arithmetic."""

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
        u1 = self.relay1.solve(self._transport(q11, q12, x1, x2))
        u2 = self.relay2.solve(self._transport(q21, q22, x1, x2))
        x3 = self.enc1 @ u1
        x4 = self.enc2 @ u2
        got1 = self.v3.solve(self._transport(q33, q34, x3, x4))
        y4 = self._transport(q43, q44, x3, x4)
        got2 = self.v4.solve(y4).col_entries(0) if m > 1 else ()
        return (got1.col_entries(0), got2, u1.col_entries(0),
                u2.col_entries(0))


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


def lane_relay_half(core, w1, w2, digits):
    """LinearPipeline.relay_half computed lane by lane."""
    m = core.m
    (u,) = lane_apply(core.p, core.relay_map, [[*w1, *w2]], digits)
    return u[:m], u[m:]


def lane_destination_half(core, u1, u2, digits):
    """LinearPipeline.destination_half computed lane by lane."""
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
    p^(2m-1) messages through relay_half and destination_half.  Factored,
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


def scan_by_sweep(p, m, pi=None):
    """exhaustive_scan computed by sending every message through every
    channel's pipeline instead of certifying the two maps; it picks its mode
    by the scan's own rule, scheme._PAIR_LIMIT."""
    import itertools
    from gfalign import scheme
    from gfalign.gf import make_field
    from gfalign.scheme import (ScanReport, TwoHopChannel, _scan_hop,
                                build_precoders, scalar_pipeline)
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
