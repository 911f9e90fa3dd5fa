"""End-to-end transmission scheme for the scalar two-hop 2x2x2 interference
channel over F_{p^m}.

The pipeline delivers 2m-1 ground-field symbols per channel use when the
channel is feasible:

* source 1 carries m symbols, source 2 carries m-1;
* precoders align the interfering streams so each relay observes an
  invertible image of simple symbol sums (relay 1 sees w1 shifted-added with
  w2, relay 2 the unshifted sums);
* relays re-encode their decoded sums through the inverse of the second-hop
  matrix, which diagonalizes the network: destination 1 receives only w1,
  destination 2 only w2.

Feasibility hinges on two cross ratios, one per hop: each hop's own ratio
a^-1 b d^-1 c of its coefficients (a, b, c, d).  The relays precode with the
same expression in the blocks of the inverted second-hop matrix, but the
determinant cancels, so that ratio is the second hop's own.  The scheme works
exactly when both ratios have minimal polynomials of full degree m, which
makes the power-basis precoders full rank.

simulate runs LinearPipeline, the F_p core shared with the matrix-channel
model, which holds each half of the pipeline as one F_p matrix and applies
both halves to symbol codes as one composed map; exhaustive_scan reads its
failure counts off the two matrices by rank.  The stage functions
source_encode .. destination_decode are the reference.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from dataclasses import dataclass
from operator import itemgetter, mul
from typing import Iterator, Sequence

from .errors import SingularChannel, TooLarge
from .gf import (FieldElem, FieldSpec, _randbelow, check_field_params,
                 format_element, make_field, minpoly_degree, parse_element,
                 prime_field)
from .linalg import (Mat, _block_diag, _gauss_jordan_mod_p, _matmul_mod_p,
                     _solve_mod_p, block2x2, coeff_vector, elem_from_coeff_vector,
                     krylov_precoders, matrix_rep)
from .polys import count_irreducible

_HOP1_KEYS = ("q11", "q12", "q21", "q22")
_HOP2_KEYS = ("q33", "q34", "q43", "q44")
_MAX_DRAWS = 10000      # rejection-sampling budget of the random channel draws
_CORE_LIMIT = 50000     # scan set-ups: GF(16) needs 40 500, GF(17) 61 440
# m ceil(log2 p) up to which _core_count is made: counting GF(2^12000001),
# the cheapest field past it, took 22 s (Python 3.11, 2 vCPUs)
_COUNT_BITS_LIMIT = 12_000_000
_PAIR_LIMIT = 20000     # valid channels up to which a scan runs every pair


@dataclass(frozen=True)
class TwoHopChannel:
    """Eight scalar coefficients of a two-hop 2x2x2 channel over F_{p^m}.

    hop1 holds (q11, q12, q21, q22), hop2 holds (q33, q34, q43, q44).
    Degenerate coefficient sets (zeros, singular hops) are accepted here and
    reported as infeasible by check_feasible, so scanners can iterate over
    arbitrary tuples uniformly.
    """

    spec: FieldSpec
    hop1: tuple[FieldElem, FieldElem, FieldElem, FieldElem]
    hop2: tuple[FieldElem, FieldElem, FieldElem, FieldElem]

    @classmethod
    def create(cls, spec: FieldSpec, hop1: Sequence, hop2: Sequence) -> "TwoHopChannel":
        if len(hop1) != 4 or len(hop2) != 4:
            raise ValueError("each hop needs exactly four coefficients")
        return cls(spec,
                   tuple(spec.element(v) for v in hop1),
                   tuple(spec.element(v) for v in hop2))

    def hop_det(self, hop: int) -> FieldElem:
        a, b, c, d = self.hop1 if hop == 1 else self.hop2
        return a * d - b * c


def second_hop_inverse(ch: TwoHopChannel) -> tuple[FieldElem, ...]:
    """Blocks (s11, s12, s21, s22) of the inverted second-hop matrix."""
    q33, q34, q43, q44 = ch.hop2
    det = ch.hop_det(2)
    dinv = det.inv()
    return (q44 * dinv, -q34 * dinv, -q43 * dinv, q33 * dinv)


def _cross_ratio(a: FieldElem, b: FieldElem, c: FieldElem,
                 d: FieldElem) -> FieldElem:
    """a^-1 b d^-1 c for the hop matrix [[a, b], [c, d]]."""
    return a.inv() * b * d.inv() * c


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of the feasibility test with the reasons for a rejection."""

    feasible: bool
    model_ok: bool                 # all coefficients nonzero, both hops full rank
    hop1_degree: int | None        # minimal-polynomial degree of the hop-1 ratio
    hop2_degree: int | None
    reasons: tuple[str, ...]


def check_feasible(ch: TwoHopChannel) -> FeasibilityVerdict:
    """Feasible iff both cross ratios have minimal polynomials of degree m.

    Model violations (zero coefficients, singular hop matrices, vanished
    inverse blocks) are reported as reasons rather than raised, so arbitrary
    channel tuples can be classified uniformly.
    """
    m = ch.spec.m
    reasons = [f"zero channel coefficient {name}"
               for name, value in zip(_HOP1_KEYS + _HOP2_KEYS, ch.hop1 + ch.hop2)
               if not value]
    if not ch.hop_det(1):
        reasons.append("first-hop matrix is singular")
    if not ch.hop_det(2):
        reasons.append("second-hop matrix is singular")
    model_ok = not reasons

    deg1 = deg2 = None
    q11, _, _, q22 = ch.hop1
    if q11 and q22:
        deg1 = minpoly_degree(_cross_ratio(*ch.hop1))
        if deg1 != m:
            reasons.append(f"first-hop ratio has minimal polynomial degree {deg1} < {m}")
    if ch.hop_det(2):
        if not all(ch.hop2):
            reasons.append("inverted second hop has a zero block")
        else:
            deg2 = minpoly_degree(_cross_ratio(*ch.hop2))
            if deg2 != m:
                reasons.append(
                    f"second-hop ratio has minimal polynomial degree {deg2} < {m}")
    feasible = model_ok and deg1 == m and deg2 == m
    return FeasibilityVerdict(feasible, model_ok, deg1, deg2, tuple(reasons))


@dataclass(frozen=True)
class PrecoderSet:
    """Precoding matrices over F_p plus the scalars they were built from.

    v1 (m x m) and v2 (m x m-1) precode the sources; v3 and v4 play the same
    roles for the relays with respect to the inverted second hop, whose
    blocks s11..s22 also scale the relay outputs.
    """

    spec: FieldSpec
    v1: Mat
    v2: Mat
    v3: Mat
    v4: Mat
    hop1_ratio: FieldElem
    hop2_ratio: FieldElem
    s11: FieldElem
    s12: FieldElem
    s21: FieldElem
    s22: FieldElem


def build_precoders(ch: TwoHopChannel) -> PrecoderSet:
    """Construct the four precoding matrices of a feasible channel.

    A scalar hop is the F_p matrix channel with blocks matrix_rep(q), so v1
    and v2 are its Krylov precoders: product matrix_rep(r1) for the hop-1
    ratio r1, lead the unit element's coefficient vector (column l of v1 is
    that of r1^l), and cross matrix_rep(q22^-1 q21), which makes both relays
    observe aligned sums.  v3 and v4 mirror this for the second hop.  An
    infeasible channel raises ValueError.  LinearPipeline raises Singular
    should v1 or v3 be singular, and stores how far the maps they produce
    miss the alignment identities (relay_defect, destination_defect).
    """
    verdict = check_feasible(ch)
    if not verdict.feasible:
        raise ValueError("channel is infeasible: " + "; ".join(verdict.reasons))
    spec = ch.spec
    r1, r2 = _cross_ratio(*ch.hop1), _cross_ratio(*ch.hop2)
    s11, s12, s21, s22 = second_hop_inverse(ch)
    q21, q22 = ch.hop1[2:]

    unit = coeff_vector(spec.one)
    v1, v2 = krylov_precoders(matrix_rep(r1), unit, matrix_rep(q22.inv() * q21))
    v3, v4 = krylov_precoders(matrix_rep(r2), unit, matrix_rep(s22.inv() * s21))
    return PrecoderSet(spec, v1, v2, v3, v4, r1, r2, s11, s12, s21, s22)


@dataclass(frozen=True)
class MessagePair:
    """Source messages: m symbols for source 1, m-1 for source 2, over F_p."""

    w1: tuple[int, ...]
    w2: tuple[int, ...]

    @classmethod
    def create(cls, spec: FieldSpec, w1: Sequence[int], w2: Sequence[int]) -> "MessagePair":
        m, p = spec.m, spec.p
        w1 = tuple(int(v) for v in w1)
        w2 = tuple(int(v) for v in w2)
        if len(w1) != m or len(w2) != m - 1:
            raise ValueError(f"expected message lengths {m} and {m - 1}")
        if any(not 0 <= v < p for v in w1 + w2):
            raise ValueError(f"message symbols must lie in [0, {p})")
        return cls(w1, w2)


def all_messages(spec: FieldSpec) -> Iterator[MessagePair]:
    """Every message pair, in lexicographic order."""
    p, m = spec.p, spec.m
    for w1 in itertools.product(range(p), repeat=m):
        for w2 in itertools.product(range(p), repeat=m - 1):
            yield MessagePair(w1, w2)


def random_message(spec: FieldSpec, rng: random.Random) -> MessagePair:
    p, m = spec.p, spec.m
    return MessagePair(tuple(_randbelow(rng, p) for _ in range(m)),
                       tuple(_randbelow(rng, p) for _ in range(m - 1)))


def _precode(v: Mat, w: tuple[int, ...], spec: FieldSpec) -> Mat:
    ground = prime_field(spec)
    if not w:
        return Mat.zeros(ground, spec.m, 1)
    return v @ Mat.column(ground, [ground.from_code(c) for c in w])


def source_encode(pre: PrecoderSet, msg: MessagePair) -> tuple[FieldElem, FieldElem]:
    """Precode both messages over F_p and map the columns back to scalars."""
    spec = pre.spec
    x1 = elem_from_coeff_vector(_precode(pre.v1, msg.w1, spec), spec)
    x2 = elem_from_coeff_vector(_precode(pre.v2, msg.w2, spec), spec)
    return x1, x2


def apply_hop(ch: TwoHopChannel, hop: int, xa: FieldElem,
              xb: FieldElem) -> tuple[FieldElem, FieldElem]:
    """Scalar channel action of one hop on a pair of inputs."""
    a, b, c, d = ch.hop1 if hop == 1 else ch.hop2
    return a * xa + b * xb, c * xa + d * xb


def relay_decode(pre: PrecoderSet, ch: TwoHopChannel, y: FieldElem,
                 relay: int) -> tuple[int, ...]:
    """Solve the aligned system at a relay.

    The observation satisfies coeff_vector(y) = rep(q_r1) v1 u where u is a
    plain symbol-sum pattern: relay 1 sees (w1_1, w1_2 + w2_1, ...,
    w1_m + w2_{m-1}) and relay 2 (w1_1 + w2_1, ..., w1_{m-1} + w2_{m-1},
    w1_m).  The system matrix is invertible for every feasible channel.
    """
    q = ch.hop1[0] if relay == 1 else ch.hop1[2]
    system = matrix_rep(q) @ pre.v1
    u = system.solve(coeff_vector(y))
    return tuple(row[0].code for row in u.rows)


def relay_encode(pre: PrecoderSet, u: Sequence[int], relay: int) -> FieldElem:
    """Re-encode decoded sums through the inverted second hop.

    Relay r transmits the scalar of rep(s_r1) v3 u; jointly the two relay
    outputs equal the inverted second-hop matrix applied to (v3 w1, v4 w2),
    so the hop that follows cancels to a diagonal end-to-end map.
    """
    spec = pre.spec
    ground = prime_field(spec)
    s = pre.s11 if relay == 1 else pre.s21
    x = matrix_rep(s) @ pre.v3 @ Mat.column(ground, [ground.from_code(c) for c in u])
    return elem_from_coeff_vector(x, spec)


def destination_decode(pre: PrecoderSet, y3: FieldElem,
                       y4: FieldElem) -> MessagePair:
    """Invert v3 at destination 1; solve the tall v4 system at destination 2
    (Mat.solve reduces every row, so an inconsistent right-hand side raises
    InconsistentSystem instead of silently dropping rows)."""
    spec = pre.spec
    w1 = tuple(row[0].code for row in pre.v3.solve(coeff_vector(y3)).rows)
    if spec.m == 1:
        w2: tuple[int, ...] = ()
    else:
        sol = pre.v4.solve(coeff_vector(y4))
        w2 = tuple(row[0].code for row in sol.rows)
    return MessagePair(w1, w2)


_TABLE_BITS = 12        # a digit table has at most 2^12 entries


@functools.cache
def _digit_codec(p: int):
    """(spreads, residues, width, base) for an odd p with 2 (p-1) < 2^12,
    in fields of b = bitlen(2 (p-1)) bits, wide enough for a sum of two.

    spreads[c] holds the base-p digits of the code c one per b-bit field,
    for the codes of as many digits as 2^12 entries hold; residues[v] is
    the base-p code of the residues mod p of the fields of v, for v below
    2^width: one chunk of width // b fields, coded below base.  A spread
    code holds at most two chunks, so a sum of two folds by at most two
    lookups.  Both tables grow one digit or field at a time, the new one
    highest: one addition per entry.
    """
    b = (2 * (p - 1)).bit_length()
    kr, ks = _TABLE_BITS // b, 1
    while p ** (ks + 1) <= 1 << _TABLE_BITS:
        ks += 1
    spreads, residues = [0], [0]
    for i in range(ks):
        spreads = [s + (d << (b * i)) for d in range(p) for s in spreads]
    for i in range(kr):
        residues = [r + f % p * p ** i for f in range(1 << b) for r in residues]
    return spreads, residues, kr * b, p ** kr


def _by_digits(base: int, outputs: int, kernel, x) -> list[int]:
    """A map that acts on each base-p digit lane alone, applied to the codes
    x by cutting them into digits of base base (a power of p), applying
    kernel, a function of a tuple of digits to outputs codes below base, to
    each digit position, and adding its outputs up by powers of base."""
    out, scale = [0] * outputs, 1
    while any(x):
        x, low = zip(*[divmod(c, base) for c in x])
        out = [a + y * scale for a, y in zip(out, kernel(low))]
        scale *= base
    return out


class _CodeMap:
    """An F_p matrix (rows of integer codes) acting on vectors of symbol
    codes: each symbol is a vector of F_p^L packed as base-p digits, and
    the map acts on every digit lane alone.

    When every row is the sum of two inputs, as the relay sums of an intact
    core are, pairs holds their column pairs and the map is one loop over
    them: x[j] ^ x[k] for p = 2; for odd p with 2 (p-1) < 2^12 each code's
    digits are spread into fields wide enough for the sum of two, so one
    integer sum adds every digit position at once, and residue tables fold
    it back to a base-p code.  A vector with a code past the spread table
    goes through the same loop chunk by chunk, in base len(spreads).  Any
    other map, or relay sums at a wider p, has pairs None and goes one
    base-p digit at a time, each row a sum of products mod p.
    """

    def __init__(self, p: int, rows: list[list[int]]):
        self.rows = rows
        terms = [[(j, a) for j, a in enumerate(row) if a] for row in rows]
        pairs = [(row[0][0], row[1][0]) for row in terms
                 if len(row) == 2 and row[0][1] == row[1][1] == 1]
        if len(pairs) < len(rows) or (2 * (p - 1)).bit_length() > _TABLE_BITS:
            self.pairs = None
            self.apply = functools.partial(_by_digits, p, len(rows), lambda d: [
                sum(map(mul, row, d)) % p for row in rows])
            return
        self.pairs = pairs
        if p == 2:
            def apply(x):
                out = []
                for j, k in pairs:
                    out.append(x[j] ^ x[k])
                return out
            self.apply = apply
            return
        spreads, residues, w, base = _digit_codec(p)
        mask = (1 << w) - 1

        def apply(x):
            out = []
            try:
                for j, k in pairs:
                    s = spreads[x[j]] + spreads[x[k]]
                    out.append(residues[s] if s <= mask
                               else residues[s & mask] + residues[s >> w] * base)
            except IndexError:
                return _by_digits(len(spreads), len(pairs), apply, x)
            return out
        self.apply = apply


@functools.cache
def _relay_sum_rows(m: int) -> tuple[tuple[int, ...], ...]:
    """S with (u1; u2) = S (w1; w2), the sums of relay_decode.  Built once
    per m and shared by every set-up and certificate, so its rows are
    tuples."""
    return tuple(tuple([int(j == i) for j in range(m)]
                       + [int(k == i - shift) for k in range(m - 1)])
                 for shift in (1, 0) for i in range(m))


@functools.cache
def _decode_target(m: int) -> tuple[tuple[int, ...], ...]:
    """[I; 0], the (2m) x (2m-1) value of destination_map S: the message,
    then a zero residual."""
    n = 2 * m - 1
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n + 1))


def _defect(p: int, got, want, *factors) -> int:
    """rank(got factors - want) over F_p, as Gauss-Jordan pivots; want is a tuple of tuples."""
    got = tuple(map(tuple, _matmul_mod_p(p, got, *factors)))
    return 0 if got == want else len(_gauss_jordan_mod_p(
        [[(a - b) % p for a, b in zip(ra, rb)] for ra, rb in zip(got, want)],
        len(want[0]), p)[0])


class LinearPipeline:
    """The scheme as two F_p matrices of integer codes, composed once from
    p, the compound 2m x 2m hops, the inverse blocks S11, S21 and v1..v4,
    each as rows of integer codes mod p, by the decoders' own solves, with
    no inverse: by Q11 v1, Q21 v1 and v3 (Singular if one is singular,
    checked in that order), and one Gauss-Jordan pass over v4 beside
    destination 2's observations.

    relay_map (2m x 2m-1) takes (w1; w2) to the relay sums (u1; u2), and
    destination_map (2m x 2m) takes (u1; u2) to (w1; w2; r), where the
    destination-2 residual r is zero iff y4 lies in the column space of v4.
    Both act on vectors of symbol codes, base-p packed elements of F_p^L:
    L = 1 in the scalar model, the extension degree in the matrix model.

    relay_map = S (_relay_sum_rows) and destination_map S = [I; 0] hold
    exactly when the alignment identities Q11 v1[l+1] = Q12 v2[l], Q21 v1[l]
    = Q22 v2[l] (and their S-block twins for v3, v4) hold and S11, S21 are
    blocks of the inverse of hop 2.  Setting a map stores the rank of
    relay_map - S or destination_map S - [I; 0]: relay_defect, destination_defect,
    and drops the composed map and transmit, built again on the next call.
    """

    def __init__(self, p: int, hop1: list, hop2: list, s11: list, s21: list,
                 v1: list, v2: list, v3: list, v4: list):
        m = len(v1)
        self.p, self.m = p, m
        # relay r observes [Q_r1 v1 | Q_r2 v2] (w1; w2) and solves by Q_r1 v1
        g = _matmul_mod_p(p, hop1, _block_diag(v1, v2))
        top, bottom = g[:m], g[m:]
        self.relay_map = (_solve_mod_p([row[:m] for row in top], top, p)
                          + _solve_mod_p([row[:m] for row in bottom], bottom, p))
        # destination 1 solves by v3; destination 2 reduces [v4 | y4], whose
        # row operations depend on v4 alone: they take v4 to [I; 0] when it
        # has full column rank, and y4 to w2 and the residual
        h = _matmul_mod_p(p, hop2, _block_diag(_matmul_mod_p(p, s11, v3),
                                               _matmul_mod_p(p, s21, v3)))
        work = [a + b for a, b in zip(v4, h[m:])]
        _gauss_jordan_mod_p(work, m - 1, p)
        self.destination_map = (_solve_mod_p(v3, h[:m], p)
                                + [row[m - 1:] for row in work])

    @property
    def relay_map(self) -> list[list[int]]:
        return self._relay_rows

    @relay_map.setter
    def relay_map(self, rows: list[list[int]]) -> None:
        self._relay_rows = rows
        self.relay_defect = _defect(self.p, rows, _relay_sum_rows(self.m))
        self._drop_composed()

    @property
    def destination_map(self) -> list[list[int]]:
        return self._destination_rows

    @destination_map.setter
    def destination_map(self, rows: list[list[int]]) -> None:
        self._destination_rows = rows
        self._decode_sums = _matmul_mod_p(self.p, rows, _relay_sum_rows(self.m))
        self.destination_defect = _defect(self.p, self._decode_sums,
                                          _decode_target(self.m))
        self._drop_composed()

    def _drop_composed(self) -> None:
        self.__dict__.pop("composed_map", None)
        self.__dict__.pop("transmit", None)

    @functools.cached_property
    def composed_map(self) -> tuple[tuple[int, ...], _CodeMap | None]:
        """The pipeline as one map of the message x = (w1; w2), 2m-1 symbol
        codes, to (r, w1, w2, u1, u2), 4m codes: the destination-2 residual,
        the decoded message and the relay sums.  Its rows are [D R; R] for
        D = destination_map and R = relay_map, residual row first.  An
        intact relay map is S, so D R is the product D S the destination
        defect took.  Returns (gather, code_map): output i is entry
        gather[i] of [*x, 0, *code_map.apply(x)].  Rows that copy one
        input, or are zero, are gathered by their index in [I; 0]; only the
        other distinct rows, on an intact core the relay sums of two
        inputs, go through code_map, which is None when there are none."""
        relay = self.relay_map
        composed = (_matmul_mod_p(self.p, self.destination_map, relay)
                    if self.relay_defect else self._decode_sums)
        rows = [tuple(row) for row in (composed[-1], *composed[:-1], *relay)]
        index = {row: i for i, row in enumerate(_decode_target(self.m))}
        general = [row for row in dict.fromkeys(rows) if row not in index]
        index.update({row: i for i, row in enumerate(general, len(index))})
        return tuple(map(index.get, rows)), _CodeMap(self.p, general) if general else None

    @functools.cached_property
    def transmit(self):
        """composed_map as one function of a flat list of 2m-1 symbol codes
        to the tuple of 4m codes (r, w1, w2, u1, u2)."""
        gather, code_map = self.composed_map
        pick = itemgetter(*gather)
        apply = code_map.apply if code_map is not None else lambda x: ()
        return lambda x: pick([*x, 0, *apply(x)])


def scalar_pipeline(ch: TwoHopChannel, pre: PrecoderSet) -> LinearPipeline:
    """The F_p core of a scalar channel: each coefficient becomes its
    multiplication matrix."""
    reps = [matrix_rep(q) for q in ch.hop1 + ch.hop2]
    return LinearPipeline(ch.spec.p, *map(Mat.to_code_rows, (
        block2x2(*reps[:4]), block2x2(*reps[4:]), matrix_rep(pre.s11), matrix_rep(pre.s21),
        pre.v1, pre.v2, pre.v3, pre.v4)))


@dataclass(frozen=True)
class SimulationReport:
    """Record of one end-to-end run (or of a feasibility rejection)."""

    channel: TwoHopChannel
    verdict: FeasibilityVerdict
    hop1_ratio: FieldElem | None
    hop2_ratio: FieldElem | None
    precoders: PrecoderSet | None
    u1: tuple[int, ...] | None
    u2: tuple[int, ...] | None
    message: MessagePair | None
    decoded: MessagePair | None
    success: bool
    sum_rate_bits: float | None

    def to_dict(self) -> dict:
        """JSON-ready dictionary with a stable key order."""
        pre = self.precoders
        return {
            "channel": channel_to_dict(self.channel),
            "feasible": self.verdict.feasible,
            "reasons": list(self.verdict.reasons),
            "hop1_ratio": None if self.hop1_ratio is None else list(self.hop1_ratio.coeffs),
            "hop1_ratio_degree": self.verdict.hop1_degree,
            "hop2_ratio": None if self.hop2_ratio is None else list(self.hop2_ratio.coeffs),
            "hop2_ratio_degree": self.verdict.hop2_degree,
            "precoders": None if pre is None else {
                k: getattr(pre, k).to_lists() for k in ("v1", "v2", "v3", "v4")},
            "s_blocks": None if pre is None else {
                k: list(getattr(pre, k).coeffs) for k in ("s11", "s12", "s21", "s22")},
            "relay_equations": None if self.u1 is None else {
                "u1": list(self.u1), "u2": list(self.u2)},
            "message": None if self.message is None else {
                "w1": list(self.message.w1), "w2": list(self.message.w2)},
            "decoded": None if self.decoded is None else {
                "w1": list(self.decoded.w1), "w2": list(self.decoded.w2)},
            "success": self.success,
            "sum_rate_bits": self.sum_rate_bits,
        }


def simulate(ch: TwoHopChannel, msg: MessagePair) -> SimulationReport:
    """Run the full pipeline through LinearPipeline.transmit; infeasible
    channels produce a report with the verdict and no transmission, and a
    nonzero residual one with no decoded message."""
    verdict = check_feasible(ch)
    if not verdict.feasible:
        return SimulationReport(ch, verdict, None, None, None, None, None,
                                None, None, False, None)
    pre = build_precoders(ch)
    m = ch.spec.m
    out = scalar_pipeline(ch, pre).transmit([*msg.w1, *msg.w2])
    u1, u2 = out[2 * m:3 * m], out[3 * m:]
    # only a defective core leaves a residual
    decoded = None if out[0] else MessagePair(out[1:m + 1], out[m + 1:2 * m])
    success = decoded == msg
    rate = (2 * m - 1) * math.log2(ch.spec.p) if success else None
    return SimulationReport(ch, verdict, pre.hop1_ratio, pre.hop2_ratio, pre,
                            u1, u2, msg, decoded, success, rate)


# -- channel serialization ------------------------------------------------------


def channel_to_dict(ch: TwoHopChannel) -> dict:
    spec = ch.spec
    return {
        "p": spec.p,
        "m": spec.m,
        "pi": list(spec.modulus_coeffs),
        "hop1": {k: format_element(v) for k, v in zip(_HOP1_KEYS, ch.hop1)},
        "hop2": {k: format_element(v) for k, v in zip(_HOP2_KEYS, ch.hop2)},
    }


def _json_fields(obj, keys: Sequence[str], name: str) -> list:
    """obj[k] for each key; ValueError unless obj is an object with them."""
    if not isinstance(obj, dict):
        raise ValueError(f"{name} must be a JSON object, not {type(obj).__name__}")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ValueError(f"{name} lacks the key {missing[0]!r}")
    return [obj[k] for k in keys]


def _is_json_int(value) -> bool:
    """True for a JSON integer: an int, but not a bool."""
    return type(value) is int


def _is_json_ints(value) -> bool:
    """True for a JSON list of integers."""
    return isinstance(value, list) and all(map(_is_json_int, value))


def _json_int(value, name: str) -> int:
    if not _is_json_int(value):
        raise ValueError(f"{name} must be an integer, not {json.dumps(value)}")
    return value


def _json_element(spec: FieldSpec, value, name: str) -> FieldElem:
    """parse_element for the shapes the JSON format allows: an int, a list
    of ints or an 'a^k' string."""
    if not (isinstance(value, str) or _is_json_int(value) or _is_json_ints(value)):
        raise ValueError(f"{name} must be an integer, a list of integers or an "
                         f"'a^k' string, not {json.dumps(value)}")
    return parse_element(spec, value)


def channel_from_dict(obj: dict) -> TwoHopChannel:
    """Parse the channel JSON shape (ValueError when it has another shape):
    integers p and m, an optional list of integers pi, and elements given
    as coefficient lists, 'a^k' strings, or ints mod p."""
    p, m, hop1, hop2 = _json_fields(obj, ("p", "m", "hop1", "hop2"), "channel")
    pi = obj.get("pi")
    if pi is not None and not _is_json_ints(pi):
        raise ValueError(f"pi must be a list of integers, not {json.dumps(pi)}")
    spec = make_field(_json_int(p, "p"), _json_int(m, "m"), pi)
    hop1 = tuple(_json_element(spec, v, k) for k, v in
                 zip(_HOP1_KEYS, _json_fields(hop1, _HOP1_KEYS, "hop1")))
    hop2 = tuple(_json_element(spec, v, k) for k, v in
                 zip(_HOP2_KEYS, _json_fields(hop2, _HOP2_KEYS, "hop2")))
    return TwoHopChannel(spec, hop1, hop2)


def draw_channel(spec: FieldSpec, rng: random.Random) -> TwoHopChannel:
    """Eight coefficients drawn uniformly from the nonzero elements (no
    full-rank conditioning; classify with check_feasible)."""
    return TwoHopChannel(
        spec,
        tuple(spec.random_element(rng, nonzero=True) for _ in range(4)),
        tuple(spec.random_element(rng, nonzero=True) for _ in range(4)))


def draw_valid_channel(spec: FieldSpec, rng: random.Random) -> TwoHopChannel:
    """Rejection-sample, in up to _MAX_DRAWS draws, a channel whose hop
    matrices are both full rank.  Over GF(2) every coefficient is 1 and
    every hop singular: SingularChannel before any draw."""
    if spec.order == 2:
        raise SingularChannel("no valid channel over GF(2): 1 is the only nonzero "
                              "coefficient, so both hops are singular")
    for _ in range(_MAX_DRAWS):
        ch = draw_channel(spec, rng)
        if ch.hop_det(1) and ch.hop_det(2):
            return ch
    raise TooLarge(f"no full-rank channel found in {_MAX_DRAWS} draws over {spec!r}")


# -- exhaustive scanning --------------------------------------------------------


def _feasible_tuples(spec: FieldSpec) -> Iterator[tuple[FieldElem, ...]]:
    """The feasible hop tuples (a, b, r a d b^-1, d) for all units a, b, d and
    each cross ratio r = a^-1 b d^-1 c != 1 of full degree, on either hop."""
    units = list(spec.nonzero_elements())
    for r in units:
        if r.code != 1 and minpoly_degree(r) == spec.m:
            for a, b, d in itertools.product(units, repeat=3):
                yield a, b, r * a * d * b.inv(), d


@dataclass(frozen=True)
class ScanReport:
    """Exhaustive verification summary for one field.

    mode is "paired" when every valid channel pair was driven end to end, or
    "factored" when each hop was verified exhaustively on its own half of
    the pipeline.  The two hop events are independent, and decoding splits
    into a relay half that only involves hop 1 and a destination half that
    only involves hop 2, so the joint statements follow exactly.  Factored
    mode runs each feasible tuple t as the channel (t, t): the relay half
    must decode the symbol sums, and the destination half, fed those sums,
    must return the message.  Each half counts as one round trip, and a
    nonzero residual fails it.  Counted by rank, equal to sending every
    message.
    """

    p: int
    m: int
    pi: list[int]
    mode: str
    hop1: tuple[int, int, int]        # tuples, valid, feasible
    hop2: tuple[int, int, int]
    valid_channels: int
    feasible_channels: int
    feasible_fraction_valid: float | None   # None when no valid channels exist
    feasible_fraction_all: float
    messages_per_channel: int
    round_trips: int
    decode_failures: int

    @property
    def decode_success_rate(self) -> float:
        if self.round_trips == 0:
            return 1.0
        return 1.0 - self.decode_failures / self.round_trips

    def to_dict(self) -> dict:
        return {
            "p": self.p, "m": self.m, "pi": self.pi, "mode": self.mode,
            "hop1": {"tuples": self.hop1[0], "valid": self.hop1[1],
                     "feasible": self.hop1[2]},
            "hop2": {"tuples": self.hop2[0], "valid": self.hop2[1],
                     "feasible": self.hop2[2]},
            "valid_channels": self.valid_channels,
            "feasible_channels": self.feasible_channels,
            "feasible_fraction_valid": self.feasible_fraction_valid,
            "feasible_fraction_all": self.feasible_fraction_all,
            "messages_per_channel": self.messages_per_channel,
            "round_trips": self.round_trips,
            "decode_failures": self.decode_failures,
            "decode_success_rate": self.decode_success_rate,
        }


def _certify(relay: LinearPipeline, destinations: Sequence[LinearPipeline],
             factored: bool) -> int:
    """Failing messages among all p^n, n = 2m-1, of the channels with the
    first hop of relay and the second of each of destinations: relay_map
    reads only hop 1, v1 and v2, destination_map only hop 2, v3, v4, S11
    and S21.  A map M misses its target T on p^n - p^(n - rank(M - T))
    messages.  Factored, the halves count their stored defects.  Paired,
    destination_map relay_map must be [I; 0], which is destination_defect
    again unless relay_defect > 0."""
    p, n = relay.p, 2 * relay.m - 1
    if factored or not relay.relay_defect:
        defects = [relay.relay_defect,
                   *(d.destination_defect for d in destinations)]
    else:
        defects = [_defect(p, d.destination_map, _decode_target(relay.m),
                           relay.relay_map) for d in destinations]
    return sum(p ** n - p ** (n - d) for d in defects)


def _core_count(p: int, m: int) -> int:
    """Feasible hop tuples over F_{p^m}, without building the field: each
    cross ratio r is hit by (q-1)^3 all-nonzero tuples (q = p^m), the hop is
    singular iff r = 1, and r is feasible iff it has full degree: one of
    m N(p, m) elements for m >= 2, any r other than 0 and 1 for m = 1."""
    q = p ** m
    ratios = m * count_irreducible(p, m) if m > 1 else q - 2
    return (q - 1) ** 3 * ratios


def exhaustive_scan(p: int, m: int, pi=None) -> ScanReport:
    """Count the all-nonzero channel tuples and verify decoding.

    Guard: refuses with TooLarge, before building the field, when the scan
    would set up more than _CORE_LIMIT cores (_core_count), all its work.
    Past m ceil(log2 p) = _COUNT_BITS_LIMIT, where _core_count's powers of
    p take over 10 s, the refusal names a lower bound instead: a scan over
    GF(q), q > 2, sets up at least (q-1)^3 cores, and q >= 2^(m (b-1)) for
    b = p.bit_length().
    Of the (q-1)^4 all-nonzero hop tuples (q = p^m), the (q-1)^3 (q-2) of
    cross ratio r != 1 are valid, and only those whose r has full degree
    are built (_feasible_tuples), one core each, as the channel (t, t).  Up to
    _PAIR_LIMIT valid channels, every feasible pair (t1, t2) is verified
    end to end from t1's relay_map and t2's destination_map (paired mode).
    Beyond that, each core's relay half and destination half are counted
    separately as it is built (factored mode).  This covers the same
    ground, because the halves interact only through the decoded sums.  No
    message is sent (see _certify)."""
    check_field_params(p, m)
    if m * (p - 1).bit_length() > _COUNT_BITS_LIMIT:
        floor = 3 * (m * (p.bit_length() - 1) - 1)     # q - 1 >= q / 2
        raise TooLarge(f"a scan over GF({p}^{m}) sets up at least (q - 1)^3 >= 2^{floor} "
                       f"channel cores, more than the guard of {_CORE_LIMIT}")
    count = _core_count(p, m)
    if count > _CORE_LIMIT:
        shown = count if count < 10 ** 12 else f"about 2^{count.bit_length() - 1}"
        raise TooLarge(f"a scan over GF({p}^{m}) sets up {shown} channel cores, "
                       f"more than the guard of {_CORE_LIMIT}")
    spec = make_field(p, m, pi)
    q = spec.order
    tuples, valid = (q - 1) ** 4, (q - 1) ** 3 * (q - 2)
    valid_channels = valid ** 2
    feasible_channels = count ** 2
    paired = valid_channels <= _PAIR_LIMIT
    channels = (TwoHopChannel(spec, t, t) for t in _feasible_tuples(spec))
    cores = (scalar_pipeline(ch, build_precoders(ch)) for ch in channels)
    if paired:
        cores = list(cores)
    failures = sum(_certify(core, cores if paired else (core,), not paired)
                   for core in cores)
    messages = p ** (2 * m - 1)
    round_trips = (feasible_channels if paired else 2 * count) * messages
    counts = (tuples, valid, count)
    return ScanReport(
        p, m, list(spec.modulus_coeffs), "paired" if paired else "factored",
        counts, counts, valid_channels, feasible_channels,
        feasible_channels / valid_channels if valid_channels else None,
        feasible_channels / tuples ** 2,
        messages, round_trips, failures)
