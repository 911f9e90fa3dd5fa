"""Two-hop 2x2x2 interference channel with arbitrary full-rank m x m
ground-field matrices, handled by coding across time slots.

Unlike the scalar extension-field case, the channel matrices here do not
commute and are not powers of one companion matrix, so the power-basis
precoders are built from eigen-decompositions.  Some eigenvalues only exist
in the splitting field F_{p^L} of both hop products (L is the lcm of the
irreducible-factor degrees across the two hops), but the eigenvector sum
that leads each precoder is fixed by Frobenius: for each irreducible factor
f it is the trace of one eigenvector over F_p[x]/(f) = F_p[C_f], read off an
F_p kernel (``linalg.eigenvector_sum``).  So planning runs over F_p and the
precoders are F_p matrices; the eigen data in F_{p^L} are read off the
plan's code rows only when a caller reads them, with no elimination and
no polynomial arithmetic (eigenvectors: v1 V^-1, V^-1 by Lagrange
interpolation).  Channel, plan, precoders and report hold integer codes;
a message symbol is the base-p code of a vector of F_p^L, on which the
F_p core shared with the scalar model (scheme.LinearPipeline) acts
directly: the relay sums are one loop over their column pairs, XOR for
p = 2 and sums of digit fields folded by residue tables for odd p.
F_{p^L} and the Mat and FieldElem views are built when a library caller
reads them, or F_{p^L} by MimoPipeline, whose run is one straight-line
function per core shape: its source is built from integers only (m and
the composed map's gather indices), compiled once per shape and bound to
each pipeline's field and code map.  Per slot the scheme still delivers
2m-1 ground-field symbols.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cache, cached_property, partial, reduce
from itertools import accumulate, islice, product
from typing import Sequence

from .errors import InconsistentSystem, Singular, SingularChannel
from .gf import (FieldElem, FieldSpec, _code_to_coeffs, _randbelow_blocks,
                 check_field_params, make_field, prime_field)
from .linalg import (Mat, _compound, _det_small, _element_of_code, _full_rank,
                     _independent_masks, _inv_mod_p, _krylov_codes, _matmul_mod_p,
                     _solve_mod_p, eigenvector_sum, roots_in_field, splitting_data)
from .polys import Poly
from .scheme import (_MAX_DRAWS, LinearPipeline, _is_json_ints, _json_fields,
                     _json_int)

_MATRIX_KEYS = ("Q11", "Q12", "Q21", "Q22", "Q33", "Q34", "Q43", "Q44")
REPORT_DIGIT_LIMIT = 10 ** 6   # a report's digits, (6m - 2) L: 337 440 at (2, 25) seed 0


@dataclass(frozen=True)
class MimoChannel:
    """Eight m x m matrices over F_p as rows of integer codes: (Q11, Q12,
    Q21, Q22) for the first hop and (Q33, Q34, Q43, Q44) for the second.
    ``matrices``, ``hop1`` and ``hop2`` are Mat views, built on first read."""

    ground: FieldSpec
    m: int
    codes: tuple[list[list[int]], ...]

    @classmethod
    def create(cls, p: int, m: int, matrices: Sequence) -> "MimoChannel":
        check_field_params(p, m)
        ground = prime_field(p)
        if len(matrices) != 8:
            raise ValueError("a channel needs exactly eight matrices")
        mats = []
        for q in matrices:
            mat = q if isinstance(q, Mat) else Mat.build(ground, q)
            if mat.spec != ground or mat.nrows != m or mat.ncols != m:
                raise ValueError(f"expected {m} x {m} matrices over GF({p})")
            mats.append(mat.to_code_rows())
        return cls(ground, m, tuple(mats))

    matrices = cached_property(lambda self: tuple(
        Mat.from_code_rows(self.ground, rows) for rows in self.codes))
    hop1 = property(lambda self: self.matrices[:4])
    hop2 = property(lambda self: self.matrices[4:])


@dataclass(frozen=True)
class HopPlan:
    """Plan of one hop's cross-ratio product A^-1 B cross, where
    (A, B, cross) is (Q11, Q12, Q22^-1 Q21) for the first hop and
    (S11, S12, S22^-1 S21) for the second: its spectrum's shape and the
    eigenvector sum that leads its precoders, found over F_p on integer
    codes.  The Mat view ``product``, the common extension ``ext`` =
    F_{p^L} and the eigen data in it are built on first read, which
    planning never does.  The eigenvectors E sum to ``lead``, so the main
    precoder v1 = [lead, A lead, ...] is E V for V[j][l] = lambda_j^l,
    and E = v1 V^-1 with V^-1 by Lagrange, read off the code rows."""

    ground: FieldSpec
    product_codes: list[list[int]]
    cross_codes: list[list[int]]
    char_codes: tuple[int, ...]       # monic, low degree first
    factor_degrees: tuple[int, ...]   # descending
    max_factor_degree: int            # extension order claimed by the largest factor
    splitting_degree: int             # lcm of the factor degrees
    lead: tuple[int, ...]             # eigenvector sum, from F_p kernels
    ext_degree: int                   # L, the degree of the common extension

    product = cached_property(lambda self: Mat.from_code_rows(self.ground, self.product_codes))
    ext = cached_property(lambda self: make_field(self.ground.p, self.ext_degree))

    @cached_property
    def eigenvalues(self) -> tuple[FieldElem, ...]:
        """The roots of ``char_codes`` in ``ext``, ascending by code."""
        values = tuple(roots_in_field(Poly(self.ground, self.char_codes), self.ext))
        if len(values) != len(self.lead):
            raise AssertionError("common extension does not split a hop product")
        return values

    @cached_property
    def eigenvectors(self) -> Mat:
        """Columns over ``ext``, each with lowest nonzero entry 1: v1 V^-1,
        with no elimination.  Column j of V^-1 holds the coefficients of the
        Lagrange polynomial q_j / q_j(lambda_j), q_j = char / (x - lambda_j),
        which is 1 at lambda_j and 0 at the other eigenvalues: q_j by
        synthetic division and q_j(lambda_j) by Horner's rule."""
        ext = self.ext
        v1 = _krylov_codes(self.ground.p, self.product_codes, self.lead, self.cross_codes)[0]
        char, columns = [ext.from_code(c) for c in reversed(self.char_codes)], []
        for lam in self.eigenvalues:
            q = list(accumulate(char[:-1], lambda acc, c: acc * lam + c))
            scale = reduce(lambda acc, c: acc * lam + c, q).inv()
            columns.append([c * scale for c in reversed(q)])
        return Mat.from_code_rows(ext, v1) @ Mat(ext, tuple(zip(*columns)))

    def summary(self) -> dict:
        return {
            "char_poly": list(self.char_codes),
            "factor_degrees": list(self.factor_degrees),
            "max_factor_degree": self.max_factor_degree,
            "splitting_degree": self.splitting_degree,
        }


@dataclass(frozen=True)
class ExtensionPlan:
    """Extension degree L and per-hop plans for one channel.

    The extension degree is the lcm of both hops' splitting degrees; for
    some channels that exceeds the degree of the largest irreducible factor
    (the smallest field named by the factorization alone), so reports carry
    both numbers.  ``ext`` (F_{p^L}) and ``s_blocks``, the Mat views of
    the second hop's inverse blocks, are built on first read."""

    channel: MimoChannel
    degree: int
    hop1: HopPlan
    hop2: HopPlan
    s_codes: tuple[list[list[int]], ...]   # S11, S12, S21, S22 over F_p

    ext = cached_property(lambda self: self.hop1.ext)
    s_blocks = cached_property(lambda self: tuple(
        Mat.from_code_rows(self.channel.ground, blk) for blk in self.s_codes))

    def summary(self) -> dict:
        return {
            "extension_degree": self.degree,
            "max_factor_degree": max(self.hop1.max_factor_degree,
                                     self.hop2.max_factor_degree),
            "hop1": self.hop1.summary(),
            "hop2": self.hop2.summary(),
        }


def plan_extension(ch: MimoChannel) -> ExtensionPlan:
    """Validate the channel, factor both hop products' characteristic
    polynomials, and find each product's eigenvector sum over F_p
    (``eigenvector_sum``: one F_p Gauss-Jordan per irreducible factor).
    Every step runs on integer codes mod p, and no field F_{p^L} is built:
    the plan names L, and the message symbols are base-p codes of L digits.

    Raises SingularChannel when a channel matrix or a compound hop matrix is
    singular, and DegenerateSpectrum when either product has a repeated
    eigenvalue.  The inverse blocks need no check: with Q33..Q44 and the
    compound invertible, S11 = (Q33 - Q34 Q44^-1 Q43)^-1 and
    S22 = (Q44 - Q43 Q33^-1 Q34)^-1 are inverses, and S12 = -Q33^-1 Q34 S22
    and S21 = -Q44^-1 Q43 S11 are products of invertible matrices.
    """
    ground, p, m = ch.ground, ch.ground.p, ch.m
    for name, rows in zip(_MATRIX_KEYS, ch.codes):
        if not _full_rank(p, rows):
            raise SingularChannel(f"channel matrix {name} is singular")
    q11, q12, q21, q22, q33, q34, q43, q44 = ch.codes
    if not _full_rank(p, _compound(q11, q12, q21, q22)):
        raise SingularChannel("compound first-hop matrix is singular")
    try:
        s = _inv_mod_p(_compound(q33, q34, q43, q44), p)
    except Singular:
        raise SingularChannel("compound second-hop matrix is singular") from None
    s11, s12 = [row[:m] for row in s[:m]], [row[m:] for row in s[:m]]
    s21, s22 = [row[:m] for row in s[m:]], [row[m:] for row in s[m:]]

    def hop_data(a, b, c, d):
        cross = _solve_mod_p(d, c, p)
        prod = _matmul_mod_p(p, _solve_mod_p(a, b, p), cross)
        return (prod, cross, *splitting_data(p, prod))

    hops = hop_data(q11, q12, q21, q22), hop_data(s11, s12, s21, s22)
    degree = math.lcm(hops[0][-1], hops[1][-1])

    def hop_plan(prod, cross, char, factors, own_degree):
        degrees = tuple(len(f) - 1 for f in factors)
        return HopPlan(ground, prod, cross, char, degrees, degrees[0], own_degree,
                       eigenvector_sum(p, prod, factors), degree)

    return ExtensionPlan(ch, degree, *(hop_plan(*hop) for hop in hops), (s11, s12, s21, s22))


@dataclass(frozen=True)
class MimoPrecoders:
    """Precoding matrices over F_p as rows of integer codes; v1..v4 are
    their Mat views, built on first read.

    v1 and v2 are krylov_precoders of the hop-1 product, led by the
    eigenvector sum ``HopPlan.lead`` (the all-ones combination in the
    eigenbasis, which a Vandermonde argument keeps full rank), with cross
    Q22^-1 Q21 to align the hops; v3 and v4 mirror it for the inverted
    second hop.  The eigenvector sum is fixed by Frobenius, so it lies in
    F_p^m, whatever the extension degree.  The tests check the identity
    det v1 = det(eigenvectors) * Vandermonde(eigenvalues) in F_{p^L}; the
    core raises Singular should v1 or v3 be singular.  The scalar model's
    PrecoderSet is the same construction.
    """

    plan: ExtensionPlan
    codes: tuple[list[list[int]], ...]    # v1, v2, v3, v4

    _mats = cached_property(lambda self: tuple(
        Mat.from_code_rows(self.plan.channel.ground, rows) for rows in self.codes))
    v1, v2, v3, v4 = (property(lambda self, i=i: self._mats[i]) for i in range(4))


def build_mimo_precoders(plan: ExtensionPlan) -> MimoPrecoders:
    p = plan.channel.ground.p
    return MimoPrecoders(plan, tuple(
        rows for hop in (plan.hop1, plan.hop2)
        for rows in _krylov_codes(p, hop.product_codes, hop.lead, hop.cross_codes)))


class MimoCodePipeline:
    """The shared F_p core (scheme.LinearPipeline) of one planned channel,
    acting on all L digits of a symbol code at once; it builds no F_{p^L}."""

    def __init__(self, precoders: MimoPrecoders):
        plan, ch = precoders.plan, precoders.plan.channel
        self.plan, self.pre = plan, precoders
        s11, _, s21, _ = plan.s_codes
        self.core = LinearPipeline(ch.ground.p, _compound(*ch.codes[:4]),
                                   _compound(*ch.codes[4:]), s11, s21, *precoders.codes)


class _CodeElements:
    """Element of a field with no element table by code, as a subscript."""

    __slots__ = ("spec",)

    def __init__(self, spec: FieldSpec):
        self.spec = spec

    def __getitem__(self, code: int) -> FieldElem:
        return self.spec.from_code(code)


@cache
def _run_template(m: int, gather: tuple[int, ...]):
    """MimoPipeline.run's kernel for one core shape, compiled once from
    source made of integers only: m and the gather indices of
    LinearPipeline.composed_map.  Returns bind(ext, E, apply, element),
    which makes the kernel of one pipeline."""
    n = 2 * m - 1
    x = [f"x{i}" for i in range(n)]
    general = [f"g{j}" for j in range(max(gather) - n)]
    out = [(x + ["0"] + general)[i] for i in gather]
    a1, a2 = [f"a{i}" for i in range(m)], [f"a{i}" for i in range(m, n)]

    def elements(names):
        return "(" + "".join(f"E[{v}], " for v in names) + ")"

    lines = [
        "def bind(ext, E, apply, element):",
        "    def run(w1, w2):",
        f"        if len(w1) != {m} or len(w2) != {m - 1}:",
        f"            raise ValueError('expected message lengths {m} and {m - 1}')",
        f"        {', '.join(a1)}, = w1",
        *([f"        {', '.join(a2)}, = w2"] if a2 else []),
        *(f"        {xi} = {ai}.code if type({ai}) is FieldElem and {ai}.spec is ext "
          f"else element({ai}).code" for xi, ai in zip(x, a1 + a2)),
        *([f"        {', '.join(general)}, = apply(({', '.join(x)},))"] if general else []),
        *([f"        if {out[0]}:",
           "            raise InconsistentSystem('destination-2 observation left the "
           "side-precoder column space')"] if out[0] != "0" else []),
        "        return (" + ", ".join(elements(out[i:j]) for i, j in (
            (1, m + 1), (m + 1, n + 1), (n + 1, n + 1 + m), (n + 1 + m, 4 * m))) + ")",
        "    return run",
    ]
    namespace = {"FieldElem": FieldElem, "InconsistentSystem": InconsistentSystem}
    exec(compile("\n".join(lines), f"<MimoPipeline.run m={m}>", "exec"), namespace)
    return namespace["bind"]


class MimoPipeline(MimoCodePipeline):
    """Reusable end-to-end runner for one planned channel on symbols of the
    plan's F_{p^L}, ``ext``, which it builds.  Its kernel is one
    straight-line function per core shape (``_run_template``), bound to
    ``ext``, its element table and the core's code map when the pipeline
    is built, and again when ``core`` is replaced or a map is set on it."""

    def __init__(self, precoders: MimoPrecoders):
        super().__init__(precoders)
        self.ext = self.plan.ext
        self._bind_kernel()

    def _bind_kernel(self) -> None:
        ext, self._composed = self.ext, self.core.composed_map
        gather, code_map = self._composed
        table = ext._elems if ext._elems is not None else _CodeElements(ext)
        self._kernel = _run_template(self.core.m, gather)(
            ext, table, None if code_map is None else code_map.apply, ext.element)

    def run(self, w1: Sequence[FieldElem], w2: Sequence[FieldElem]):
        """Full pipeline; returns (decoded_w1, decoded_w2, u1, u2).  An
        element of ``ext`` gives its code, any other symbol goes through
        ext.element; the codes pass once through the composed F_p map.
        InconsistentSystem when the destination-2 residual is nonzero."""
        if self.core.composed_map is not self._composed:
            self._bind_kernel()
        return self._kernel(w1, w2)


@dataclass(frozen=True)
class MimoSimulationReport:
    """Record of one symbol-extension run: ``codes`` holds the code tuples
    (w1, w2, u1, u2, decoded1, decoded2); the attributes of those names are
    the same tuples as elements of plan.ext, built on first read."""

    channel: MimoChannel
    plan: ExtensionPlan
    codes: tuple[tuple[int, ...], ...]
    success: bool

    _elements = cached_property(lambda self: tuple(
        tuple(map(_element_of_code(self.plan.ext), codes)) for codes in self.codes))
    w1, w2, u1, u2, decoded1, decoded2 = (property(lambda self, i=i: self._elements[i])
                                          for i in range(6))

    @property
    def slots(self) -> int:
        return self.plan.degree

    @property
    def sum_rate_bits_per_slot(self) -> float:
        return (2 * self.channel.m - 1) * math.log2(self.channel.ground.p)

    @property
    def ground_symbols_delivered(self) -> int:
        return (2 * self.channel.m - 1) * self.plan.degree

    def to_dict(self) -> dict:
        """Each symbol as its L base-p digits, low first, read off its code."""
        p, L = self.channel.ground.p, self.plan.degree
        w1, w2, u1, u2, got1, got2 = ([list(_code_to_coeffs(c, p, L)) for c in codes]
                                      for codes in self.codes)
        return {
            "channel": mimo_channel_to_dict(self.channel),
            "plan": self.plan.summary(),
            "message": {"w1": w1, "w2": w2},
            "relay_equations": {"u1": u1, "u2": u2},
            "decoded": {"w1": got1, "w2": got2},
            "success": self.success,
            "slots": self.slots,
            "sum_rate_bits_per_slot": self.sum_rate_bits_per_slot,
            "ground_symbols_delivered": self.ground_symbols_delivered,
        }


def simulate_symbol_codes(ch: MimoChannel, w1: Sequence[int], w2: Sequence[int],
                          pipeline: MimoCodePipeline) -> MimoSimulationReport:
    """MimoPipeline.run on symbol codes in [0, p^L) as a report, with no
    F_{p^L}; simulate_symbol_ext and the CLI call it."""
    m = pipeline.core.m
    if len(w1) != m or len(w2) != m - 1:
        raise ValueError(f"expected message lengths {m} and {m - 1}")
    out = pipeline.core.transmit([*w1, *w2])
    if out[0]:
        raise InconsistentSystem(
            "destination-2 observation left the side-precoder column space")
    w1, w2, n = tuple(w1), tuple(w2), 2 * m
    got1, got2 = out[1:m + 1], out[m + 1:n]
    return MimoSimulationReport(ch, pipeline.plan, (w1, w2, out[n:n + m], out[n + m:],
                                                    got1, got2), got1 == w1 and got2 == w2)


def simulate_symbol_ext(ch: MimoChannel, w1: Sequence[FieldElem],
                        w2: Sequence[FieldElem],
                        pipeline: MimoPipeline) -> MimoSimulationReport:
    """Run one message through the slotted pipeline of channel ch, built
    once per channel as MimoPipeline(build_mimo_precoders(plan_extension(ch))):
    simulate_symbol_codes on the codes of the symbols coerced by ext.element."""
    ext = pipeline.ext
    return simulate_symbol_codes(ch, [ext.element(v).code for v in w1],
                                 [ext.element(v).code for v in w2], pipeline)


def random_message(ext: FieldSpec, m: int, rng: random.Random):
    w1 = tuple(ext.random_element(rng) for _ in range(m))
    w2 = tuple(ext.random_element(rng) for _ in range(m - 1))
    return w1, w2


@cache
def _invertible_blocks(p: int, m: int) -> frozenset[bytes]:
    """The invertible m x m blocks over F_p as bytes of row-major codes."""
    return frozenset(map(bytes, filter(partial(_det_small, p),
                                       product(range(p), repeat=m * m))))


def random_mimo_channel(p: int, m: int, rng: random.Random) -> MimoChannel:
    """Random channel satisfying the invertibility model (all eight matrices
    plus both compounds), by rejection of up to _MAX_DRAWS draws.  Over
    GF(2) with m = 1 no channel qualifies: SingularChannel before any draw.
    NotPrime or ValueError for a bad p or m, before any draw.

    Each matrix is the first nonsingular one of a run of m x m blocks, their
    entries read row by row from gf._randbelow_blocks as the values of
    rng.randrange(p): for p < 256 decoded from generator words drawn in
    bulk, above that one gf._randbelow per entry.  A block is tested by
    membership in ``_invertible_blocks`` at (2, 2), (3, 2) and (2, 3), else
    by its closed-form determinant up to 3 x 3 and by _full_rank above, over
    GF(2) by _independent_masks on row masks read straight from its bytes.
    Bulk words reach past the last entry used, and symbol-ext draws its
    message from the same rng next, so the sampler is closed when the draw
    ends, also by SingularChannel: it rewinds rng to the state one
    rng.randrange(p) per entry would leave.  So the channel and the state
    afterwards equal those of that draw (tests check this against a draw of
    Mat objects ranked by the list elimination)."""
    check_field_params(p, m)
    ground = prime_field(p)
    if (p, m) == (2, 1):
        raise SingularChannel("no valid channel over GF(2) with m = 1: [1] is the only "
                              "invertible block, so both compound hops are singular")

    def rows(block):
        return [block[i:i + m] for i in range(0, m * m, m)]

    if 1 < m <= 3 and p ** (m * m) <= 1 << 9:
        invertible = _invertible_blocks(p, m).__contains__
    elif m <= 3:
        invertible = partial(_det_small, p)
    elif p == 2:
        def invertible(block) -> bool:
            return _independent_masks(int.from_bytes(block[i:i + m], "big")
                                      for i in range(0, m * m, m))
    else:
        def invertible(block) -> bool:
            return _full_rank(p, rows(block))

    blocks = _randbelow_blocks(rng, p, m * m)
    try:
        for _ in range(_MAX_DRAWS):
            q = [rows(block) for block in islice(filter(invertible, blocks), 8)]
            if _full_rank(p, _compound(*q[:4])) and _full_rank(p, _compound(*q[4:])):
                return MimoChannel(ground, m, tuple([[*row] for row in blk] for blk in q))
    finally:
        blocks.close()
    raise SingularChannel(f"no valid channel found in {_MAX_DRAWS} draws")


# -- serialization --------------------------------------------------------------


def mimo_channel_to_dict(ch: MimoChannel) -> dict:
    out: dict = {"p": ch.ground.p, "m": ch.m}
    for key, rows in zip(_MATRIX_KEYS, ch.codes):
        out[key] = [list(row) for row in rows]
    return out


def mimo_channel_from_dict(obj: dict) -> MimoChannel:
    """Parse the matrix-channel JSON shape (p, m, Q11..Q44 as code rows);
    ValueError names a missing key or a misshapen value."""
    p, m, *mats = _json_fields(obj, ("p", "m") + _MATRIX_KEYS, "channel")
    for key, rows in zip(_MATRIX_KEYS, mats):
        if not isinstance(rows, list) or not all(map(_is_json_ints, rows)):
            raise ValueError(f"{key} must be a list of integer rows")
    return MimoChannel.create(_json_int(p, "p"), _json_int(m, "m"), mats)
