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
precoders are F_p matrices; the eigen data in F_{p^L} are computed only
when a caller reads them, with no elimination (eigenvectors: v1 V^-1, V^-1
by Lagrange interpolation).  Message symbols live in F_{p^L}, which is
F_p^L as a vector space, so the F_p core shared with the scalar model
(scheme.LinearPipeline) acts on their base-p codes directly, row by row:
XOR for p = 2, sums of digit fields folded by residue tables for odd p,
and one loop over the column pairs of the relay sums.  Per slot the
scheme still delivers 2m-1 ground-field symbols.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import islice
from typing import Sequence

from .errors import InconsistentSystem, Singular, SingularChannel
from .gf import (FieldElem, FieldSpec, _randbelow_blocks, check_field_params,
                 make_field, prime_field)
from .linalg import (Mat, _compound, _det_small, _element_of_code, _full_rank,
                     _inv_mod_p, _matmul_mod_p, _solve_mod_p, block2x2,
                     eigenvector_sum, krylov_precoders, lift_matrix,
                     roots_in_field, splitting_data)
from .polys import Poly
from .scheme import (_MAX_DRAWS, LinearPipeline, _is_json_ints, _json_fields,
                     _json_int)

_MATRIX_KEYS = ("Q11", "Q12", "Q21", "Q22", "Q33", "Q34", "Q43", "Q44")


@dataclass(frozen=True)
class MimoChannel:
    """Eight m x m matrices over F_p: (Q11, Q12, Q21, Q22) for the first hop
    and (Q33, Q34, Q43, Q44) for the second."""

    ground: FieldSpec
    m: int
    matrices: tuple[Mat, ...]

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
            mats.append(mat)
        return cls(ground, m, tuple(mats))

    @property
    def hop1(self) -> tuple[Mat, Mat, Mat, Mat]:
        return self.matrices[:4]

    @property
    def hop2(self) -> tuple[Mat, Mat, Mat, Mat]:
        return self.matrices[4:]


@dataclass(frozen=True)
class HopPlan:
    """Plan of one hop's cross-ratio product A^-1 B cross, where
    (A, B, cross) is (Q11, Q12, Q22^-1 Q21) for the first hop and
    (S11, S12, S22^-1 S21) for the second: its spectrum's shape and the
    eigenvector sum that leads its precoders, both found over F_p.

    ``eigenvalues`` and ``eigenvectors`` are the eigen data in the common
    extension ``ext``, computed the first time either is read; planning and
    precoding never read them.  The eigenvectors E sum to ``lead``, so the
    main precoder v1 = [lead, A lead, ...] is E V for V[j][l] = lambda_j^l,
    and E = v1 V^-1 with V^-1 read off Lagrange interpolation.
    """

    product: Mat                      # over F_p
    cross: Mat                        # over F_p
    char: Poly
    factor_degrees: tuple[int, ...]   # descending
    max_factor_degree: int            # extension order claimed by the largest factor
    splitting_degree: int             # lcm of the factor degrees
    lead: tuple[int, ...]             # eigenvector sum, from F_p kernels
    ext: FieldSpec                    # the common extension field

    @cached_property
    def eigenvalues(self) -> tuple[FieldElem, ...]:
        """The roots of ``char`` in ``ext``, ascending by code."""
        values = tuple(roots_in_field(self.char, self.ext))
        if len(values) != self.product.nrows:
            raise AssertionError("common extension does not split a hop product")
        return values

    @cached_property
    def eigenvectors(self) -> Mat:
        """Columns over ``ext``, each with lowest nonzero entry 1: v1 V^-1,
        with no elimination.  Column j of V^-1 holds the coefficients of the
        Lagrange polynomial q_j / q_j(lambda_j), q_j = char / (x - lambda_j),
        which is 1 at lambda_j and 0 at the other eigenvalues."""
        ext = self.ext
        v1, _ = krylov_precoders(self.product, Mat.column(self.product.spec, self.lead),
                                 self.cross)
        char, columns = Poly(ext, self.char.coeff_codes()), []
        for lam in self.eigenvalues:
            q = char // Poly(ext, (-lam, 1))
            scale = q(lam).inv()
            columns.append([c * scale for c in q.coeffs])
        return lift_matrix(v1, ext) @ Mat(ext, tuple(zip(*columns)))

    def summary(self) -> dict:
        return {
            "char_poly": [c.code for c in self.char.coeffs],
            "factor_degrees": list(self.factor_degrees),
            "max_factor_degree": self.max_factor_degree,
            "splitting_degree": self.splitting_degree,
        }


@dataclass(frozen=True)
class ExtensionPlan:
    """Common extension field and per-hop eigen data for one channel.

    The extension degree is the lcm of both hops' splitting degrees; for
    some channels that exceeds the degree of the largest irreducible factor
    (the smallest field named by the factorization alone), so reports carry
    both numbers.
    """

    channel: MimoChannel
    ext: FieldSpec
    degree: int
    hop1: HopPlan
    hop2: HopPlan
    s_blocks: tuple[Mat, Mat, Mat, Mat]   # over F_p

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
    Every step runs on integer codes mod p; the common splitting field
    F_{p^L} is built for the message symbols, and no eigenvalue or
    eigenvector is searched in it.

    Raises SingularChannel when a channel matrix or a compound hop matrix is
    singular, and DegenerateSpectrum when either product has a repeated
    eigenvalue.  The inverse blocks need no check: with Q33..Q44 and the
    compound invertible, S11 = (Q33 - Q34 Q44^-1 Q43)^-1 and
    S22 = (Q44 - Q43 Q33^-1 Q34)^-1 are inverses, and S12 = -Q33^-1 Q34 S22
    and S21 = -Q44^-1 Q43 S11 are products of invertible matrices.
    """
    ground, p, m = ch.ground, ch.ground.p, ch.m
    codes = [mat.to_code_rows() for mat in ch.matrices]
    for name, rows in zip(_MATRIX_KEYS, codes):
        if not _full_rank(p, rows):
            raise SingularChannel(f"channel matrix {name} is singular")
    q11, q12, q21, q22, q33, q34, q43, q44 = codes
    if not _full_rank(p, _compound(q11, q12, q21, q22)):
        raise SingularChannel("compound first-hop matrix is singular")
    try:
        s = _inv_mod_p(_compound(q33, q34, q43, q44), p)
    except Singular:
        raise SingularChannel("compound second-hop matrix is singular") from None
    s11, s12 = [row[:m] for row in s[:m]], [row[m:] for row in s[:m]]
    s21, s22 = [row[:m] for row in s[m:]], [row[m:] for row in s[m:]]

    def product_and_cross(a, b, c, d):
        cross = _solve_mod_p(d, c, p)
        return (Mat.from_code_rows(ground, _matmul_mod_p(p, _solve_mod_p(a, b, p), cross)),
                Mat.from_code_rows(ground, cross))

    product1, cross1 = product_and_cross(q11, q12, q21, q22)
    product2, cross2 = product_and_cross(s11, s12, s21, s22)
    cp1, factors1, deg1 = splitting_data(product1)
    cp2, factors2, deg2 = splitting_data(product2)
    degree = math.lcm(deg1, deg2)
    ext = make_field(p, degree)

    def hop_plan(product, cross, cp, factors, own_degree):
        degrees = tuple(f.degree for f in factors)
        return HopPlan(product, cross, cp, degrees, degrees[0], own_degree,
                       eigenvector_sum(product, factors), ext)

    return ExtensionPlan(ch, ext, degree,
                         hop_plan(product1, cross1, cp1, factors1, deg1),
                         hop_plan(product2, cross2, cp2, factors2, deg2),
                         tuple(Mat.from_code_rows(ground, blk)
                               for blk in (s11, s12, s21, s22)))


@dataclass(frozen=True)
class MimoPrecoders:
    """Precoding matrices over the ground field F_p.

    v1 and v2 are krylov_precoders of the hop-1 product, led by the
    eigenvector sum ``HopPlan.lead`` (the all-ones combination in the
    eigenbasis, which a Vandermonde argument keeps full rank), with cross
    Q22^-1 Q21 to align the hops.  v3 and v4 mirror the construction for
    the inverted second hop.  The eigenvector sum is fixed by Frobenius, so
    it lies in F_p^m and every precoder is a ground-field matrix, whatever
    the extension degree.  The tests check the determinant identity
    det v1 = det(eigenvectors) * Vandermonde(eigenvalues) against the eigen
    data in F_{p^L}; ``MimoPipeline`` raises Singular should v1 or v3 be
    singular.  The scalar model's PrecoderSet is the same construction.
    """

    plan: ExtensionPlan
    v1: Mat
    v2: Mat
    v3: Mat
    v4: Mat


def build_mimo_precoders(plan: ExtensionPlan) -> MimoPrecoders:
    ground = plan.channel.ground

    def hop_precoders(hop: HopPlan) -> tuple[Mat, Mat]:
        return krylov_precoders(hop.product, Mat.column(ground, hop.lead), hop.cross)

    return MimoPrecoders(plan, *hop_precoders(plan.hop1), *hop_precoders(plan.hop2))


class MimoPipeline:
    """Reusable end-to-end runner for one planned channel.

    Message symbols live in the plan's extension field F_{p^L}.  Each run
    sends their codes once through the composed map of the shared F_p core
    (scheme.LinearPipeline.transmit), which acts on all L coefficients of a
    code at once, and returns the output codes as elements of F_{p^L}.
    """

    def __init__(self, precoders: MimoPrecoders):
        plan = precoders.plan
        ch = plan.channel
        s11, _, s21, _ = plan.s_blocks
        self.plan = plan
        self.pre = precoders
        self.ext = plan.ext
        self._symbol = _element_of_code(plan.ext)
        self.core = LinearPipeline(ch.ground.p, block2x2(*ch.hop1),
                                   block2x2(*ch.hop2), s11, s21,
                                   precoders.v1, precoders.v2, precoders.v3,
                                   precoders.v4)

    def run(self, w1: Sequence[FieldElem], w2: Sequence[FieldElem]):
        """Full pipeline; returns (decoded_w1, decoded_w2, u1, u2).  An
        element of ``ext`` gives its code, any other symbol goes through
        ext.element; the codes pass once through the composed F_p map.
        InconsistentSystem when the destination-2 residual is nonzero."""
        m, ext, symbol = self.core.m, self.ext, self._symbol
        if len(w1) != m or len(w2) != m - 1:
            raise ValueError(f"expected message lengths {m} and {m - 1}")
        out = self.core.transmit([
            v.code if type(v) is FieldElem and v.spec is ext else ext.element(v).code
            for v in (*w1, *w2)])
        if out[0]:
            raise InconsistentSystem(
                "destination-2 observation left the side-precoder column space")
        # tuple() of a map resizes its guess and leaves tuples in the free
        # lists on every call; of a list it allocates the size once
        out, n = tuple([*map(symbol, out[1:])]), 2 * m - 1
        return out[:m], out[m:n], out[n:n + m], out[n + m:]


@dataclass(frozen=True)
class MimoSimulationReport:
    """Record of one symbol-extension run."""

    channel: MimoChannel
    plan: ExtensionPlan
    w1: tuple[FieldElem, ...]
    w2: tuple[FieldElem, ...]
    u1: tuple[FieldElem, ...]
    u2: tuple[FieldElem, ...]
    decoded1: tuple[FieldElem, ...]
    decoded2: tuple[FieldElem, ...]
    success: bool

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
        def as_lists(vec):
            return [list(e.coeffs) for e in vec]
        return {
            "channel": mimo_channel_to_dict(self.channel),
            "plan": self.plan.summary(),
            "message": {"w1": as_lists(self.w1), "w2": as_lists(self.w2)},
            "relay_equations": {"u1": as_lists(self.u1), "u2": as_lists(self.u2)},
            "decoded": {"w1": as_lists(self.decoded1), "w2": as_lists(self.decoded2)},
            "success": self.success,
            "slots": self.slots,
            "sum_rate_bits_per_slot": self.sum_rate_bits_per_slot,
            "ground_symbols_delivered": self.ground_symbols_delivered,
        }


def simulate_symbol_ext(ch: MimoChannel, w1: Sequence[FieldElem],
                        w2: Sequence[FieldElem],
                        pipeline: MimoPipeline) -> MimoSimulationReport:
    """Run one message through the slotted pipeline of channel ch, built
    once per channel as MimoPipeline(build_mimo_precoders(plan_extension(ch))).
    Message symbols live in the plan's extension field; run reads the
    codes of the elements coerced here.
    """
    w1 = tuple(pipeline.ext.element(v) for v in w1)
    w2 = tuple(pipeline.ext.element(v) for v in w2)
    got1, got2, u1, u2 = pipeline.run(w1, w2)
    return MimoSimulationReport(ch, pipeline.plan, w1, w2, u1, u2, got1, got2,
                                got1 == w1 and got2 == w2)


def random_message(ext: FieldSpec, m: int, rng: random.Random):
    w1 = tuple(ext.random_element(rng) for _ in range(m))
    w2 = tuple(ext.random_element(rng) for _ in range(m - 1))
    return w1, w2


def random_mimo_channel(p: int, m: int, rng: random.Random) -> MimoChannel:
    """Random channel satisfying the invertibility model (all eight matrices
    plus both compounds), by rejection of up to _MAX_DRAWS draws.  Over
    GF(2) with m = 1 no channel qualifies: SingularChannel before any draw.
    NotPrime or ValueError for a bad p or m, before any draw.

    Each matrix is the first nonsingular one of a run of m x m blocks, their
    entries read row by row from gf._randbelow_blocks as the values of
    rng.randrange(p): for p < 256 decoded from generator words drawn in
    bulk, above that one gf._randbelow per entry.  A block is tested by its
    closed-form determinant up to 3 x 3 and by _full_rank above.  Bulk words
    reach past the last entry used, and symbol-ext draws its message from
    the same rng next, so the sampler is closed when the draw ends, also by
    SingularChannel: it rewinds rng to the state one rng.randrange(p) per
    entry would leave.  So the channel and the state afterwards equal those
    of that draw (tests check this against a draw of Mat objects ranked by
    Mat.det)."""
    check_field_params(p, m)
    ground = prime_field(p)
    if (p, m) == (2, 1):
        raise SingularChannel("no valid channel over GF(2) with m = 1: [1] is the only "
                              "invertible block, so both compound hops are singular")

    def rows(block):
        return [block[i:i + m] for i in range(0, m * m, m)]

    if m <= 3:
        invertible = partial(_det_small, p)
    else:
        def invertible(block) -> bool:
            return _full_rank(p, rows(block))

    blocks = _randbelow_blocks(rng, p, m * m)
    try:
        for _ in range(_MAX_DRAWS):
            q = [rows(block) for block in islice(filter(invertible, blocks), 8)]
            if _full_rank(p, _compound(*q[:4])) and _full_rank(p, _compound(*q[4:])):
                return MimoChannel(ground, m, tuple(Mat.from_code_rows(ground, blk)
                                                    for blk in q))
    finally:
        blocks.close()
    raise SingularChannel(f"no valid channel found in {_MAX_DRAWS} draws")


# -- serialization --------------------------------------------------------------


def mimo_channel_to_dict(ch: MimoChannel) -> dict:
    out: dict = {"p": ch.ground.p, "m": ch.m}
    for key, mat in zip(_MATRIX_KEYS, ch.matrices):
        out[key] = mat.to_code_rows()
    return out


def mimo_channel_from_dict(obj: dict) -> MimoChannel:
    """Parse the matrix-channel JSON shape (p, m, Q11..Q44 as code rows);
    ValueError names a missing key or a misshapen value."""
    p, m, *mats = _json_fields(obj, ("p", "m") + _MATRIX_KEYS, "channel")
    for key, rows in zip(_MATRIX_KEYS, mats):
        if not isinstance(rows, list) or not all(map(_is_json_ints, rows)):
            raise ValueError(f"{key} must be a list of integer rows")
    return MimoChannel.create(_json_int(p, "p"), _json_int(m, "m"), mats)
