"""Dense exact linear algebra over a field, plus the representation maps
between an extension field and matrices/vectors over its ground field.

The transform layer provides:

* ``companion_matrix`` -- the m x m ground-field matrix whose characteristic
  polynomial is the field modulus (multiplication-by-x in the power basis);
* ``coeff_vector`` / ``elem_from_coeff_vector`` -- an extension element as an
  m x 1 coefficient column and back;
* ``matrix_rep`` / ``elem_from_matrix_rep`` -- an extension element as the
  m x m ground-field matrix of multiplication by it, and back;
* ``coeff_rows`` / ``vector_from_coeff_rows`` -- a column vector over
  F_{p^r} as an n x r ground-field matrix of coefficient rows and back;
* ``char_poly`` and eigen-decomposition over the splitting-field extension.

Everything is exact; algorithms are Gauss-Jordan (on integer codes mod p
for prime-field determinants and ranks) and memoized minor expansion, which
is plenty at the matrix sizes involved.  Roots in F_{p^L} are searched only in its
subfields F_{p^d}, d | L, d <= deg f (see ``roots_in_field``).
"""

from __future__ import annotations

import math
from operator import mul
from typing import Sequence

from .errors import (DegenerateSpectrum, DimensionMismatch, FieldMismatch,
                     InconsistentSystem, NotInImage, Singular)
from .gf import FieldElem, FieldSpec, prime_field, primitive_element
from .polys import Poly, divisors, factor_poly, squarefree


class Mat:
    """Immutable dense matrix with entries in one field.

    Zero-column matrices are allowed (they show up as precoders for an empty
    message block); zero-row matrices are not.
    """

    __slots__ = ("spec", "rows")

    def __init__(self, spec: FieldSpec, rows: tuple[tuple[FieldElem, ...], ...]):
        self.spec = spec
        self.rows = rows

    @classmethod
    def build(cls, spec: FieldSpec, rows: Sequence[Sequence]) -> "Mat":
        if not rows:
            raise DimensionMismatch("a matrix needs at least one row")
        converted = tuple(tuple(spec.element(v) for v in row) for row in rows)
        width = len(converted[0])
        if any(len(row) != width for row in converted):
            raise DimensionMismatch("rows have unequal lengths")
        return cls(spec, converted)

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "Mat":
        one, zero = spec.one, spec.zero
        return cls(spec, tuple(tuple(one if i == j else zero for j in range(n))
                               for i in range(n)))

    @classmethod
    def zeros(cls, spec: FieldSpec, nrows: int, ncols: int) -> "Mat":
        zero = spec.zero
        return cls(spec, tuple(tuple(zero for _ in range(ncols))
                               for _ in range(nrows)))

    @classmethod
    def column(cls, spec: FieldSpec, entries: Sequence) -> "Mat":
        return cls.build(spec, [[v] for v in entries])

    @classmethod
    def from_columns(cls, spec: FieldSpec, columns: Sequence["Mat"],
                     nrows: int | None = None) -> "Mat":
        """Assemble a matrix from n x 1 column matrices; may be empty-width."""
        if not columns:
            if nrows is None:
                raise DimensionMismatch("empty-width matrix needs an explicit row count")
            return cls(spec, tuple(() for _ in range(nrows)))
        n = columns[0].nrows
        rows = tuple(tuple(col.rows[i][0] for col in columns) for i in range(n))
        return cls(spec, rows)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def entry(self, i: int, j: int) -> FieldElem:
        return self.rows[i][j]

    def col(self, j: int) -> "Mat":
        return Mat(self.spec, tuple((row[j],) for row in self.rows))

    def col_entries(self, j: int) -> tuple[FieldElem, ...]:
        return tuple(row[j] for row in self.rows)

    def columns(self) -> list["Mat"]:
        return [self.col(j) for j in range(self.ncols)]

    def transpose(self) -> "Mat":
        if self.ncols == 0:
            raise DimensionMismatch("cannot transpose an empty-width matrix")
        return Mat(self.spec, tuple(zip(*self.rows)))

    def _check(self, other: "Mat") -> None:
        if other.spec is not self.spec and other.spec != self.spec:
            raise FieldMismatch("matrices over different fields")

    def __add__(self, other: "Mat") -> "Mat":
        self._check(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("matrix sum needs equal shapes")
        return Mat(self.spec, tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other: "Mat") -> "Mat":
        self._check(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("matrix difference needs equal shapes")
        return Mat(self.spec, tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)))

    def __neg__(self) -> "Mat":
        return Mat(self.spec, tuple(tuple(-a for a in row) for row in self.rows))

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check(other)
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        if self.ncols == 0:
            raise DimensionMismatch("cannot multiply through an empty inner dimension")
        bcols = list(zip(*other.rows)) if other.ncols else []
        out = []
        for row in self.rows:
            out_row = []
            for colv in bcols:
                acc = row[0] * colv[0]
                for a, b in zip(row[1:], colv[1:]):
                    acc = acc + a * b
                out_row.append(acc)
            out.append(tuple(out_row))
        return Mat(self.spec, tuple(out))

    def scale(self, c) -> "Mat":
        c = self.spec.element(c)
        return Mat(self.spec, tuple(tuple(a * c for a in row) for row in self.rows))

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.spec == other.spec and self.rows == other.rows

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash((self.spec, self.rows))

    def __repr__(self):
        return f"Mat({self.spec!r}, {self.to_lists()!r})"

    # -- serialization ---------------------------------------------------------

    def to_lists(self):
        """Entries as ints for a ground field, coefficient lists otherwise."""
        if self.spec.m == 1:
            return [[e.code for e in row] for row in self.rows]
        return [[list(e.coeffs) for e in row] for row in self.rows]

    def to_code_rows(self) -> list[list[int]]:
        return [[e.code for e in row] for row in self.rows]

    # -- elimination-based operations -------------------------------------------

    def _rref(self, aug: "Mat | None" = None):
        """Reduced row echelon form of [self | aug]; returns (rows, pivot_cols)."""
        width = self.ncols
        if aug is not None:
            self._check(aug)
            if aug.nrows != self.nrows:
                raise DimensionMismatch("augmented block has a different row count")
            work = [list(r) + list(a) for r, a in zip(self.rows, aug.rows)]
        else:
            work = [list(r) for r in self.rows]
        pivots = []
        r = 0
        for c in range(width):
            pr = next((i for i in range(r, len(work)) if work[i][c].code), None)
            if pr is None:
                continue
            work[r], work[pr] = work[pr], work[r]
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
        return work, pivots

    def rank(self) -> int:
        if self.ncols == 0:
            return 0
        return len(self._rref()[1])

    def det(self) -> FieldElem:
        n = self.nrows
        if n != self.ncols:
            raise DimensionMismatch("determinant of a non-square matrix")
        spec = self.spec
        if spec.m == 1:
            return spec.from_code(_eliminate_mod_p(self.to_code_rows(), spec.p)[1])
        work = [list(r) for r in self.rows]
        acc = spec.one
        for c in range(n):
            pr = next((i for i in range(c, n) if work[i][c].code), None)
            if pr is None:
                return spec.zero
            if pr != c:
                work[c], work[pr] = work[pr], work[c]
                acc = -acc
            pivot = work[c][c]
            acc = acc * pivot
            inv = pivot.inv()
            for i in range(c + 1, n):
                if work[i][c].code:
                    f = work[i][c] * inv
                    work[i] = [v - f * w for v, w in zip(work[i], work[c])]
        return acc

    def inv(self) -> "Mat":
        n = self.nrows
        if n != self.ncols:
            raise DimensionMismatch("inverse of a non-square matrix")
        work, pivots = self._rref(Mat.identity(self.spec, n))
        if len(pivots) < n:
            raise Singular(f"matrix of rank {len(pivots)} < {n} has no inverse")
        return Mat(self.spec, tuple(tuple(row[n:]) for row in work))

    def solve(self, b: "Mat") -> "Mat":
        """Unique solution of self @ x = b for square nonsingular self."""
        n = self.nrows
        if n != self.ncols:
            raise DimensionMismatch("solve expects a square matrix")
        work, pivots = self._rref(b)
        if len(pivots) < n:
            raise Singular(f"coefficient matrix has rank {len(pivots)} < {n}")
        return Mat(self.spec, tuple(tuple(row[n:]) for row in work))


def _eliminate_mod_p(work: list[list[int]], p: int) -> tuple[int, int]:
    """Rank and, if square, determinant of a matrix of integer codes over
    F_p, by forward elimination modulo p; ``work`` is overwritten."""
    rank, det = 0, 1
    for c in range(len(work[0])):
        pr = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if pr is None:
            det = 0
            continue
        if pr != rank:
            work[rank], work[pr] = work[pr], work[rank]
            det = -det
        pivot_row = work[rank]
        det = det * pivot_row[c] % p
        inv = pow(pivot_row[c], -1, p)
        for i in range(rank + 1, len(work)):
            if work[i][c]:
                f = work[i][c] * inv % p
                work[i] = [(v - f * w) % p for v, w in zip(work[i], pivot_row)]
        rank += 1
    return rank, det


def _block_diag(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """[[a, 0], [0, b]] for matrices of integer codes; b may be empty-width."""
    return [r + [0] * len(b[0]) for r in a] + [[0] * len(a[0]) + r for r in b]


def _matmul_mod_p(p: int, *mats: list[list[int]]) -> list[list[int]]:
    """Product, left to right, of matrices of integer codes over F_p."""
    out = mats[0]
    for b in mats[1:]:
        cols = list(zip(*b))
        out = [[sum(map(mul, row, col)) % p for col in cols] for row in out]
    return out


def solve_exact(a: Mat, b: Mat) -> Mat:
    """Exact solution of a @ x = b where a has full column rank.

    Raises InconsistentSystem when b is outside the column space and Singular
    when the columns of a are dependent (solution not unique).
    """
    k = a.ncols
    if b.nrows != a.nrows:
        raise DimensionMismatch("right-hand side has a different row count")
    work, pivots = a._rref(b)
    if len(pivots) < k:
        raise Singular("coefficient matrix does not have full column rank")
    for row in work[k:]:
        if any(v.code for v in row[k:]):
            raise InconsistentSystem("right-hand side is outside the column space")
    return Mat(a.spec, tuple(tuple(row[k:]) for row in work[:k]))


def null_space_vector(a: Mat) -> Mat:
    """Nonzero kernel vector of a singular square matrix: the basis vector of
    the first free column, scaled so its lowest nonzero entry is 1."""
    work, pivots = a._rref()
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


def block2x2(a: Mat, b: Mat, c: Mat, d: Mat) -> Mat:
    """Assemble [[a, b], [c, d]] from conformable blocks."""
    top = tuple(ra + rb for ra, rb in zip(a.rows, b.rows))
    bottom = tuple(rc + rd for rc, rd in zip(c.rows, d.rows))
    return Mat(a.spec, top + bottom)


def split_blocks(m2: Mat, n: int) -> tuple[Mat, Mat, Mat, Mat]:
    """Partition a 2n x 2n matrix into its four n x n blocks."""
    spec = m2.spec
    def blk(r0, c0):
        return Mat(spec, tuple(tuple(m2.rows[r0 + i][c0 + j] for j in range(n))
                               for i in range(n)))
    return blk(0, 0), blk(0, n), blk(n, 0), blk(n, n)


# -- representation maps -------------------------------------------------------


def companion_matrix(spec: FieldSpec) -> Mat:
    """m x m ground-field matrix with subdiagonal ones and last column the
    negated modulus coefficients; its characteristic polynomial is the field
    modulus, and it acts on coefficient columns as multiplication by x."""
    hit = spec._cache.get("companion")
    if hit is not None:
        return hit
    ground = prime_field(spec)
    p, m = spec.p, spec.m
    rows = []
    for i in range(m):
        row = [0] * m
        if i >= 1:
            row[i - 1] = 1
        row[m - 1] = (row[m - 1] + (-spec.pi[i]) % p) % p
        rows.append(row)
    mat = Mat.build(ground, rows)
    spec._cache["companion"] = mat
    return mat


def _companion_powers(spec: FieldSpec) -> list[Mat]:
    hit = spec._cache.get("companion_powers")
    if hit is not None:
        return hit
    ground = prime_field(spec)
    c = companion_matrix(spec)
    powers = [Mat.identity(ground, spec.m)]
    for _ in range(spec.m - 1):
        powers.append(powers[-1] @ c)
    spec._cache["companion_powers"] = powers
    return powers


def coeff_vector(e: FieldElem) -> Mat:
    """The m x 1 ground-field coefficient column of an extension element."""
    ground = prime_field(e.spec)
    return Mat(ground, tuple((ground.from_code(b),) for b in e.coeffs))


def elem_from_coeff_vector(v: Mat, spec: FieldSpec) -> FieldElem:
    if v.ncols != 1 or v.nrows != spec.m:
        raise DimensionMismatch(f"expected a {spec.m} x 1 coefficient column")
    return spec.element([row[0].code for row in v.rows])


def matrix_rep(e: FieldElem) -> Mat:
    """The m x m ground-field matrix of multiplication by e.

    Computed by linearity from the companion-matrix powers: an element with
    coefficients b_i maps to sum_i b_i C^i.  This is a field isomorphism onto
    {0, I, C, C^2, ...}; in particular the image of any nonzero element is
    full rank.
    """
    spec = e.spec
    memo = spec._cache.setdefault("matrix_rep", {})
    hit = memo.get(e.code)
    if hit is not None:
        return hit
    ground = prime_field(spec)
    p, m = spec.p, spec.m
    powers = _companion_powers(spec)
    pow_rows = [mat.to_code_rows() for mat in powers]
    rows = []
    for i in range(m):
        row = []
        for j in range(m):
            acc = 0
            for b, pw in zip(e.coeffs, pow_rows):
                if b:
                    acc += b * pw[i][j]
            row.append(ground.from_code(acc % p))
        rows.append(tuple(row))
    mat = Mat(ground, tuple(rows))
    if spec.order <= 1 << 16:
        memo[e.code] = mat
    return mat


def elem_from_matrix_rep(mat: Mat, spec: FieldSpec) -> FieldElem:
    """Inverse of matrix_rep; raises NotInImage for matrices outside the
    image.  The candidate is read off the first column, which holds the
    coefficient vector of the represented element."""
    if mat.nrows != spec.m or mat.ncols != spec.m:
        raise DimensionMismatch(f"expected a {spec.m} x {spec.m} matrix")
    candidate = spec.element([row[0].code for row in mat.rows])
    if matrix_rep(candidate) != mat:
        raise NotInImage("matrix is not the representation of any field element")
    return candidate


def linear_combination_image(coeffs: Sequence[FieldElem],
                             inputs: Sequence[FieldElem]) -> Mat:
    """Ground-field image of sum_k q_k X_k, computed entirely in the vector
    domain as sum_k matrix_rep(q_k) @ coeff_vector(X_k).

    Always equals coeff_vector of the scalar combination; that identity is
    what lets a scalar extension-field channel be treated as a MIMO
    ground-field channel.
    """
    if len(coeffs) != len(inputs):
        raise DimensionMismatch("coefficient and input lists differ in length")
    if not coeffs:
        raise DimensionMismatch("empty combination")
    spec = coeffs[0].spec
    for v in list(coeffs) + list(inputs):
        if v.spec is not spec and v.spec != spec:
            raise FieldMismatch("combination mixes different fields")
    acc = matrix_rep(coeffs[0]) @ coeff_vector(inputs[0])
    for q, x in zip(coeffs[1:], inputs[1:]):
        acc = acc + matrix_rep(q) @ coeff_vector(x)
    return acc


def coeff_rows(v: Mat) -> Mat:
    """n x r ground-field matrix whose row i is the coefficient vector of
    entry i of a column vector over F_{p^r}."""
    if v.ncols != 1:
        raise DimensionMismatch("expected a column vector")
    ext = v.spec
    ground = prime_field(ext)
    return Mat(ground, tuple(
        tuple(ground.from_code(b) for b in row[0].coeffs) for row in v.rows))


def vector_from_coeff_rows(mat: Mat, ext: FieldSpec) -> Mat:
    """Inverse of coeff_rows: reassemble a column over F_{p^r} from rows."""
    if mat.ncols != ext.m:
        raise DimensionMismatch(f"expected {ext.m} coefficient columns")
    return Mat(ext, tuple(
        (ext.element([e.code for e in row]),) for row in mat.rows))


def lift_matrix(a: Mat, ext: FieldSpec) -> Mat:
    """Entrywise embedding of a ground-field matrix into an extension."""
    if a.spec.m != 1 or a.spec.p != ext.p:
        raise FieldMismatch("lifting is defined from the ground field")
    return Mat(ext, tuple(tuple(ext.from_code(e.code) for e in row)
                          for row in a.rows))


# -- characteristic polynomial and eigen-decomposition --------------------------


def char_poly(a: Mat) -> Poly:
    """Monic characteristic polynomial det(xI - a), exact.

    Uses Laplace expansion over the polynomial ring with minors memoized per
    column subset, which stays exact in any characteristic (coefficient-field
    division tricks are unsound when p divides the small factorials involved).
    """
    n = a.nrows
    if n != a.ncols:
        raise DimensionMismatch("characteristic polynomial of a non-square matrix")
    spec = a.spec
    one = spec.one
    entries = [[Poly(spec, (-a.rows[i][j],) if i != j else (-a.rows[i][j], one))
                for j in range(n)] for i in range(n)]
    memo: dict[int, Poly] = {}

    def minor(mask: int) -> Poly:
        if mask == 0:
            return Poly.one(spec)
        hit = memo.get(mask)
        if hit is not None:
            return hit
        row = n - bin(mask).count("1")
        total = Poly.zero(spec)
        idx = 0
        rest = mask
        while rest:
            col_bit = rest & -rest
            col = col_bit.bit_length() - 1
            term = entries[row][col] * minor(mask ^ col_bit)
            total = total - term if idx % 2 else total + term
            rest ^= col_bit
            idx += 1
        memo[mask] = total
        return total

    return minor((1 << n) - 1)


def _subfield_unit_codes(ext: FieldSpec, d: int) -> list[int]:
    """Codes of the nonzero elements of the subfield F_{p^d} of ext, d | m:
    the powers of g^s for the generator g and s = (p^m - 1) / (p^d - 1)."""
    step = (ext.order - 1) // (ext.p ** d - 1)
    if ext._exp is not None:
        return ext._exp[::step]
    h = primitive_element(ext) ** step
    x, out = h, [1]
    while x.code != 1:
        out.append(x.code)
        x = x * h
    return out


def roots_in_field(f: Poly, ext: FieldSpec) -> list[FieldElem]:
    """All roots in ext of a nonzero polynomial f over the ground field of
    ext, ascending by element code.

    A root of an irreducible factor of degree d lies in F_{p^d}, which is a
    subfield of ext exactly when d divides ext.m, and d <= deg f.  So only
    zero and those subfields are searched, never all of ext (Lidl &
    Niederreiter, *Finite Fields*, Thm. 2.14): 76 candidates instead of
    4096 for a sextic in F_{2^12}.  Raises ValueError for the zero
    polynomial and FieldMismatch for coefficients outside the ground field.
    """
    if not f.coeffs:
        raise ValueError("the zero polynomial vanishes at every element")
    if f.spec.m != 1 or f.spec.p != ext.p:
        raise FieldMismatch("roots are searched for a polynomial over the "
                            "ground field of the target field")
    codes = {0}
    for d in divisors(ext.m):
        if d <= f.degree:
            codes.update(_subfield_unit_codes(ext, d))
    return [x for x in map(ext.from_code, sorted(codes)) if not f(x).code]


def splitting_data(a: Mat) -> tuple[Poly, tuple[int, ...], int]:
    """Characteristic polynomial, factor degrees (descending) and splitting
    degree of a square ground-field matrix with squarefree spectrum.

    The splitting degree is the lcm of the factor degrees: the smallest
    extension containing every root.  Raises DegenerateSpectrum when the
    characteristic polynomial has a repeated factor.
    """
    cp = char_poly(a)
    if not squarefree(cp):
        raise DegenerateSpectrum(
            "characteristic polynomial has a repeated irreducible factor")
    degrees = tuple(f.degree for f, _ in factor_poly(cp))
    return cp, degrees, math.lcm(*degrees)


def eigenvectors_in(a: Mat, ext: FieldSpec,
                    values: Sequence[FieldElem]) -> Mat:
    """Eigenvector columns of a (lifted into ext) for the given eigenvalues,
    each scaled so its lowest nonzero entry is 1."""
    lifted = lift_matrix(a, ext) if a.spec.m == 1 and a.spec != ext else a
    ident = Mat.identity(ext, a.nrows)
    cols = []
    for lam in values:
        shifted = lifted - ident.scale(lam)
        cols.append(null_space_vector(shifted))
    return Mat.from_columns(ext, cols)


def vandermonde_det(values: Sequence[FieldElem]) -> FieldElem:
    """prod over i < j of (values[j] - values[i])."""
    spec = values[0].spec
    acc = spec.one
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            acc = acc * (values[j] - values[i])
    return acc
