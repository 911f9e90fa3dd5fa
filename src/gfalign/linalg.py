"""Dense exact linear algebra over a field, plus the representation maps
between an extension field and matrices/vectors over its ground field.

The transform layer provides:

* ``coeff_vector`` / ``elem_from_coeff_vector`` -- an extension element as an
  m x 1 coefficient column and back;
* ``matrix_rep`` / ``elem_from_matrix_rep`` -- an extension element e as the
  m x m ground-field matrix of multiplication by it, and back; column j is
  the coefficient vector of the field product e x^j;
* ``companion_matrix`` -- matrix_rep of x, whose characteristic polynomial
  is the field modulus;
* ``coeff_rows`` / ``vector_from_coeff_rows`` -- a column vector over
  F_{p^r} as an n x r ground-field matrix of coefficient rows and back;
* ``char_poly``, the eigenvector sum over F_p (``eigenvector_sum``) and
  the roots of a polynomial over F_p in an extension (``roots_in_field``).

Everything is exact.  Elimination runs on integer codes mod p, over F_p
only: ``Mat.solve`` is the one solver (full column rank, square or tall;
``inv`` solves against I), and its Gauss-Jordan pass also yields ranks
(pivot counts) and determinants (signed pivot products).  Over F_{p^m},
m > 1, these raise FieldMismatch; ``@``, ``+`` and ``scale`` work over any
field.  ``char_poly`` (Berkowitz) and ``eigenvector_sum`` run on codes mod
p too; the eigenvectors over F_p[x]/(f) = F_p[C_f] are the kernel of one
F_p matrix.  Roots in F_{p^L} are searched only in its subfields F_{p^d},
d | L, d <= deg f.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Iterable, Sequence

from .errors import (DegenerateSpectrum, DimensionMismatch, FieldMismatch,
                     InconsistentSystem, NotInImage, Singular)
from .gf import FieldElem, FieldSpec, prime_field, primitive_element
from .polys import Poly, divisors, factor_poly, format_poly


def _element_of_code(spec: FieldSpec):
    """code -> element of spec, by table lookup when its elements are
    interned."""
    return spec.from_code if spec._elems is None else spec._elems.__getitem__


class Mat:
    """Immutable dense matrix with entries in one field.

    Zero-column matrices are allowed (they show up as precoders for an empty
    message block); zero-row matrices are not, and every constructor but
    the raw one refuses them.
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
    def from_code_rows(cls, spec: FieldSpec, rows) -> "Mat":
        """Matrix of the elements with the given codes, each in [0, p^m);
        the inverse of ``to_code_rows``, without its checks."""
        elem = _element_of_code(spec)
        return cls(spec, tuple(tuple(map(elem, row)) for row in rows))

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "Mat":
        if n < 1:
            raise DimensionMismatch("a matrix needs at least one row")
        one, zero = spec.one, spec.zero
        return cls(spec, tuple(tuple(one if i == j else zero for j in range(n))
                               for i in range(n)))

    @classmethod
    def zeros(cls, spec: FieldSpec, nrows: int, ncols: int) -> "Mat":
        if nrows < 1:
            raise DimensionMismatch("a matrix needs at least one row")
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
            if nrows < 1:
                raise DimensionMismatch("a matrix needs at least one row")
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

    def __neg__(self) -> "Mat":
        return Mat(self.spec, tuple(tuple(-a for a in row) for row in self.rows))

    def __sub__(self, other: "Mat") -> "Mat":
        return self + (-other)

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check(other)
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        if self.ncols == 0:
            raise DimensionMismatch("cannot multiply through an empty inner dimension")
        spec = self.spec
        if spec.m == 1:
            return Mat.from_code_rows(spec, _matmul_mod_p(
                spec.p, self.to_code_rows(), other.to_code_rows()))
        cols = list(zip(*other.rows))
        return Mat(spec, tuple(tuple(sum(map(mul, row, col), spec.zero) for col in cols)
                               for row in self.rows))

    def scale(self, c) -> "Mat":
        c = self.spec.element(c)
        return Mat(self.spec, tuple(tuple(a * c for a in row) for row in self.rows))

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.spec == other.spec and self.rows == other.rows

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

    def _codes_to_eliminate(self, op: str, square: bool = False) -> list[list[int]]:
        """Integer code rows to eliminate on, which Mat does over F_p only."""
        if square and self.nrows != self.ncols:
            raise DimensionMismatch(f"Mat.{op} of a non-square matrix")
        if self.spec.m != 1:
            raise FieldMismatch(f"Mat.{op} eliminates over a prime field only")
        return self.to_code_rows()

    def rank(self) -> int:
        """Rank: the pivot count of the Gauss-Jordan pass, as in ``det``."""
        return len(_gauss_jordan_mod_p(self._codes_to_eliminate("rank"),
                                       self.ncols, self.spec.p)[0])

    def det(self) -> FieldElem:
        """Determinant: the signed pivot product of the Gauss-Jordan pass on
        integer codes mod p."""
        rows = self._codes_to_eliminate("det", square=True)
        return self.spec.from_code(_gauss_jordan_mod_p(rows, self.ncols, self.spec.p)[1])

    def inv(self) -> "Mat":
        """Inverse of a square matrix, as the solution of self @ x = I."""
        rows = self._codes_to_eliminate("inv", square=True)
        return Mat.from_code_rows(self.spec, _inv_mod_p(rows, self.spec.p))

    def solve(self, b: "Mat") -> "Mat":
        """The unique x with self @ x = b for self of full column rank, square
        or tall: Singular when its columns are dependent, InconsistentSystem
        when a column of b lies outside their span (``_solve_mod_p``)."""
        self._check(b)
        if b.nrows != self.nrows:
            raise DimensionMismatch("augmented block has a different row count")
        rows = self._codes_to_eliminate("solve")
        return Mat.from_code_rows(self.spec, _solve_mod_p(
            rows, b.to_code_rows(), self.spec.p))


def _solution(work: list, pivots: list[int], k: int) -> list:
    """Rows of x from the reduced rows of [a | b], a with k columns:
    Singular unless a has full column rank, InconsistentSystem when a row
    that is zero in a is not zero in b."""
    if len(pivots) < k:
        raise Singular(f"coefficient matrix has rank {len(pivots)} < {k} columns")
    if any(any(row[k:]) for row in work[k:]):
        raise InconsistentSystem("right-hand side is outside the column space")
    return [row[k:] for row in work[:k]]


def _gauss_jordan_mod_p(work: list[list[int]], width: int, p: int) -> tuple[list[int], int]:
    """Gauss-Jordan on rows of integer codes over F_p, pivoting on their first
    ``width`` columns: ``work`` becomes its reduced row echelon form.  Returns
    (pivots, det): the pivot columns, as many as the rank, and their product,
    negated at each row swap and 0 once a column has no pivot, which is the
    determinant when ``work`` is square and ``width`` its size."""
    pivots: list[int] = []
    det, n = 1, len(work)
    for c in range(width):
        r = len(pivots)
        pr = next((i for i in range(r, n) if work[i][c]), None)
        if pr is None:
            det = 0
            continue
        row = work[pr]
        work[pr] = work[r]
        det = (det if pr == r else -det) * row[c] % p
        if row[c] != 1:
            inv = pow(row[c], -1, p)
            row = [v * inv % p for v in row]
        work[r] = row
        for i in range(n):
            f = work[i][c]
            if f and i != r:
                work[i] = [(v - f * w) % p for v, w in zip(work[i], row)]
        pivots.append(c)
        if r + 1 == n:
            break
    return pivots, det


def _solve_mod_p(a: list[list[int]], b: list[list[int]], p: int) -> list[list[int]]:
    """x with a x = b over F_p, on integer codes, by the contract of
    ``Mat.solve``."""
    work = [ra + rb for ra, rb in zip(a, b)]
    k = len(a[0])
    return _solution(work, _gauss_jordan_mod_p(work, k, p)[0], k)


def _inv_mod_p(a: list[list[int]], p: int) -> list[list[int]]:
    """Inverse over F_p of a square matrix of integer codes; Singular when
    it has none."""
    return _solve_mod_p(a, [[int(i == j) for j in range(len(a))] for i in range(len(a))], p)


def _det_small(p: int, e: Sequence[int]) -> int:
    """Determinant over F_p of the n x n matrix, n <= 3, whose row-major
    integer codes are e (1, 4 or 9 of them), by cofactor expansion."""
    if len(e) == 9:
        a, b, c, d, f, g, h, i, j = e
        return (a * (f * j - g * i) - b * (d * j - g * h) + c * (d * i - f * h)) % p
    if len(e) == 4:
        a, b, c, d = e
        return (a * d - b * c) % p
    return e[0] % p


def _full_rank(p: int, rows: Sequence[Sequence[int]]) -> bool:
    """True iff a square matrix of integer codes over F_p is invertible: by
    _det_small up to 3 x 3, above that by _independent_masks over F_2 (rows
    of 0/1 codes, list or bytes, as bitmasks), else by Gauss-Jordan pivots."""
    if len(rows) <= 3:
        return _det_small(p, [v for row in rows for v in row]) != 0
    if p != 2:
        return len(_gauss_jordan_mod_p(list(rows), len(rows), p)[0]) == len(rows)
    return _independent_masks(int.from_bytes(bytes(row), "big") for row in rows)


def _independent_masks(masks: Iterable[int]) -> bool:
    """True iff the F_2 rows given as bitmasks are linearly independent.
    Each is reduced by XOR against the rows kept so far: each kept row has
    its own leading bit, and x ^ b < x exactly when that bit of x is set, so
    a row is dependent iff it reduces to 0."""
    basis: list[int] = []
    for x in masks:
        for b in basis:
            if x ^ b < x:
                x ^= b
        if not x:
            return False
        basis.append(x)
    return True


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


def krylov_precoders(product: Mat, lead: Mat, cross: Mat) -> tuple[Mat, Mat]:
    """Main (n x n) and side (n x n-1) precoders of one hop, over a prime
    field, computed on integer codes.

    The main precoder has columns product^l lead for l < n, a Krylov basis
    that has full rank iff lead is a cyclic vector of product; the side
    precoder is cross times its first n-1 columns.
    """
    spec = product.spec
    if spec.m != 1:
        raise FieldMismatch("precoders are built over a prime field")
    p, a = spec.p, product.to_code_rows()
    cols = [[row[0] for row in lead.to_code_rows()]]
    for _ in range(len(a) - 1):
        cols.append([sum(map(mul, row, cols[-1])) % p for row in a])
    main = [list(row) for row in zip(*cols)]
    side = _matmul_mod_p(p, cross.to_code_rows(), [row[:-1] for row in main])
    return Mat.from_code_rows(spec, main), Mat.from_code_rows(spec, side)


def _compound(a: list, b: list, c: list, d: list) -> list:
    """Rows of [[a, b], [c, d]] from the rows of conformable blocks."""
    return [ra + rb for ra, rb in zip(a, b)] + [rc + rd for rc, rd in zip(c, d)]


def block2x2(a: Mat, b: Mat, c: Mat, d: Mat) -> Mat:
    """Assemble [[a, b], [c, d]] from conformable blocks."""
    return Mat(a.spec, tuple(_compound(a.rows, b.rows, c.rows, d.rows)))


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
    negated modulus coefficients: matrix_rep of the class of x, whose code
    is p for m >= 2 and -pi_0 mod p for m = 1.  Its characteristic
    polynomial is the field modulus."""
    p = spec.p
    return matrix_rep(spec.from_code(p if spec.m > 1 else -spec.pi[0] % p))


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

    Column j is the coefficient vector of e x^j, so the matrix takes m - 1
    field products; x is the element with code p.  This is a field
    isomorphism onto the polynomials in the companion matrix; in particular
    the image of any nonzero element is full rank.
    """
    spec = e.spec
    memo = spec._cache.setdefault("matrix_rep", {})
    hit = memo.get(e.code)
    if hit is not None:
        return hit
    cols = [e]
    for _ in range(spec.m - 1):
        cols.append(cols[-1] * spec.from_code(spec.p))
    mat = Mat.from_code_rows(prime_field(spec), zip(*(c.coeffs for c in cols)))
    if spec._elems is not None:     # the interned tier of gf
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
    """Monic characteristic polynomial det(xI - a) of a matrix over a prime
    field, by Berkowitz's algorithm on integer codes mod p: step k extends
    the leading block B (k x k) to [[B, c], [r, d]] by multiplying its
    coefficient vector, highest degree first, by the lower-triangular
    Toeplitz matrix with first column (1, -d, -r c, -r B c, ...,
    -r B^(k-1) c).  It never divides, so it is exact in every
    characteristic, and it costs O(n^4) operations mod p.  Raises
    FieldMismatch for a matrix over an extension field."""
    n = a.nrows
    if n != a.ncols:
        raise DimensionMismatch("characteristic polynomial of a non-square matrix")
    spec = a.spec
    if spec.m != 1:
        raise FieldMismatch("characteristic polynomials are computed over a "
                            "prime field")
    p, rows = spec.p, a.to_code_rows()
    coeffs = [1]
    for k in range(n):
        block = [row[:k] for row in rows[:k]]
        r = rows[k][:k]
        v = [row[k] for row in rows[:k]]
        toeplitz = [1, -rows[k][k] % p]
        for power in range(k):
            if power:
                v = [sum(map(mul, row, v)) % p for row in block]
            toeplitz.append(-sum(map(mul, r, v)) % p)
        coeffs = [sum(map(mul, toeplitz[i::-1], coeffs)) % p for i in range(k + 2)]
    return Poly(spec, coeffs[::-1])


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


def splitting_data(a: Mat) -> tuple[Poly, tuple[Poly, ...], int]:
    """Characteristic polynomial, irreducible factors (by degree,
    descending, as ``factor_poly`` sorts them) and splitting degree of a
    square ground-field matrix with squarefree spectrum.

    The splitting degree is the lcm of the factor degrees: the smallest
    extension containing every root.  Raises DegenerateSpectrum when the
    characteristic polynomial has a repeated factor.
    """
    cp = char_poly(a)
    factors = factor_poly(cp)
    if any(mult > 1 for _, mult in factors):
        raise DegenerateSpectrum(
            "characteristic polynomial has a repeated irreducible factor")
    return cp, tuple(f for f, _ in factors), math.lcm(*(f.degree for f, _ in factors))


def eigenvector_sum(a: Mat, factors: Sequence[Poly]) -> tuple[int, ...]:
    """Codes over F_p of the sum of the eigenvectors of a ground-field
    matrix whose characteristic polynomial is the product of the distinct
    irreducible ``factors``, each eigenvector scaled so its lowest nonzero
    entry is 1 (in F_{p^L}, ``mimo.HopPlan.eigenvectors``).

    A factor f of degree d has the root lambda = x in R = F_p[x]/(f), which
    is F_p[C_f] for the companion C_f of f (column t holds x^(t+1) mod f).
    So the eigenvectors r v (r in R) of a for lambda, each entry a block of
    d coefficients, are the kernel of the nd x nd F_p matrix
    a (x) I_d - I_n (x) C_f.  With the blocks in reversed order,
    Gauss-Jordan leaves free exactly the coefficients of the lowest nonzero
    entry k, and the kernel vector of the t-th free column is x^t v, with
    v_k = 1.  The eigenvectors of f's d roots are the conjugates of v, which
    sum to Tr_{R/F_p}(v): entry i is the trace of multiplication by v_i,
    the sum over t of coefficient t of x^t v_i (Lidl & Niederreiter,
    *Finite Fields*, ch. 2).  Raises DegenerateSpectrum unless each kernel
    has dimension d over F_p."""
    p, n, rows = a.spec.p, a.nrows, a.to_code_rows()
    lead = [0] * n
    for factor in factors:
        f = factor.coeff_codes()
        d = len(f) - 1
        # equation (i, u) is row i d + u; unknown (j, s) is column (n-1-j) d + s
        work = []
        for i, row in enumerate(rows):
            k = (n - 1 - i) * d
            for u in range(d):
                eq = [0] * (n * d)
                eq[u::d] = row[::-1]
                # minus row u of C_f: -f_u in its last column, 1 on its subdiagonal
                eq[k + d - 1] = (eq[k + d - 1] + f[u]) % p
                if u:
                    eq[k + u - 1] = p - 1
                work.append(eq)
        pivots = _gauss_jordan_mod_p(work, n * d, p)[0]
        free = sorted(set(range(n * d)).difference(pivots))
        if len(free) != d:
            raise DegenerateSpectrum(
                f"the roots of {format_poly(factor)} are not simple eigenvalues: "
                f"the kernel has dimension {len(free)} over F_p, not {d}")
        # entry (i, t) of the kernel vector of free column t is -work[r][free[t]]
        # when (i, t) is pivot column r, and 1 at (k, t), so Tr(v_k) = Tr(1) = d
        for r, col in enumerate(pivots):
            lead[n - 1 - col // d] -= work[r][free[col % d]]
        lead[n - 1 - free[0] // d] += d
    return tuple(c % p for c in lead)
