import itertools
import random
from types import SimpleNamespace

import pytest

from gfalign import (DegenerateSpectrum, DimensionMismatch, FieldMismatch,
                     InconsistentSystem, Mat, NotInImage, Poly, Singular,
                     block2x2, char_poly,
                     coeff_rows, coeff_vector, companion_matrix,
                     elem_from_coeff_vector, elem_from_matrix_rep,
                     krylov_precoders, lift_matrix,
                     linear_combination_image, make_field, matrix_rep,
                     prime_field, primitive_element, roots_in_field,
                     split_blocks, vector_from_coeff_rows)
from gfalign.gf import is_prime
from gfalign.linalg import (_det_small, _full_rank, _gauss_jordan_mod_p,
                            _subfield_unit_codes, eigenvector_sum, splitting_data)
from gfalign.polys import all_monic
from oracles import (berkowitz_char_poly, det_by_elimination, det_by_rref,
                     eigenvector_sum_in_extension, eigenvectors_in, inv_by_rref,
                     matrix_rep_by_companion_powers, minimal_polynomial,
                     null_space_vector, rank_by_rref, roots_by_enumeration,
                     solve_by_rref)

GF2 = prime_field(2)
GF3 = prime_field(3)
GF5 = prime_field(5)


def perm_det(a):
    """Permutation-sum determinant; the independent oracle for elimination."""
    n = a.nrows
    spec = a.spec
    total = spec.zero
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):           # count inversions
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = spec.one if sign > 0 else -spec.one
        for i in range(n):
            term = term * a.entry(i, perm[i])
        total = total + term
    return total


def perm_char_poly(a):
    """Characteristic polynomial via the permutation sum over the
    polynomial ring."""
    n = a.nrows
    spec = a.spec
    entries = [[Poly(spec, (-a.entry(i, j),) if i != j else (-a.entry(i, j), 1))
                for j in range(n)] for i in range(n)]
    total = Poly.zero(spec)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Poly.one(spec) if sign > 0 else -Poly.one(spec)
        for i in range(n):
            term = term * entries[i][perm[i]]
        total = total + term
    return total


def det(a):
    """a.det() over a prime field; over an extension field, where Mat
    eliminates nothing, the field-element oracle."""
    return a.det() if a.spec.m == 1 else det_by_rref(a)


def rank(a):
    """a.rank() over a prime field, the field-element oracle otherwise."""
    return a.rank() if a.spec.m == 1 else rank_by_rref(a)


def solve(a, b):
    """a.solve(b) over a prime field, the field-element oracle otherwise."""
    return a.solve(b) if a.spec.m == 1 else solve_by_rref(a, b)


def random_mat(spec, n, rng, cols=None):
    return Mat.build(spec, [[rng.randrange(spec.order) for _ in range(cols or n)]
                            for _ in range(n)])


def random_nonsingular(spec, n, rng):
    while True:
        a = random_mat(spec, n, rng)
        if det(a):
            return a


class TestMatBasics:
    def test_identity_neutral(self):
        rng = random.Random(0)
        for spec in (GF2, GF3, make_field(2, 2)):
            a = random_mat(spec, 3, rng)
            assert Mat.identity(spec, 3) @ a == a
            assert a @ Mat.identity(spec, 3) == a

    def test_self_inverse_example(self):
        a = Mat.build(GF2, [[1, 1], [0, 1]])
        assert a.inv() == a
        assert a @ a == Mat.identity(GF2, 2)

    def test_rank_equal_rows(self):
        assert Mat.build(GF2, [[1, 1], [1, 1]]).rank() == 1
        assert Mat.build(GF3, [[1, 2], [2, 2]]).rank() == 2

    def test_dimension_errors(self):
        a = Mat.build(GF2, [[1, 0]])
        with pytest.raises(DimensionMismatch):
            a @ a
        with pytest.raises(DimensionMismatch):
            a + Mat.build(GF2, [[1], [0]])
        with pytest.raises(DimensionMismatch):
            a.det()
        with pytest.raises(DimensionMismatch):
            a.inv()

    @pytest.mark.parametrize("call,error,message", [
        (lambda: Mat.from_columns(GF2, []), DimensionMismatch, "explicit row count"),
        (lambda: Mat.identity(GF2, 2) @ Mat.identity(GF3, 2), FieldMismatch,
         "different fields"),
        (lambda: Mat.from_columns(GF2, [], nrows=0), DimensionMismatch,
         "at least one row"),
        (lambda: Mat.zeros(GF2, 0, 3), DimensionMismatch, "at least one row"),
        (lambda: Mat.identity(GF2, 0), DimensionMismatch, "at least one row"),
        # no constructor builds a zero-row factor, but a raw one is still refused
        (lambda: Mat.from_columns(GF2, [], nrows=2) @ Mat(GF2, ()),
         DimensionMismatch, "empty inner dimension"),
        (lambda: Mat.identity(GF2, 2).solve(Mat.build(GF2, [[1]])), DimensionMismatch,
         "different row count"),
        (lambda: krylov_precoders(*[Mat.identity(make_field(2, 2), 2)] * 3), FieldMismatch,
         "over a prime field"),
        (lambda: elem_from_coeff_vector(Mat.identity(GF2, 2), make_field(2, 2)),
         DimensionMismatch, "2 x 1 coefficient column"),
        (lambda: elem_from_matrix_rep(Mat.identity(GF2, 3), make_field(2, 2)),
         DimensionMismatch, "2 x 2 matrix"),
        (lambda: coeff_rows(Mat.identity(make_field(2, 2), 2)), DimensionMismatch,
         "column vector"),
        (lambda: vector_from_coeff_rows(Mat.identity(GF2, 3), make_field(2, 2)),
         DimensionMismatch, "2 coefficient columns"),
        (lambda: linear_combination_image([GF2.one], []), DimensionMismatch,
         "differ in length"),
        (lambda: linear_combination_image([], []), DimensionMismatch, "empty combination"),
        (lambda: linear_combination_image([make_field(2, 2).one], [make_field(2, 3).one]),
         FieldMismatch, "mixes different fields"),
        (lambda: lift_matrix(Mat.identity(make_field(2, 2), 2), make_field(2, 4)),
         FieldMismatch, "from the ground field"),
        (lambda: char_poly(Mat.build(GF2, [[1, 0]])), DimensionMismatch, "non-square"),
    ], ids=["from-columns-no-nrows", "matmul-across-fields", "from-columns-no-rows",
            "zeros-no-rows", "identity-no-rows", "matmul-empty-inner",
            "solve-row-count", "krylov-GF4", "elem-from-coeff-vector",
            "elem-from-matrix-rep", "coeff-rows", "vector-from-coeff-rows",
            "combination-lengths", "combination-empty", "combination-fields",
            "lift-from-GF4", "char-poly-1x2"])
    def test_refusals(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    @pytest.mark.parametrize("p,m", [(2, 2), (3, 2)], ids=["GF4", "GF9"])
    def test_extension_field_eliminations_raise(self, p, m):
        # Mat eliminates over F_p only; products still work over F_{p^m}
        spec = make_field(p, m)
        x = spec.element([0, 1])
        a = Mat.build(spec, [[1, x], [x + 1, 1]])
        b = Mat.build(spec, [[1], [x]])
        for eliminate in (a.rank, a.det, a.inv, lambda: a.solve(b)):
            with pytest.raises(FieldMismatch, match="over a prime field only"):
                eliminate()
        assert a @ b == Mat.build(spec, [[1 + x * x], [x + 1 + x]])

    def test_empty_width(self):
        v = Mat.from_columns(GF2, [], nrows=3)
        assert v.nrows == 3 and v.ncols == 0 and v.rank() == 0
        assert v.to_lists() == [[], [], []]

    @pytest.mark.parametrize("spec,sizes", [(GF2, (2, 4, 6)), (GF3, (3, 5)),
                                            (GF5, (2, 6))])
    def test_inverse_roundtrip_random(self, spec, sizes):
        # >= 1000 nonsingular matrices across the three ground fields
        rng = random.Random(7)
        for n in sizes:
            for _ in range(145):
                a = random_nonsingular(spec, n, rng)
                assert a @ a.inv() == Mat.identity(spec, n)

    def test_det_matches_permutation_sum(self):
        rng = random.Random(1)
        for spec in (GF2, GF3, GF5, make_field(2, 2), make_field(2, 3),
                     make_field(3, 2)):
            for n in (2, 3, 4, 5):
                for _ in range(25):
                    a = random_mat(spec, n, rng)
                    assert det(a) == perm_det(a)

    def test_singular_raises(self):
        a = Mat.build(GF2, [[1, 1], [1, 1]])
        with pytest.raises(Singular):
            a.inv()
        with pytest.raises(Singular):
            a.solve(Mat.build(GF2, [[1], [0]]))

    def test_solve_roundtrip(self):
        rng = random.Random(5)
        for spec in (GF3, make_field(2, 3)):
            for _ in range(40):
                a = random_nonsingular(spec, 4, rng)
                x = Mat.build(spec, [[rng.randrange(spec.order)] for _ in range(4)])
                assert solve(a, a @ x) == x

    @pytest.mark.parametrize("spec", [GF3, make_field(2, 3)], ids=["GF3", "GF8"])
    def test_solve_full_column_rank(self, spec):
        # the one solver: square and tall systems of full column rank solve
        # exactly; dependent columns (a wide or singular matrix) raise
        # Singular, a right-hand side outside the column space
        # InconsistentSystem
        a = Mat.build(spec, [[1, 0], [0, 1], [1, 1]])
        x = Mat.build(spec, [[2], [1]])
        assert solve(a, a @ x) == x
        with pytest.raises(InconsistentSystem):
            solve(a, Mat.build(spec, [[0], [0], [1]]))
        with pytest.raises(Singular):
            solve(Mat.build(spec, [[1, 1], [2, 2]]), Mat.build(spec, [[1], [2]]))
        with pytest.raises(Singular):
            solve(Mat.build(spec, [[1, 0, 1], [0, 1, 1]]), Mat.build(spec, [[1], [1]]))
        rng = random.Random(21)
        for nrows, ncols in ((3, 3), (4, 2), (5, 3), (4, 1)):
            done = 0
            while done < 15:
                a = random_mat(spec, nrows, rng, ncols)
                b = random_mat(spec, nrows, rng, 2)
                aug = Mat(spec, tuple(ra + rb for ra, rb in zip(a.rows, b.rows)))
                if rank(a) < ncols:
                    with pytest.raises(Singular):
                        solve(a, b)
                    continue
                x = random_mat(spec, ncols, rng, 2)
                assert solve(a, a @ x) == x
                if rank(aug) > ncols:
                    with pytest.raises(InconsistentSystem):
                        solve(a, b)
                else:
                    assert a @ solve(a, b) == b
                done += 1

    def test_null_space_vector(self):
        a = Mat.build(GF3, [[1, 2], [2, 4]])
        v = null_space_vector(a)
        assert (a @ v).to_lists() == [[0], [0]]
        low = next(e for e in v.col_entries(0) if e.code)
        assert low.code == 1
        with pytest.raises(Singular):
            null_space_vector(Mat.identity(GF3, 2))

    def test_blocks_roundtrip(self):
        rng = random.Random(2)
        parts = [random_mat(GF3, 2, rng) for _ in range(4)]
        again = split_blocks(block2x2(*parts), 2)
        assert list(again) == parts


class TestCompanion:
    def test_f4(self):
        assert companion_matrix(make_field(2, 2)).to_code_rows() == [[0, 1], [1, 1]]

    def test_f8_explicit(self):
        spec = make_field(2, 3, [1, 1, 0, 1])        # x^3+x+1
        assert companion_matrix(spec).to_code_rows() == [[0, 0, 1], [1, 0, 1], [0, 1, 0]]

    def test_degenerate_ground_field(self):
        assert companion_matrix(make_field(2, 1)).to_code_rows() == [[0]]

    @pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2)])
    def test_char_poly_is_modulus(self, p, m):
        spec = make_field(p, m)
        cp = char_poly(companion_matrix(spec))
        assert cp.coeff_codes() == spec.modulus_coeffs


class TestVectorMap:
    def test_frozen(self):
        f4 = make_field(2, 2)
        a = primitive_element(f4)
        assert coeff_vector(f4.one + a).to_lists() == [[1], [1]]
        assert coeff_vector(f4.zero).to_lists() == [[0], [0]]
        assert elem_from_coeff_vector(Mat.build(GF2, [[0], [1]]), f4) == a

    @pytest.mark.parametrize("p,m", [(2, 3), (3, 2)])
    def test_roundtrip(self, p, m):
        spec = make_field(p, m)
        for e in spec.elements():
            assert elem_from_coeff_vector(coeff_vector(e), spec) == e


class TestMatrixMap:
    def test_frozen_f4(self):
        f4 = make_field(2, 2)
        a = primitive_element(f4)
        c = companion_matrix(f4)
        assert matrix_rep(a) == c
        assert matrix_rep(f4.one) == Mat.identity(GF2, 2)
        assert matrix_rep(f4.one + a) == c @ c
        assert matrix_rep(f4.zero).to_code_rows() == [[0, 0], [0, 0]]

    def test_powers_of_generator(self):
        for spec in (make_field(2, 3), make_field(3, 2)):
            a = primitive_element(spec)
            c = companion_matrix(spec)
            acc = Mat.identity(prime_field(spec), spec.m)
            for k in range(spec.order - 1):
                assert matrix_rep(a ** k) == acc
                acc = acc @ c

    @pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (2, 4), (2, 6), (3, 3)])
    def test_isomorphism_exhaustive(self, p, m):
        spec = make_field(p, m)
        elems = list(spec.elements())
        for x in elems:
            rx = matrix_rep(x)
            if x.code:
                assert rx.rank() == m     # nonzero images are full rank
            assert coeff_vector(x) == rx.col(0)
            for y in elems:
                assert matrix_rep(x * y) == rx @ matrix_rep(y)
                assert matrix_rep(x + y) == rx + matrix_rep(y)
                assert coeff_vector(x * y) == rx @ coeff_vector(y)

    def test_matches_companion_powers_small_fields(self):
        """matrix_rep, built from field products, equals sum_i b_i C^i on
        every element of every field of order <= 256."""
        for p in filter(is_prime, range(2, 257)):
            m = 1
            while p ** m <= 256:
                spec = make_field(p, m)
                for e in spec.elements():
                    assert matrix_rep(e) == matrix_rep_by_companion_powers(e), \
                        (p, m, e.code)
                m += 1

    @pytest.mark.parametrize("p,m", [(2, 16), (2, 17), (3, 11), (5, 7), (2, 20),
                                     (1009, 2)])
    def test_matches_companion_powers_seeded(self, p, m):
        spec = make_field(p, m)
        rng = random.Random(1000 * p + m)
        for _ in range(35):
            e = spec.from_code(rng.randrange(spec.order))
            assert matrix_rep(e) == matrix_rep_by_companion_powers(e), e.code

    @pytest.mark.parametrize("m,memoized", [(16, True), (17, False)])
    def test_memoized_in_the_interned_tier(self, m, memoized):
        # GF(2^16) interns its elements and keeps each matrix; GF(2^17)
        # builds it afresh on every call
        spec = make_field(2, m)
        e = spec.from_code(12345)
        assert (spec._elems is not None) == memoized
        assert (matrix_rep(e) is matrix_rep(e)) == memoized
        assert matrix_rep(e) == matrix_rep_by_companion_powers(e)

    def test_inverse_map(self):
        f4 = make_field(2, 2)
        for e in f4.elements():
            assert elem_from_matrix_rep(matrix_rep(e), f4) == e
        with pytest.raises(NotInImage):
            elem_from_matrix_rep(Mat.build(GF2, [[1, 0], [1, 1]]), f4)


class TestLinearCombinationImage:
    def test_identity_coefficient(self):
        f4 = make_field(2, 2)
        x = primitive_element(f4)
        assert linear_combination_image([f4.one], [x]) == coeff_vector(x)

    def test_frozen_f4(self):
        f4 = make_field(2, 2)
        a = primitive_element(f4)
        # a*a + 1*a = (a+1) + a = 1
        assert linear_combination_image([a, f4.one], [a, a]).to_lists() == [[1], [0]]

    def test_exhaustive_f4_pairs(self):
        f4 = make_field(2, 2)
        elems = list(f4.elements())
        for q1, q2, x1, x2 in itertools.product(elems, repeat=4):
            got = linear_combination_image([q1, q2], [x1, x2])
            assert got == coeff_vector(q1 * x1 + q2 * x2)

    @pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (2, 4)])
    def test_random_triples(self, p, m):
        spec = make_field(p, m)
        rng = random.Random(11)
        for _ in range(300):
            qs = [spec.random_element(rng) for _ in range(3)]
            xs = [spec.random_element(rng) for _ in range(3)]
            scalar = qs[0] * xs[0] + qs[1] * xs[1] + qs[2] * xs[2]
            assert linear_combination_image(qs, xs) == coeff_vector(scalar)


class TestCoeffRows:
    def test_ground_field_degenerate(self):
        v = Mat.build(GF3, [[2], [1]])
        assert coeff_rows(v).to_code_rows() == [[2], [1]]

    def test_frozen_f4(self):
        f4 = make_field(2, 2)
        a = primitive_element(f4)
        v = Mat.column(f4, [a, f4.one + a])
        assert coeff_rows(v).to_code_rows() == [[0, 1], [1, 1]]

    def test_roundtrip_and_linearity(self):
        ext = make_field(3, 2)
        rng = random.Random(4)
        for _ in range(100):
            v = Mat.build(ext, [[rng.randrange(9)] for _ in range(3)])
            w = Mat.build(ext, [[rng.randrange(9)] for _ in range(3)])
            assert vector_from_coeff_rows(coeff_rows(v), ext) == v
            assert coeff_rows(v) + coeff_rows(w) == coeff_rows(v + w)

    def test_transport_commutes(self):
        # ground-field matrices act slot-wise on coefficient rows
        rng = random.Random(9)
        for p, deg in ((2, 2), (2, 3), (3, 2), (3, 3)):
            ext = make_field(p, deg)
            ground = prime_field(p)
            for n in (2, 3, 4):
                for _ in range(25):
                    q = random_mat(ground, n, rng)
                    x = Mat.build(ext, [[rng.randrange(ext.order)] for _ in range(n)])
                    assert coeff_rows(lift_matrix(q, ext) @ x) == q @ coeff_rows(x)


class TestCharPoly:
    def test_frozen(self):
        assert char_poly(Mat.identity(GF2, 2)).coeff_codes() == (1, 0, 1)
        assert char_poly(Mat.zeros(GF2, 3, 3)).coeff_codes() == (0, 0, 0, 1)

    def test_matches_permutation_sum(self):
        # char_poly over the prime fields; over the extension fields the
        # field-element Berkowitz oracle, which checks char_poly below
        rng = random.Random(13)
        for spec in (GF2, GF3, GF5, make_field(2, 2), make_field(3, 2)):
            berkowitz = char_poly if spec.m == 1 else berkowitz_char_poly
            for n, count in ((2, 20), (3, 20), (4, 20), (5, 10), (6, 5)):
                for _ in range(count):
                    a = random_mat(spec, n, rng)
                    assert berkowitz(a) == perm_char_poly(a)

    def test_extension_field_raises(self):
        with pytest.raises(FieldMismatch):
            char_poly(Mat.identity(make_field(2, 2), 2))

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_invariants_at_larger_sizes(self, p, n):
        # beyond the permutation sum: Cayley-Hamilton p(A) = 0, the trace
        # is -c_(n-1) and the determinant is (-1)^n c_0
        spec = prime_field(p)
        a = random_mat(spec, n, random.Random(1000 * p + n))
        cp = char_poly(a)
        assert cp.degree == n and cp.is_monic
        ident = Mat.identity(spec, n)
        acc = Mat.zeros(spec, n, n)
        for c in reversed(cp.coeffs):
            acc = acc @ a + ident.scale(c)
        assert acc == Mat.zeros(spec, n, n)
        trace = sum((a.entry(i, i) for i in range(n)), spec.zero)
        assert trace == -cp.coeffs[n - 1]
        assert a.det() == (cp.coeffs[0] if n % 2 == 0 else -cp.coeffs[0])

    def test_lift_preserves_char_poly(self):
        rng = random.Random(17)
        ext = make_field(2, 4)
        for _ in range(20):
            a = random_mat(GF2, 3, rng)
            lifted = berkowitz_char_poly(lift_matrix(a, ext))
            assert lifted.coeff_codes() == char_poly(a).coeff_codes()


def eigen(a):
    """Eigen data of a ground-field matrix the way plan_extension computes
    it: splitting data, then roots and eigenvectors in the splitting field."""
    cp, factors, deg = splitting_data(a)
    ext = make_field(a.spec.p, deg)
    values = tuple(roots_in_field(cp, ext))
    assert len(values) == a.nrows
    return SimpleNamespace(degree=deg, ext=ext,
                           factor_degrees=tuple(f.degree for f in factors),
                           values=values,
                           vectors=eigenvectors_in(a, ext, values))


class TestQuotientField:
    """The eigenvector sum over R = F_p[x]/(f), solved as an F_p system in
    F_p[C_f] for each factor f, against the sum of the eigenvectors found in
    the splitting field."""

    @pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2)])
    def test_every_squarefree_matrix(self, p, n):
        # singular matrices included: the factor x has the root 0, which no
        # hop product has
        ground = prime_field(p)
        checked = singular = 0
        for entries in itertools.product(range(p), repeat=n * n):
            a = Mat.build(ground, [entries[i * n:(i + 1) * n] for i in range(n)])
            try:
                _, factors, degree = splitting_data(a)
            except DegenerateSpectrum:
                continue
            assert eigenvector_sum(a, factors) \
                == eigenvector_sum_in_extension(a, make_field(p, degree))
            checked += 1
            singular += not a.det().code
        assert singular and checked > singular

    def test_kernel_of_the_wrong_dimension_raises(self):
        # x - 1 is a repeated factor of I's characteristic polynomial, and x
        # is not a factor at all
        with pytest.raises(DegenerateSpectrum, match="dimension 2 over F_p, not 1"):
            eigenvector_sum(Mat.identity(GF3, 2), [Poly(GF3, [2, 1])])
        with pytest.raises(DegenerateSpectrum, match="dimension 0 over F_p, not 1"):
            eigenvector_sum(Mat.identity(GF3, 2), [Poly(GF3, [0, 1])])

    def test_eigenvector_sum_of_a_companion(self):
        # the companion of x^3 + x + 1 over F_2 has the roots a, a^2, a^4 of
        # its modulus in F_8; its eigenvector sum is the F_8 oracle's
        a = companion_matrix(make_field(2, 3))
        f8 = make_field(2, 3)
        total = eigen(a).vectors @ Mat.build(f8, [[1]] * 3)
        assert eigenvector_sum(a, splitting_data(a)[1]) \
            == tuple(row[0].code for row in total.rows)


class TestEigen:
    def test_irreducible_quadratic(self):
        a = Mat.build(GF2, [[0, 1], [1, 1]])
        dec = eigen(a)
        assert dec.degree == 2 and dec.ext == make_field(2, 2)
        f4 = dec.ext
        gen = primitive_element(f4)
        assert set(dec.values) == {gen, gen ** 2}
        for k, lam in enumerate(dec.values):
            vec = dec.vectors.col(k)
            assert lift_matrix(a, f4) @ vec == vec.scale(lam)

    def test_split_spectrum(self):
        a = Mat.build(GF2, [[1, 0], [0, 0]])
        dec = eigen(a)
        assert dec.degree == 1
        assert [v.code for v in dec.values] == [0, 1]

    def test_degenerate(self):
        with pytest.raises(DegenerateSpectrum):
            splitting_data(Mat.build(GF2, [[1, 1], [0, 1]]))
        with pytest.raises(DegenerateSpectrum):
            splitting_data(Mat.identity(GF3, 2))

    def test_mixed_factor_degrees_use_lcm(self):
        # block diagonal from an irreducible quadratic and a fixed point:
        # factors of degree 2 and 1
        a = Mat.build(GF2, [[0, 1, 0], [1, 1, 0], [0, 0, 1]])
        dec = eigen(a)
        assert sorted(dec.factor_degrees, reverse=True) == [2, 1]
        assert dec.degree == 2

    def test_degree_three_and_six(self):
        # x^3+x+1 companion: irreducible cubic, splitting degree 3
        a = Mat.build(GF2, [[0, 0, 1], [1, 0, 1], [0, 1, 0]])
        dec = eigen(a)
        assert dec.degree == 3 and len(set(dec.values)) == 3
        for k, lam in enumerate(dec.values):
            vec = dec.vectors.col(k)
            assert lift_matrix(a, dec.ext) @ vec == vec.scale(lam)
        # block diagonal with factors of degree 2 and 3: lcm is 6
        b = Mat.build(GF2, [
            [0, 1, 0, 0, 0],
            [1, 1, 0, 0, 0],
            [0, 0, 0, 0, 1],
            [0, 0, 1, 0, 1],
            [0, 0, 0, 1, 0]])
        dec6 = eigen(b)
        assert sorted(dec6.factor_degrees, reverse=True) == [3, 2]
        assert dec6.degree == 6
        assert len(set(dec6.values)) == 5

    def test_roots_in_field_against_minimal_polynomials(self):
        f8 = make_field(2, 3)
        f = minimal_polynomial(primitive_element(f8))
        roots = roots_in_field(f, f8)
        assert len(roots) == 3
        assert all(minimal_polynomial(r) == f for r in roots)


class TestPrimeFieldDet:
    """Prime-field determinants eliminate on integer codes; the FieldElem
    elimination of the same matrix lifted into F_{p^2} is the reference."""

    @staticmethod
    def _check(a):
        assert a.det() == a.spec.from_code(
            det_by_rref(lift_matrix(a, make_field(a.spec.p, 2))).code)

    @pytest.mark.parametrize("spec,n", [(GF2, 2), (GF2, 3), (GF3, 2), (GF5, 2)])
    def test_exhaustive(self, spec, n):
        for codes in itertools.product(range(spec.p), repeat=n * n):
            self._check(Mat.build(spec, [codes[i * n:(i + 1) * n]
                                         for i in range(n)]))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_random_4_to_6(self, p):
        rng = random.Random(f"det:{p}")
        spec = prime_field(p)
        for n in (4, 5, 6):
            for _ in range(40):
                self._check(random_mat(spec, n, rng))
                self._check(random_nonsingular(spec, n, rng))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_rank_of_rectangular(self, p):
        # the same integer elimination ranks the certificates of scans;
        # FieldElem Gauss-Jordan on the lifted matrix is the reference
        rng = random.Random(f"rank:{p}")
        spec, ext = prime_field(p), make_field(p, 2)
        for _ in range(300):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            a = Mat.build(spec, [[rng.randrange(p) if rng.random() < 0.6 else 0
                                  for _ in range(cols)] for _ in range(rows)])
            want = rank_by_rref(lift_matrix(a, ext))
            assert len(_gauss_jordan_mod_p(a.to_code_rows(), cols, p)[0]) == a.rank() == want


class TestDetSmall:
    """_det_small, the closed-form determinant behind the channel draw's block
    test and _full_rank up to 3 x 3, against elimination mod p: every matrix
    over F_2 and F_3, and seeded ones over larger fields, given as tuples and
    (for p < 256, as the sampler yields them) as bytes."""

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_matrix(self, p, n):
        for e in itertools.product(range(p), repeat=n * n):
            assert _det_small(p, e) == _det_small(p, bytes(e)) == \
                det_by_elimination(p, e) % p, e

    @pytest.mark.parametrize("p", [5, 7, 251, 1009, 2 ** 31 - 1])
    def test_seeded(self, p):
        rng = random.Random(f"det-small:{p}")
        for n in (1, 2, 3):
            for _ in range(500):
                e = [rng.randrange(p) if rng.random() < 0.8 else 0 for _ in range(n * n)]
                want = det_by_elimination(p, e) % p
                assert _det_small(p, e) == want, e
                if p < 256:
                    assert _det_small(p, bytes(e)) == want, e


class TestPrimeFieldCodes:
    """Over a prime field, @, solve, inv, char_poly and the rank test of the
    channel draws run on integer codes mod p; the field-element elimination
    and Berkowitz of the same matrices lifted into F_{p^2} are the
    reference.  A failed solve must raise the same exception with the same
    message."""

    @staticmethod
    def _outcome(fn, ext=None):
        try:
            x = fn()
        except (Singular, InconsistentSystem) as exc:
            return type(exc), str(exc)
        return x if ext is None else lift_matrix(x, ext)

    @classmethod
    def _check(cls, a, rhs, right):
        """Compare a @ right and a.solve(rhs), and for a square a also
        a.inv(), char_poly(a) and the rank test, with the lifted versions."""
        p = a.spec.p
        ext = make_field(p, 2)
        la = lift_matrix(a, ext)
        assert lift_matrix(a @ right, ext) == la @ lift_matrix(right, ext)
        got = cls._outcome(lambda: a.solve(rhs), ext)
        assert got == cls._outcome(lambda: solve_by_rref(la, lift_matrix(rhs, ext)))
        if a.nrows == a.ncols:
            assert cls._outcome(a.inv, ext) == cls._outcome(lambda: inv_by_rref(la))
            assert (char_poly(a).coeff_codes()
                    == berkowitz_char_poly(la).coeff_codes())
            assert _full_rank(p, a.to_code_rows()) == bool(det_by_rref(la))
        return got

    @pytest.mark.parametrize("spec,n", [(GF2, 2), (GF2, 3), (GF3, 2)])
    def test_exhaustive(self, spec, n):
        rng = random.Random(f"codes:{spec.p}:{n}")
        for codes in itertools.product(range(spec.p), repeat=n * n):
            a = Mat.build(spec, [codes[i * n:(i + 1) * n] for i in range(n)])
            self._check(a, random_mat(spec, n, rng, 2), random_mat(spec, n, rng))

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 1009])
    def test_random_4_to_8(self, p):
        rng = random.Random(f"codes:{p}")
        spec = prime_field(p)
        for n in range(4, 9):
            for _ in range(6):
                a = random_mat(spec, n, rng)
                self._check(a, random_mat(spec, n, rng, 3), random_mat(spec, n, rng))
                a = random_nonsingular(spec, n, rng)
                self._check(a, random_mat(spec, n, rng, 1), random_mat(spec, n, rng))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_tall_wide_singular_inconsistent(self, p):
        # sparse entries make dependent columns common; half the right-hand
        # sides lie in the column space, so every outcome occurs
        rng = random.Random(f"systems:{p}")
        spec = prime_field(p)
        seen = set()
        for _ in range(300):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            a = Mat.build(spec, [[rng.randrange(p) if rng.random() < 0.5 else 0
                                  for _ in range(cols)] for _ in range(rows)])
            rhs = (a @ random_mat(spec, cols, rng, 2) if rng.random() < 0.5
                   else random_mat(spec, rows, rng, 2))
            got = self._check(a, rhs, random_mat(spec, cols, rng, 3))
            seen.add(got[0] if isinstance(got, tuple) else Mat)
        assert seen == {Mat, Singular, InconsistentSystem}

    def test_messages(self):
        with pytest.raises(Singular, match=r"^coefficient matrix has rank 1 < 2 columns$"):
            Mat.build(GF3, [[1, 2], [2, 1], [0, 0]]).solve(Mat.build(GF3, [[1], [2], [0]]))
        with pytest.raises(InconsistentSystem,
                           match=r"^right-hand side is outside the column space$"):
            Mat.build(GF3, [[1, 0], [0, 1], [1, 1]]).solve(Mat.build(GF3, [[0], [0], [1]]))


class TestSubfieldRoots:
    """roots_in_field searches only the subfields F_{p^d}, d | L, d <= deg f;
    the whole-field scan in tests/oracles.py is the reference."""

    @pytest.mark.parametrize("p,max_degree,exts", [
        (2, 4, (2, 3, 4, 6)), (3, 3, (2, 3))])
    def test_every_small_monic(self, p, max_degree, exts):
        ground = prime_field(p)
        for m in exts:
            ext = make_field(p, m)
            for d in range(max_degree + 1):
                for f in all_monic(ground, d):
                    assert roots_in_field(f, ext) == roots_by_enumeration(f, ext)

    @pytest.mark.parametrize("p,m", [(2, 12), (3, 6)])
    def test_random_degree_5_and_6(self, p, m):
        # half uniform, half products of low-degree factors, which have
        # roots in the proper subfields far more often
        rng = random.Random(f"roots:{p}:{m}")
        ground = prime_field(p)
        ext = make_field(p, m)
        found = 0
        for k in range(16):
            degree = 5 + k % 2
            if k < 8:
                f = Poly(ground, [rng.randrange(p) for _ in range(degree)] + [1])
            else:
                f = Poly.one(ground)
                while f.degree < degree:
                    d = rng.randint(1, min(3, degree - f.degree))
                    f = f * Poly(ground, [rng.randrange(p) for _ in range(d)] + [1])
            roots = roots_in_field(f, ext)
            assert roots == roots_by_enumeration(f, ext)
            found += len(roots)
        assert found > 0

    def test_subfield_units_without_log_tables(self):
        ext = make_field(2, 18)     # above the log-table limit
        assert ext._exp is None
        for d in (1, 2, 3, 6, 9):
            units = [ext.from_code(c) for c in _subfield_unit_codes(ext, d)]
            assert len(set(units)) == 2 ** d - 1
            assert all(x.code and x ** (2 ** d) == x for x in units)
        f = (Poly(GF2, [0, 1]) * Poly(GF2, [1, 1, 1])
             * Poly(GF2, [1, 1, 0, 1]))
        roots = roots_in_field(f, ext)
        assert len(roots) == 6
        assert [r.code for r in roots] == sorted(r.code for r in roots)
        assert all(not f(r).code for r in roots)

    def test_constant_has_no_roots(self):
        assert roots_in_field(Poly.one(GF3), make_field(3, 2)) == []

    def test_zero_polynomial_raises(self):
        with pytest.raises(ValueError):
            roots_in_field(Poly.zero(GF2), make_field(2, 3))

    def test_coefficients_outside_ground_field_raise(self):
        f4 = make_field(2, 2)
        with pytest.raises(FieldMismatch):
            roots_in_field(Poly(f4, [primitive_element(f4), 1]), make_field(2, 4))
        with pytest.raises(FieldMismatch):
            roots_in_field(Poly(GF3, [1, 1]), make_field(2, 2))
