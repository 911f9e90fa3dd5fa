import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gfalign import (DegenerateSpectrum, Mat, MimoChannel, MimoPipeline,
                     SingularChannel, block2x2, build_mimo_precoders,
                     char_poly, lift_matrix, make_field,
                     mimo_channel_from_dict, mimo_channel_to_dict,
                     plan_extension, prime_field, random_mimo_channel,
                     simulate_symbol_ext, split_blocks)
from gfalign import gf, linalg, mimo, scheme
from gfalign.linalg import splitting_data
from gfalign.mimo import random_message
from oracles import (det_by_rref, eigenvector_sum_in_extension,
                     eigenvectors_by_vandermonde, eigenvectors_in,
                     random_mimo_channel_by_det, roots_by_enumeration,
                     vandermonde_det)
from test_golden import GOLDEN, render


def brute_distinct_roots(product, max_degree=6):
    """Independent distinct-eigenvalue check: count roots of the
    characteristic polynomial in a field that splits every possible factor
    shape (degree lcm(1..m) suffices for m <= 3)."""
    cp = char_poly(product)
    big = make_field(product.spec.p, max_degree)
    return len(roots_by_enumeration(cp, big)) == product.nrows


def hop_products(ch):
    q11, q12, q21, q22 = ch.hop1
    p1 = q11.inv() @ q12 @ q22.inv() @ q21
    s11, s12, s21, s22 = split_blocks(block2x2(*ch.hop2).inv(), ch.m)
    p2 = s11.inv() @ s12 @ s22.inv() @ s21
    return p1, p2


def f4_fixture_channel():
    """(p, m) = (2, 2) channel built from companion powers so both hop
    products are the irreducible-quadratic companion matrix."""
    gf2 = prime_field(2)
    ident = Mat.identity(gf2, 2)
    c = Mat.build(gf2, [[0, 1], [1, 1]])
    # hop1: product = C; hop2 chosen full-rank with invertible compound
    return MimoChannel.create(2, 2, [ident, c, ident, ident,
                                     c, ident, ident, c])


class TestPlanExtension:
    def test_views_are_built_on_first_read(self, monkeypatch):
        # planning builds no F_{p^L}; reading ext builds make_field(p, L),
        # and the Mat views equal the code rows they are read off
        ch = random_mimo_channel(2, 6, random.Random(3))
        plan = plan_extension(ch)
        assert plan.degree == 12
        assert not {"ext", "s_blocks"} & set(vars(plan))
        assert not {"ext", "product", "eigenvalues", "eigenvectors"} & set(vars(plan.hop1))
        assert "matrices" not in vars(ch)
        assert plan.ext == make_field(2, 12) and plan.hop2.ext is plan.ext
        for hop in (plan.hop1, plan.hop2):
            assert hop.product.to_code_rows() == hop.product_codes
        assert [mat.to_code_rows() for mat in ch.matrices] == list(ch.codes)
        assert [blk.to_code_rows() for blk in plan.s_blocks] == list(plan.s_codes)
        pre = build_mimo_precoders(plan)
        assert [v.to_code_rows() for v in (pre.v1, pre.v2, pre.v3, pre.v4)] == list(pre.codes)

    def test_m1_trivial(self):
        ch = random_mimo_channel(3, 1, random.Random(0))
        plan = plan_extension(ch)
        assert plan.degree == 1
        assert plan.ext == make_field(3, 1)
        assert plan.hop1.factor_degrees == (1,)

    def test_gf2_m1_fails_before_drawing(self):
        # over GF(2) every invertible 1x1 block is [1], so both compound
        # hops are [[1, 1], [1, 1]]: no draw can succeed, none is made
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(SingularChannel, match=r"GF\(2\)"):
            random_mimo_channel(2, 1, rng)
        assert rng.getstate() == state

    @pytest.mark.parametrize("p,m", [(2, 0), (3, 0), (3, -1)])
    def test_nonpositive_m_fails_before_drawing(self, p, m):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match="extension degree"):
            random_mimo_channel(p, m, rng)
        assert rng.getstate() == state

    def test_identity_product_unreachable(self):
        # an identity hop product forces a singular compound (1 would be an
        # eigenvalue), so the planner rejects the channel before eigen work
        gf2 = prime_field(2)
        ident = Mat.identity(gf2, 2)
        ch = MimoChannel.create(2, 2, [ident] * 8)
        with pytest.raises(SingularChannel):
            plan_extension(ch)

    def test_repeated_eigenvalues_degenerate(self):
        # valid (3, 2) channel whose first-hop product has a repeated
        # eigenvalue, found deterministically
        rng = random.Random(19)
        while True:
            ch = random_mimo_channel(3, 2, rng)
            p1, p2 = hop_products(ch)
            if not brute_distinct_roots(p1) or not brute_distinct_roots(p2):
                break
        with pytest.raises(DegenerateSpectrum):
            plan_extension(ch)

    def test_singular_matrix_rejected(self):
        gf2 = prime_field(2)
        ident = Mat.identity(gf2, 2)
        sing = Mat.build(gf2, [[1, 1], [1, 1]])
        ch = MimoChannel.create(2, 2, [sing] + [ident] * 7)
        with pytest.raises(SingularChannel, match="Q11"):
            plan_extension(ch)

    def test_singular_compound_rejected(self):
        gf2 = prime_field(2)
        ident = Mat.identity(gf2, 2)
        # equal blocks make the compound rank-deficient
        ch = MimoChannel.create(2, 2, [ident, ident, ident, ident,
                                       ident, ident, ident, ident])
        with pytest.raises(SingularChannel, match="compound"):
            plan_extension(ch)

    def test_singular_second_hop_compound_rejected(self):
        gf2 = prime_field(2)
        ident = Mat.identity(gf2, 2)
        comp = Mat.build(gf2, [[0, 1], [1, 1]])
        # a nonsingular first hop, then [[I, I], [I, I]]
        ch = MimoChannel.create(2, 2, [ident, comp, ident, ident] + [ident] * 4)
        with pytest.raises(SingularChannel,
                           match="compound second-hop matrix is singular"):
            plan_extension(ch)

    def test_create_checks_count_and_shape(self):
        ident = [[1, 0], [0, 1]]
        with pytest.raises(ValueError, match="exactly eight"):
            MimoChannel.create(2, 2, [ident] * 7)
        with pytest.raises(ValueError, match=r"2 x 2 matrices over GF\(2\)"):
            MimoChannel.create(2, 2, [ident] * 7 + [[[1, 0, 0], [0, 1, 0]]])

    @pytest.mark.parametrize("p,m", [(3, 1), (2, 2), (3, 2), (2, 3), (5, 2)])
    def test_inverse_blocks_always_invertible(self, p, m):
        # why plan_extension checks no inverse block: with Q33..Q44 and the
        # compound invertible, S11 and S22 invert Schur complements, and S12
        # and S21 are products of invertible matrices (over GF(2) no m = 1
        # channel is valid: every block is [1], so the compound is singular)
        rng = random.Random(157 + p * m)
        for _ in range(150):
            q33, q34, q43, q44 = random_mimo_channel(p, m, rng).hop2
            s11, s12, s21, s22 = split_blocks(block2x2(q33, q34, q43, q44).inv(), m)
            assert all(block.det() for block in (s11, s12, s21, s22))
            assert s11 == (q33 - q34 @ q44.inv() @ q43).inv()
            assert s22 == (q44 - q43 @ q33.inv() @ q34).inv()
            assert s12 == -(q33.inv() @ q34 @ s22)
            assert s21 == -(q44.inv() @ q43 @ s11)

    def test_fixture_plan(self):
        plan = plan_extension(f4_fixture_channel())
        assert plan.degree == 2
        assert plan.hop1.factor_degrees == (2,)
        assert plan.hop1.max_factor_degree == 2
        assert plan.hop1.splitting_degree == 2
        assert len(set(plan.hop1.eigenvalues)) == 2

    def test_eigen_identities(self):
        rng = random.Random(31)
        for p, m in ((2, 2), (3, 2), (2, 3)):
            done = 0
            while done < 10:
                ch = random_mimo_channel(p, m, rng)
                try:
                    plan = plan_extension(ch)
                except DegenerateSpectrum:
                    continue
                done += 1
                for hop in (plan.hop1, plan.hop2):
                    lifted = lift_matrix(hop.product, plan.ext)
                    for k, lam in enumerate(hop.eigenvalues):
                        vec = hop.eigenvectors.col(k)
                        assert lifted @ vec == vec.scale(lam)

    def test_plan_matches_brute_force_verdict(self):
        rng = random.Random(37)
        for p, m in ((2, 2), (3, 2), (2, 3)):
            for _ in range(30):
                ch = random_mimo_channel(p, m, rng)
                p1, p2 = hop_products(ch)
                expect_ok = brute_distinct_roots(p1) and brute_distinct_roots(p2)
                try:
                    plan_extension(ch)
                    assert expect_ok
                except DegenerateSpectrum:
                    assert not expect_ok

    def test_splitting_degree_is_lcm(self):
        rng = random.Random(41)
        seen = set()
        for p, m in ((3, 2), (2, 3), (5, 2)):
            for _ in range(40):
                ch = random_mimo_channel(p, m, rng)
                try:
                    plan = plan_extension(ch)
                except DegenerateSpectrum:
                    continue
                assert plan.degree == math.lcm(plan.hop1.splitting_degree,
                                               plan.hop2.splitting_degree)
                for hop in (plan.hop1, plan.hop2):
                    assert hop.splitting_degree >= hop.max_factor_degree
                    if all(hop.max_factor_degree % d == 0
                           for d in hop.factor_degrees):
                        assert hop.splitting_degree == hop.max_factor_degree
                seen.add(plan.degree)
        assert seen             # at least one plan built per sweep


class TestPrecoders:
    def test_determinant_identity(self):
        rng = random.Random(43)
        for p, m in ((2, 2), (3, 2), (2, 3)):
            done = 0
            while done < 8:
                ch = random_mimo_channel(p, m, rng)
                try:
                    plan = plan_extension(ch)
                except DegenerateSpectrum:
                    continue
                done += 1
                pre = build_mimo_precoders(plan)
                for hop, v_main in ((plan.hop1, pre.v1), (plan.hop2, pre.v3)):
                    # HopPlan.eigenvectors is v1 V^-1, so the identity holds
                    # by construction for them: test the lead against the
                    # eigenvectors of a kernel search instead
                    vectors = eigenvectors_in(hop.product, plan.ext, hop.eigenvalues)
                    det = v_main.det().lift(plan.ext)
                    assert det.code
                    assert det == det_by_rref(vectors) * vandermonde_det(hop.eigenvalues)

    def test_alignment_residuals_vanish(self):
        plan = plan_extension(f4_fixture_channel())
        pre = build_mimo_precoders(plan)
        q11, q12, q21, q22 = plan.channel.hop1
        s11, s12, s21, s22 = plan.s_blocks
        for l in range(plan.channel.m - 1):
            assert q11 @ pre.v1.col(l + 1) == q12 @ pre.v2.col(l)
            assert q21 @ pre.v1.col(l) == q22 @ pre.v2.col(l)
            assert s11 @ pre.v3.col(l + 1) == s12 @ pre.v4.col(l)
            assert s21 @ pre.v3.col(l) == s22 @ pre.v4.col(l)

    def test_m1_shapes(self):
        ch = random_mimo_channel(5, 1, random.Random(2))
        pre = build_mimo_precoders(plan_extension(ch))
        assert pre.v1.nrows == 1 and pre.v1.ncols == 1
        assert pre.v2.ncols == 0


class TestEigenvectors:
    """HopPlan.eigenvectors, v1 V^-1 from the Lagrange form of V^-1, against
    one kernel search of A - lambda I per eigenvalue in F_{p^L}
    (oracles.eigenvectors_in) and against v1 times V inverted by
    elimination (oracles.eigenvectors_by_vandermonde)."""

    @pytest.mark.parametrize("p,m,wide", [
        (2, 2, 0), (3, 2, 0), (2, 3, 0), (3, 3, 0), (2, 4, 0), (5, 2, 0),
        (7, 3, 1), (2, 5, 0), (2, 6, 0), (3, 4, 1), (7, 2, 0), (2, 7, 0)])
    def test_match_kernel_search(self, p, m, wide):
        # wide: plans over a field above 2^16, beyond the log tables, that
        # the draws must reach
        rng = random.Random(f"eigenvectors:{p}:{m}")
        planned = []
        for _ in range(40):
            ch = random_mimo_channel(p, m, rng)
            try:
                if math.lcm(*(splitting_data(prod.spec.p, prod.to_code_rows())[2]
                              for prod in hop_products(ch))) > 24:
                    continue
                plan = plan_extension(ch)
            except DegenerateSpectrum:
                continue
            for hop in (plan.hop1, plan.hop2):
                assert hop.eigenvectors == eigenvectors_in(
                    hop.product, plan.ext, hop.eigenvalues)
                assert hop.eigenvectors == eigenvectors_by_vandermonde(hop)
            planned.append(plan.ext.order)
        assert len(planned) >= 10
        assert sum(order > 1 << 16 for order in planned) >= wide


class TestLead:
    """HopPlan.lead, the eigenvector sum found over F_p by traces in
    F_p[x]/(f), against the sum of the eigenvectors found in F_{p^L}."""

    def check_arm(self, p, m, draws, max_degree=None):
        rng = random.Random(f"lead:{p}:{m}")
        checked = 0
        for _ in range(draws):
            ch = random_mimo_channel(p, m, rng)
            try:
                # skip before plan.ext builds a field beyond max_degree
                if max_degree is not None and math.lcm(*(
                        splitting_data(prod.spec.p, prod.to_code_rows())[2]
                        for prod in hop_products(ch))) > max_degree:
                    continue
                plan = plan_extension(ch)
            except DegenerateSpectrum:
                continue
            for hop in (plan.hop1, plan.hop2):
                assert hop.lead == eigenvector_sum_in_extension(hop.product,
                                                                plan.ext)
            checked += 1
        return checked

    @pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (2, 3), (3, 3), (5, 2),
                                     (2, 4)])
    def test_small_arms(self, p, m):
        assert self.check_arm(p, m, 200) >= 50

    @pytest.mark.parametrize("p,m,draws", [(2, 5, 24), (3, 4, 24), (2, 8, 16)])
    def test_larger_arms_up_to_L24(self, p, m, draws):
        assert self.check_arm(p, m, draws, max_degree=24) >= 3

    def test_lazy_eigen_data_sum_to_lead(self):
        plan = plan_extension(f4_fixture_channel())
        for hop in (plan.hop1, plan.hop2):
            assert "eigenvectors" not in vars(hop)
            ones = Mat.build(plan.ext, [[1]] * 2)
            total = hop.eigenvectors @ ones
            assert tuple(row[0].code for row in total.rows) == hop.lead
            assert hop.eigenvectors is hop.eigenvectors

    def test_no_extension_eigen_search(self, monkeypatch, tmp_path):
        # planning, precoding, the pipeline and the CLI never search
        # F_{p^L} for eigenvalues, and the eigenvectors follow from them
        def refuse(*args):
            raise AssertionError("eigen data searched in the extension field")
        for module in (linalg, mimo):
            monkeypatch.setattr(module, "roots_in_field", refuse)
        rng = random.Random(59)
        for p, m in ((2, 3), (3, 3), (2, 6)):
            ch = random_mimo_channel(p, m, rng)
            try:
                plan = plan_extension(ch)
            except DegenerateSpectrum:
                continue
            pipe = MimoPipeline(build_mimo_precoders(plan))
            w1, w2 = random_message(plan.ext, m, rng)
            assert simulate_symbol_ext(ch, w1, w2, pipe).success
        for case in ("symbol_ext_p2_m6_L12", "symbol_ext_p1009_m2"):
            code, text = render(case)
            assert code == 0
            assert text == (GOLDEN / f"{case}.json").read_text()


class TestPipeline:
    def test_zero_message(self):
        ch = f4_fixture_channel()
        plan = plan_extension(ch)
        pipe = MimoPipeline(build_mimo_precoders(plan))
        zero = plan.ext.zero
        rep = simulate_symbol_ext(ch, (zero, zero), (zero,), pipe)
        assert rep.success
        assert all(not e.code for e in rep.u1 + rep.u2)

    def test_fixture_exhaustive(self):
        ch = f4_fixture_channel()
        plan = plan_extension(ch)
        pipe = MimoPipeline(build_mimo_precoders(plan))
        ext = plan.ext
        count = 0
        for w1 in itertools.product(ext.elements(), repeat=2):
            for w2 in itertools.product(ext.elements(), repeat=1):
                rep = simulate_symbol_ext(ch, w1, w2, pipe)
                assert rep.success
                count += 1
        assert count == 64

    def test_throughput_accounting(self):
        ch = f4_fixture_channel()
        pipe = MimoPipeline(build_mimo_precoders(plan_extension(ch)))
        rep = simulate_symbol_ext(ch, [[0, 1], [1, 0]], [[1, 1]], pipe)
        assert rep.slots == 2
        assert rep.sum_rate_bits_per_slot == 3.0
        assert rep.ground_symbols_delivered == 6

    @pytest.mark.parametrize("p,m", [(3, 2), (2, 3)])
    def test_random_channels_roundtrip(self, p, m):
        rng = random.Random(47)
        done = 0
        while done < 5:
            ch = random_mimo_channel(p, m, rng)
            try:
                plan = plan_extension(ch)
            except DegenerateSpectrum:
                continue
            done += 1
            pipe = MimoPipeline(build_mimo_precoders(plan))
            for _ in range(60):
                w1, w2 = random_message(plan.ext, m, rng)
                assert simulate_symbol_ext(ch, w1, w2, pipe).success

    def test_ground_spectrum_single_slot(self):
        # over GF(5) both products can have all eigenvalues in the ground
        # field, collapsing the slotted pipeline to one slot; cross-check
        # against a direct dense simulation without the slot transport
        rng = random.Random(53)
        found = None
        while found is None:
            ch = random_mimo_channel(5, 2, rng)
            try:
                plan = plan_extension(ch)
            except DegenerateSpectrum:
                continue
            if plan.degree == 1:
                found = (ch, plan)
        ch, plan = found
        pipe = MimoPipeline(build_mimo_precoders(plan))
        pre = pipe.pre
        gf5 = plan.ext
        q11, q12, q21, q22 = ch.hop1
        q33, q34, q43, q44 = ch.hop2
        s11, _, s21, _ = plan.s_blocks
        for _ in range(40):
            w1, w2 = random_message(gf5, 2, rng)
            rep = simulate_symbol_ext(ch, w1, w2, pipe)
            assert rep.slots == 1 and rep.success
            # direct simulation over F_p, no coefficient-slot machinery
            w1c = Mat.column(gf5, list(w1))
            w2c = Mat.column(gf5, list(w2))
            x1 = pre.v1 @ w1c
            x2 = pre.v2 @ w2c
            y1 = q11 @ x1 + q12 @ x2
            y2 = q21 @ x1 + q22 @ x2
            u1 = (q11 @ pre.v1).solve(y1)
            u2 = (q21 @ pre.v1).solve(y2)
            x3 = s11 @ pre.v3 @ u1
            x4 = s21 @ pre.v3 @ u2
            y3 = q33 @ x3 + q34 @ x4
            assert pre.v3.solve(y3) == w1c
            assert tuple(r[0] for r in u1.rows) == rep.u1

    def test_message_length_validated(self):
        ch = f4_fixture_channel()
        plan = plan_extension(ch)
        pipe = MimoPipeline(build_mimo_precoders(plan))
        with pytest.raises(ValueError):
            simulate_symbol_ext(ch, [plan.ext.zero], [plan.ext.zero], pipe)


class TestScalarModelLifted:
    """A scalar channel over F_{p^m} is the matrix channel over F_p whose
    blocks are matrix_rep(q): run every hop tuple t as the channel (t, t).
    The scalar model check and the matrix ranks agree; the scalar degree
    test fails exactly when the matrix plan finds a repeated factor in a
    characteristic polynomial; every plan has L = m; and each hop's matrix
    precoders are matrix_rep(c) times the scalar ones, c the eigenvector
    sum that leads them."""

    @pytest.mark.parametrize("p,m", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
    def test_every_tuple(self, p, m):
        spec = make_field(p, m)
        rep = linalg.matrix_rep
        feasible = 0
        for t in itertools.product(list(spec.elements()), repeat=4):
            ch = scheme.TwoHopChannel.create(spec, t, t)
            verdict = scheme.check_feasible(ch)
            try:
                plan = plan_extension(MimoChannel.create(p, m, [rep(q) for q in t + t]))
            except SingularChannel:
                assert not verdict.model_ok, t
                continue
            except DegenerateSpectrum as exc:
                assert verdict.model_ok and not verdict.feasible, t
                assert "repeated irreducible factor" in str(exc), t
                continue
            assert verdict.feasible, t
            feasible += 1
            assert plan.degree == m, t
            pre, mat = scheme.build_precoders(ch), build_mimo_precoders(plan)
            c1, c2 = spec.element(plan.hop1.lead), spec.element(plan.hop2.lead)
            assert (mat.v1, mat.v2) == (rep(c1) @ pre.v1, rep(c1) @ pre.v2), t
            assert (mat.v3, mat.v4) == (rep(c2) @ pre.v3, rep(c2) @ pre.v4), t
        assert feasible == {(2, 2): 54, (5, 1): 192, (7, 1): 1080, (2, 3): 2058,
                            (3, 2): 3072}[p, m]


class TestSerialization:
    def test_channel_roundtrip(self):
        ch = random_mimo_channel(3, 2, random.Random(3))
        again = mimo_channel_from_dict(mimo_channel_to_dict(ch))
        assert again == ch

    def test_report_shape(self):
        ch = f4_fixture_channel()
        pipe = MimoPipeline(build_mimo_precoders(plan_extension(ch)))
        rep = simulate_symbol_ext(ch, [[0, 1], [1, 0]], [[1, 1]], pipe)
        d = rep.to_dict()
        assert d["plan"]["extension_degree"] == 2
        assert d["plan"]["hop1"]["factor_degrees"] == [2]
        assert d["plan"]["hop1"]["max_factor_degree"] == 2
        assert d["success"] is True

    def test_random_channel_deterministic(self):
        a = random_mimo_channel(2, 3, random.Random(11))
        b = random_mimo_channel(2, 3, random.Random(11))
        assert a == b


class TestChannelStream:
    """random_mimo_channel ranks integer rows (XOR bitmasks over GF(2), read
    from the sampler's bytes); the draw loop over Mat objects tested by the
    list elimination is the reference.  Both must return equal channels and
    leave the rng in the same state."""

    @pytest.mark.parametrize("p,m,seeds", [
        (2, 2, 200), (3, 2, 200), (2, 3, 200), (3, 3, 200), (2, 4, 200),
        (2, 6, 200), (5, 2, 200), (1009, 2, 20), (7, 3, 20), (2, 5, 20),
        (65537, 2, 20), (2, 9, 20), (2, 16, 5)])
    def test_matches_det_draws(self, p, m, seeds):
        for seed in range(seeds):
            rng, ref = random.Random(seed), random.Random(seed)
            assert random_mimo_channel(p, m, rng) == \
                random_mimo_channel_by_det(p, m, ref), seed
            assert rng.getstate() == ref.getstate(), seed

    @pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (2, 3)])
    def test_invertible_block_tables(self, p, m):
        # every m x m block against its closed-form determinant, and the
        # table's size against |GL_m(F_p)| = prod (p^m - p^i)
        table = mimo._invertible_blocks(p, m)
        blocks = list(itertools.product(range(p), repeat=m * m))
        assert all((bytes(b) in table) == bool(linalg._det_small(p, b)) for b in blocks)
        assert table <= set(map(bytes, blocks))
        assert len(table) == math.prod(p ** m - p ** i for i in range(m))

    def test_tables_serve_the_shapes_of_at_most_512_blocks(self, monkeypatch):
        # (2, 2), (3, 2) and (2, 3) only, each table built on its first draw
        built = []
        real = mimo._invertible_blocks
        monkeypatch.setattr(mimo, "_invertible_blocks",
                            lambda p, m: built.append((p, m)) or real(p, m))
        for p, m in [(3, 1), (5, 1), (2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (2, 4)]:
            random_mimo_channel(p, m, random.Random(0))
        assert built == [(2, 2), (3, 2), (2, 3)]

    def test_no_table_at_import(self):
        out = subprocess.run(
            [sys.executable, "-c", "from gfalign import cli, mimo; "
             "print(mimo._invertible_blocks.cache_info().currsize)"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(Path(mimo.__file__).parents[1])})
        assert out.stdout == "0\n"

    @pytest.mark.parametrize("p,m", [(p, m) for p in (2, 3, 5, 7, 251, 257, 1009, 65537)
                                     for m in range(1, 7) if (p, m) != (2, 1)])
    def test_grid_in_chunks_of_1_to_3_words(self, p, m, monkeypatch):
        # the sampler's chunk size moves where blocks meet chunk boundaries,
        # never the channel or the state; p >= 256 draws value by value
        for seed in range(20):
            ref = random.Random(seed)
            want = random_mimo_channel_by_det(p, m, ref)
            for chunk in (gf._CHUNK_WORDS, 1, 2, 3):
                monkeypatch.setattr(gf, "_CHUNK_WORDS", chunk)
                rng = random.Random(seed)
                assert random_mimo_channel(p, m, rng) == want, (seed, chunk)
                assert rng.getstate() == ref.getstate(), (seed, chunk)

    @pytest.mark.parametrize("p", [257, 1009, 65537])
    def test_wide_primes_draw_value_by_value(self, p, monkeypatch):
        # the bulk decoder serves p < 256 only; above, nothing is drawn
        # past the last entry, so there is no rewind to go wrong
        def refuse(*args):
            raise AssertionError("bulk decoder used at p >= 256")

        monkeypatch.setattr(gf, "_top_byte_blocks", refuse)
        for seed in range(20):
            rng, ref = random.Random(seed), random.Random(seed)
            assert random_mimo_channel(p, 2, rng) == \
                random_mimo_channel_by_det(p, 2, ref), seed
            assert rng.getstate() == ref.getstate(), seed
        with pytest.raises(AssertionError, match="bulk decoder"):
            random_mimo_channel(251, 2, random.Random(0))

    @pytest.mark.parametrize("chunk", [None, 1, 2])
    def test_refusal_leaves_the_oracle_state(self, monkeypatch, chunk):
        # with one draw allowed, seed 2, whose first draw has a singular
        # compound hop, is refused; the sampler still rewinds to the oracle's
        # state, although the refusal raises through it
        if chunk:
            monkeypatch.setattr(gf, "_CHUNK_WORDS", chunk)
        monkeypatch.setattr(mimo, "_MAX_DRAWS", 1)
        monkeypatch.setattr(scheme, "_MAX_DRAWS", 1)
        rng, ref = random.Random(2), random.Random(2)
        with pytest.raises(AssertionError, match="no valid channel found in 1 draws"):
            random_mimo_channel_by_det(2, 2, ref)
        with pytest.raises(SingularChannel, match="no valid channel found in 1 draws"):
            random_mimo_channel(2, 2, rng)
        assert rng.getstate() == ref.getstate()
