import ast
import itertools
import json
import random
from pathlib import Path

import pytest

from gfalign import (InconsistentSystem, Mat, MessagePair, SingularChannel,
                     TwoHopChannel, all_messages, apply_hop, block2x2, build_precoders,
                     channel_from_dict, channel_to_dict, check_feasible,
                     coeff_vector, destination_decode, draw_valid_channel,
                     elem_from_coeff_vector, exhaustive_scan, krylov_precoders,
                     make_field, matrix_rep, minpoly_degree, prime_field,
                     primitive_element, relay_decode, relay_encode,
                     second_hop_inverse, scheme, simulate, source_encode)
from gfalign.scheme import (_cross_ratio, _decode_target, _feasible_tuples,
                            _relay_sum_rows)
from oracles import _scan_hop

F4 = make_field(2, 2)
ALPHA = primitive_element(F4)


def f4_fixture():
    """Feasible channel: hop-1 ratio a^2, hop-2 ratio a (derived by hand)."""
    return TwoHopChannel.create(F4, [1, 1, 1, ALPHA], [1, ALPHA, 1, 1])


def power_basis(e):
    """The scalar precoder basis of e: the Krylov basis of matrix_rep(e)
    from the unit element's coefficient vector."""
    spec = e.spec
    ground = prime_field(spec)
    basis, _ = krylov_precoders(matrix_rep(e), coeff_vector(spec.one),
                                Mat.identity(ground, spec.m))
    return basis


def expected_relay_sums(spec, msg):
    m, p = spec.m, spec.p
    w1, w2 = msg.w1, msg.w2
    u1 = tuple((w1[i] + (w2[i - 1] if i else 0)) % p for i in range(m))
    u2 = tuple((w1[i] + (w2[i] if i < m - 1 else 0)) % p for i in range(m))
    return u1, u2


class TestRatios:
    def test_all_ones_first_hop(self):
        ch = TwoHopChannel.create(F4, [1, 1, 1, 1], [1, ALPHA, 1, 1])
        assert _cross_ratio(*ch.hop1) == F4.one

    def test_frozen_inverse_ratio(self):
        ch = TwoHopChannel.create(F4, [1, 1, 1, ALPHA], [1, ALPHA, 1, 1])
        r1, r2 = _cross_ratio(*ch.hop1), _cross_ratio(*ch.hop2)
        assert r1 == ALPHA.inv() == ALPHA ** 2
        assert r2 == ALPHA
        pre = build_precoders(ch)
        assert (pre.hop1_ratio, pre.hop2_ratio) == (r1, r2)

    def test_inverse_blocks_reinvert(self):
        rng = random.Random(3)
        for spec in (F4, make_field(3, 2)):
            for _ in range(50):
                ch = draw_valid_channel(spec, rng)
                s11, s12, s21, s22 = second_hop_inverse(ch)
                q33, q34, q43, q44 = ch.hop2
                hop = block2x2(*(matrix_rep(q) for q in (q33, q34, q43, q44)))
                inv = block2x2(*(matrix_rep(s) for s in (s11, s12, s21, s22)))
                assert hop @ inv == Mat.identity(prime_field(spec), 2 * spec.m)

    def test_zero_block_raises(self):
        # diagonal second hop: both off-diagonal inverse blocks vanish, which
        # check_feasible reports and build_precoders refuses
        ch = TwoHopChannel.create(F4, [1, 1, 1, ALPHA], [1, 0, 0, ALPHA])
        verdict = check_feasible(ch)
        assert "inverted second hop has a zero block" in verdict.reasons
        assert verdict.hop2_degree is None
        with pytest.raises(ValueError, match="zero block"):
            build_precoders(ch)


class TestFeasibility:
    def test_ratio_one_infeasible(self):
        ch = TwoHopChannel.create(F4, [1, 1, 1, 1], [1, ALPHA, 1, 1])
        v = check_feasible(ch)
        # ratio 1 means a singular hop, and degree 1 < 2 on that hop
        assert not v.feasible and not v.model_ok
        assert "first-hop matrix is singular" in v.reasons

    def test_fixture_feasible(self):
        v = check_feasible(f4_fixture())
        assert v.feasible and v.model_ok
        assert v.hop1_degree == 2 and v.hop2_degree == 2
        assert v.reasons == ()

    def test_m1_always_feasible_when_valid(self):
        gf3 = make_field(3, 1)
        ch = TwoHopChannel.create(gf3, [1, 1, 1, 2], [1, 2, 1, 1])
        v = check_feasible(ch)
        assert v.feasible and v.hop1_degree == 1 and v.hop2_degree == 1

    def test_zero_coefficient_reported(self):
        ch = TwoHopChannel.create(F4, [1, 1, 1, ALPHA], [1, 0, 0, ALPHA])
        v = check_feasible(ch)
        assert not v.feasible and not v.model_ok
        assert any("zero channel coefficient" in r for r in v.reasons)
        assert any("zero block" in r for r in v.reasons)

    def test_degree_shortfall_reported(self):
        # over GF(9), a full-rank hop can still have a ground-field ratio
        f9 = make_field(3, 2)
        two = f9.element(2)
        ch = TwoHopChannel.create(f9, [1, 1, 1, two], [1, 2, 1, 1])
        v = check_feasible(ch)
        assert v.model_ok and not v.feasible
        assert v.hop1_degree == 1
        assert any("degree 1 < 2" in r for r in v.reasons)


class TestPrecoders:
    def test_power_basis_rank_equals_minpoly_degree(self):
        for spec in (F4, make_field(2, 3), make_field(2, 4), make_field(3, 2)):
            for e in spec.nonzero_elements():
                assert power_basis(e).rank() == minpoly_degree(e)

    @pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (2, 4)])
    def test_krylov_basis_is_power_basis(self, p, m):
        # matrix_rep(e) multiplies coefficient vectors by e, so the Krylov
        # basis from the unit vector is the power basis of e
        spec = make_field(p, m)
        for e in spec.elements():
            basis = power_basis(e)
            assert [basis.col(k) for k in range(m)] == [
                coeff_vector(e ** k) for k in range(m)]

    def test_precoders_are_power_bases(self):
        # the construction before the shared Krylov builder: v1 and v3 have
        # columns coeff_vector(r^k), v2 and v4 the first m-1 of them scaled by
        # q22^-1 q21 and s22^-1 s21
        rng = random.Random(13)
        for spec in (F4, make_field(3, 2), make_field(2, 3), make_field(5, 1)):
            ground, m = prime_field(spec), spec.m

            def basis(r, width):
                return Mat.from_columns(ground, [coeff_vector(r ** k)
                                                 for k in range(width)], nrows=m)

            for _ in range(20):
                ch = draw_valid_channel(spec, rng)
                if not check_feasible(ch).feasible:
                    continue
                pre = build_precoders(ch)
                _, _, q21, q22 = ch.hop1
                _, _, s21, s22 = second_hop_inverse(ch)
                r1, r2 = pre.hop1_ratio, pre.hop2_ratio
                assert pre.v1 == basis(r1, m) and pre.v3 == basis(r2, m)
                assert pre.v2 == matrix_rep(q22.inv() * q21) @ basis(r1, m - 1)
                assert pre.v4 == matrix_rep(s22.inv() * s21) @ basis(r2, m - 1)

    def test_m1_shapes(self):
        gf3 = make_field(3, 1)
        ch = TwoHopChannel.create(gf3, [1, 1, 1, 2], [1, 2, 1, 1])
        pre = build_precoders(ch)
        assert pre.v1.to_lists() == [[1]]
        assert pre.v3.to_lists() == [[1]]
        assert pre.v2.ncols == 0 and pre.v4.ncols == 0

    def test_fixture_structure(self):
        pre = build_precoders(f4_fixture())
        r1 = pre.hop1_ratio
        assert pre.v1.col(0) == coeff_vector(F4.one)
        assert pre.v1.col(1) == coeff_vector(r1)
        assert pre.v1.rank() == 2 and pre.v3.rank() == 2

    def test_alignment_conditions_hold(self):
        rng = random.Random(11)
        for spec in (F4, make_field(2, 3), make_field(3, 2)):
            checked = 0
            while checked < 20:
                ch = draw_valid_channel(spec, rng)
                if not check_feasible(ch).feasible:
                    continue
                checked += 1
                pre = build_precoders(ch)
                q11, q12, q21, q22 = (matrix_rep(q) for q in ch.hop1)
                s11, s12, s21, s22 = (matrix_rep(s) for s in
                                      second_hop_inverse(ch))
                for l in range(spec.m - 1):
                    assert q11 @ pre.v1.col(l + 1) == q12 @ pre.v2.col(l)
                    assert q21 @ pre.v1.col(l) == q22 @ pre.v2.col(l)
                    assert s11 @ pre.v3.col(l + 1) == s12 @ pre.v4.col(l)
                    assert s21 @ pre.v3.col(l) == s22 @ pre.v4.col(l)

    def test_infeasible_channel_rejected(self):
        ch = TwoHopChannel.create(F4, [1, 1, 1, 1], [1, ALPHA, 1, 1])
        with pytest.raises(ValueError, match="infeasible"):
            build_precoders(ch)


class TestEncodingAndRelays:
    def test_zero_message_encodes_to_zero(self):
        pre = build_precoders(f4_fixture())
        x1, x2 = source_encode(pre, MessagePair((0, 0), (0,)))
        assert x1 == F4.zero and x2 == F4.zero

    def test_unit_message_picks_first_column(self):
        pre = build_precoders(f4_fixture())
        x1, _ = source_encode(pre, MessagePair((1, 0), (0,)))
        assert x1 == F4.one

    def test_m1_scalar_encoding(self):
        gf3 = make_field(3, 1)
        ch = TwoHopChannel.create(gf3, [1, 1, 1, 2], [1, 2, 1, 1])
        pre = build_precoders(ch)
        x1, x2 = source_encode(pre, MessagePair((2,), ()))
        assert x1.code == 2 and x2.code == 0

    def test_relay_sum_patterns_exhaustive(self):
        for spec, hops in [
                (F4, ([1, 1, 1, ALPHA], [1, ALPHA, 1, 1])),
                (make_field(2, 3), None)]:
            if hops is None:
                rng = random.Random(5)
                ch = draw_valid_channel(spec, rng)
                while not check_feasible(ch).feasible:
                    ch = draw_valid_channel(spec, rng)
            else:
                ch = TwoHopChannel.create(spec, *hops)
            pre = build_precoders(ch)
            for msg in all_messages(spec):
                x1, x2 = source_encode(pre, msg)
                y1, y2 = apply_hop(ch, 1, x1, x2)
                u1 = relay_decode(pre, ch, y1, 1)
                u2 = relay_decode(pre, ch, y2, 2)
                assert (u1, u2) == expected_relay_sums(spec, msg)

    def test_relay_sum_patterns_sampled_f9(self):
        from gfalign import random_message
        f9 = make_field(3, 2)
        rng = random.Random(29)
        for _ in range(10):
            ch = draw_valid_channel(f9, rng)
            if not check_feasible(ch).feasible:
                continue
            pre = build_precoders(ch)
            for _ in range(30):
                msg = random_message(f9, rng)
                x1, x2 = source_encode(pre, msg)
                y1, y2 = apply_hop(ch, 1, x1, x2)
                u1 = relay_decode(pre, ch, y1, 1)
                u2 = relay_decode(pre, ch, y2, 2)
                assert (u1, u2) == expected_relay_sums(f9, msg)

    def test_relay_encode_zero(self):
        pre = build_precoders(f4_fixture())
        assert relay_encode(pre, (0, 0), 1) == F4.zero

    def test_diagonalization_identity(self):
        # second hop applied to the two relay outputs must give exactly
        # (v3 w1, v4 w2) stacked
        ch = f4_fixture()
        pre = build_precoders(ch)
        ground = prime_field(F4)
        hop2 = block2x2(*(matrix_rep(q) for q in ch.hop2))
        for msg in all_messages(F4):
            u1, u2 = expected_relay_sums(F4, msg)
            x3 = relay_encode(pre, u1, 1)
            x4 = relay_encode(pre, u2, 2)
            stacked = Mat.build(ground, [[c] for c in x3.coeffs + x4.coeffs])
            got = hop2 @ stacked
            top = pre.v3 @ Mat.build(ground, [[c] for c in msg.w1])
            bottom = pre.v4 @ Mat.build(ground, [[c] for c in msg.w2])
            want = Mat.build(ground,
                             [[e.code] for e in top.col_entries(0)] +
                             [[e.code] for e in bottom.col_entries(0)])
            assert got == want

    def test_m1_relay_output_is_scaled_sum(self):
        gf5 = make_field(5, 1)
        ch = TwoHopChannel.create(gf5, [1, 2, 3, 4], [1, 2, 3, 2])
        pre = build_precoders(ch)
        for u in range(5):
            out = relay_encode(pre, (u,), 1)
            assert out == pre.s11 * gf5.element(u)


class TestDestinationDecode:
    def test_full_roundtrip_exhaustive_f4(self):
        ch = f4_fixture()
        for msg in all_messages(F4):
            rep = simulate(ch, msg)
            assert rep.success and rep.decoded == msg
            assert rep.sum_rate_bits == 3.0
            assert (rep.u1, rep.u2) == expected_relay_sums(F4, msg)

    def test_m1_roundtrip(self):
        gf3 = make_field(3, 1)
        ch = TwoHopChannel.create(gf3, [1, 1, 1, 2], [1, 2, 1, 1])
        for msg in all_messages(gf3):
            rep = simulate(ch, msg)
            assert rep.success
            assert rep.decoded.w2 == ()
        assert rep.sum_rate_bits == pytest.approx(1.584962500721156)

    def test_inconsistent_observation_detected(self):
        pre = build_precoders(f4_fixture())
        # v4 is a single column over GF(2), so its column space is {0, col};
        # any other nonzero vector must be rejected
        col_codes = tuple(e.code for e in pre.v4.col_entries(0))
        cand = next(c for c in [(0, 1), (1, 0), (1, 1)] if c != col_codes)
        bad = elem_from_coeff_vector(
            Mat.build(prime_field(F4), [[cand[0]], [cand[1]]]), F4)
        with pytest.raises(InconsistentSystem):
            destination_decode(pre, F4.one, bad)

    def test_infeasible_simulation_reports_only_verdict(self):
        ch = TwoHopChannel.create(F4, [1, 1, 1, 1], [1, ALPHA, 1, 1])
        rep = simulate(ch, MessagePair((1, 0), (1,)))
        assert not rep.verdict.feasible
        assert rep.precoders is None and rep.u1 is None
        assert not rep.success and rep.sum_rate_bits is None


class TestSerialization:
    @pytest.mark.parametrize("call,error,message", [
        (lambda: TwoHopChannel.create(F4, [1, 1, 1], [1, 1, 1, 1]), ValueError,
         "exactly four coefficients"),
        # every hop over GF(2) is singular: all coefficients are 1
        (lambda: draw_valid_channel(prime_field(2), random.Random(0)), SingularChannel,
         r"no valid channel over GF\(2\): 1 is the only nonzero coefficient"),
    ], ids=["three-coefficients", "draw-over-GF2"])
    def test_refusals(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    def test_draw_over_gf2_refuses_before_drawing(self):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(SingularChannel):
            draw_valid_channel(make_field(2, 1), rng)
        assert rng.getstate() == state

    def test_channel_roundtrip_coeffs(self):
        ch = f4_fixture()
        again = channel_from_dict(channel_to_dict(ch))
        assert again == ch

    def test_channel_roundtrip_power_notation(self):
        # every element written as 'a^k' (a^inf for zero) parses back
        ch = f4_fixture()
        power = {ALPHA ** k: f"a^{k}" for k in range(3)}
        obj = channel_to_dict(ch)
        for hop, values in (("hop1", ch.hop1), ("hop2", ch.hop2)):
            obj[hop] = {k: power.get(v, "a^inf") for k, v in zip(obj[hop], values)}
        assert channel_from_dict(obj) == ch

    def test_documented_channel_shape(self):
        obj = {"p": 2, "m": 2, "pi": [1, 1, 1],
               "hop1": {"q11": "a^0", "q12": "a^1", "q21": [1, 1], "q22": 1},
               "hop2": {"q33": "a^2", "q34": "a^1", "q43": "a^0", "q44": "a^2"}}
        ch = channel_from_dict(obj)
        assert ch.hop1[1] == ALPHA
        assert ch.hop1[2] == F4.one + ALPHA
        assert ch.hop1[3] == F4.one

    def test_report_json_stable(self):
        ch = f4_fixture()
        rep = simulate(ch, MessagePair((1, 1), (1,)))
        one = json.dumps(rep.to_dict())
        two = json.dumps(simulate(ch, MessagePair((1, 1), (1,))).to_dict())
        assert one == two
        parsed = json.loads(one)
        assert list(parsed)[:6] == ["channel", "feasible", "reasons",
                                    "hop1_ratio", "hop1_ratio_degree",
                                    "hop2_ratio"]


class TestExhaustiveScan:
    def test_f4_scan_paired(self):
        rep = exhaustive_scan(2, 2)
        assert rep.mode == "paired"
        assert rep.hop1 == (81, 54, 54)      # all valid hop tuples are feasible
        assert rep.hop2 == (81, 54, 54)
        assert rep.valid_channels == 2916
        assert rep.feasible_channels == 2916
        assert rep.feasible_fraction_valid == 1.0
        assert rep.feasible_fraction_all == pytest.approx(2916 / 6561)
        assert rep.messages_per_channel == 8
        assert rep.decode_failures == 0
        assert rep.decode_success_rate == 1.0

    def test_m1_scan(self):
        rep = exhaustive_scan(3, 1)
        assert rep.feasible_channels == rep.valid_channels > 0
        assert rep.decode_failures == 0

    def test_binary_m1_scan_is_vacuous(self):
        # over GF(2) no all-nonzero hop matrix is invertible
        rep = exhaustive_scan(2, 1)
        assert rep.valid_channels == 0
        assert rep.feasible_fraction_valid is None
        assert rep.round_trips == 0 and rep.decode_success_rate == 1.0

    def test_guard(self, monkeypatch):
        # refused from the core count alone, before the field is built
        from gfalign import TooLarge

        def unbuilt(*args):
            raise AssertionError("make_field ran before the guard")

        monkeypatch.setattr(scheme, "make_field", unbuilt)
        for p, m in ((5, 2), (3, 3), (2, 5), (17, 1), (2, 61), (10 ** 9 + 7, 3)):
            with pytest.raises(TooLarge, match="guard"):
                exhaustive_scan(p, m)
        # a count too long to print in decimal is shown as a power of two
        with pytest.raises(TooLarge, match=r"about 2\^79999 channel cores"):
            exhaustive_scan(2, 20000)

    @pytest.mark.parametrize("p,m", [
        (2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
        (2, 2), (3, 2), (2, 3), (2, 4), (5, 2), (3, 3), (2, 5)])
    def test_core_count_is_the_feasible_tuple_count(self, p, m):
        assert scheme._core_count(p, m) == _scan_hop(make_field(p, m)).feasible

    @pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (5, 1), (7, 1)])
    def test_feasible_tuples_from_ratios(self, p, m):
        # the tuples built as (a, b, r a d b^-1, d) are the ones a
        # classification of all (q-1)^4 tuples keeps, each built once
        spec = make_field(p, m)
        got = list(_feasible_tuples(spec))
        assert len(got) == len(set(got)) == scheme._core_count(p, m)
        assert set(got) == set(_scan_hop(spec).feasible_tuples)

    def test_factored_mode_small(self, monkeypatch):
        monkeypatch.setattr(scheme, "_PAIR_LIMIT", 10)
        rep = exhaustive_scan(2, 2)
        assert rep.mode == "factored"
        assert rep.decode_failures == 0
        assert rep.feasible_channels == 2916

    @pytest.mark.parametrize("p,m,pair_limit,mode,tuples", [
        (2, 2, 20000, "paired", 54), (2, 2, 10, "factored", 54),
        (3, 1, 20000, "paired", 8), (2, 3, 20000, "factored", 2058)])
    def test_one_core_per_feasible_tuple(self, monkeypatch, p, m, pair_limit,
                                         mode, tuples):
        # both modes set up each feasible hop tuple once, not once per pair
        # (54 builds instead of 2916 for the paired GF(4) scan)
        built = []

        def counting(ch):
            built.append((ch.hop1, ch.hop2))
            return build_precoders(ch)

        monkeypatch.setattr(scheme, "_PAIR_LIMIT", pair_limit)
        monkeypatch.setattr(scheme, "build_precoders", counting)
        rep = exhaustive_scan(p, m)
        assert rep.mode == mode and rep.hop1[2] == tuples
        assert len(built) == tuples
        assert all(t1 == t2 for t1, t2 in built)
        assert len(set(built)) == tuples

    @pytest.mark.parametrize("pair_limit,mode", [(20000, "paired"),
                                                 (10, "factored")])
    def test_factored_mode_streams_the_cores(self, monkeypatch, pair_limit,
                                             mode):
        # factored, each core is certified before the next one is built;
        # paired, every core is built before the first one is certified
        events = []

        def building(ch, pre):
            events.append("build")
            return scalar_pipeline(ch, pre)

        def certifying(relay, destination, factored):
            events.append("certify")
            return certify(relay, destination, factored)

        certify, scalar_pipeline = scheme._certify, scheme.scalar_pipeline
        monkeypatch.setattr(scheme, "_PAIR_LIMIT", pair_limit)
        monkeypatch.setattr(scheme, "scalar_pipeline", building)
        monkeypatch.setattr(scheme, "_certify", certifying)
        assert exhaustive_scan(2, 2).mode == mode
        if mode == "factored":
            assert events == ["build", "certify"] * 54
        else:
            # one certificate per relay core, read against every core
            assert events == ["build"] * 54 + ["certify"] * 54


def s_block_ratio(ch):
    """Oracle: the cross ratio of the inverted second hop's blocks, or None
    when a block vanishes."""
    s11, s12, s21, s22 = second_hop_inverse(ch)
    if not (s11 and s12 and s21 and s22):
        return None
    return s11.inv() * s12 * s22.inv() * s21


class TestSecondHopIdentity:
    """The ratio of the inverted second hop is the hop's own cross ratio."""

    def test_every_gf4_second_hop(self):
        elems = list(F4.elements())
        for hop2 in itertools.product(elems, repeat=4):
            ch = TwoHopChannel(F4, f4_fixture().hop1, hop2)
            verdict = check_feasible(ch)
            hop2_reasons = [r for r in verdict.reasons if "second" in r]
            if not ch.hop_det(2):
                assert hop2_reasons == ["second-hop matrix is singular"]
                assert verdict.hop2_degree is None
                with pytest.raises(ValueError, match="second-hop matrix is singular"):
                    build_precoders(ch)
                continue
            ratio = s_block_ratio(ch)
            if ratio is None:
                assert hop2_reasons == ["inverted second hop has a zero block"]
                assert verdict.hop2_degree is None
                with pytest.raises(ValueError, match="zero block"):
                    build_precoders(ch)
                continue
            deg = minpoly_degree(ratio)
            assert verdict.hop2_degree == deg
            assert hop2_reasons == ([] if deg == 2 else [
                f"second-hop ratio has minimal polynomial degree {deg} < 2"])
            assert _cross_ratio(*ch.hop2) == ratio

    def test_zero_first_hop_raises_first(self):
        # q11 = 0: the hop-1 ratio does not exist, whatever the second hop
        for hop2 in itertools.product(list(F4.elements()), repeat=4):
            ch = TwoHopChannel(F4, (F4.zero, F4.one, F4.one, ALPHA), hop2)
            with pytest.raises(ZeroDivisionError):
                _cross_ratio(*ch.hop1)
            verdict = check_feasible(ch)
            assert "zero channel coefficient q11" in verdict.reasons
            assert verdict.hop1_degree is None
            with pytest.raises(ValueError, match="zero channel coefficient q11"):
                build_precoders(ch)

    @pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (2, 3)])
    def test_one_scan_serves_both_hops(self, p, m):
        spec = make_field(p, m)
        want1, want2 = [], []
        for t in itertools.product(list(spec.nonzero_elements()), repeat=4):
            ch = TwoHopChannel(spec, t, t)
            if not ch.hop_det(1):
                continue
            q11, q12, q21, q22 = t
            if minpoly_degree(q11.inv() * q12 * q22.inv() * q21) == m:
                want1.append(t)
            if minpoly_degree(s_block_ratio(ch)) == m:
                want2.append(t)
        assert _scan_hop(spec).feasible_tuples == want1 == want2

    def test_relay_sums_match_pattern(self):
        for spec in (F4, make_field(3, 2), make_field(2, 3), make_field(5, 1)):
            m = spec.m
            rows = _relay_sum_rows(m)
            for msg in all_messages(spec):
                x = msg.w1 + msg.w2
                u = tuple(sum(a * b for a, b in zip(row, x)) % spec.p
                          for row in rows)
                assert (u[:m], u[m:]) == expected_relay_sums(spec, msg)

    def test_shared_targets_are_built_once_and_immutable(self):
        # every set-up and certificate reads the same rows, so none may be
        # a list a caller could change
        for m in (1, 2, 3):
            for target in (_relay_sum_rows, _decode_target):
                rows = target(m)
                assert target(m) is rows
                assert isinstance(rows, tuple)
                assert all(isinstance(row, tuple) for row in rows)
            n = 2 * m - 1
            assert _decode_target(m) == tuple(
                tuple(int(i == j) for j in range(n)) for i in range(n)) + ((0,) * n,)


class TestInfeasibilityWitness:
    def test_rank_fails_exactly_when_degree_fails(self):
        # every hop-1 tuple over F4: ratio degree 1 iff singular hop, and the
        # power-basis matrix rank always equals the ratio degree
        elems = list(F4.nonzero_elements())
        count_deg1 = 0
        for t in itertools.product(elems, repeat=4):
            q11, q12, q21, q22 = t
            ratio = q11.inv() * q12 * q22.inv() * q21
            deg = minpoly_degree(ratio)
            rank = power_basis(ratio).rank()
            assert rank == deg
            if deg < 2:
                count_deg1 += 1
                assert ratio == F4.one
                assert not (q11 * q22 - q12 * q21)
        assert count_deg1 == 27


def test_library_has_no_assert_statement():
    # python -O strips assert statements, so every library check raises
    package = Path(scheme.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name} asserts on lines {lines}"
