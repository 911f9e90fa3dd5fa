"""Cross-checks of the shared F_p core (scheme.LinearPipeline) against the
stage-by-stage scalar functions and against an extension-field computation
of the matrix-channel scheme, and of the scan's rank certificate against
sending every message."""

import copy
import itertools
import random

import pytest

from gfalign import (DegenerateSpectrum, FieldMismatch, InconsistentSystem,
                     MessagePair, MimoPipeline, TwoHopChannel, all_messages,
                     apply_hop, build_mimo_precoders, build_precoders,
                     check_feasible, destination_decode, draw_valid_channel,
                     exhaustive_scan, make_field, plan_extension, random_mimo_channel,
                     relay_decode, relay_encode, source_encode)
from gfalign.mimo import random_message
from gfalign.scheme import _certify, _scan_hop, scalar_pipeline
from oracles import (ExtensionFieldPipeline, relay_sums, scan_by_sweep,
                     sweep_failures)
from test_mimo import f4_fixture_channel


def stagewise(pre, ch, msg):
    """Relay sums and decoded message from the five scalar stage functions."""
    y1, y2 = apply_hop(ch, 1, *source_encode(pre, msg))
    u1, u2 = relay_decode(pre, ch, y1, 1), relay_decode(pre, ch, y2, 2)
    y3, y4 = apply_hop(ch, 2, relay_encode(pre, u1, 1), relay_encode(pre, u2, 2))
    return u1, u2, destination_decode(pre, y3, y4)


def assert_core_matches_stages(ch, messages):
    pre = build_precoders(ch)
    core = scalar_pipeline(ch, pre)
    u1s, u2s = core.relay_half([msg.w1 for msg in messages],
                               [msg.w2 for msg in messages])
    got1s, got2s = core.destination_half(u1s, u2s)
    for msg, u1, u2, got1, got2 in zip(messages, u1s, u2s, got1s, got2s):
        assert stagewise(pre, ch, msg) == (u1, u2, MessagePair(got1, got2))
        assert MessagePair(got1, got2) == msg


class TestScalarCore:
    def test_every_gf4_channel_and_message(self):
        f4 = make_field(2, 2)
        messages = list(all_messages(f4))
        tuples = _scan_hop(f4).feasible_tuples
        for t1, t2 in itertools.product(tuples, repeat=2):
            assert_core_matches_stages(TwoHopChannel(f4, t1, t2), messages)

    @pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 1)])
    def test_seeded_channels(self, p, m):
        spec = make_field(p, m)
        messages = list(all_messages(spec))
        rng = random.Random(59 + p + m)
        done = 0
        while done < 25:
            ch = draw_valid_channel(spec, rng)
            if check_feasible(ch).feasible:
                assert_core_matches_stages(ch, messages)
                done += 1

    def test_inconsistent_observation_raises(self):
        # (u1, u2) -> (y3, y4) is a bijection of F_2^4, and y4 must lie in
        # the one-dimensional column space of v4: exactly the eight relay-sum
        # pairs of real messages decode, the other eight raise
        f4 = make_field(2, 2)
        tuples = _scan_hop(f4).feasible_tuples
        ch = TwoHopChannel(f4, tuples[0], tuples[-1])
        core = scalar_pipeline(ch, build_precoders(ch))
        valid = {relay_sums(2, msg) for msg in all_messages(f4)}
        lanes = list(itertools.product(range(2), repeat=2))
        raised = 0
        for u1, u2 in itertools.product(lanes, repeat=2):
            if (u1, u2) in valid:
                core.destination_half([u1], [u2])
            else:
                with pytest.raises(InconsistentSystem):
                    core.destination_half([u1], [u2])
                raised += 1
        assert len(valid) == 8 and raised == 8


def planned_channels(p, m, count, seed, degree=None):
    rng = random.Random(seed)
    plans = []
    while len(plans) < count:
        try:
            plan = plan_extension(random_mimo_channel(p, m, rng))
        except DegenerateSpectrum:
            continue
        if degree is None or plan.degree == degree:
            plans.append(plan)
    return plans, rng


def assert_matches_oracle(plan, messages):
    pipe = MimoPipeline(build_mimo_precoders(plan))
    oracle = ExtensionFieldPipeline(plan)
    for w1, w2 in messages:
        got = pipe.run(w1, w2)
        assert got == oracle.run(w1, w2)
        assert got[0] == tuple(w1) and got[1] == tuple(w2)


class TestMatrixCore:
    def test_f4_fixture_every_message(self):
        plan = plan_extension(f4_fixture_channel())
        ext = plan.ext
        messages = [(w1, w2) for w1 in itertools.product(ext.elements(), repeat=2)
                    for w2 in itertools.product(ext.elements(), repeat=1)]
        assert len(messages) == 64
        assert_matches_oracle(plan, messages)

    @pytest.mark.parametrize("p,m,degree", [(5, 1, 1), (3, 2, None),
                                            (2, 3, None), (3, 3, 6)])
    def test_seeded_channels(self, p, m, degree):
        plans, rng = planned_channels(p, m, 3, 67 + p * m, degree)
        for plan in plans:
            assert_matches_oracle(
                plan, [random_message(plan.ext, m, rng) for _ in range(20)])

    def test_l12_channel(self):
        # a (2,6) channel whose hop products split over F_{2^12}
        plan = plan_extension(random_mimo_channel(2, 6, random.Random(782739422)))
        assert plan.degree == 12
        rng = random.Random(71)
        assert_matches_oracle(
            plan, [random_message(plan.ext, 6, rng) for _ in range(3)])

    def test_precoders_over_ground_field(self):
        for p, m in ((2, 2), (3, 2), (2, 3), (5, 1)):
            plans, _ = planned_channels(p, m, 4, 73 + p + m)
            for plan in plans:
                pre = build_mimo_precoders(plan)
                for v in (pre.v1, pre.v2, pre.v3, pre.v4):
                    assert v.spec == plan.channel.ground
                    assert v.nrows == m

    def test_foreign_symbol_raises(self):
        plan = plan_extension(f4_fixture_channel())
        pipe = MimoPipeline(build_mimo_precoders(plan))
        zero = plan.ext.zero
        for foreign in (make_field(2, 3).one, make_field(3, 2).one):
            with pytest.raises(FieldMismatch):
                pipe.run((zero, foreign), (zero,))
            with pytest.raises(FieldMismatch):
                pipe.run((zero, zero), (foreign,))

    def test_message_lengths_checked(self):
        plan = plan_extension(f4_fixture_channel())
        pipe = MimoPipeline(build_mimo_precoders(plan))
        one = plan.ext.one
        for w1, w2 in (((one,), (one,)), ((one,) * 3, (one,)),
                       ((one, one), ()), ((one, one), (one, one))):
            with pytest.raises(ValueError, match="message lengths"):
                pipe.run(w1, w2)

    def test_inconsistent_observation_raises(self):
        plan = plan_extension(f4_fixture_channel())
        core = MimoPipeline(build_mimo_precoders(plan)).core
        lanes = list(itertools.product(range(2), repeat=2))
        u1s, u2s = core.relay_half([w1 for w1 in lanes for _ in range(2)],
                                   [(w2,) for _ in lanes for w2 in range(2)])
        valid = set(zip(u1s, u2s))
        raised = 0
        for u1, u2 in itertools.product(lanes, repeat=2):
            if (u1, u2) not in valid:
                with pytest.raises(InconsistentSystem):
                    core.destination_half([u1], [u2])
                raised += 1
        assert len(valid) == 8 and raised == 8


class TestCertificate:
    @pytest.mark.parametrize("p,m,kwargs", [
        (2, 1, {}), (3, 1, {}), (5, 1, {}), (7, 1, {}), (2, 2, {}),
        (2, 2, {"pair_limit": 10}), (2, 3, {}),
        (3, 2, {"tuple_limit": 10 ** 8})])
    def test_scan_equals_sweep(self, p, m, kwargs):
        assert (exhaustive_scan(p, m, **kwargs).to_dict()
                == scan_by_sweep(p, m, **kwargs).to_dict())

    @staticmethod
    def cores():
        """Seeded feasible scalar channels over GF(4), GF(8), GF(9) and
        planned (3,2) matrix channels."""
        out = []
        for p, m in ((2, 2), (2, 3), (3, 2)):
            spec = make_field(p, m)
            rng = random.Random(83 + p * m)
            done = 0
            while done < 4:
                ch = draw_valid_channel(spec, rng)
                if check_feasible(ch).feasible:
                    out.append(scalar_pipeline(ch, build_precoders(ch)))
                    done += 1
        plans, _ = planned_channels(3, 2, 4, 89)
        out += [MimoPipeline(build_mimo_precoders(plan)).core for plan in plans]
        return out

    @staticmethod
    def corrupt(core, name, i, j):
        bad = copy.copy(core)
        rows = [list(row) for row in getattr(core, name)]
        rows[i][j] = (rows[i][j] + 1) % core.p
        setattr(bad, name, rows)
        return bad

    @staticmethod
    def outcome(count, core, factored):
        try:
            return count(core, factored)
        except InconsistentSystem:
            return "inconsistent"

    def test_intact_cores_decode(self):
        for core in self.cores():
            for factored in (False, True):
                assert _certify(core, factored) == 0
                assert sweep_failures(core, factored) == 0

    def test_corrupted_relay_entry(self):
        rng = random.Random(97)
        for core in self.cores():
            n = 2 * core.m - 1
            bad = self.corrupt(core, "relay_map", rng.randrange(2 * core.m),
                               rng.randrange(n))
            # factored: the relay half is checked against the sums alone
            got = _certify(bad, True)
            assert got == sweep_failures(bad, True) > 0
            assert (self.outcome(_certify, bad, False)
                    == self.outcome(sweep_failures, bad, False) != 0)

    def test_corrupted_decode_row(self):
        rng = random.Random(101)
        for core in self.cores():
            n = 2 * core.m - 1
            bad = self.corrupt(core, "destination_map", rng.randrange(n),
                               rng.randrange(2 * core.m))
            for factored in (False, True):
                got = _certify(bad, factored)
                assert got == sweep_failures(bad, factored) > 0

    def test_corrupted_residual_row(self):
        rng = random.Random(103)
        for core in self.cores():
            bad = self.corrupt(core, "destination_map", 2 * core.m - 1,
                               rng.randrange(2 * core.m))
            for factored in (False, True):
                with pytest.raises(InconsistentSystem):
                    _certify(bad, factored)
                with pytest.raises(InconsistentSystem):
                    sweep_failures(bad, factored)
