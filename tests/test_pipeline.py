"""Cross-checks of the shared F_p core (scheme.LinearPipeline) against the
stage-by-stage scalar functions, against an extension-field computation
of the matrix-channel scheme and against lane-by-lane matrix products on
symbol codes, and of the scan's rank certificate against sending every
message."""

import copy
import dataclasses
import itertools
import math
import random

import pytest

from gfalign import (DegenerateSpectrum, FieldMismatch, FieldSpec, InconsistentSystem,
                     Mat, MessagePair, MimoPipeline, TwoHopChannel, all_messages,
                     apply_hop, build_mimo_precoders, build_precoders,
                     check_feasible, destination_decode, draw_valid_channel,
                     exhaustive_scan, make_field, plan_extension, random_mimo_channel,
                     relay_decode, relay_encode, scheme, source_encode)
from gfalign.mimo import random_message
from gfalign.scheme import _certify, _CodeMap, _digit_codec, scalar_pipeline
from oracles import (ExtensionFieldPipeline, _scan_hop, batch,
                     lane_apply, lane_destination_half, lane_relay_half, lane_run,
                     relay_sums, scan_by_sweep, sweep_failures)
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
    u1s, u2s = batch(core.relay_half, [msg.w1 for msg in messages],
                     [msg.w2 for msg in messages])
    got1s, got2s = batch(core.destination_half, u1s, u2s)
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
                core.destination_half(u1, u2)
            else:
                with pytest.raises(InconsistentSystem):
                    core.destination_half(u1, u2)
                raised += 1
        assert len(valid) == 8 and raised == 8

    @pytest.mark.parametrize("name", ["v2", "v4"])
    def test_misaligned_precoder_defects(self, name):
        # swapping the two columns of a side precoder over GF(8) keeps its
        # rank but breaks the alignment identities: the relays no longer
        # observe the sums (v2), or destination 2 decodes w2 out of order
        # (v4); the set-up stores the defect of the broken half alone
        spec = make_field(2, 3)
        rng = random.Random(7)
        ch = draw_valid_channel(spec, rng)
        while not check_feasible(ch).feasible:
            ch = draw_valid_channel(spec, rng)
        pre = build_precoders(ch)
        side = getattr(pre, name)
        swapped = Mat(side.spec, tuple(row[::-1] for row in side.rows))
        assert swapped != side
        intact = scalar_pipeline(ch, pre)
        assert intact.relay_defect == intact.destination_defect == 0
        bad = scalar_pipeline(ch, dataclasses.replace(pre, **{name: swapped}))
        relay_broken = name == "v2"
        assert (bad.relay_defect > 0) == relay_broken
        assert (bad.destination_defect > 0) != relay_broken
        for factored in (False, True):
            assert (_certify(bad, [bad], factored)
                    == sweep_failures(bad, factored) > 0)


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

    @pytest.mark.parametrize("p,m", [(2, 2), (3, 2)])
    def test_symbols_coerced_as_by_element(self, p, m):
        # plain ints, coefficient lists and elements of an equal spec that
        # is not the plan's own object give the outputs of the plan's own
        # elements, and the outputs are elements of the plan's field
        plans, rng = planned_channels(p, m, 2, 163 + p)
        for plan in plans:
            pipe = MimoPipeline(build_mimo_precoders(plan))
            ext = plan.ext
            twin = FieldSpec(ext.p, ext.m, ext.pi)
            assert twin == ext and twin is not ext
            for _ in range(30):
                w1, w2 = random_message(ext, m, rng)
                want = lane_run(pipe, w1, w2)
                assert pipe.run(w1, w2) == want
                assert all(v.spec is ext for part in want for v in part)
                for convert in (lambda v: list(v.coeffs), lambda v: twin.from_code(v.code)):
                    got = pipe.run([convert(v) for v in w1], [convert(v) for v in w2])
                    assert got == want
                    assert all(v.spec is ext for part in got for v in part)
                ints = ([rng.randrange(-p, 2 * p) for _ in range(m)],
                        [rng.randrange(-p, 2 * p) for _ in range(m - 1)])
                assert pipe.run(*ints) == lane_run(pipe, *ints)

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
        u1s, u2s = batch(core.relay_half, [w1 for w1 in lanes for _ in range(2)],
                         [(w2,) for _ in lanes for w2 in range(2)])
        valid = set(zip(u1s, u2s))
        raised = 0
        for u1, u2 in itertools.product(lanes, repeat=2):
            if (u1, u2) not in valid:
                with pytest.raises(InconsistentSystem):
                    core.destination_half(u1, u2)
                raised += 1
        assert len(valid) == 8 and raised == 8


class TestCertificate:
    # kwargs: scheme settings patched for both scans
    @pytest.mark.parametrize("p,m,kwargs", [
        (2, 1, {}), (3, 1, {}), (5, 1, {}), (7, 1, {}), (2, 2, {}),
        (2, 2, {"_PAIR_LIMIT": 10}), (2, 3, {}), (3, 2, {})])
    def test_scan_equals_sweep(self, monkeypatch, p, m, kwargs):
        for name, value in kwargs.items():
            monkeypatch.setattr(scheme, name, value)
        assert (exhaustive_scan(p, m).to_dict()
                == scan_by_sweep(p, m).to_dict())

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
    def certify(core, factored):
        """_certify of the core's own channel."""
        return _certify(core, [core], factored)

    @pytest.mark.parametrize("p,m,pairs", [(2, 2, None), (2, 3, 60), (3, 2, 60)])
    def test_halves_read_only_their_hop(self, p, m, pairs):
        # the channel (t1, t2) has the relay map of (t1, t1) and the
        # destination map of (t2, t2), so a scan needs one core per tuple
        spec = make_field(p, m)
        tuples = _scan_hop(spec).feasible_tuples
        if pairs is None:
            chosen = list(itertools.product(tuples, repeat=2))
        else:
            rng = random.Random(107 + p * m)
            chosen = [(rng.choice(tuples), rng.choice(tuples)) for _ in range(pairs)]

        def core(t1, t2):
            ch = TwoHopChannel(spec, t1, t2)
            return scalar_pipeline(ch, build_precoders(ch))

        for t1, t2 in chosen:
            joint, first, second = core(t1, t2), core(t1, t1), core(t2, t2)
            assert joint.relay_map == first.relay_map
            assert joint.destination_map == second.destination_map
            assert first.relay_defect == second.destination_defect == 0
            assert _certify(first, [second], False) == self.certify(joint, False) == 0

    def test_intact_cores_decode(self):
        for core in self.cores():
            for factored in (False, True):
                assert self.certify(core, factored) == 0
                assert sweep_failures(core, factored) == 0

    def test_corrupted_relay_entry(self):
        rng = random.Random(97)
        for core in self.cores():
            n = 2 * core.m - 1
            bad = self.corrupt(core, "relay_map", rng.randrange(2 * core.m),
                               rng.randrange(n))
            # factored: the relay half is checked against the sums alone;
            # paired, the relayed sums may leave a nonzero residual
            assert bad.relay_defect > 0
            for factored in (False, True):
                got = self.certify(bad, factored)
                assert got == sweep_failures(bad, factored) > 0

    def test_corrupted_decode_row(self):
        rng = random.Random(101)
        for core in self.cores():
            n = 2 * core.m - 1
            bad = self.corrupt(core, "destination_map", rng.randrange(n),
                               rng.randrange(2 * core.m))
            for factored in (False, True):
                got = self.certify(bad, factored)
                assert got == sweep_failures(bad, factored) > 0

    def test_pair_reads_destination_of_second_core(self):
        # a pair is certified from the first core's relay map and the second
        # core's destination map; the reference is one core holding both
        rng = random.Random(109)
        cores = self.cores()
        checked = 0
        for good, other in zip(cores, cores[1:]):
            if (good.p, good.m) != (other.p, other.m):
                continue
            bad = self.corrupt(other, "destination_map",
                               rng.randrange(2 * other.m - 1),
                               rng.randrange(2 * other.m))
            pair = copy.copy(good)
            pair.destination_map = bad.destination_map
            for factored in (False, True):
                got = _certify(good, [bad], factored)
                assert got == sweep_failures(pair, factored) > 0
            checked += 1
        assert checked >= 9

    def test_corrupted_residual_row(self):
        # a message that leaves a nonzero residual is a failing message
        rng = random.Random(103)
        for core in self.cores():
            bad = self.corrupt(core, "destination_map", 2 * core.m - 1,
                               rng.randrange(2 * core.m))
            assert bad.destination_defect > 0
            for factored in (False, True):
                got = self.certify(bad, factored)
                assert got == sweep_failures(bad, factored) > 0


def bump_v2(pre):
    """v2 with 1 added to its top-left entry."""
    codes = pre.v2.to_code_rows()
    codes[0][0] = (codes[0][0] + 1) % pre.spec.p
    return dataclasses.replace(pre, v2=Mat.from_code_rows(pre.v2.spec, codes))


def swap_v4(pre):
    """v4 with its columns in reverse order."""
    return dataclasses.replace(
        pre, v4=Mat(pre.v4.spec, tuple(row[::-1] for row in pre.v4.rows)))


def negate_s21(pre):
    """The relay-2 scaling block s21 with its sign flipped."""
    return dataclasses.replace(pre, s21=-pre.s21)


class TestMutatedPrecoders:
    """A precoder that breaks an alignment identity makes the scan report
    failures, the same count as sending every message, instead of raising.
    Each mutation is paired with fields where it changes something: v4 has
    one column for m = 2, and -s21 = s21 over F_2."""

    @pytest.mark.parametrize("p,m,pair_limit,mode,mutation", [
        (2, 2, None, "paired", bump_v2), (2, 2, 10, "factored", bump_v2),
        (3, 2, None, "factored", bump_v2), (3, 2, None, "factored", negate_s21),
        (2, 3, None, "factored", swap_v4)])
    def test_scan_counts_the_defects(self, monkeypatch, p, m, pair_limit, mode,
                                     mutation):
        build = scheme.build_precoders
        monkeypatch.setattr(scheme, "build_precoders",
                            lambda ch: mutation(build(ch)))
        if pair_limit is not None:
            monkeypatch.setattr(scheme, "_PAIR_LIMIT", pair_limit)
        report = exhaustive_scan(p, m)
        assert report.mode == mode and report.decode_failures > 0
        assert report.to_dict() == scan_by_sweep(p, m).to_dict()


def every_message(ext, m):
    return [(w1, w2) for w1 in itertools.product(ext.elements(), repeat=m)
            for w2 in itertools.product(ext.elements(), repeat=m - 1)]


def destination_outcome(half, core, u1, u2, *digits):
    try:
        return half(core, u1, u2, *digits)
    except InconsistentSystem:
        return "inconsistent"


class TestCodeKernels:
    """relay_half, destination_half and MimoPipeline.run act on symbol codes
    (XOR for p = 2, packed digit fields for odd p); the lane oracle applies
    the same maps to one base-p digit lane at a time."""

    @staticmethod
    def assert_matches_lanes(pipe, messages):
        core, ext = pipe.core, pipe.ext
        w1s = [tuple(v.code for v in w1) for w1, _ in messages]
        w2s = [tuple(v.code for v in w2) for _, w2 in messages]
        TestCodeKernels.assert_halves_match_lanes(core, w1s, w2s, ext.m)
        for w1, w2 in messages:
            assert pipe.run(w1, w2) == lane_run(pipe, w1, w2)

    @staticmethod
    def assert_halves_match_lanes(core, w1s, w2s, digits):
        """Both halves equal the lane oracle on each message, and the
        destination half returns it."""
        for w1, w2 in zip(w1s, w2s):
            u = core.relay_half(w1, w2)
            assert u == lane_relay_half(core, w1, w2, digits)
            decoded = core.destination_half(*u)
            assert decoded == lane_destination_half(core, *u, digits) == (w1, w2)

    @staticmethod
    def assert_destination_matches_lanes(core, inputs, digits):
        """Outputs, or InconsistentSystem, equal the oracle's on each
        (u1, u2); returns how many raised."""
        raised = 0
        for u1, u2 in inputs:
            got = destination_outcome(type(core).destination_half, core, u1, u2)
            assert got == destination_outcome(lane_destination_half, core, u1,
                                              u2, digits)
            raised += got == "inconsistent"
        return raised

    @pytest.mark.parametrize("p,m,degree,count", [
        (2, 2, 2, 3), (3, 2, 2, 3), (2, 3, 3, 2)])
    def test_every_message_small_fields(self, p, m, degree, count):
        # GF(4), GF(9) and GF(8) message symbols
        plans, _ = planned_channels(p, m, count, 107 + p * m, degree)
        for plan in plans:
            pipe = MimoPipeline(build_mimo_precoders(plan))
            self.assert_matches_lanes(pipe, every_message(plan.ext, m))

    @pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (3, 1), (5, 1)])
    def test_every_relay_output(self, p, m):
        # all (u1, u2) in F_{p^L}^2m: the consistent ones decode, the rest
        # leave a nonzero residual and raise, exactly as lane by lane
        plans, _ = planned_channels(p, m, 2, 109 + p * m)
        for plan in plans:
            core = MimoPipeline(build_mimo_precoders(plan)).core
            codes = list(itertools.product(range(plan.ext.order), repeat=m))
            raised = self.assert_destination_matches_lanes(
                core, itertools.product(codes, repeat=2), plan.ext.m)
            assert raised == len(codes) ** 2 - plan.ext.order ** (2 * m - 1)

    @pytest.mark.parametrize("p,m,degree,seed", [
        (3, 3, 6, 113), (2, 6, 12, None)])
    def test_seeded_wide_symbols(self, p, m, degree, seed):
        if seed is None:
            # a (2,6) channel whose hop products split over F_{2^12}
            plans = [plan_extension(random_mimo_channel(2, 6, random.Random(782739422)))]
            rng = random.Random(127)
        else:
            plans, rng = planned_channels(p, m, 2, seed, degree)
        for plan in plans:
            assert plan.degree == degree
            pipe = MimoPipeline(build_mimo_precoders(plan))
            self.assert_matches_lanes(
                pipe, [random_message(plan.ext, m, rng) for _ in range(150)])
            order = plan.ext.order
            self.assert_destination_matches_lanes(
                pipe.core, [([rng.randrange(order) for _ in range(m)],
                             [rng.randrange(order) for _ in range(m)])
                            for _ in range(100)], degree)

    def test_thirty_slot_channel_without_tables(self):
        plan = plan_extension(random_mimo_channel(2, 5, random.Random(0)))
        assert plan.degree == 30 and plan.ext._elems is None
        rng = random.Random(131)
        self.assert_matches_lanes(MimoPipeline(build_mimo_precoders(plan)),
                                  [random_message(plan.ext, 5, rng) for _ in range(40)])

    def test_large_p_without_reduction_table(self):
        # rows of n >= 3 entries need more than 12 bits per digit, so the
        # kernel reduces with % p: p = 41 plans over F_{41^2}, p = 1009 over
        # F_1009, and the p = 1009 maps are also fed codes of two and three
        # digits
        plans, rng = planned_channels(41, 2, 2, 137, 2)
        wide = plan_extension(random_mimo_channel(1009, 2, random.Random(17)))
        for plan in plans + [wide]:
            assert (3 * (plan.channel.ground.p - 1) ** 2).bit_length() > 12
            pipe = MimoPipeline(build_mimo_precoders(plan))
            self.assert_matches_lanes(
                pipe, [random_message(plan.ext, 2, rng) for _ in range(300)])
        core = pipe.core
        for digits in (2, 3):
            order = 1009 ** digits
            w1s = [tuple(rng.randrange(order) for _ in range(2)) for _ in range(300)]
            w2s = [(rng.randrange(order),) for _ in range(300)]
            self.assert_halves_match_lanes(core, w1s, w2s, digits)
            self.assert_destination_matches_lanes(
                core, [((rng.randrange(order), rng.randrange(order)),
                        (rng.randrange(order), rng.randrange(order)))
                       for _ in range(100)], digits)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_single_slot_channels(self, p):
        # m = 1: w2 is empty and the destination map is w1 plus the residual
        plans, _ = planned_channels(p, 1, 3, 139 + p)
        for plan in plans:
            pipe = MimoPipeline(build_mimo_precoders(plan))
            messages = every_message(plan.ext, 1)
            assert all(w2 == () for _, w2 in messages)
            self.assert_matches_lanes(pipe, messages)
            one = plan.ext.one
            for w1, w2 in (((one,), (one,)), ((), ()), ((one, one), ())):
                with pytest.raises(ValueError, match="message lengths"):
                    pipe.run(w1, w2)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 41])
    def test_digit_codec(self, p):
        # spread puts one digit per field; reduce takes any fields below
        # 2^b to the code of their residues, for every b a row can need;
        # the tables agree with both, and spreads holds at most three
        # residue chunks of digits
        rng = random.Random(151 + p)
        for n in range(1, 9):
            b = (n * (p - 1) ** 2).bit_length()
            spread, reduce, spreads, residues, width, base = _digit_codec(p, b)
            chunk = width // b
            assert width % b == 0 and base == p ** chunk
            assert len(spreads) <= p ** (3 * chunk)
            assert all(spreads[c] == spread(c) for c in range(len(spreads)))
            for v in (*range(min(1 << width, 4096)), *(rng.randrange(1 << width)
                                                       for _ in range(50))):
                assert residues[v] == reduce(v)
            for digits in (1, 2, 3, 7):
                for _ in range(50):
                    d = [rng.randrange(p) for _ in range(digits)]
                    f = [rng.randrange(1 << b) for _ in range(digits)]
                    code = sum(x * p ** i for i, x in enumerate(d))
                    assert spread(code) == sum(x << b * i for i, x in enumerate(d))
                    assert reduce(sum(x << b * i for i, x in enumerate(f))) == \
                        sum(x % p * p ** i for i, x in enumerate(f))

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 41])
    def test_code_map_branches(self, p):
        # random F_p maps of 1 to 8 columns on codes of 1 to 12 digits, at
        # the edges of the spread table and of 1, 2 and 3 residue chunks:
        # the packed fold inside the table, spread and reduce beyond it
        rng = random.Random(157 + p)
        seen = set()
        for n in range(1, 9):
            b = (n * (p - 1) ** 2).bit_length()
            if p == 2:
                table_digits, chunk = 0, 1
            else:
                _, _, spreads, _, width, _ = _digit_codec(p, b)
                table_digits = round(math.log(len(spreads), p))
                chunk = width // b
            for digits in {1, chunk, chunk + 1, 2 * chunk, 2 * chunk + 1,
                           3 * chunk, table_digits, table_digits + 1, 12} - {0}:
                rows = [[rng.randrange(p) for _ in range(n)]
                        for _ in range(rng.randrange(1, n + 2))]
                rows[0] = [p - 1] * n
                code_map = _CodeMap(p, rows)
                top = p ** digits - 1
                vectors = [[top] * n] + [[rng.randrange(top + 1) for _ in range(n)]
                                         for _ in range(20)]
                for x in vectors:
                    assert code_map.apply(list(x)) == list(
                        lane_apply(p, rows, [x], digits)[0]), (n, digits, x)
                in_table = digits <= table_digits
                seen.add((in_table, min(-(-digits // chunk), 4)))
        if p > 2:
            assert {(True, 1), (True, 2), (False, 4)} <= seen
            # at p = 41 no table holds three chunks of digits
            assert ((True, 3) in seen) == (p < 41)
