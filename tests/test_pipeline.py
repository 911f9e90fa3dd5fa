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
                     LinearPipeline, Mat, MessagePair, MimoPipeline, Singular,
                     TwoHopChannel, all_messages, apply_hop, block2x2,
                     build_mimo_precoders, build_precoders, check_feasible,
                     destination_decode, draw_valid_channel, exhaustive_scan,
                     make_field, matrix_rep, plan_extension, prime_field,
                     random_mimo_channel, relay_decode, relay_encode, scheme,
                     simulate, source_encode)
from gfalign.gf import _code_to_coeffs, is_prime
from gfalign.mimo import _run_template, random_message
from gfalign.scheme import (_certify, _CodeMap, _decode_target, _digit_codec,
                            _relay_sum_rows, scalar_pipeline)
from oracles import (ExtensionFieldPipeline, TwoMapPipeline, _scan_hop, batch,
                     composed_maps, digit_codec_by_formula, element_run, lane_apply,
                     lane_destination_half, lane_relay_half, lane_run, relay_sums,
                     scan_by_sweep, sweep_failures)
from test_mimo import f4_fixture_channel


def stagewise(pre, ch, msg):
    """Relay sums and decoded message from the five scalar stage functions."""
    y1, y2 = apply_hop(ch, 1, *source_encode(pre, msg))
    u1, u2 = relay_decode(pre, ch, y1, 1), relay_decode(pre, ch, y2, 2)
    y3, y4 = apply_hop(ch, 2, relay_encode(pre, u1, 1), relay_encode(pre, u2, 2))
    return u1, u2, destination_decode(pre, y3, y4)


def assert_core_matches_stages(ch, messages):
    pre = build_precoders(ch)
    lib = scalar_pipeline(ch, pre)
    core = TwoMapPipeline(lib)
    u1s, u2s = batch(core.relay_half, [msg.w1 for msg in messages],
                     [msg.w2 for msg in messages])
    got1s, got2s = batch(core.destination_half, u1s, u2s)
    for msg, u1, u2, got1, got2 in zip(messages, u1s, u2s, got1s, got2s):
        assert stagewise(pre, ch, msg) == (u1, u2, MessagePair(got1, got2))
        assert MessagePair(got1, got2) == msg
        assert lib.transmit([*msg.w1, *msg.w2]) == (0, *got1, *got2, *u1, *u2)


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
        core = TwoMapPipeline(scalar_pipeline(ch, build_precoders(ch)))
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
        core = TwoMapPipeline(MimoPipeline(build_mimo_precoders(plan)).core)
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


def bump_s11(pre):
    """The relay-1 scaling block s11 with 1 added."""
    return dataclasses.replace(pre, s11=pre.s11 + 1)


def zero_v4_column(pre):
    """v4 with its first column zeroed: rank deficient."""
    return dataclasses.replace(pre, v4=Mat.from_code_rows(
        pre.v4.spec, [[0, *row[1:]] for row in pre.v4.to_code_rows()]))


def repeat_v1_column(pre):
    """v1 with its last column replaced by its first: rank m - 1."""
    return dataclasses.replace(pre, v1=Mat.from_code_rows(
        pre.v1.spec, [[*row[:-1], row[0]] for row in pre.v1.to_code_rows()]))


def zero_v3(pre):
    """v3 as the zero matrix: rank 0."""
    return dataclasses.replace(pre, v3=Mat.zeros(pre.v3.spec, pre.spec.m, pre.spec.m))


def feasible_channels(p, m, count, seed):
    spec, rng, out = make_field(p, m), random.Random(seed), []
    while len(out) < count:
        ch = draw_valid_channel(spec, rng)
        if check_feasible(ch).feasible:
            out.append(ch)
    return out


def scalar_core_args(ch, pre):
    """The arguments scalar_pipeline passes to LinearPipeline, as Mats."""
    reps = [matrix_rep(q) for q in ch.hop1 + ch.hop2]
    return (ch.spec.p, block2x2(*reps[:4]), block2x2(*reps[4:]),
            matrix_rep(pre.s11), matrix_rep(pre.s21), pre.v1, pre.v2, pre.v3, pre.v4)


def matrix_core_args(plan):
    """The arguments MimoPipeline passes to LinearPipeline, as Mats."""
    pre, ch = build_mimo_precoders(plan), plan.channel
    s11, _, s21, _ = plan.s_blocks
    return (ch.ground.p, block2x2(*ch.hop1), block2x2(*ch.hop2), s11, s21,
            pre.v1, pre.v2, pre.v3, pre.v4)


class TestComposedMaps:
    """LinearPipeline composes each half by the decoders' solves, and
    oracles.composed_maps by explicit inverses: the maps, their defects and
    the exceptions agree on every core, intact or broken."""

    @staticmethod
    def assert_composed(args):
        """The core of args checked against the oracle; it, or the Singular
        both raise."""
        rows = (args[0], *map(Mat.to_code_rows, args[1:]))
        try:
            want = composed_maps(*args)
        except Singular as exc:
            with pytest.raises(Singular) as got:
                LinearPipeline(*rows)
            assert str(got.value) == str(exc)
            return got.value
        core = LinearPipeline(*rows)
        assert [core.relay_map, core.destination_map] == list(want)
        ground = prime_field(core.p)
        relay, destination, sums, target = (Mat.from_code_rows(ground, rows) for rows in (
            *want, _relay_sum_rows(core.m), _decode_target(core.m)))
        assert core.relay_defect == (relay - sums).rank()
        assert core.destination_defect == (destination @ sums - target).rank()
        return core

    def test_every_gf4_core(self):
        f4 = make_field(2, 2)
        for t in _scan_hop(f4).feasible_tuples:
            ch = TwoHopChannel(f4, t, t)
            core = self.assert_composed(scalar_core_args(ch, build_precoders(ch)))
            assert core.relay_defect == core.destination_defect == 0

    @pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 1), (7, 1)])
    def test_seeded_scalar_cores(self, p, m):
        for ch in feasible_channels(p, m, 40, 167 + p * m):
            self.assert_composed(scalar_core_args(ch, build_precoders(ch)))

    @pytest.mark.parametrize("p,m,count", [(2, 2, 20), (3, 2, 20), (2, 3, 12),
                                           (3, 3, 8), (2, 6, 3), (5, 3, 4)])
    def test_seeded_matrix_cores(self, p, m, count):
        plans, _ = planned_channels(p, m, count, 173 + p * m)
        for plan in plans:
            self.assert_composed(matrix_core_args(plan))

    def test_l12_matrix_core(self):
        plan = plan_extension(random_mimo_channel(2, 6, random.Random(782739422)))
        assert plan.degree == 12
        self.assert_composed(matrix_core_args(plan))

    @pytest.mark.parametrize("p,m,mutation,broken", [
        (2, 2, bump_v2, "relay"), (3, 2, bump_v2, "relay"),
        (3, 2, negate_s21, "destination"), (2, 3, swap_v4, "destination"),
        (2, 3, bump_s11, "destination"), (3, 2, bump_s11, "destination"),
        (2, 3, zero_v4_column, "destination"), (3, 3, zero_v4_column, "destination"),
        (2, 3, repeat_v1_column, "singular"), (3, 2, zero_v3, "singular")])
    def test_broken_precoders(self, p, m, mutation, broken):
        # each mutation breaks its half on at least one of the channels
        outcomes = set()
        for ch in feasible_channels(p, m, 6, 179 + p * m):
            got = self.assert_composed(scalar_core_args(ch, mutation(build_precoders(ch))))
            if isinstance(got, Singular):
                outcomes.add("singular")
            else:
                outcomes.add("relay" if got.relay_defect else None)
                outcomes.add("destination" if got.destination_defect else None)
        assert broken in outcomes and outcomes - {broken, None} == set()

    @pytest.mark.parametrize("p,m", [(2, 3), (3, 2)])
    def test_relay_half_is_checked_first(self, p, m):
        # a rank m - 1 relay system and a zero v3: the relay solve raises
        for ch in feasible_channels(p, m, 3, 181 + p * m):
            pre = zero_v3(repeat_v1_column(build_precoders(ch)))
            got = self.assert_composed(scalar_core_args(ch, pre))
            assert isinstance(got, Singular) and f"rank {m - 1} < {m}" in str(got)


def every_message(ext, m):
    return [(w1, w2) for w1 in itertools.product(ext.elements(), repeat=m)
            for w2 in itertools.product(ext.elements(), repeat=m - 1)]


def destination_outcome(half, core, u1, u2, *digits):
    try:
        return half(core, u1, u2, *digits)
    except InconsistentSystem:
        return "inconsistent"


class TestCodeKernels:
    """LinearPipeline.transmit, its two maps applied one after the other
    (TwoMapPipeline) and MimoPipeline.run act on symbol codes: maps whose
    rows all sum two inputs take one loop over the column pairs (XOR for
    p = 2, sums of spread digit fields folded back by residue tables for
    odd p, chunk by chunk past the spread table), and any other map goes
    one base-p digit at a time; the lane oracle applies the same maps to
    one base-p digit lane at a time."""

    @staticmethod
    def sum_rows(m):
        """The relay-sum rows of _relay_sum_rows(m), the rows of two terms."""
        return [list(row) for row in _relay_sum_rows(m) if sum(row) == 2]

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
        destination half returns it; so does the composed map, with a zero
        residual."""
        two = TwoMapPipeline(core)
        for w1, w2 in zip(w1s, w2s):
            u = two.relay_half(w1, w2)
            assert u == lane_relay_half(core, w1, w2, digits)
            decoded = two.destination_half(*u)
            assert decoded == lane_destination_half(core, *u, digits) == (w1, w2)
            assert core.transmit([*w1, *w2]) == (0, *w1, *w2, *u[0], *u[1])

    @staticmethod
    def assert_destination_matches_lanes(core, inputs, digits):
        """Outputs, or InconsistentSystem, equal the oracle's on each
        (u1, u2); returns how many raised."""
        raised, two = 0, TwoMapPipeline(core)
        for u1, u2 in inputs:
            got = destination_outcome(TwoMapPipeline.destination_half, two, u1, u2)
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
        # the relay sums need 7 bits per digit at p = 41 and 11 at p = 1009,
        # so transmit folds them through the residue tables; the two-map
        # oracle's maps hold one-term rows and go one digit at a time, % p.
        # p = 41 plans over F_{41^2}, p = 1009 over F_1009, and the p = 1009
        # maps are also fed codes of two and three digits
        plans, rng = planned_channels(41, 2, 2, 137, 2)
        wide = plan_extension(random_mimo_channel(1009, 2, random.Random(17)))
        for plan in plans + [wide]:
            pipe = MimoPipeline(build_mimo_precoders(plan))
            p = pipe.core.p
            assert (2 * (p - 1)).bit_length() <= 12 and _CodeMap(p, self.sum_rows(2)).pairs
            assert TwoMapPipeline(pipe.core)._destination.pairs is None
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

    @staticmethod
    def table_digits(p):
        """The digits of the codes in the spread table, and in one residue
        chunk, of _digit_codec(p)."""
        spreads, _, _, base = _digit_codec(p)
        return round(math.log(len(spreads), p)), round(math.log(base, p))

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 41, 1009, 2039])
    def test_digit_codec(self, p):
        # spreads puts each digit of a code in its own field of b bits,
        # b = bitlen(2 (p-1)), for every code of as many digits as 2^12
        # entries hold; residues takes any fields below 2^width to the code
        # of their residues mod p; two lookups fold the sum of two spread
        # codes back to the sum of their lanes
        rng = random.Random(151 + p)
        spreads, residues, width, base = _digit_codec(p)
        b = (2 * (p - 1)).bit_length()
        digits = max(k for k in range(1, 13) if p ** k <= 4096)
        chunk = 12 // b
        assert (len(spreads), width, base) == (p ** digits, chunk * b, p ** chunk)
        assert len(residues) == 1 << width
        for c in (*range(min(len(spreads), 600)),
                  *(rng.randrange(len(spreads)) for _ in range(50))):
            assert spreads[c] == sum(
                d << b * i for i, d in enumerate(_code_to_coeffs(c, p, digits)))
        field = (1 << b) - 1
        for v in (*range(min(1 << width, 600)),
                  *(rng.randrange(1 << width) for _ in range(50))):
            assert residues[v] == sum((v >> b * i & field) % p * p ** i
                                      for i in range(chunk))
        top = len(spreads) - 1
        for x in ([top, top], *([rng.randrange(top + 1), rng.randrange(top + 1)]
                                for _ in range(100))):
            s = spreads[x[0]] + spreads[x[1]]
            folded = residues[s & (1 << width) - 1] + residues[s >> width] * base
            assert (folded,) == lane_apply(p, [[1, 1]], [x], digits)[0], x

    def test_spread_tables_hold_two_chunks(self):
        # for every odd prime with 2 (p-1) < 2^12 the sum of the two largest
        # spread codes has at most two residue chunks, so every sum of two
        # folds by at most two lookups
        primes = [p for p in range(3, 2048, 2) if is_prime(p)]
        assert (len(primes), primes[-1]) == (308, 2039)
        try:
            for p in primes:
                spreads, residues, width, base = _digit_codec(p)
                top, digits = len(spreads) - 1, self.table_digits(p)[0]
                s = 2 * spreads[top]
                assert s >> 2 * width == 0, p
                folded = residues[s & (1 << width) - 1] + residues[s >> width] * base
                assert (folded,) == lane_apply(p, [[1, 1]], [[top, top]], digits)[0], p
        finally:
            _digit_codec.cache_clear()

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 41, 1009])
    def test_code_map_branches(self, p):
        # relay sums at the edges of one residue chunk and of the spread
        # table: codes below base fold by one lookup, the rest of the table
        # by two (no such code at p = 1009, whose table is one chunk), longer
        # codes go chunk by chunk; and random F_p maps of 1 to 8 columns
        # with a one-term row, which go digit by digit, on codes of 1 to 13
        # digits
        rng = random.Random(157 + p)
        table, chunk = self.table_digits(p) if p > 2 else (13, 13)
        seen = set()
        for m in (2, 3, 4):
            sums = self.sum_rows(m)
            code_map = _CodeMap(p, sums)
            assert code_map.pairs
            for digits in {1, chunk, chunk + 1, table, table + 1, 2 * table + 1}:
                top = p ** digits - 1
                for x in ([top] * (2 * m - 1),
                          *([rng.randrange(top + 1) for _ in range(2 * m - 1)]
                            for _ in range(20))):
                    assert code_map.apply(x) == list(
                        lane_apply(p, sums, [x], digits)[0]), (m, digits, x)
                    seen.add((max(x) >= p ** chunk) + (max(x) >= p ** table))
        if p > 2:
            assert (table == chunk) == (p == 1009)
            assert seen == ({0, 2} if table == chunk else {0, 1, 2})
        for n in range(1, 9):
            rows = [[p - 1] * n, [1] + [0] * (n - 1)] + [
                [rng.randrange(p) for _ in range(n)] for _ in range(rng.randrange(n))]
            code_map = _CodeMap(p, rows)
            assert code_map.pairs is None
            for digits in range(1, 14):
                top = p ** digits - 1
                for x in ([top] * n, *([rng.randrange(top + 1) for _ in range(n)]
                                       for _ in range(4))):
                    assert code_map.apply(x) == list(
                        lane_apply(p, rows, [x], digits)[0]), (n, digits, x)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 41, 1009])
    def test_kernel_past_the_table(self, monkeypatch, p):
        # random sums of two columns on codes of 2 to 5 chunks of the spread
        # table's digits, full or with a partial top chunk, in every column
        # or in one column only: each chunk goes through the pair loop and
        # its fold, and the outputs add up by powers of len(spreads).  Cut
        # by p instead, the outputs would be the same and the loop would
        # run for every digit
        rng = random.Random(163 + p)
        size = len(_digit_codec(p)[0])
        table = self.table_digits(p)[0]
        bases, by_digits = set(), scheme._by_digits
        monkeypatch.setattr(scheme, "_by_digits",
                            lambda base, *args: bases.add(base) or by_digits(base, *args))
        for n in (2, 3, 5, 8):
            rows = [[int(j in pair) for j in range(n)]
                    for pair in (rng.sample(range(n), 2) for _ in range(n + 1))]
            code_map = _CodeMap(p, rows)
            assert code_map.pairs
            for chunks in (2, 3, 4, 5):
                for digits in (chunks * table, (chunks - 1) * table + 1):
                    top = p ** digits - 1
                    wide = [rng.randrange(size ** (chunks - 1), top + 1) for _ in range(n)]
                    vectors = [[top] * n, wide, [0] * (n - 1) + [top],
                               [rng.randrange(size) for _ in range(n - 1)] + wide[-1:]]
                    for x in vectors:
                        assert max(x) >= size
                        assert code_map.apply(x) == list(
                            lane_apply(p, rows, [x], digits)[0]), (n, digits, x)
        assert bases == {size}

    @pytest.mark.parametrize("m", [2, 3])
    def test_relay_sums_every_code_pair(self, m):
        # every pair (a, b) of codes below p^L <= 81: the vector of m a's
        # and m-1 b's gives each relay-sum row a on its w1 term and b on its
        # w2 term; the two-term loop, and all of S row by row, equal the lanes
        sums, full = self.sum_rows(m), [list(row) for row in _relay_sum_rows(m)]
        pick = [full.index(row) for row in sums]
        for p in (2, 3, 5, 7):
            pair_map, full_map = _CodeMap(p, sums), _CodeMap(p, full)
            assert pair_map.pairs and full_map.pairs is None
            for digits in range(1, 7):
                if p ** digits > 81:
                    break
                for a, b in itertools.product(range(p ** digits), repeat=2):
                    x = [a] * m + [b] * (m - 1)
                    (want,) = lane_apply(p, full, [x], digits)
                    assert full_map.apply(x) == list(want), (p, digits, x)
                    assert pair_map.apply(x) == [want[i] for i in pick], (p, digits, x)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 41, 1009, 2053, 4099])
    def test_relay_sums_wide_codes(self, p):
        # random codes of 1 to 13 digits through the relay sums: past the
        # spread table (7 digits at p = 3, one at p = 1009) the pair loop
        # goes chunk by chunk; at p = 2053 and 4099, where the sum of two
        # digits needs 13 bits, pairs is None and the sums go digit by digit
        rng = random.Random(167 + p)
        for m in (2, 3, 4):
            sums = self.sum_rows(m)
            code_map = _CodeMap(p, sums)
            assert (code_map.pairs is None) == (p > 2039)
            for digits in range(1, 14):
                top = p ** digits - 1
                for x in ([top] * (2 * m - 1),
                          *([rng.randrange(top + 1) for _ in range(2 * m - 1)]
                            for _ in range(15))):
                    assert code_map.apply(x) == list(
                        lane_apply(p, sums, [x], digits)[0]), (m, digits, x)

    @pytest.mark.parametrize("p", [2, 3, 5, 41, 1009])
    def test_rows_off_the_two_term_loop(self, p):
        # a pair with coefficient p - 1 (the pair loop only at p = 2, where
        # that coefficient is 1), and a pair beside a three-term row
        rng = random.Random(173 + p)
        for rows, loop in (([[1, 0, p - 1], [0, 1, 1]], p == 2),
                           ([[1, 1, 0, 0], [0, 1, 1, 1]], False)):
            code_map = _CodeMap(p, rows)
            assert (code_map.pairs is not None) == loop
            for digits in (1, 2, 5, 13):
                top = p ** digits - 1
                for x in ([top] * len(rows[0]),
                          *([rng.randrange(top + 1) for _ in rows[0]] for _ in range(20))):
                    assert code_map.apply(x) == list(
                        lane_apply(p, rows, [x], digits)[0]), (rows, digits, x)

    def test_intact_cores_take_the_two_term_loop(self):
        # the rows of the composed map's code map on an intact core are the
        # relay sums, and they take the pair loop: for the certificate's
        # cores and for planned matrix cores at every mimo-stream (p, m)
        cores = TestCertificate.cores()
        for p, m in ((2, 2), (3, 2), (2, 3), (3, 3), (2, 4)):
            plans, _ = planned_channels(p, m, 2, 179 + p * m)
            cores += [MimoPipeline(build_mimo_precoders(plan)).core for plan in plans]
        for core in cores:
            assert core.relay_defect == core.destination_defect == 0
            code_map = core.composed_map[1]
            assert code_map.pairs is not None
            assert sorted(code_map.rows) == sorted(map(tuple, self.sum_rows(core.m)))

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 41, 1009, 2039])
    def test_codec_tables_by_formula(self, p):
        # the tables grown a digit at a time equal their definition
        assert _digit_codec(p) == digit_codec_by_formula(p)

    def test_p3_codec_tables(self):
        # at p = 3 a field is b = 3 bits, one octal digit: spreads[c] is the
        # ternary numeral of c read in octal, for the 3^7 codes of 7 digits,
        # and residues[v] the octal numeral of v, each digit taken mod 3,
        # read in ternary, for the 4096 values of 4 fields; the relay sums of
        # both mimo-stream p = 3 arms fold through them
        spreads, residues, width, base = _digit_codec(3)
        assert (len(spreads), len(residues), width, base) == (3 ** 7, 4096, 12, 81)

        def ternary(c):
            return "".join(str(c // 3 ** i % 3) for i in reversed(range(7)))

        assert all(spreads[c] == int(ternary(c), 8) for c in range(3 ** 7))
        assert all(residues[v] == int("".join(str(int(d) % 3) for d in f"{v:04o}"), 3)
                   for v in range(4096))
        assert spreads[3 ** 7 - 1] == 0o2222222 and residues[0o7654] == int("1021", 3)
        for m in (2, 3):
            twos = [3 ** 7 - 1] * (2 * m - 1)         # 2 + 2 = 1 mod 3 in each lane
            assert _CodeMap(3, self.sum_rows(m)).apply(twos) == [(3 ** 7 - 1) // 2] * (2 * m - 2)


def outcome(run, *args):
    """run's return value, or the type and message of what it raised."""
    try:
        return run(*args)
    except Exception as exc:
        return type(exc), str(exc)


def assert_run_matches_elements(pipe, messages):
    """run equals oracles.element_run on each message, output elements
    being the same objects where the field interns them; returns how many
    raised."""
    raised = 0
    for w1, w2 in messages:
        got = outcome(pipe.run, w1, w2)
        want = outcome(element_run, pipe, w1, w2)
        assert got == want
        if isinstance(want[0], type):
            raised += 1
        elif pipe.ext._elems is not None:
            assert all(a is b for g, w in zip(got, want) for a, b in zip(g, w))
    return raised


def transmit_outcome(core, x):
    """transmit's relay sums and decoded message of the flat message x, the
    message "inconsistent" when the residual is nonzero."""
    out, m = core.transmit(list(x)), core.m
    decoded = "inconsistent" if out[0] else (out[1:m + 1], out[m + 1:2 * m])
    return (out[2 * m:3 * m], out[3 * m:]), decoded


def two_map_outcome(core, x):
    """transmit_outcome computed by the two maps, one after the other."""
    two, m = TwoMapPipeline(core), core.m
    u = two.relay_half(x[:m], x[m:])
    return u, destination_outcome(TwoMapPipeline.destination_half, two, *u)


def run_outcome(run, *args):
    try:
        return run(*args)
    except InconsistentSystem:
        return "inconsistent"


class TestTransmit:
    """LinearPipeline.transmit, the one composed map that MimoPipeline.run
    and simulate apply, against the two maps applied one after the other
    (TwoMapPipeline) and lane by lane, on intact and corrupted cores."""

    cores = staticmethod(TestCertificate.cores)
    corrupt = staticmethod(TestCertificate.corrupt)

    @staticmethod
    def messages(core, rng, count=40, digits=3):
        """Every message over F_p, then count messages of digits-digit codes."""
        n, order = 2 * core.m - 1, core.p ** digits
        return [*itertools.product(range(core.p), repeat=n),
                *([rng.randrange(order) for _ in range(n)] for _ in range(count))]

    def assert_matches_two_maps(self, core, rng):
        """transmit equals the two maps on every message of messages();
        returns how many decodes raised."""
        messages = self.messages(core, rng)
        outcomes = [transmit_outcome(core, x) for x in messages]
        assert outcomes == [two_map_outcome(core, x) for x in messages]
        return sum(decoded == "inconsistent" for _, decoded in outcomes)

    @pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2)])
    def test_simulate_every_message(self, p, m):
        # GF(4), GF(8) and GF(9) channels: the report's relay sums and
        # decoded message are those of the two maps
        spec = make_field(p, m)
        messages = list(all_messages(spec))
        for ch in feasible_channels(p, m, 3, 191 + p * m):
            two = TwoMapPipeline(scalar_pipeline(ch, build_precoders(ch)))
            for msg in messages:
                report = simulate(ch, msg)
                u = two.relay_half(msg.w1, msg.w2)
                assert (report.u1, report.u2) == u
                assert report.decoded == MessagePair(*two.destination_half(*u)) == msg
                assert report.success

    @pytest.mark.parametrize("p,m,mutation", [
        (2, 3, bump_v2), (3, 2, bump_v2), (2, 3, zero_v4_column),
        (3, 2, negate_s21)])
    def test_simulate_defective_cores(self, monkeypatch, p, m, mutation):
        # relay sums from the relay map alone, and no decoded message when
        # the residual is nonzero
        build = scheme.build_precoders
        monkeypatch.setattr(scheme, "build_precoders", lambda ch: mutation(build(ch)))
        outcomes = set()
        for ch in feasible_channels(p, m, 4, 193 + p * m):
            two = TwoMapPipeline(scalar_pipeline(ch, scheme.build_precoders(ch)))
            for msg in all_messages(ch.spec):
                report = simulate(ch, msg)
                u = two.relay_half(msg.w1, msg.w2)
                assert (report.u1, report.u2) == u
                want = destination_outcome(TwoMapPipeline.destination_half, two, *u)
                assert report.decoded == (None if want == "inconsistent"
                                          else MessagePair(*want))
                assert report.success == (report.decoded == msg)
                outcomes.add(report.success)
        assert False in outcomes

    def test_intact_cores(self):
        rng = random.Random(197)
        for core in self.cores():
            assert self.assert_matches_two_maps(core, rng) == 0

    @pytest.mark.parametrize("name,rows", [
        ("relay_map", "any"), ("destination_map", "decode"),
        ("destination_map", "residual")])
    def test_corrupted_cores(self, name, rows):
        # a corrupted relay map composes by a product, a corrupted
        # destination map from its stored product with the sums
        rng = random.Random(199)
        raised = 0
        for core in self.cores():
            n = 2 * core.m - 1
            i = {"any": rng.randrange(2 * core.m), "decode": rng.randrange(n),
                 "residual": n}[rows]
            bad = self.corrupt(core, name, i, rng.randrange(len(getattr(core, name)[0])))
            assert (bad.relay_defect > 0) == (name == "relay_map")
            raised += self.assert_matches_two_maps(bad, rng)
        # a decode row leaves the residual row as it was
        assert (raised > 0) == (rows != "decode")

    @pytest.mark.parametrize("name,rows", [
        ("relay_map", "any"), ("destination_map", "residual")])
    def test_corrupted_matrix_run(self, name, rows):
        # MimoPipeline.run on a corrupted core raises InconsistentSystem
        # exactly when the lane oracle does, and else returns its output.
        # The kernel is bound by a first run on the intact core, then a
        # corrupted copy replaces the core, or the map is set on the core
        # itself: either way the next run follows it
        rng = random.Random(211)
        plans, _ = planned_channels(3, 2, 4, 89)
        raised = 0
        for k, plan in enumerate(plans):
            pipe = MimoPipeline(build_mimo_precoders(plan))
            w1, w2 = random_message(plan.ext, 2, rng)
            assert pipe.run(w1, w2) == lane_run(pipe, w1, w2)
            core = pipe.core
            i = rng.randrange(2 * core.m) if rows == "any" else 2 * core.m - 1
            bad = self.corrupt(core, name, i, rng.randrange(len(getattr(core, name)[0])))
            if k % 2:
                pipe.core = bad
            else:
                setattr(core, name, getattr(bad, name))
            for _ in range(60):
                w1, w2 = random_message(plan.ext, 2, rng)
                got = run_outcome(pipe.run, w1, w2)
                assert got == run_outcome(lane_run, pipe, w1, w2)
                raised += got == "inconsistent"
        assert raised > 0

    @pytest.mark.parametrize("name", ["relay_map", "destination_map"])
    def test_setting_a_map_drops_the_composed_map(self, name):
        # transmit is built once and copied with the core; a map set on the
        # copy rebuilds it there and leaves the original's alone
        rng = random.Random(223)
        for core in self.cores():
            x = [0] * (2 * core.m - 1)
            before = transmit_outcome(core, x)
            i = rng.randrange(len(getattr(core, name)))
            bad = self.corrupt(core, name, i, rng.randrange(2 * core.m - 1))
            self.assert_matches_two_maps(bad, rng)
            assert any(transmit_outcome(bad, y) != transmit_outcome(core, y)
                       for y in self.messages(core, rng))
            assert transmit_outcome(core, x) == before

    def test_scaled_single_entry_rows(self):
        # over F_3, 2 times one input is no copy of it: a relay row and a
        # decode row of D S that hold a single 2
        for core in self.cores():
            if core.p != 3:
                continue
            relay = self.corrupt(core, "relay_map", 0, 0)
            assert relay.relay_map[0] == [2] + [0] * (2 * core.m - 2)
            destination = self.corrupt(core, "destination_map", 0, 0)
            assert destination.relay_defect == 0
            assert destination._decode_sums[0] == [2] + [0] * (2 * core.m - 2)
            for bad in (relay, destination):
                self.assert_matches_two_maps(bad, random.Random(227))

    def test_set_up_builds_no_code_map(self, monkeypatch):
        # a scan only certifies; the composed map is built on the first
        # transmit, once
        built = []

        class Counted(scheme._CodeMap):
            def __init__(self, p, rows):
                built.append(len(rows))
                super().__init__(p, rows)

        monkeypatch.setattr(scheme, "_CodeMap", Counted)
        exhaustive_scan(2, 2)
        assert built == []
        (ch,) = feasible_channels(2, 2, 1, 229)
        core = scalar_pipeline(ch, build_precoders(ch))
        assert built == []
        for x in ([1, 0, 1], [0, 1, 1]):
            core.transmit(x)
        assert built == [2]


class TestRunKernel:
    """MimoPipeline.run, one straight-line kernel per core shape compiled
    by _run_template, against the element-level oracle
    (oracles.element_run): the outputs, and the type and message of every
    exception."""

    @pytest.mark.parametrize("p,m,degree", [(2, 2, 2), (3, 2, 2), (2, 3, 3)])
    def test_every_message(self, p, m, degree):
        (plan,), _ = planned_channels(p, m, 1, 233 + p * m, degree)
        pipe = MimoPipeline(build_mimo_precoders(plan))
        messages = every_message(plan.ext, m)
        assert len(messages) == plan.ext.order ** (2 * m - 1)
        assert assert_run_matches_elements(pipe, messages) == 0

    @pytest.mark.parametrize("p,m,degree", [(3, 3, 6), (2, 4, 4)])
    def test_seeded_messages(self, p, m, degree):
        (plan,), rng = planned_channels(p, m, 1, 239 + p * m, degree)
        pipe = MimoPipeline(build_mimo_precoders(plan))
        messages = [random_message(plan.ext, m, rng) for _ in range(2000)]
        assert assert_run_matches_elements(pipe, messages) == 0

    @pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (2, 3)])
    def test_coerced_symbols(self, p, m):
        # ints (constants mod p), coefficient lists and elements of an equal
        # spec that is not the plan's own object
        plans, rng = planned_channels(p, m, 2, 241 + p * m)
        for plan in plans:
            pipe = MimoPipeline(build_mimo_precoders(plan))
            ext = plan.ext
            twin = FieldSpec(ext.p, ext.m, ext.pi)
            assert twin == ext and twin is not ext
            messages = []
            for _ in range(40):
                w1, w2 = random_message(ext, m, rng)
                for convert in (lambda v: list(v.coeffs), lambda v: twin.from_code(v.code),
                                lambda v: rng.randrange(-p, 2 * p)):
                    messages.append(([convert(v) for v in w1], [convert(v) for v in w2]))
            assert assert_run_matches_elements(pipe, messages) == 0

    def test_refusals_match(self):
        # wrong lengths, a symbol of another field and, on a corrupted core,
        # a nonzero residual raise what the oracle raises, with its message
        (plan,), rng = planned_channels(3, 2, 1, 251)
        pipe = MimoPipeline(build_mimo_precoders(plan))
        one, zero = plan.ext.one, plan.ext.zero
        lengths = [((one,), (one,)), ((one,) * 3, (one,)), ((one, one), ()),
                   ((one, one), (one, one)), ((), ())]
        foreign = [(w1, w2) for f in (make_field(2, 3).one, make_field(3, 3).one)
                   for w1, w2 in (((zero, f), (zero,)), ((zero, zero), (f,)))]
        assert assert_run_matches_elements(pipe, lengths + foreign) == len(lengths + foreign)
        assert outcome(pipe.run, *foreign[0])[0] is FieldMismatch
        core = pipe.core
        pipe.core = TestCertificate.corrupt(core, "destination_map", 2 * core.m - 1, 0)
        messages = [random_message(plan.ext, 2, rng) for _ in range(60)]
        raised = assert_run_matches_elements(pipe, messages)
        assert 0 < raised < len(messages)
        assert any(outcome(pipe.run, *msg)[0] is InconsistentSystem for msg in messages)

    def test_one_template_per_shape(self):
        # the intact cores of the five mimo-stream arms gather alike for one
        # m, so they compile three kernels, one each for m = 2, 3 and 4
        _run_template.cache_clear()
        for p, m in ((2, 2), (3, 2), (2, 3), (3, 3), (2, 4)):
            plans, _ = planned_channels(p, m, 3, 257 + p * m)
            for plan in plans:
                MimoPipeline(build_mimo_precoders(plan))
        assert _run_template.cache_info().currsize == 3
