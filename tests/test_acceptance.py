"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers (run with -s to watch them).  Budgeted criteria assert
their wall-clock limits."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from gfalign import (DegenerateSpectrum, Mat, MimoPipeline, all_messages,
                     build_mimo_precoders, build_precoders, char_poly,
                     check_feasible, coeff_rows, coeff_vector,
                     count_irreducible, diag_symbol_ext_feasibility,
                     draw_valid_channel, exact_fraction, exhaustive_scan,
                     krylov_precoders, lift_matrix, linear_combination_image,
                     lower_bound, make_field, matrix_rep, mc_feasibility,
                     minpoly_degree, normalized_rates, plan_extension,
                     prime_field, random_mimo_channel, simulate)
from gfalign.mimo import random_message as random_ext_message
from oracles import (det_by_rref, eigenvectors_in, enumerate_irreducible,
                     roots_by_enumeration, vandermonde_det)

SEED = 20260809


@pytest.fixture(scope="module")
def f4_scan():
    return exhaustive_scan(2, 2)


def report(criterion, detail):
    print(f"[criterion {criterion}] PASS - {detail}")


def test_c01_vector_matrix_isomorphism():
    start = time.perf_counter()
    failures = 0
    checked = 0

    f4 = make_field(2, 2)
    elems = list(f4.elements())
    for q1, q2, x1, x2 in itertools.product(elems, repeat=4):
        checked += 1
        if linear_combination_image([q1, q2], [x1, x2]) != \
                coeff_vector(q1 * x1 + q2 * x2):
            failures += 1
    assert checked == 4 ** 4

    for p, m in ((2, 3), (3, 2), (2, 4)):
        spec = make_field(p, m)
        rng = random.Random(f"{SEED}:{p}:{m}")
        for _ in range(10 ** 4):
            qs = [spec.random_element(rng) for _ in range(2)]
            xs = [spec.random_element(rng) for _ in range(2)]
            checked += 1
            if linear_combination_image(qs, xs) != \
                    coeff_vector(qs[0] * xs[0] + qs[1] * xs[1]):
                failures += 1
    elapsed = time.perf_counter() - start
    assert failures == 0
    assert elapsed < 5.0
    report(1, f"{checked} combinations, 0 failures, {elapsed:.2f}s")


def test_c02_irreducible_counting():
    start = time.perf_counter()
    assert count_irreducible(2, 3) == 2
    assert count_irreducible(2, 4) == 3
    assert count_irreducible(3, 2) == 3
    checked = []
    for p in (2, 3, 5):
        for m in (1, 2, 3, 4):
            n = count_irreducible(p, m)
            assert n == len(enumerate_irreducible(p, m))
            checked.append(((p, m), n))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, f"formula = enumeration on {len(checked)} (p, m) pairs, {elapsed:.2f}s")


def test_c03_exact_fraction_dominates_bound():
    assert exact_fraction(2, 2) == Fraction(2, 3)
    assert lower_bound(2, 2) == Fraction(1, 2)
    assert exact_fraction(2, 4) == Fraction(4, 5)
    assert lower_bound(2, 4) == Fraction(5, 8)
    pairs = 0
    for p in (2, 3, 5, 7):
        for m in range(1, 9):
            assert lower_bound(p, m) <= exact_fraction(p, m)
            pairs += 1
    report(3, f"bound <= exact on {pairs} (p, m) pairs; "
              f"(2,2): 1/2 <= 2/3, (2,4): 5/8 <= 4/5")


def test_c04_end_to_end_delivery(f4_scan):
    start = time.perf_counter()
    # exhaustive GF(4): every feasible channel, every message
    assert f4_scan.mode == "paired"
    assert f4_scan.decode_failures == 0
    assert f4_scan.round_trips == f4_scan.feasible_channels * 8
    assert f4_scan.decode_success_rate == 1.0
    # the achieved sum-rate on success is (2m-1) log2 p = 3 bits
    f4 = make_field(2, 2)
    ch = draw_valid_channel(f4, random.Random(SEED))
    rep = simulate(ch, next(iter(all_messages(f4))))
    assert rep.success and rep.sum_rate_bits == 3.0

    # GF(8): sample of feasible channels with full message exhaustion
    f8 = make_field(2, 3)
    rng = random.Random(SEED + 1)
    messages = list(all_messages(f8))
    channels = 0
    trips = 0
    while channels < 500:
        ch = draw_valid_channel(f8, rng)
        verdict = check_feasible(ch)
        if not verdict.feasible:
            continue
        channels += 1
        pre = build_precoders(ch)
        for msg in messages:
            trips += 1
            r = simulate(ch, msg)
            assert r.success and r.sum_rate_bits == pytest.approx(5.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(4, f"GF(4): {f4_scan.feasible_channels} feasible channels x 8 messages "
              f"all decoded; GF(8): {channels} channels x {len(messages)} messages "
              f"({trips} trips); {elapsed:.1f}s")


def test_c05_infeasibility_witness():
    f4 = make_field(2, 2)
    unit, eye = coeff_vector(f4.one), Mat.identity(prime_field(f4), 2)
    elems = list(f4.nonzero_elements())
    degree_one = 0
    for t in itertools.product(elems, repeat=4):
        q11, q12, q21, q22 = t
        ratio = q11.inv() * q12 * q22.inv() * q21
        rank = krylov_precoders(matrix_rep(ratio), unit, eye)[0].rank()
        deg = minpoly_degree(ratio)
        assert rank == deg
        if deg == 1:
            degree_one += 1
            assert rank == 1 < 2
    assert degree_one == 27
    report(5, f"all 81 first-hop tuples: power-basis rank == ratio degree; "
              f"{degree_one} degree-1 tuples all have rank 1")


def test_c06_probability_limits():
    along_m = [exact_fraction(2, m) for m in (2, 4, 8, 16)]
    assert all(a < b for a, b in zip(along_m, along_m[1:]))
    assert along_m[-1] > Fraction(99, 100)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
              53, 59, 61, 67, 71, 73, 79, 83, 89, 97]
    along_p = [exact_fraction(p, 2) for p in primes]
    assert all(a < b for a, b in zip(along_p, along_p[1:]))
    assert along_p[-1] > Fraction(95, 100)
    d = normalized_rates(2, 64).d_finite
    assert d == Fraction(127, 64)
    assert abs(d - 2) <= Fraction(1, 64)
    report(6, f"exact fraction rises {float(along_m[0]):.3f}->{float(along_m[-1]):.4f} "
              f"along m and {float(along_p[0]):.3f}->{float(along_p[-1]):.4f} along p; "
              f"|127/64 - 2| = 2^-6")


def test_c07_monte_carlo_calibration(f4_scan):
    est = mc_feasibility(2, 2, 10 ** 5, seed=SEED)
    # conditional estimate against the scan's fraction over valid channels
    p_cond = f4_scan.feasible_fraction_valid
    sigma_cond = math.sqrt(p_cond * (1 - p_cond) / est.valid)
    assert abs(est.estimate - p_cond) <= 3 * sigma_cond
    # unconditional estimate against the fraction over all nonzero tuples
    p_raw = f4_scan.feasible_fraction_all
    sigma_raw = math.sqrt(p_raw * (1 - p_raw) / est.trials)
    assert abs(est.estimate_raw - p_raw) <= 3 * sigma_raw
    again = mc_feasibility(2, 2, 10 ** 5, seed=SEED)
    assert again == est and again.estimate == est.estimate
    report(7, f"estimate {est.estimate:.4f} vs exhaustive {p_cond:.4f} "
              f"(raw {est.estimate_raw:.4f} vs {p_raw:.4f}); "
              f"bit-identical on rerun")


def test_c08_symbol_extension_separation():
    diag_binary = diag_symbol_ext_feasibility(2, 2, 2000, seed=SEED)
    assert diag_binary.feasible == 0
    assert diag_binary.estimate == 0.0
    field_binary = exact_fraction(2, 2)
    assert field_binary > 0
    diag_large = diag_symbol_ext_feasibility(101, 2, 10 ** 4, seed=SEED)
    assert diag_large.estimate > 0.9
    report(8, f"(2,2): diagonal 0.0 < field-extension {field_binary}; "
              f"(101,2): diagonal {diag_large.estimate:.4f} > 0.9")


def _brute_distinct_roots(product):
    # splitting degrees at m <= 3 all divide 6
    cp = char_poly(product)
    big = make_field(product.spec.p, 6)
    return len(roots_by_enumeration(cp, big)) == product.nrows


def test_c09_symbol_extension_pipeline():
    from gfalign import block2x2, split_blocks

    start = time.perf_counter()
    summary = []
    for p, m in ((2, 2), (3, 2), (2, 3)):
        rng = random.Random(f"{SEED}:mimo:{p}:{m}")
        planned = degenerate = 0
        trips = 0
        for _ in range(100):
            ch = random_mimo_channel(p, m, rng)
            q11, q12, q21, q22 = ch.hop1
            prod1 = q11.inv() @ q12 @ q22.inv() @ q21
            s11, s12, s21, s22 = split_blocks(block2x2(*ch.hop2).inv(), m)
            prod2 = s11.inv() @ s12 @ s22.inv() @ s21
            oracle_ok = _brute_distinct_roots(prod1) and _brute_distinct_roots(prod2)
            try:
                plan = plan_extension(ch)
            except DegenerateSpectrum:
                assert not oracle_ok
                degenerate += 1
                continue
            assert oracle_ok
            planned += 1
            pre = build_mimo_precoders(plan)
            for hop, v_main in ((plan.hop1, pre.v1), (plan.hop2, pre.v3)):
                # the eigenvectors of a kernel search, not HopPlan's closed-form
                # v1 V^-1, and their determinant by field-element elimination
                vectors = eigenvectors_in(hop.product, plan.ext, hop.eigenvalues)
                assert v_main.det().lift(plan.ext) == det_by_rref(vectors) * \
                    vandermonde_det(hop.eigenvalues)
            pipe = MimoPipeline(pre)
            ext = plan.ext
            space = ext.order ** (2 * m - 1)
            if space <= 4096:
                for w1 in itertools.product(ext.elements(), repeat=m):
                    for w2 in itertools.product(ext.elements(), repeat=m - 1):
                        got1, got2, _, _ = pipe.run(w1, w2)
                        assert got1 == w1 and got2 == w2
                        trips += 1
            else:
                for _ in range(10 ** 4):
                    w1, w2 = random_ext_message(ext, m, rng)
                    got1, got2, _, _ = pipe.run(w1, w2)
                    assert got1 == w1 and got2 == w2
                    trips += 1
        summary.append(f"({p},{m}): {planned} planned / {degenerate} degenerate, "
                       f"{trips} trips")
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(9, "; ".join(summary) + f"; {elapsed:.1f}s")


def test_c10_transport_soundness():
    failures = 0
    checked = 0
    rng = random.Random(SEED + 10)
    for p, deg in ((2, 2), (2, 3), (3, 2), (3, 3)):
        ext = make_field(p, deg)
        ground = prime_field(p)
        for _ in range(250):
            n = rng.choice((2, 3, 4))
            q = Mat.build(ground, [[rng.randrange(p) for _ in range(n)]
                                   for _ in range(n)])
            x = Mat.build(ext, [[rng.randrange(ext.order)] for _ in range(n)])
            checked += 1
            if coeff_rows(lift_matrix(q, ext) @ x) != q @ coeff_rows(x):
                failures += 1
    assert checked == 1000 and failures == 0
    report(10, f"{checked} random (matrix, vector) pairs commute slot-wise, "
               f"0 failures")
