from fractions import Fraction

import pytest

from gfalign import (NotPrime, TooLarge, diag_exhaustive, feasibility,
                     diag_symbol_ext_feasibility, exact_fraction,
                     feasibility_stats, lower_bound, make_field,
                     mc_feasibility, normalized_rates)
from gfalign.feasibility import CSV_COLUMNS, stats_csv_row
from oracles import diag_exhaustive_by_enumeration, minimal_polynomial


class TestExactFraction:
    @pytest.mark.parametrize("p,m,expected", [
        (2, 2, Fraction(2, 3)),
        (2, 4, Fraction(4, 5)),
        (2, 1, Fraction(1)),
        (7, 1, Fraction(1)),
        (3, 2, Fraction(3, 4)),
    ])
    def test_frozen(self, p, m, expected):
        assert exact_fraction(p, m) == expected

    @pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (3, 2)])
    def test_matches_element_census(self, p, m):
        spec = make_field(p, m)
        full = sum(1 for e in spec.nonzero_elements()
                   if minimal_polynomial(e).degree == m)
        assert exact_fraction(p, m) == Fraction(full, spec.order - 1)


class TestLowerBound:
    @pytest.mark.parametrize("p,m,expected", [
        (2, 2, Fraction(1, 2)),
        (2, 4, Fraction(5, 8)),
        (5, 1, Fraction(1)),
        (2, 6, 1 - Fraction(8, 64) - Fraction(4, 64) - Fraction(2, 64)),
    ])
    def test_frozen(self, p, m, expected):
        assert lower_bound(p, m) == expected

    def test_bound_below_exact(self):
        for p in (2, 3, 5, 7):
            for m in range(1, 9):
                assert lower_bound(p, m) <= exact_fraction(p, m)


class TestNormalizedRates:
    def test_frozen(self):
        r = normalized_rates(2, 2)
        assert r.d_finite == Fraction(3, 2)
        assert r.limit_large_m == 2
        assert r.limit_large_p == Fraction(3, 2)
        assert normalized_rates(5, 1).d_finite == 1
        big = normalized_rates(2, 64)
        assert big.d_finite == Fraction(127, 64)
        assert abs(big.d_finite - 2) <= Fraction(1, 64)



@pytest.mark.parametrize("fn", [exact_fraction, lower_bound, normalized_rates])
def test_field_parameters_checked(fn):
    for p in (1, 4, 9):
        with pytest.raises(NotPrime):
            fn(p, 2)
    for m in (0, -1):
        with pytest.raises(ValueError, match="degree"):
            fn(2, m)


@pytest.mark.parametrize("fn", [diag_exhaustive,
                                lambda p, m: diag_symbol_ext_feasibility(p, m, 200, 1)])
def test_diagonal_field_parameters_checked(fn):
    # Z/4 is not a field (and m = 0 has no slots): these used to report
    # 32 of 200 draws, or every draw, feasible
    for p in (1, 4, 9):
        with pytest.raises(NotPrime):
            fn(p, 2)
    for m in (0, -1):
        with pytest.raises(ValueError, match="degree"):
            fn(5, m)


@pytest.mark.parametrize("fn", [mc_feasibility, diag_symbol_ext_feasibility])
def test_zero_trials_refused(fn):
    with pytest.raises(ValueError, match="at least one trial"):
        fn(2, 2, 0, 1)


class Untouched(Exception):
    """Raised in place of a trial draw or a field build past the guard."""


class TestTrialGuard:
    """Both Monte Carlo estimators refuse with TooLarge when trials times
    the estimated cost of one passes a minute, before the field is built or
    any trial draws."""

    @pytest.fixture(autouse=True)
    def untouched(self, monkeypatch):
        def untouched(*args):
            raise Untouched
        monkeypatch.setattr(feasibility, "_trial_rng", untouched)
        monkeypatch.setattr(feasibility, "make_field", untouched)

    @pytest.mark.parametrize("fn,each,seconds", [
        (mc_feasibility, 150, 15000000), (diag_symbol_ext_feasibility, 36, 3600000)])
    def test_refuses_before_drawing(self, fn, each, seconds):
        # 10^11 trials at (2,3) printed nothing for days
        with pytest.raises(TooLarge, match=rf"^100000000000 .* at {each} us each are "
                                           rf"estimated at {seconds} s: the limit is 60 s$"):
            fn(2, 3, 10 ** 11, 0)

    @pytest.mark.parametrize("fn,p,m,most", [
        (mc_feasibility, 2, 2, 400000), (mc_feasibility, 65521, 1, 400000),
        (mc_feasibility, 2, 17, 10380), (mc_feasibility, 101, 3, 47619),
        (mc_feasibility, 2, 32, 2288), (mc_feasibility, 2, 64, 286),
        (diag_symbol_ext_feasibility, 2, 2, 2500000),
        (diag_symbol_ext_feasibility, 5, 1000, 5000)])
    def test_limit(self, fn, p, m, most):
        # interned tables up to 2^16 elements, polynomial arithmetic above
        # (m^2 terms up to m = 25, m^3 terms past it), m slots of a
        # diagonal trial
        with pytest.raises(Untouched):
            fn(p, m, most, 0)
        with pytest.raises(TooLarge, match=rf"^{most + 1} "):
            fn(p, m, most + 1, 0)

    @pytest.mark.parametrize("p,m,trials", [
        (2, 2, 10 ** 5), (2, 2, 1800), (2, 16, 500), (2, 17, 10), (2, 200, 1)])
    def test_runs_what_answered(self, p, m, trials):
        # the acceptance suite's 10^5 trials, perfbench's traced arms, and
        # the trial of GF(2^200) that make_field refuses
        with pytest.raises(Untouched):
            mc_feasibility(p, m, trials, 0)

    def test_field_parameters_first(self):
        with pytest.raises(NotPrime):
            mc_feasibility(4, 2, 10 ** 11, 0)
        with pytest.raises(NotPrime):
            diag_symbol_ext_feasibility(4, 2, 10 ** 11, 0)


class TestMonteCarlo:
    def test_deterministic(self):
        a = mc_feasibility(2, 2, 500, seed=99)
        b = mc_feasibility(2, 2, 500, seed=99)
        assert a == b
        assert a.estimate == b.estimate

    def test_seed_changes_stream(self):
        a = mc_feasibility(2, 3, 400, seed=1)
        b = mc_feasibility(2, 3, 400, seed=2)
        assert (a.feasible, a.rejected) != (b.feasible, b.rejected)

    def test_every_valid_f4_channel_is_feasible(self):
        est = mc_feasibility(2, 2, 2000, seed=5)
        assert est.estimate == 1.0
        assert 0 < est.rejected < est.trials

    def test_m1_conditional_estimate_is_one(self):
        est = mc_feasibility(3, 1, 500, seed=7)
        assert est.estimate == 1.0
        assert est.valid == est.trials - est.rejected

    def test_degenerate_model_reports_none(self):
        # over GF(2) every all-ones 2x2 hop is singular, so no draw is valid
        est = mc_feasibility(2, 1, 50, seed=1)
        assert est.rejected == est.trials
        assert est.estimate is None
        assert est.estimate_raw == 0.0

    def test_raw_estimate_tracks_exact_fraction_squared(self):
        # a draw is full-rank and feasible exactly when both ratios have full
        # degree, so the unconditional rate calibrates to the square
        trials = 3000
        est = mc_feasibility(2, 2, trials, seed=11)
        want = float(exact_fraction(2, 2) ** 2)
        sigma = (want * (1 - want) / trials) ** 0.5
        assert abs(est.estimate_raw - want) <= 4 * sigma

    def test_raw_estimates_increase_along_m(self):
        vals = [mc_feasibility(2, m, 2500, seed=21).estimate_raw
                for m in (2, 4, 8)]
        assert vals[0] < vals[1] < vals[2] < 1.0


class TestDiagonal:
    def test_deterministic(self):
        a = diag_symbol_ext_feasibility(3, 2, 400, seed=3)
        assert a == diag_symbol_ext_feasibility(3, 2, 400, seed=3)

    def test_binary_m2_is_zero(self):
        # the only nonzero value is 1, so per-slot ratios can never differ
        est = diag_symbol_ext_feasibility(2, 2, 300, seed=1)
        assert est.feasible == 0 and est.estimate == 0.0
        assert diag_exhaustive(2, 2) == 0

    def test_m1_conditional_is_one(self):
        est = diag_symbol_ext_feasibility(3, 1, 400, seed=9)
        assert est.estimate_conditional == 1.0
        assert est.estimate < 1.0       # singular slots count against the raw rate

    def test_exhaustive_m1(self):
        # per-slot second hop is invertible half the time over GF(3)
        assert diag_exhaustive(3, 1) == Fraction(1, 2)

    def test_exhaustive_matches_sampling(self):
        exact = diag_exhaustive(3, 2)
        trials = 4000
        est = diag_symbol_ext_feasibility(3, 2, trials, seed=13)
        sigma = (float(exact) * (1 - float(exact)) / trials) ** 0.5
        assert abs(est.estimate - float(exact)) <= 4 * sigma

    def test_large_p_approaches_one(self):
        est = diag_symbol_ext_feasibility(101, 2, 3000, seed=17)
        assert est.estimate > 0.9

    def test_separation_from_field_extension(self):
        assert diag_exhaustive(2, 2) == 0 < exact_fraction(2, 2)

    @pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3),
                                     (5, 1), (5, 2), (7, 1)])
    def test_closed_form_matches_enumeration(self, p, m):
        assert diag_exhaustive(p, m) == diag_exhaustive_by_enumeration(p, m)

    def test_closed_form_beyond_enumeration(self):
        # (7, 2) has 6^8 slot tuples per hop and (11, 3) has 10^12
        assert diag_exhaustive(7, 2) == Fraction(25, 54)
        assert diag_exhaustive(11, 3) == Fraction(10 * 9 * 8, 10 ** 3) \
            * Fraction(9 * 8 * 7, 10 ** 3)
        assert diag_exhaustive(5, 4) == diag_exhaustive(5, 5) == 0


class TestStatsRows:
    def test_row_without_sampling(self):
        row = feasibility_stats(2, 4)
        d = row.to_dict()
        assert d["exact_fraction"] == "4/5"
        assert d["lower_bound"] == "5/8"
        assert d["mc"] is None

    def test_row_with_sampling(self):
        row = feasibility_stats(2, 2, trials=200, seed=3)
        assert row.mc.trials == 200
        cells = stats_csv_row(row)
        assert len(cells) == len(CSV_COLUMNS)
        assert cells[0] == 2 and cells[2] == "2/3"

    def test_seed_required(self):
        with pytest.raises(ValueError):
            feasibility_stats(2, 2, trials=10)
