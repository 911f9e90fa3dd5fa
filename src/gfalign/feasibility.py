"""Feasibility statistics for random two-hop channels.

Exact machinery: the fraction of nonzero elements whose minimal polynomial
has full degree (feasible cross ratios are uniform on the nonzero elements),
an analytic lower bound on that fraction, normalized sum-rates, and the
diagonal model's joint feasibility in closed form.

Monte Carlo machinery: estimators for the joint two-hop feasibility event
under the scalar extension-field model and under the diagonal (time-varying
symbol-extension) model, with deterministic per-trial substreams so results
are reproducible and order-independent, refused past a minute's estimate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import TooLarge
from .gf import (_INTERN_LIMIT, _randbelow, _shown, check_field_params, int_digit_limit,
                 make_field)
from .polys import count_irreducible, divisors
from .scheme import check_feasible, draw_channel

_WORK_LIMIT_S = 60   # estimated trial time of one Monte Carlo call
# ns per trial: an mc trial on interned tables 150 us (perfbench baseline:
# 31-41 us at (2,2), 110-150 us at (2,16)); above 2^16 elements
# ceil(log2 p) times the larger of 20 us per m^2 and 0.8 us per m^3, 5.8 ms at
# (2,17) (perfbench: 5.7-7.9 ms; one run: 21-24 ms at (2,32), 131-185 ms at
# (2,64), 0.78 ms at (101,3); another: 6.8 ms at (2,17), 37 ms at (2,32),
# 183 ms at (2,64), 73 ms at (3,40), 80 ms at (5,30)); a diagonal trial
# 12 us per slot (one run: 24 us at (2,2), 5.4 ms at (2,1000))
_TABLE_TRIAL_NS, _DIAG_SLOT_NS = 150_000, 12_000
_POLY_SQUARE_NS, _POLY_CUBE_NS = 20_000, 800


def _check_work(what: str, trials: int, each_ns: int) -> None:
    """TooLarge when the trials' estimated time, in integers, passes the limit."""
    seconds = -(-trials * each_ns // 10 ** 9)     # rounded up
    if seconds > _WORK_LIMIT_S:
        raise TooLarge(f"{_shown(trials)} {what} at {_shown(each_ns // 1000)} us each are "
                       f"estimated at {_shown(seconds)} s: the limit is {_WORK_LIMIT_S} s")


def check_mc_work(p: int, m: int, trials: int) -> None:
    """mc_feasibility's checks of its arguments and its trial-time estimate."""
    if trials < 1:
        raise ValueError("need at least one trial")
    check_field_params(p, m)
    tables = m <= 16 and p ** m <= _INTERN_LIMIT
    _check_work(f"trials over GF({p}^{m})", trials, _TABLE_TRIAL_NS if tables else
                max(_POLY_SQUARE_NS, _POLY_CUBE_NS * m) * m * m * (p - 1).bit_length())


def check_diag_work(p: int, m: int, trials: int) -> None:
    """diag_symbol_ext_feasibility's checks of its arguments and its
    trial-time estimate."""
    check_field_params(p, m)
    if trials < 1:
        raise ValueError("need at least one trial")
    _check_work(f"symbol-extension trials of {m} slots", trials, _DIAG_SLOT_NS * m)


def exact_fraction(p: int, m: int) -> Fraction:
    """Probability that a uniform nonzero element of F_{p^m} has a minimal
    polynomial of degree exactly m: m * N(p, m) / (p^m - 1), where N counts
    the monic irreducible polynomials of degree m.

    For m = 1 the fraction is 1 (every nonzero element of F_p has a degree-1
    minimal polynomial; the counting formula would also charge the zero
    element to the polynomial x).
    """
    check_field_params(p, m)
    if m == 1:
        return Fraction(1)
    return Fraction(m * count_irreducible(p, m), p ** m - 1)


def lower_bound(p: int, m: int) -> Fraction:
    """Analytic lower bound 1 - sum over d | m, d > 1 of p^(m/d - m).

    Exact as a rational; can be negative for tiny p^m and is returned as-is.
    """
    check_field_params(p, m)
    total = Fraction(0)
    for d in divisors(m):
        if d > 1:
            total += Fraction(p ** (m // d), p ** m)
    return 1 - total


@dataclass(frozen=True)
class NormalizedRates:
    """Achieved sum-rate normalized by the interference-free capacity."""

    d_finite: Fraction       # (2m - 1) / m at finite (p, m)
    limit_large_m: Fraction  # value as m grows without bound
    limit_large_p: Fraction  # value as p grows without bound


def normalized_rates(p: int, m: int) -> NormalizedRates:
    check_field_params(p, m)
    return NormalizedRates(Fraction(2 * m - 1, m), Fraction(2), Fraction(2 * m - 1, m))


def _trial_rng(seed: int, index: int) -> random.Random:
    # String seeding hashes with sha512, so substreams are reproducible
    # across platforms and independent of trial execution order.
    return random.Random(f"{seed}:{index}")


@dataclass(frozen=True)
class McFeasibility:
    """Monte Carlo estimate of the joint feasibility probability.

    Each trial draws the eight coefficients uniformly from the nonzero
    elements.  Draws with a singular hop matrix fall outside the channel
    model and are counted as rejected; the primary estimate conditions on
    the model (feasible / valid), while estimate_raw keeps rejected draws in
    the denominator (feasible / trials), which is the view calibrated by
    exact_fraction squared.
    """

    p: int
    m: int
    trials: int
    seed: int
    feasible: int
    rejected: int

    @property
    def valid(self) -> int:
        return self.trials - self.rejected

    @property
    def estimate(self) -> float | None:
        if self.valid == 0:
            return None
        return self.feasible / self.valid

    @property
    def estimate_raw(self) -> float:
        return self.feasible / self.trials

    def to_dict(self) -> dict:
        return {
            "p": self.p, "m": self.m, "trials": self.trials, "seed": self.seed,
            "feasible": self.feasible, "rejected": self.rejected,
            "valid": self.valid, "estimate": self.estimate,
            "estimate_raw": self.estimate_raw,
        }


def mc_feasibility(p: int, m: int, trials: int, seed: int) -> McFeasibility:
    """Estimate the probability that a random channel satisfies the
    full-degree condition on both cross ratios.  Deterministic for a given
    (seed, trials); trials use independent substreams and may be evaluated
    in any order.  TooLarge, before the field is built, by check_mc_work."""
    check_mc_work(p, m, trials)
    spec = make_field(p, m)
    feasible = rejected = 0
    for i in range(trials):
        verdict = check_feasible(draw_channel(spec, _trial_rng(seed, i)))
        if not verdict.model_ok:
            rejected += 1
        elif verdict.feasible:
            feasible += 1
    return McFeasibility(p, m, trials, seed, feasible, rejected)


@dataclass(frozen=True)
class DiagFeasibility:
    """Monte Carlo estimate for the diagonal (symbol-extension) model.

    Eight diagonal m x m matrices with i.i.d. uniform nonzero diagonals
    stand for m uses of a time-varying scalar channel.  A draw is feasible when
    both cross-ratio products exist (every per-slot second-hop matrix is
    invertible) and have all-distinct diagonal entries.  The primary
    estimate is feasible / trials; estimate_conditional conditions on the
    product existing.
    """

    p: int
    m: int
    trials: int
    seed: int
    feasible: int
    product_defined: int     # draws whose second-hop product exists

    @property
    def estimate(self) -> float:
        return self.feasible / self.trials

    @property
    def estimate_conditional(self) -> float | None:
        if self.product_defined == 0:
            return None
        return self.feasible / self.product_defined

    def to_dict(self) -> dict:
        return {
            "p": self.p, "m": self.m, "trials": self.trials, "seed": self.seed,
            "feasible": self.feasible, "product_defined": self.product_defined,
            "estimate": self.estimate,
            "estimate_conditional": self.estimate_conditional,
        }


def _diag_hop(p: int, slots) -> tuple[int, bool]:
    """(distinct ratios, invertible) for one hop of nonzero diagonal slots
    (q11, q12, q21, q22): the number of distinct per-slot cross ratios
    q12 q21 / (q11 q22), and whether every slot is invertible, i.e. no
    ratio is 1.  The inverted second hop has its own hop's ratios: in
    s11 = q44/det, s12 = -q34/det, s21 = -q43/det, s22 = q33/det the
    determinants cancel."""
    ratios = {q12 * q21 * pow(q11 * q22, p - 2, p) % p
              for q11, q12, q21, q22 in slots}
    return len(ratios), 1 not in ratios


def diag_symbol_ext_feasibility(p: int, m: int, trials: int,
                                seed: int) -> DiagFeasibility:
    """Diagonal-model estimate; TooLarge before any draw, by check_diag_work."""
    check_diag_work(p, m, trials)
    feasible = defined = 0
    for i in range(trials):
        rng = _trial_rng(seed, i)
        slots1 = [tuple(1 + _randbelow(rng, p - 1) for _ in range(4)) for _ in range(m)]
        slots2 = [tuple(1 + _randbelow(rng, p - 1) for _ in range(4)) for _ in range(m)]
        distinct1, _ = _diag_hop(p, slots1)
        distinct2, invertible = _diag_hop(p, slots2)
        feasible += invertible and distinct1 == distinct2 == m
        defined += invertible
    return DiagFeasibility(p, m, trials, seed, feasible, defined)


def diag_exhaustive(p: int, m: int) -> Fraction:
    """Exact diagonal-model feasibility, in closed form.

    Each slot's cross ratio q12 q21 / (q11 q22) is uniform on F_p^*: every
    value is hit by (p-1)^3 slot 4-tuples, and the slots are independent.
    Hop 1 is feasible when its m ratios are distinct, with probability
    perm(p-1, m) / (p-1)^m; the inverted hop 2 also needs every slot
    invertible, i.e. no ratio equal to 1, so perm(p-2, m) / (p-1)^m.  The
    hops are independent, so the joint fraction is the product."""
    check_field_params(p, m)
    slots = (p - 1) ** m
    return Fraction(math.perm(p - 1, m), slots) * Fraction(math.perm(p - 2, m), slots)


@dataclass(frozen=True)
class FeasibilityStats:
    """One row of a feasibility sweep."""

    p: int
    m: int
    exact: Fraction
    bound: Fraction
    d_finite: Fraction
    mc: McFeasibility | None

    def to_dict(self) -> dict:
        return {
            "p": self.p, "m": self.m,
            "exact_fraction": str(self.exact),
            "exact_fraction_dec": float(self.exact),
            "lower_bound": str(self.bound),
            "lower_bound_dec": float(self.bound),
            "mc": None if self.mc is None else self.mc.to_dict(),
            "d_finite": str(self.d_finite),
            "d_finite_dec": float(self.d_finite),
        }


def feasibility_stats(p: int, m: int, trials: int | None = None,
                      seed: int | None = None) -> FeasibilityStats:
    """One sweep row; TooLarge first when p^m, its largest number, has
    floor(m log10 p) + 1 digits, more than Python prints (0: no limit)."""
    check_field_params(p, m)
    limit, digits = int_digit_limit(0), m * math.log10(p)
    if limit and digits > limit - 1e-6 and (digits > limit + 1e-6 or p ** m > 10 ** limit):
        raise TooLarge(f"{p}^{m} has {max(math.floor(digits), limit) + 1} decimal "
                       f"digits, more than the {limit} this interpreter prints")
    mc = None
    if trials is not None:
        if seed is None:
            raise ValueError("a seed is required when sampling")
        mc = mc_feasibility(p, m, trials, seed)
    return FeasibilityStats(p, m, exact_fraction(p, m), lower_bound(p, m),
                            normalized_rates(p, m).d_finite, mc)


CSV_COLUMNS = ["p", "m", "exact_fraction", "exact_fraction_dec",
               "lower_bound", "lower_bound_dec", "mc_estimate",
               "mc_estimate_raw", "trials", "rejected", "d_finite",
               "d_finite_dec"]


def stats_csv_row(row: FeasibilityStats) -> list:
    mc = row.mc
    return [row.p, row.m,
            str(row.exact), f"{float(row.exact):.6f}",
            str(row.bound), f"{float(row.bound):.6f}",
            "" if mc is None or mc.estimate is None else f"{mc.estimate:.6f}",
            "" if mc is None else f"{mc.estimate_raw:.6f}",
            "" if mc is None else mc.trials,
            "" if mc is None else mc.rejected,
            str(row.d_finite), f"{float(row.d_finite):.6f}"]
