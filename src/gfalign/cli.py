"""Command-line front end.

Subcommands: field-info, bounds, mc, compare-ext, simulate, scan,
symbol-ext.  All stochastic commands require an explicit --seed so output is
byte-identical across runs.  Exit codes: 0 success, 1 when a simulation
command does not deliver its message, 2 input errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import random
import sys
from json.encoder import encode_basestring_ascii

from . import feasibility as feas
from . import mimo, scheme
from .errors import DegenerateSpectrum, GFAlignError, SingularChannel, TooLarge
from .gf import (_coeffs_to_code, _randbelow, check_field_params, int_digit_limit,
                 make_field, parse_int, prime_field, primitive_element)
from .linalg import companion_matrix
from .polys import Poly, check_factor_work, format_poly, parse_poly


def _parse_int_list(text: str) -> list[int]:
    """Comma-separated integers, none empty; commas and blanks alone are none."""
    entries = text.split(",") if text.replace(",", "").strip() else []
    return [parse_int(v, f"list {text!r}") for v in entries]


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload) -> None:
    _emit(args, _json_text(payload) + "\n")


def _json_text(value, pad: str = "\n") -> str:
    """json.dumps(value, indent=2) in one pass, nested below the line break
    and indent pad, for dicts with str keys (TypeError for any other key,
    which no reply has).  With an indent, json.dumps runs the pure-Python
    encoder on Python 3.11; here a list of ints is one str.join, keys go to
    the C escaper json uses, and other scalars to json.dumps without an
    indent, which is the C encoder."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        if set(map(type, value)) == {int}:
            items = map(int.__repr__, value)
        else:
            items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(k) + ": " + _json_text(v, inner)
            for k, v in value.items()]) + pad + "}"
    if type(value) is int:
        return int.__repr__(value)
    return json.dumps(value)


def _modulus(args) -> Poly | None:
    """The --pi polynomial, or None; a power above --m is refused at once."""
    if not args.pi:
        return None
    check_field_params(args.p, args.m)
    return parse_poly(args.p, args.pi, args.m)


def cmd_field_info(args) -> int:
    spec = make_field(args.p, args.m, _modulus(args))
    gen = primitive_element(spec)
    payload = {
        "p": spec.p,
        "m": spec.m,
        "order": spec.order,
        "pi": list(spec.modulus_coeffs),
        "pi_text": format_poly(Poly(prime_field(spec), spec.modulus_coeffs)),
        "generator": list(gen.coeffs),
        "generator_order": spec.order - 1,
        "companion": companion_matrix(spec).to_code_rows(),
    }
    _emit_json(args, payload)
    return 0


def _sweep_pairs(args) -> list[tuple[int, int]]:
    ps = _parse_int_list(args.p)
    ms = _parse_int_list(args.m)
    if not ps or not ms:
        raise ValueError("--p and --m each need at least one value")
    return [(p, m) for p in ps for m in ms]


def _emit_stats(args, rows: list[feas.FeasibilityStats]) -> None:
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(feas.CSV_COLUMNS)
        for row in rows:
            writer.writerow(feas.stats_csv_row(row))
        _emit(args, buf.getvalue())
    else:
        _emit_json(args, [row.to_dict() for row in rows])


def cmd_bounds(args) -> int:
    rows = [feas.feasibility_stats(p, m) for p, m in _sweep_pairs(args)]
    _emit_stats(args, rows)
    return 0


def cmd_mc(args) -> int:
    rows = [feas.feasibility_stats(p, m, args.trials, args.seed)
            for p, m in _sweep_pairs(args)]
    _emit_stats(args, rows)
    return 0


def cmd_compare_ext(args) -> int:
    # both estimates refuse before the first trial of either
    feas.check_mc_work(args.p, args.m, args.trials)
    feas.check_diag_work(args.p, args.m, args.trials)
    field = feas.mc_feasibility(args.p, args.m, args.trials, args.seed)
    diag = feas.diag_symbol_ext_feasibility(args.p, args.m, args.trials, args.seed)
    _emit_json(args, {"field_extension": field.to_dict(),
                      "symbol_extension": diag.to_dict()})
    return 0


def _load_json(path: str) -> dict:
    limit = int_digit_limit(4300)   # a fixed cap where int() has none: parsing is quadratic

    def parse_int(text: str) -> int:    # int() raises past the limit, naming no file
        if limit and len(text.lstrip("-")) > limit:
            raise ValueError(f"channel file {path} has an integer of more than {limit} digits")
        return int(text)

    with open(path) as fh:
        try:
            return json.load(fh, parse_int=parse_int)
        except json.JSONDecodeError as exc:
            raise ValueError(f"channel file {path} is not JSON: {exc}") from None
        except RecursionError:      # valid JSON nested past the decoder's stack
            raise ValueError(f"channel file {path} is nested too deeply to read") from None


def _explicit_message(args, m: int) -> bool:
    """True when --w1/--w2 give the message, False when --seed draws it."""
    if args.w1 is None and args.w2 is None:
        if args.seed is None:
            raise ValueError("a random message needs --seed")
        return False
    if args.w1 is None or (m > 1 and args.w2 is None):
        raise ValueError("give both --w1 and --w2, or neither")
    return True


def cmd_simulate(args) -> int:
    ch = scheme.channel_from_dict(_load_json(args.channel))
    spec = ch.spec
    if _explicit_message(args, spec.m):
        msg = scheme.MessagePair.create(spec, _parse_int_list(args.w1),
                                        _parse_int_list(args.w2 or ""))
    else:
        msg = scheme.random_message(spec, random.Random(args.seed))
    report = scheme.simulate(ch, msg)
    _emit_json(args, report.to_dict())
    return 0 if report.success else 1


def cmd_scan(args) -> int:
    report = scheme.exhaustive_scan(args.p, args.m, _modulus(args))
    _emit_json(args, report.to_dict())
    return 0


def _symbol_codes(p: int, L: int, text: str) -> list[int]:
    """';'-separated coefficient lists as base-p codes of L digits; ValueError
    for an empty symbol, a coefficient outside [0, p) or a nonzero one past L."""
    parts = [_parse_int_list(part) for part in text.split(";")]
    if not all(parts):
        raise ValueError(f"message {text!r} has an empty symbol; write zero as 0")
    if any(not 0 <= c < p for part in parts for c in part):
        raise ValueError(f"message coefficients must lie in [0, {p})")
    if any(any(part[L:]) for part in parts):
        raise ValueError("coefficient vector longer than the degree")
    return [_coeffs_to_code(part, p) for part in parts]


def cmd_symbol_ext(args) -> int:
    rng = random.Random(args.seed) if args.seed is not None else None
    if args.channel:
        ch = mimo.mimo_channel_from_dict(_load_json(args.channel))
    else:
        if args.p is None or args.m is None or rng is None:
            raise ValueError("give --channel, or --p/--m/--seed for a random channel")
        # a drawn channel passes planning's block and compound checks, so the
        # factoring guard at degree m is the first that planning meets
        check_field_params(args.p, args.m)
        check_factor_work(args.p, args.m)
        ch = mimo.random_mimo_channel(args.p, args.m, rng)
    try:
        plan = mimo.plan_extension(ch)
    except (SingularChannel, DegenerateSpectrum) as exc:     # outside the model
        _emit_json(args, {"channel": mimo.mimo_channel_to_dict(ch),
                          "error": str(exc), "success": False})
        return 1
    p, m, L = ch.ground.p, ch.m, plan.degree
    if (6 * m - 2) * L > mimo.REPORT_DIGIT_LIMIT:
        raise TooLarge(f"the reply would print {(6 * m - 2) * L} digits, 6m - 2 symbols of "
                       f"L = {L}: the limit is {mimo.REPORT_DIGIT_LIMIT}")
    pipeline = mimo.MimoCodePipeline(mimo.build_mimo_precoders(plan))
    if _explicit_message(args, m):
        w1 = _symbol_codes(p, L, args.w1)
        w2 = _symbol_codes(p, L, args.w2) if args.w2 else []
    else:
        # ext.random_element's stream: one _randbelow(rng, p^L) per symbol
        w1, w2 = ([_randbelow(rng, p ** L) for _ in range(k)] for k in (m, m - 1))
    report = mimo.simulate_symbol_codes(ch, w1, w2, pipeline)
    _emit_json(args, report.to_dict())
    return 0 if report.success else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change
    it, and building it (about 1.7 ms on Python 3.11) costs as much as a
    cheap symbol-ext call."""
    parser = argparse.ArgumentParser(
        prog="gfalign",
        description="Exact finite-field tools and simulators for aligned "
                    "diagonalization of two-hop 2x2x2 interference channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, fmt=False):
        sp.add_argument("--out", help="write output to this file instead of stdout")
        if fmt:
            sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("field-info", help="modulus, generator and companion matrix")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--pi", help="modulus, e.g. 'x^2+x+1' or '[1,1,1]'")
    add_common(sp)
    sp.set_defaults(func=cmd_field_info)

    sp = sub.add_parser("bounds", help="exact feasibility fraction, lower bound "
                                       "and normalized rates")
    sp.add_argument("--p", required=True, help="prime or comma list")
    sp.add_argument("--m", required=True, help="degree or comma list")
    add_common(sp, fmt=True)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("mc", help="Monte Carlo feasibility sweep")
    sp.add_argument("--p", required=True, help="prime or comma list")
    sp.add_argument("--m", required=True, help="degree or comma list")
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    add_common(sp, fmt=True)
    sp.set_defaults(func=cmd_mc)

    sp = sub.add_parser("compare-ext", help="field-extension vs diagonal "
                                            "symbol-extension feasibility")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    add_common(sp)
    sp.set_defaults(func=cmd_compare_ext)

    sp = sub.add_parser("simulate", help="run one channel file end to end")
    sp.add_argument("--channel", required=True, help="channel JSON path")
    sp.add_argument("--w1", help="source-1 message, comma-separated symbols")
    sp.add_argument("--w2", help="source-2 message, comma-separated symbols")
    sp.add_argument("--seed", type=int, help="seed for a random message")
    add_common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("scan", help="exhaustive small-field verification")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--pi", help="modulus override")
    add_common(sp)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("symbol-ext", help="slotted pipeline over a matrix channel")
    sp.add_argument("--channel", help="matrix-channel JSON path")
    sp.add_argument("--p", type=int, help="prime, for a random channel")
    sp.add_argument("--m", type=int, help="inputs/outputs per node")
    sp.add_argument("--seed", type=int, help="seed for channel/message draws")
    sp.add_argument("--w1", help="message symbols as coefficient lists, "
                                 "';'-separated, e.g. '1,0;0,1'")
    sp.add_argument("--w2", help="second message, same notation")
    add_common(sp)
    sp.set_defaults(func=cmd_symbol_ext)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = getattr(args, "out", None)
        if out:
            # fail before any long-running work, not after it
            parent = os.path.dirname(os.path.abspath(out))
            if not os.path.isdir(parent):
                raise ValueError(f"output directory does not exist: {parent}")
            if os.path.isdir(out):
                raise ValueError(f"output path is a directory: {out}")
        channel = getattr(args, "channel", None)
        if channel and not os.path.isfile(channel):
            raise ValueError(f"channel file does not exist: {channel}")
        return args.func(args)
    except (GFAlignError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
