import json
import math
import random
import sys
import time
from fractions import Fraction

import pytest

from gfalign import (MimoCodePipeline, MimoPipeline, build_mimo_precoders,
                     companion_matrix, exact_fraction, lower_bound, make_field, mimo,
                     mimo_channel_from_dict, mimo_channel_to_dict, plan_extension,
                     random_mimo_channel, scheme, simulate_symbol_ext)
from gfalign.cli import _json_text, main
from gfalign.gf import _coeffs_to_code
from gfalign.mimo import random_message
from oracles import lane_destination_half, lane_relay_half
from test_golden import refuse_extension_fields
from test_pipeline import bump_v2


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code in (0, 1), err
    return code, json.loads(out)


class TestFieldInfo:
    def test_f4(self, capsys):
        code, payload = run_json(capsys, "field-info", "--p", "2", "--m", "2")
        assert code == 0
        assert payload["pi"] == [1, 1, 1]
        assert payload["pi_text"] == "1 + x + x^2"
        assert payload["companion"] == [[0, 1], [1, 1]]
        assert payload["generator"] == [0, 1]
        assert payload["generator_order"] == 3

    def test_ground_field(self, capsys):
        code, payload = run_json(capsys, "field-info", "--p", "2", "--m", "1")
        assert code == 0
        assert payload["companion"] == [[0]]
        assert payload["generator"] == [1]

    def test_explicit_modulus(self, capsys):
        code, payload = run_json(capsys, "field-info", "--p", "2", "--m", "3",
                                 "--pi", "x^3+x+1")
        assert code == 0
        assert payload["pi"] == [1, 1, 0, 1]

    def test_not_prime_exits_2(self, capsys):
        code, out, err = run(capsys, "field-info", "--p", "4", "--m", "2")
        assert code == 2
        assert "prime" in err

    def test_large_binary_field_answers(self, capsys):
        code, payload = run_json(capsys, "field-info", "--p", "2", "--m", "24")
        assert code == 0
        assert payload["order"] == 2 ** 24

    @pytest.mark.parametrize("p,m,pi", [
        (3, 12, [2, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 1]),
        (5, 8, [2, 0, 0, 0, 0, 0, 2, 1, 1]),
        (7, 6, [3, 0, 0, 0, 1, 1, 1])])
    def test_default_modulus_pinned(self, capsys, p, m, pi):
        code, payload = run_json(capsys, "field-info", "--p", str(p),
                                 "--m", str(m))
        assert code == 0
        assert payload["pi"] == pi

    def test_bad_modulus_exits_2(self, capsys):
        code, _, err = run(capsys, "field-info", "--p", "2", "--m", "2",
                           "--pi", "x^2+1")
        assert code == 2
        assert "primitive" in err

    @pytest.mark.parametrize("command", ["field-info", "scan"])
    @pytest.mark.parametrize("pi,degree", [
        ("x+1", 1), ("[1,1,0]", 1), ("2x^2+x+1", 1), ("x^3+x+1", 3)])
    def test_modulus_of_wrong_degree_exits_2(self, capsys, command, pi, degree):
        # these used to be read as the low coefficients of 1 + x + x^2
        code, out, err = run(capsys, command, "--p", "2", "--m", "2", "--pi", pi)
        assert code == 2 and out == ""
        assert err == f"error: modulus must have degree 2, not {degree}\n"

    @pytest.mark.parametrize("command", ["field-info", "scan"])
    def test_huge_power_in_modulus_exits_2_at_once(self, capsys, command):
        # the coefficient list of x^4000000 + 1 took 1.5 s and 109 MB to
        # build before the degree was checked; this one would need 25 GB
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--p", "2", "--m", "2",
                             "--pi", "x^1000000000+1")
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == "error: modulus must have degree 2, not 1000000000\n"

    @pytest.mark.parametrize("m", ["1", "2"])
    def test_safe_prime_answers_at_once(self, capsys, m):
        # p - 1 = 2 q with q prime: trial division ran up to sqrt(q) when
        # looking for a generator of F_p
        p = 1000000000000007243
        start = time.perf_counter()
        code, payload = run_json(capsys, "field-info", "--p", str(p), "--m", m)
        assert time.perf_counter() - start < 1
        assert code == 0 and payload["generator_order"] == p ** int(m) - 1

    def test_cancelled_power_leaves_the_degree(self, capsys):
        # x^5 + x^5 vanishes over F_2, so the modulus is x^2 + x + 1
        code, payload = run_json(capsys, "field-info", "--p", "2", "--m", "2",
                                 "--pi", "x^5+x^5+x^2+x+1")
        assert code == 0 and payload["pi"] == [1, 1, 1]


    @pytest.mark.parametrize("command", ["field-info", "scan"])
    @pytest.mark.parametrize("pi", ["[3,1,1]", "[1,1,3]", "[1,-1,1]"])
    def test_list_modulus_outside_field_exits_2(self, capsys, command, pi):
        # [3,1,1] used to be read as 1 + x + x^2
        code, out, err = run(capsys, command, "--p", "2", "--m", "2", "--pi", pi)
        assert code == 2 and out == ""
        assert err == "error: list coefficients must lie in [0, 2)\n"

    def test_malformed_exponent_exits_2(self, capsys):
        code, out, err = run(capsys, "field-info", "--p", "2", "--m", "2",
                             "--pi", "x^^2+x+1")
        assert code == 2 and out == ""
        assert err == "error: cannot parse term 'x^^2'\n"

    @pytest.mark.parametrize("pi,term", [("2**x^2+1", "2**x^2"),
                                         ("*x^2+1", "*x^2")])
    def test_malformed_coefficient_exits_2(self, capsys, pi, term):
        code, out, err = run(capsys, "field-info", "--p", "3", "--m", "2",
                             "--pi", pi)
        assert code == 2 and out == ""
        assert err == f"error: cannot parse term {term!r}\n"

    def test_empty_term_exits_2(self, capsys):
        code, out, err = run(capsys, "field-info", "--p", "3", "--m", "2",
                             "--pi", "x^2++2x+2")
        assert code == 2 and out == ""
        assert err == "error: empty term in polynomial text 'x^2++2x+2'\n"

    def test_empty_list_entry_exits_2(self, capsys):
        code, out, err = run(capsys, "field-info", "--p", "2", "--m", "2",
                             "--pi", "[1,,1]")
        assert code == 2 and out == ""
        assert err == ("error: coefficient list '[1,,1]' has an entry that is "
                       "not an integer: ''\n")

    def test_text_modulus_reads_signed_coefficients(self, capsys):
        code, payload = run_json(capsys, "field-info", "--p", "2", "--m", "2",
                                 "--pi", "x^2 - x - 1")
        assert code == 0 and payload["pi"] == [1, 1, 1]


class TestBoundsAndMc:
    def test_bounds_json(self, capsys):
        code, payload = run_json(capsys, "bounds", "--p", "2", "--m", "4")
        assert code == 0
        assert payload[0]["exact_fraction"] == "4/5"
        assert payload[0]["lower_bound"] == "5/8"

    def test_bounds_sweep_csv(self, capsys):
        code, out, _ = run(capsys, "bounds", "--p", "2,3", "--m", "2,4",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("p,m,exact_fraction")
        assert len(lines) == 5

    @pytest.mark.parametrize("p,m,needle", [("1", "2", "prime"),
                                            ("4", "2", "prime"),
                                            ("2", "0", "degree"),
                                            ("2", "-1", "degree"),
                                            (",", "2", "at least one"),
                                            ("2", "", "at least one")])
    def test_bounds_bad_field_exits_2(self, capsys, p, m, needle):
        code, out, err = run(capsys, "bounds", "--p", p, "--m", m)
        assert code == 2 and out == ""
        assert needle in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["bounds", "mc"])
    @pytest.mark.parametrize("m,digits", [(14500, 4365), (10 ** 6, 301030)])
    def test_unprintable_fraction_exits_2_at_once(self, capsys, monkeypatch,
                                                  command, m, digits):
        # 2^14500 has more decimal digits than Python converts to text by
        # default; the row used to fail in that conversion, after every
        # other step (49.6 s at m = 10^6)
        monkeypatch.setattr("sys.get_int_max_str_digits", lambda: 4300,
                            raising=False)
        extra = ("--trials", "10", "--seed", "1") if command == "mc" else ()
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--p", "2", "--m", str(m), *extra)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == (f"error: 2^{m} has {digits} decimal digits, more than "
                       f"the 4300 this interpreter prints\n")

    def test_printable_fraction_below_the_limit(self, capsys, monkeypatch):
        # 2^14000 has 4215 digits; a limit of 0 means none
        for limit in (4300, 0):
            monkeypatch.setattr("sys.get_int_max_str_digits", lambda: limit,
                                raising=False)
            code, payload = run_json(capsys, "bounds", "--p", "2", "--m", "14000")
            assert code == 0
            assert Fraction(payload[0]["exact_fraction"]) == exact_fraction(2, 14000)
            assert Fraction(payload[0]["lower_bound"]) == lower_bound(2, 14000)

    def test_non_integer_list_entry_exits_2(self, capsys):
        code, out, err = run(capsys, "bounds", "--p", "2,x", "--m", "2")
        assert code == 2 and out == ""
        assert err == "error: list '2,x' has an entry that is not an integer: 'x'\n"

    @pytest.mark.parametrize("p,m", [(",", "2"), ("2", "")])
    def test_mc_empty_sweep_exits_2(self, capsys, p, m):
        code, out, err = run(capsys, "mc", "--p", p, "--m", m, "--trials",
                             "10", "--seed", "1", "--format", "csv")
        assert code == 2 and out == ""
        assert "at least one" in err

    def test_mc_deterministic(self, capsys):
        args = ("mc", "--p", "2", "--m", "2", "--trials", "300",
                "--seed", "7", "--format", "csv")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        assert "1.000000" in out1     # every valid channel over GF(4) is feasible

    def test_mc_zero_trials_exits_2(self, capsys):
        code, out, err = run(capsys, "mc", "--p", "2", "--m", "2",
                             "--trials", "0", "--seed", "1")
        assert code == 2 and out == ""
        assert err == "error: need at least one trial\n"

    def test_mc_requires_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mc", "--p", "2", "--m", "2", "--trials", "10"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["mc", "compare-ext"])
    def test_trial_guard_exits_2_at_once(self, capsys, command):
        # 10^11 trials printed nothing for as long as they ran
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--p", "2", "--m", "3",
                             "--trials", str(10 ** 11), "--seed", "0")
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == ("error: 100000000000 trials over GF(2^3) at 150 us each are "
                       "estimated at 15000000 s: the limit is 60 s\n")

    def test_compare_ext(self, capsys):
        code, payload = run_json(capsys, "compare-ext", "--p", "2", "--m", "2",
                                 "--trials", "200", "--seed", "5")
        assert code == 0
        assert payload["symbol_extension"]["estimate"] == 0.0
        assert payload["field_extension"]["estimate"] == 1.0


class TestSimulate:
    def feasible_channel(self, tmp_path):
        path = tmp_path / "ch.json"
        path.write_text(json.dumps({
            "p": 2, "m": 2, "pi": [1, 1, 1],
            "hop1": {"q11": [1, 0], "q12": [1, 0], "q21": [1, 0], "q22": [0, 1]},
            "hop2": {"q33": [1, 0], "q34": [0, 1], "q43": [1, 0], "q44": [1, 0]},
        }))
        return str(path)

    def infeasible_channel(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "p": 2, "m": 2, "pi": [1, 1, 1],
            "hop1": {"q11": [1, 0], "q12": [1, 0], "q21": [1, 0], "q22": [1, 0]},
            "hop2": {"q33": [1, 0], "q34": [0, 1], "q43": [1, 0], "q44": [1, 0]},
        }))
        return str(path)

    def test_explicit_message(self, capsys, tmp_path):
        code, payload = run_json(capsys, "simulate", "--channel",
                                 self.feasible_channel(tmp_path),
                                 "--w1", "1,0", "--w2", "1")
        assert code == 0
        assert payload["success"] is True
        assert payload["sum_rate_bits"] == 3.0
        assert payload["message"] == {"w1": [1, 0], "w2": [1]}

    def test_random_message(self, capsys, tmp_path):
        code, payload = run_json(capsys, "simulate", "--channel",
                                 self.feasible_channel(tmp_path), "--seed", "3")
        assert code == 0 and payload["success"] is True

    def test_blank_w2_at_m1(self, capsys, tmp_path):
        # m = 1 sends no w2 symbol: blank text is the empty list, not an
        # empty entry
        path = tmp_path / "gf5.json"
        path.write_text(json.dumps({
            "p": 5, "m": 1,
            "hop1": {"q11": 1, "q12": 1, "q21": 1, "q22": 2},
            "hop2": {"q33": 1, "q34": 1, "q43": 1, "q44": 2}}))
        code, payload = run_json(capsys, "simulate", "--channel", str(path),
                                 "--w1", "3", "--w2", "")
        assert code == 0 and payload["success"] is True
        assert payload["message"] == {"w1": [3], "w2": []}

    def test_defective_core_exits_1(self, capsys, tmp_path, monkeypatch):
        # a precoder that breaks the alignment: the message leaves a nonzero
        # residual, reported as a failed decode, not as an error
        build = scheme.build_precoders
        monkeypatch.setattr(scheme, "build_precoders",
                            lambda ch: bump_v2(build(ch)))
        code, out, err = run(capsys, "simulate", "--channel",
                             self.feasible_channel(tmp_path),
                             "--w1", "1,0", "--w2", "1")
        assert code == 1 and err == ""
        payload = json.loads(out)
        assert payload["feasible"] is True and payload["success"] is False
        assert payload["decoded"] is None and payload["sum_rate_bits"] is None

    def test_infeasible_exit_code(self, capsys, tmp_path):
        code, payload = run_json(capsys, "simulate", "--channel",
                                 self.infeasible_channel(tmp_path),
                                 "--w1", "1,0", "--w2", "1")
        assert code == 1
        assert payload["feasible"] is False
        assert payload["reasons"]

    def test_missing_seed_and_message(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--channel",
                           self.feasible_channel(tmp_path))
        assert code == 2 and "seed" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "simulate", "--channel", "/nonexistent.json",
                           "--seed", "1")
        assert code == 2

    @pytest.mark.parametrize("channel,message", [
        ({"p": 2, "m": 2, "hop1": {"q11": 1}, "hop2": {}}, "hop1 lacks the key 'q12'"),
        ({"p": 2, "m": 2, "hop2": {}}, "channel lacks the key 'hop1'"),
        ({"p": 2, "m": 2, "hop1": [1, 1, 1, 1], "hop2": {}},
         "hop1 must be a JSON object, not list"),
        ([1, 2], "channel must be a JSON object, not list")])
    def test_malformed_channel_exits_2(self, capsys, tmp_path, channel, message):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(channel))
        code, out, err = run(capsys, "simulate", "--channel", str(path),
                             "--seed", "1")
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("key,value,message", [
        ("p", [2], "p must be an integer, not [2]"),
        ("p", 2.9, "p must be an integer, not 2.9"),
        ("m", True, "m must be an integer, not true"),
        ("pi", "x^2+x+1", 'pi must be a list of integers, not "x^2+x+1"'),
        ("q11", None, "q11 must be an integer, a list of integers or an "
                      "'a^k' string, not null"),
        ("q34", [0, 1.5], "q34 must be an integer, a list of integers or an "
                          "'a^k' string, not [0, 1.5]"),
        ("q44", False, "q44 must be an integer, a list of integers or an "
                       "'a^k' string, not false")])
    def test_wrongly_typed_channel_exits_2(self, capsys, tmp_path, key, value,
                                           message):
        channel = json.loads(open(self.feasible_channel(tmp_path)).read())
        for part in (channel, channel["hop1"], channel["hop2"]):
            if key in part:
                part[key] = value
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(channel))
        code, out, err = run(capsys, "simulate", "--channel", str(path),
                             "--seed", "1")
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("pi", [[3, 5, 1], [1, 1, 3], [1, 1, 1, 0, 2]])
    def test_channel_modulus_outside_field_exits_2(self, capsys, tmp_path, pi):
        # [3, 5, 1] at p = 2 used to run over the modulus [1, 1, 1]
        channel = json.loads(open(self.feasible_channel(tmp_path)).read())
        channel["pi"] = pi
        path = tmp_path / "modulus.json"
        path.write_text(json.dumps(channel))
        code, out, err = run(capsys, "simulate", "--channel", str(path),
                             "--seed", "1")
        assert code == 2 and out == ""
        assert err == "error: modulus coefficients must lie in [0, 2)\n"

    @pytest.mark.parametrize("notation,entry", [("a^x", "x"), ("a^", "")])
    def test_non_integer_exponent_exits_2(self, capsys, tmp_path, notation,
                                          entry):
        channel = json.loads(open(self.feasible_channel(tmp_path)).read())
        channel["hop1"]["q11"] = notation
        path = tmp_path / "exponent.json"
        path.write_text(json.dumps(channel))
        code, out, err = run(capsys, "simulate", "--channel", str(path),
                             "--seed", "1")
        assert code == 2 and out == ""
        assert err == (f"error: element notation {notation!r} has an entry "
                       f"that is not an integer: {entry!r}\n")

    def test_channel_file_not_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "channel.txt"
        path.write_text("p = 2\n")
        code, out, err = run(capsys, "simulate", "--channel", str(path),
                             "--seed", "1")
        assert code == 2 and out == ""
        assert err == (f"error: channel file {path} is not JSON: Expecting "
                       f"value: line 1 column 1 (char 0)\n")

    @pytest.mark.parametrize("command", ["simulate", "symbol-ext"])
    def test_channel_file_with_a_huge_integer_exits_2(self, capsys, tmp_path, command):
        # json.load raised Python's int-string ValueError, which named
        # neither the file nor the number
        path = tmp_path / "huge.json"
        path.write_text('{"p": 1' + "0" * 4999 + ', "m": 2}')
        code, out, err = run(capsys, command, "--channel", str(path), "--seed", "1")
        assert code == 2 and out == ""
        assert err == f"error: channel file {path} has an integer of more than 4300 digits\n"

    def test_channel_file_integer_cap_without_an_interpreter_limit(self, capsys, tmp_path,
                                                                    monkeypatch):
        # an interpreter without the limit (3.10 before 3.10.7) parses any
        # length, quadratically; the hook keeps 4300 there
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        path = tmp_path / "huge.json"
        path.write_text('{"p": 1' + "0" * 4999 + ', "m": 2}')
        code, out, err = run(capsys, "simulate", "--channel", str(path), "--seed", "1")
        assert code == 2 and out == ""
        assert err == f"error: channel file {path} has an integer of more than 4300 digits\n"

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this interpreter has no int-string digit limit")
    @pytest.mark.parametrize("limit,digits", [(640, 1000), (0, 5000)])
    def test_channel_file_integer_limit_is_the_interpreters(self, capsys, tmp_path,
                                                           limit, digits):
        # the hook hard-coded 4300 digits: under a limit of 640 Python's own
        # message named no file, and under 0 (no limit) 5000 digits were refused
        channel = json.loads(open(self.feasible_channel(tmp_path)).read())
        channel["hop1"]["q11"] = "HUGE"     # 10^(digits-1) + 1, which is 1 mod 2
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(channel).replace('"HUGE"', "1" + "0" * (digits - 2) + "1"))
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            code, out, err = run(capsys, "simulate", "--channel", str(path), "--seed", "1")
        finally:
            sys.set_int_max_str_digits(saved)
        if limit:
            assert code == 2 and out == ""
            assert err == f"error: channel file {path} has an integer of more than {limit} digits\n"
        else:
            assert code == 0 and json.loads(out)["success"] is True

    @pytest.mark.parametrize("command", ["simulate", "symbol-ext"])
    @pytest.mark.parametrize("opening,closing", [("[", "]"), ('{"p": ', "}")],
                             ids=["array", "object"])
    def test_deeply_nested_channel_file_exits_2(self, capsys, tmp_path, command,
                                                opening, closing):
        # valid JSON 100 000 deep: json.load raised RecursionError, which
        # printed a traceback and exited 1, the code for an undelivered message
        path = tmp_path / "deep.json"
        path.write_text(opening * 100000 + "0" + closing * 100000)
        code, out, err = run(capsys, command, "--channel", str(path), "--seed", "1")
        assert code == 2 and out == ""
        assert err == f"error: channel file {path} is nested too deeply to read\n"

    def test_element_notations_still_parse(self, capsys, tmp_path):
        channel = json.loads(open(self.feasible_channel(tmp_path)).read())
        channel["hop1"].update(q11=1, q12="a^0")
        path = tmp_path / "notations.json"
        path.write_text(json.dumps(channel))
        code, payload = run_json(capsys, "simulate", "--channel", str(path),
                                 "--seed", "1")
        assert code == 0 and payload["success"] is True

    @pytest.mark.parametrize("w1,w2,message", [
        ("1,0,1", "1", "expected message lengths 2 and 1"),
        ("1,2", "1", "message symbols must lie in [0, 2)")])
    def test_bad_message_exits_2(self, capsys, tmp_path, w1, w2, message):
        code, out, err = run(capsys, "simulate", "--channel",
                             self.feasible_channel(tmp_path),
                             "--w1", w1, "--w2", w2)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_out_into_missing_directory_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "missing"
        code, out, err = run(capsys, "simulate", "--channel",
                             self.feasible_channel(tmp_path), "--seed", "3",
                             "--out", str(missing / "report.json"))
        assert code == 2 and out == ""
        assert err == f"error: output directory does not exist: {missing}\n"
        assert not missing.exists()

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, stdout, _ = run(capsys, "simulate", "--channel",
                              self.feasible_channel(tmp_path),
                              "--w1", "1,1", "--w2", "0", "--out", str(out))
        assert code == 0 and stdout == ""
        assert json.loads(out.read_text())["success"] is True


class TestScan:
    def test_f4(self, capsys):
        code, payload = run_json(capsys, "scan", "--p", "2", "--m", "2")
        assert code == 0
        assert payload["mode"] == "paired"
        assert payload["feasible_fraction_valid"] == 1.0
        assert payload["decode_success_rate"] == 1.0

    def test_too_large_exits_2(self, capsys):
        # GF(25) would set up 276 480 cores; GF(2^61) is refused before its
        # modulus search
        for p, m in ((5, 2), (2, 61)):
            code, out, err = run(capsys, "scan", "--p", str(p), "--m", str(m))
            assert code == 2 and out == "" and "guard" in err

    def test_out_naming_a_directory_exits_2_before_scanning(self, capsys, tmp_path,
                                                           monkeypatch):
        # only the parent was checked, so the scan ran before open() failed
        calls = []
        monkeypatch.setattr(scheme, "exhaustive_scan", lambda *args: calls.append(args))
        code, out, err = run(capsys, "scan", "--p", "2", "--m", "3", "--out", str(tmp_path))
        assert code == 2 and out == ""
        assert err == f"error: output path is a directory: {tmp_path}\n"
        assert calls == []


class TestSymbolExt:
    def test_random_channel(self, capsys):
        code, payload = run_json(capsys, "symbol-ext", "--p", "2", "--m", "2",
                                 "--seed", "5")
        assert code == 0
        assert payload["success"] is True
        assert payload["plan"]["extension_degree"] == 2

    def test_thirty_slot_channel(self, capsys):
        # hop splitting degrees 6 and 5 need F_{2^30}
        code, payload = run_json(capsys, "symbol-ext", "--p", "2", "--m", "5",
                                 "--seed", "0")
        assert code == 0
        assert payload["success"] is True and payload["slots"] == 30

    def test_channel_file_with_message(self, capsys, tmp_path):
        path = tmp_path / "mimo.json"
        ident = [[1, 0], [0, 1]]
        comp = [[0, 1], [1, 1]]
        path.write_text(json.dumps({
            "p": 2, "m": 2,
            "Q11": ident, "Q12": comp, "Q21": ident, "Q22": ident,
            "Q33": comp, "Q34": ident, "Q43": ident, "Q44": comp,
        }))
        code, payload = run_json(capsys, "symbol-ext", "--channel", str(path),
                                 "--w1", "1,0;0,1", "--w2", "1,1")
        assert code == 0 and payload["success"] is True

    def test_degenerate_channel_exit_1(self, capsys, tmp_path):
        path = tmp_path / "degen.json"
        ident = [[1, 0], [0, 1]]
        path.write_text(json.dumps({
            "p": 2, "m": 2,
            "Q11": ident, "Q12": ident, "Q21": ident, "Q22": ident,
            "Q33": ident, "Q34": ident, "Q43": ident, "Q44": ident,
        }))
        code, payload = run_json(capsys, "symbol-ext", "--channel", str(path),
                                 "--seed", "1")
        assert code == 1
        assert "singular" in payload["error"]

    @pytest.mark.parametrize("channel,message", [
        ({"p": 2, "m": 1}, "channel lacks the key 'Q11'"),
        ({"p": 2, "m": 1, "Q11": [[1]], "Q12": 5, "Q21": [[1]], "Q22": [[1]],
          "Q33": [[1]], "Q34": [[1]], "Q43": [[1]], "Q44": [[1]]},
         "Q12 must be a list of integer rows"),
        ("Q11", "channel must be a JSON object, not str")])
    def test_malformed_channel_exits_2(self, capsys, tmp_path, channel, message):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(channel))
        code, out, err = run(capsys, "symbol-ext", "--channel", str(path),
                             "--seed", "1")
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("key,value,message", [
        ("p", [2], "p must be an integer, not [2]"),
        ("p", True, "p must be an integer, not true"),
        ("m", 2.0, "m must be an integer, not 2.0"),
        ("Q21", [[1, 0], [0, True]], "Q21 must be a list of integer rows"),
        ("Q43", [[1, 0], [0.5, 1]], "Q43 must be a list of integer rows"),
        ("Q11", [], "a matrix needs at least one row"),
        ("Q11", [[1, 0], [1]], "rows have unequal lengths")])
    def test_wrongly_typed_channel_exits_2(self, capsys, tmp_path, key, value,
                                           message):
        ident = [[1, 0], [0, 1]]
        channel = {"p": 2, "m": 2, **{k: ident for k in (
            "Q11", "Q12", "Q21", "Q22", "Q33", "Q34", "Q43", "Q44")}}
        channel[key] = value
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(channel))
        code, out, err = run(capsys, "symbol-ext", "--channel", str(path),
                             "--seed", "1")
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_needs_channel_or_params(self, capsys):
        code, _, err = run(capsys, "symbol-ext", "--seed", "1")
        assert code == 2

    @pytest.mark.parametrize("w1,w2", [
        ("5,0;1,1", "1,0"), ("1,0;1,1", "0,2"), ("-1,0;1,1", "1,0")])
    def test_out_of_range_coefficient_exits_2(self, capsys, w1, w2):
        # refused as simulate refuses it, not reduced mod p
        code, out, err = run(capsys, "symbol-ext", "--p", "2", "--m", "2",
                             "--seed", "1", f"--w1={w1}", f"--w2={w2}")
        assert code == 2 and out == ""
        assert err == "error: message coefficients must lie in [0, 2)\n"

    @pytest.mark.parametrize("p,m,w1,w2", [
        (2, 2, "1,0;", "1"), (2, 2, "1,0;;0,1", "1"), (2, 2, ";1,0", "1"),
        (2, 2, "1,0; ", "1"), (2, 2, "1,0;0,1", ";"), (3, 1, "", None)])
    def test_empty_symbol_exits_2(self, capsys, p, m, w1, w2):
        # an empty symbol is refused, not read as the zero element
        args = ["symbol-ext", "--p", str(p), "--m", str(m), "--seed", "0", f"--w1={w1}"]
        code, out, err = run(capsys, *args, *([f"--w2={w2}"] if w2 is not None else []))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "empty symbol" in err

    @pytest.mark.parametrize("argv,entries", [
        (["symbol-ext", "--p", "2", "--m", "2", "--seed", "0", "--w1=1,,1;0,1",
          "--w2=1"], "1,,1"),
        (["symbol-ext", "--p", "2", "--m", "2", "--seed", "0", "--w1=1,0,;0,1",
          "--w2=1"], "1,0,"),
        (["symbol-ext", "--p", "2", "--m", "2", "--seed", "0", "--w1=,1;0,1",
          "--w2=1"], ",1"),
        (["simulate", "--channel", "@", "--w1=1,,0", "--w2=1"], "1,,0"),
        (["simulate", "--channel", "@", "--w1=1,0,", "--w2=1"], "1,0,"),
        (["simulate", "--channel", "@", "--w1=,1", "--w2=1"], ",1"),
        (["bounds", "--p", "2,,3", "--m", "2"], "2,,3"),
        (["bounds", "--p", "2", "--m", "2,"], "2,"),
        (["mc", "--p", ",2", "--m", "2", "--trials", "1", "--seed", "0"], ",2"),
        (["mc", "--p", "2", "--m", "2, ,3", "--trials", "1", "--seed", "0"], "2, ,3")])
    def test_empty_list_entry_exits_2(self, capsys, tmp_path, argv, entries):
        # a missing entry of a comma list is refused, not dropped: '1,,1'
        # is not [1, 1], and '2,,3' is not the sweep over 2 and 3
        channel = TestSimulate().feasible_channel(tmp_path)
        code, out, err = run(capsys, *(channel if a == "@" else a for a in argv))
        assert code == 2 and out == ""
        assert err == f"error: list {entries!r} has an entry that is not an integer: ''\n"

    @pytest.mark.parametrize("m", [0, -1])
    def test_channel_file_degree_below_1_exits_2(self, capsys, tmp_path, m):
        # the line a random channel with this m gives, not "expected 0 x 0
        # matrices over GF(2)"
        path = tmp_path / "degree.json"
        path.write_text(json.dumps({"p": 2, "m": m, **{k: [[1]] for k in (
            "Q11", "Q12", "Q21", "Q22", "Q33", "Q34", "Q43", "Q44")}}))
        code, out, err = run(capsys, "symbol-ext", "--channel", str(path), "--seed", "0")
        assert code == 2 and out == ""
        assert err == "error: extension degree must be a positive integer\n"
        assert run(capsys, "symbol-ext", "--p", "2", "--m", str(m), "--seed", "0") == (2, "", err)

    def test_non_integer_symbol_entry_exits_2(self, capsys):
        code, out, err = run(capsys, "symbol-ext", "--p", "2", "--m", "2",
                             "--seed", "1", "--w1", "1,0;0,y", "--w2", "1,0")
        assert code == 2 and out == ""
        assert err == "error: list '0,y' has an entry that is not an integer: 'y'\n"

    def test_gf2_m1_exits_2_at_once(self, capsys):
        code, out, err = run(capsys, "symbol-ext", "--p", "2", "--m", "1",
                             "--seed", "0")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "GF(2)" in err

    def test_huge_prime_exits_2_at_once(self, capsys):
        # p = 2^61 - 1 hung in trial division up to sqrt(p); past that,
        # factoring listed all p monic linear polynomials (MemoryError).  A
        # guard is an input error (2), not a channel rejection (1)
        start = time.perf_counter()
        code, out, err = run(capsys, "symbol-ext", "--p", str(2 ** 61 - 1),
                             "--m", "2", "--seed", "0")
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == ("error: factoring a polynomial of degree 2 over "
                       f"GF({2 ** 61 - 1}) by trial division tries more than "
                       "10000 candidate divisors\n")

    def test_safe_prime_exits_2_at_once(self, capsys):
        # building F_p factored p - 1 = 2 q, q prime, by trial division up to
        # sqrt(q); now the draw and the plan run, and factoring refuses
        p = 1000000000000007243
        start = time.perf_counter()
        code, out, err = run(capsys, "symbol-ext", "--p", str(p), "--m", "2",
                             "--seed", "0")
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == (f"error: factoring a polynomial of degree 2 over GF({p}) "
                       "by trial division tries more than 10000 candidate divisors\n")

    @pytest.mark.parametrize("p,m", [("2", "0"), ("3", "0"), ("3", "-1")])
    def test_nonpositive_m_exits_2(self, capsys, p, m):
        # these used to end in an IndexError traceback
        code, out, err = run(capsys, "symbol-ext", "--p", p, "--m", m,
                             "--seed", "1")
        assert code == 2 and out == ""
        assert err == "error: extension degree must be a positive integer\n"

    def test_singular_second_hop_compound_exit_1(self, capsys, tmp_path):
        ident = [[1, 0], [0, 1]]
        path = tmp_path / "compound.json"
        path.write_text(json.dumps({
            "p": 2, "m": 2,
            "Q11": ident, "Q12": [[0, 1], [1, 1]], "Q21": ident, "Q22": ident,
            "Q33": ident, "Q34": ident, "Q43": ident, "Q44": ident,
        }))
        code, payload = run_json(capsys, "symbol-ext", "--channel", str(path),
                                 "--seed", "1")
        assert code == 1 and payload["success"] is False
        assert payload["error"] == "compound second-hop matrix is singular"

    def test_w2_without_w1_exits_2(self, capsys):
        code, out, err = run(capsys, "symbol-ext", "--p", "2", "--m", "2",
                             "--seed", "5", "--w2", "1,1")
        assert code == 2 and out == ""
        assert "give both --w1 and --w2, or neither" in err


def random_json_value(rng, depth=0):
    """A seeded value json.dumps accepts: dicts, lists and tuples (some
    empty, some all ints) down to depth 4, then scalars."""
    kind = rng.randrange(9 if depth < 4 else 5)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return rng.choice([0, 7, -1, -(2 ** 63), 2 ** 64, -(3 ** 50), 10 ** 30])
    if kind == 2:
        return rng.choice([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-7, 1e22,
                           -2.5, 1 / 3, rng.random()])
    if kind == 3:
        return "".join(rng.choice(JSON_CHARS) for _ in range(rng.randrange(7)))
    if kind == 4:
        return [rng.randrange(-5, 5) for _ in range(rng.randrange(5))]
    size = rng.randrange(5)
    if kind in (5, 6):
        return [random_json_value(rng, depth + 1) for _ in range(size)]
    if kind == 7:
        return tuple(random_json_value(rng, depth + 1) for _ in range(size))
    return {"".join(rng.choice(JSON_CHARS) for _ in range(rng.randrange(4))):
            random_json_value(rng, depth + 1) for _ in range(size)}


# quotes, backslashes, control characters and non-ASCII text
JSON_CHARS = 'az09 "\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u4e2d\u2028\U0001f600'


class TestJsonWriter:
    """cli._json_text writes every JSON reply; json.dumps(x, indent=2) is
    the reference, byte for byte."""

    @pytest.mark.parametrize("value", [
        {}, [], (), [[]], {"a": {}}, [1, True], [0, False, 2 ** 70], [1, 2.0],
        (1, (2, 3)), {"w": [[1, 0], [0, 1]], "ok": None},
        [math.nan, math.inf, -math.inf, -0.0, 1e-7, 1e16, 123456789.125],
        ['"', "\\", "\x00\x1f\n", "\u00e9\u4e2d\U0001f600"], "top", 5, None,
    ])
    def test_edge_values(self, value):
        assert _json_text(value) == json.dumps(value, indent=2)

    def test_seeded_values(self):
        rng = random.Random("json-writer")
        for _ in range(10000):
            value = random_json_value(rng)
            assert _json_text(value) == json.dumps(value, indent=2), value

    def test_refusals(self):
        # what json refuses, and dict keys that are not str, which no reply has
        for value in ({(1, 2): 0}, [Fraction(1, 2)], {"a": {1, 2}}, {1: 0}, {None: 0}):
            with pytest.raises(TypeError):
                _json_text(value)


def block_diagonal(blocks: list) -> list:
    """Rows of the block-diagonal matrix of square code-row blocks."""
    n, rows, at = sum(map(len, blocks)), [], 0
    for blk in blocks:
        rows += [[0] * at + row + [0] * (n - at - len(row)) for row in blk]
        at += len(blk)
    return rows


def report_guard_channel() -> dict:
    """A channel over F_2 with m = 25 whose report passes the digit limit.
    Each hop is (I, A, I, I), so its product is similar to A: here the
    block-diagonal of the companions of primitive moduli, of degrees 4, 5, 7
    and 9 (lcm 1260) on the first hop and 12 and 13 (lcm 156) on the
    second.  So L = 16380, and 148 symbols of L digits are 2 424 240."""
    def companions(*degrees):
        return block_diagonal([companion_matrix(make_field(2, d)).to_code_rows()
                               for d in degrees])
    eye = block_diagonal([[[1]]] * 25)
    return {"p": 2, "m": 25, "Q11": eye, "Q12": companions(4, 5, 7, 9), "Q21": eye,
            "Q22": eye, "Q33": eye, "Q34": companions(12, 13), "Q43": eye, "Q44": eye}


class TestSymbolCodes:
    """symbol-ext runs on symbol codes, base-p codes of L digits, and never
    builds F_{p^L}: wide extensions answer, a reply past the digit limit is
    refused before the message is drawn, and explicit symbols parse to the
    codes of the field elements they named."""

    @pytest.mark.parametrize("p,m,degree", [
        (2, 12, 168), (2, 24, 180), (2, 25, 2280), (3, 16, 308)])
    def test_wide_extensions_answer(self, capsys, monkeypatch, p, m, degree):
        # each exited 2: building F_{p^L} factored p^L - 1 past its trial
        # limit.  The decodes are checked lane by lane on the codes
        refuse_extension_fields(monkeypatch)
        code, payload = run_json(capsys, "symbol-ext", "--p", str(p), "--m", str(m),
                                 "--seed", "0")
        assert code == 0 and payload["success"] is True
        assert payload["plan"]["extension_degree"] == degree
        ch = random_mimo_channel(p, m, random.Random(0))
        assert mimo_channel_from_dict(payload["channel"]) == ch
        core = MimoCodePipeline(build_mimo_precoders(plan_extension(ch))).core

        def codes(symbols):
            assert all(len(digits) == degree for digits in symbols)
            return tuple(_coeffs_to_code(digits, p) for digits in symbols)

        msg, relay = payload["message"], payload["relay_equations"]
        w1, w2, u1, u2 = codes(msg["w1"]), codes(msg["w2"]), codes(relay["u1"]), codes(relay["u2"])
        assert lane_relay_half(core, w1, w2, degree) == (u1, u2)
        assert lane_destination_half(core, u1, u2, degree) == (w1, w2)
        assert payload["decoded"] == msg

    def test_report_past_the_digit_limit_exits_2(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(report_guard_channel()))
        plan = plan_extension(mimo_channel_from_dict(report_guard_channel()))
        assert (plan.hop1.factor_degrees, plan.hop2.factor_degrees) == ((9, 7, 5, 4), (13, 12))
        assert plan.degree == 16380 and 148 * plan.degree > mimo.REPORT_DIGIT_LIMIT
        refuse_extension_fields(monkeypatch)
        monkeypatch.setattr(mimo, "MimoCodePipeline", None)    # refused before set-up
        start = time.perf_counter()
        code, out, err = run(capsys, "symbol-ext", "--channel", str(path), "--seed", "0")
        assert time.perf_counter() - start < 5
        assert code == 2 and out == ""
        assert err == ("error: the reply would print 2424240 digits, 6m - 2 symbols of "
                       "L = 16380: the limit is 1000000\n")

    def test_digit_limit_passes_the_widest_answer(self):
        # (2, 25) seed 0 prints 148 symbols of L = 2280
        assert mimo.REPORT_DIGIT_LIMIT >= 148 * 2280 == 337440

    @pytest.mark.parametrize("w1,w2", [
        ("1,0;0,1", "1,1"), ("1;0", "0,1,0,0"), ("1,1,0,0,0;0", "1,0,0")])
    def test_explicit_symbols_name_field_elements(self, capsys, monkeypatch, tmp_path,
                                                  w1, w2):
        # the reply equals the library run on the elements ext.element makes
        # of the same coefficient lists, short ones padded and zeros past L
        # dropped; the CLI builds no field for it
        path = tmp_path / "mimo.json"
        ch = random_mimo_channel(2, 2, random.Random(5))
        path.write_text(json.dumps(mimo_channel_to_dict(ch)))
        pipe = MimoPipeline(build_mimo_precoders(plan_extension(ch)))
        assert pipe.ext.m == 2
        w1_, w2_ = ([[int(c) for c in s.split(",")] for s in w.split(";")] for w in (w1, w2))
        want = simulate_symbol_ext(ch, w1_, w2_, pipe).to_dict()
        refuse_extension_fields(monkeypatch)
        code, payload = run_json(capsys, "symbol-ext", "--channel", str(path),
                                 f"--w1={w1}", f"--w2={w2}")
        assert code == 0 and payload == want

    def test_symbol_past_the_extension_degree_exits_2(self, capsys, monkeypatch):
        # L = 2: a third nonzero coefficient has no digit to go to
        refuse_extension_fields(monkeypatch)
        code, out, err = run(capsys, "symbol-ext", "--p", "2", "--m", "2", "--seed", "5",
                             "--w1=1,0,1;0,1", "--w2=1")
        assert code == 2 and out == ""
        assert err == "error: coefficient vector longer than the degree\n"

    def test_drawn_symbols_follow_the_field_stream(self, capsys):
        # one _randbelow(rng, p^L) per symbol is ext.random_element's draw
        code, payload = run_json(capsys, "symbol-ext", "--p", "3", "--m", "3", "--seed", "4")
        rng = random.Random(4)
        ch = random_mimo_channel(3, 3, rng)
        plan = plan_extension(ch)
        w1, w2 = random_message(plan.ext, 3, rng)
        assert payload["message"] == {"w1": [list(e.coeffs) for e in w1],
                                      "w2": [list(e.coeffs) for e in w2]}
