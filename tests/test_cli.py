import json
import time
from fractions import Fraction

import pytest

from gfalign import exact_fraction, lower_bound, scheme
from gfalign.cli import main
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
        ("Q43", [[1, 0], [0.5, 1]], "Q43 must be a list of integer rows")])
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
