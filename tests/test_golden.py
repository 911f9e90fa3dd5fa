"""Byte-for-byte golden outputs of the CLI: the scalar pipeline (`simulate`,
`scan` and the factored scan report), the bounds and Monte Carlo sweeps
(`bounds`, `mc`, `compare-ext`), `field-info` and the matrix model
(`symbol-ext`).

Each case renders its exit code and output text; the test checks the code
and compares the text byte for byte with tests/golden/<case>.json.  The
files are rewritten only for a deliberate, documented output change, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from gfalign import exhaustive_scan, scheme
from gfalign.cli import main

GOLDEN = Path(__file__).with_name("golden")

CHANNELS = {
    # README library quickstart: hop 1 = [1, 1, 1, a], hop 2 = [1, a, 1, 1]
    "quickstart": {
        "p": 2, "m": 2, "pi": [1, 1, 1],
        "hop1": {"q11": [1, 0], "q12": [1, 0], "q21": [1, 0], "q22": [0, 1]},
        "hop2": {"q33": [1, 0], "q34": [0, 1], "q43": [1, 0], "q44": [1, 0]},
    },
    # README file-format example; its second hop is singular
    "readme": {
        "p": 2, "m": 2, "pi": [1, 1, 1],
        "hop1": {"q11": "a^0", "q12": [0, 1], "q21": 1, "q22": "a^2"},
        "hop2": {"q33": "a^1", "q34": "a^2", "q43": "a^0", "q44": "a^1"},
    },
    "gf9": {
        "p": 3, "m": 2, "pi": [2, 1, 1],
        "hop1": {"q11": [1, 2], "q12": [1, 2], "q21": [1, 0], "q22": [2, 1]},
        "hop2": {"q33": [2, 2], "q34": [1, 2], "q43": [2, 1], "q44": [2, 2]},
    },
    # nonsingular second hop with q43 = 0: the inverse has a zero block
    "zero_q43": {
        "p": 2, "m": 2, "pi": [1, 1, 1],
        "hop1": {"q11": [1, 0], "q12": [1, 0], "q21": [1, 0], "q22": [0, 1]},
        "hop2": {"q33": [0, 1], "q34": [1, 0], "q43": [0, 0], "q44": [1, 0]},
    },
    # q11 = 0: no first-hop ratio, the second hop is still classified
    "zero_q11": {
        "p": 2, "m": 2, "pi": [1, 1, 1],
        "hop1": {"q11": [0, 0], "q12": [1, 0], "q21": [1, 0], "q22": [0, 1]},
        "hop2": {"q33": [1, 0], "q34": [0, 1], "q43": [1, 0], "q44": [1, 0]},
    },
    # the first feasible draw_valid_channel(make_field(2, 4), random.Random(s)),
    # s = 0: its precoders come from matrix_rep at m = 4
    "gf16": {
        "p": 2, "m": 4, "pi": [1, 0, 0, 1, 1],
        "hop1": {"q11": [0, 1, 1, 1], "q12": [1, 1, 1, 0], "q21": [1, 0, 1, 1],
                 "q22": [1, 1, 1, 1]},
        "hop2": {"q33": [1, 1, 1, 0], "q34": [1, 0, 0, 0], "q43": [1, 0, 1, 0],
                 "q44": [1, 0, 0, 1]},
    },
}

# case -> (CLI arguments, exit code); "@name" stands for a file holding
# CHANNELS[name]
CLI_CASES = {
    "simulate_quickstart": (["simulate", "--channel", "@quickstart",
                             "--w1", "1,0", "--w2", "1"], 0),
    "simulate_readme": (["simulate", "--channel", "@readme",
                         "--w1", "1,0", "--w2", "1"], 1),
    "simulate_gf9": (["simulate", "--channel", "@gf9", "--seed", "7"], 0),
    "simulate_gf16": (["simulate", "--channel", "@gf16", "--seed", "7"], 0),
    "simulate_zero_q43": (["simulate", "--channel", "@zero_q43",
                           "--w1", "0,1", "--w2", "1"], 1),
    "simulate_zero_q11": (["simulate", "--channel", "@zero_q11",
                           "--w1", "1,1", "--w2", "0"], 1),
    "scan_p3_m1": (["scan", "--p", "3", "--m", "1"], 0),
    "scan_p5_m1": (["scan", "--p", "5", "--m", "1"], 0),
    "scan_p2_m2": (["scan", "--p", "2", "--m", "2"], 0),
    # factored: 3072 cores, one per feasible hop tuple
    "scan_p3_m2": (["scan", "--p", "3", "--m", "2"], 0),
    "bounds_p23_m24": (["bounds", "--p", "2,3", "--m", "2,4"], 0),
    "bounds_p23_m24_csv": (["bounds", "--p", "2,3", "--m", "2,4",
                            "--format", "csv"], 0),
    "mc_p2_m3": (["mc", "--p", "2", "--m", "3", "--trials", "2000",
                  "--seed", "7"], 0),
    "compare_ext_p5_m2": (["compare-ext", "--p", "5", "--m", "2",
                           "--trials", "500", "--seed", "7"], 0),
    "field_info_p3_m2": (["field-info", "--p", "3", "--m", "2"], 0),
    # the companion of the default modulus at m = 8
    "field_info_p2_m8": (["field-info", "--p", "2", "--m", "8"], 0),
    # m = 1: the companion is [[-pi_0 mod p]] = [[2]]
    "field_info_p5_m1_pi": (["field-info", "--p", "5", "--m", "1",
                             "--pi", "x+3"], 0),
    "symbol_ext_p2_m3": (["symbol-ext", "--p", "2", "--m", "3",
                          "--seed", "11"], 0),
    # the hop product's characteristic polynomial has a repeated factor
    "symbol_ext_p3_m2_degenerate": (["symbol-ext", "--p", "3", "--m", "2",
                                     "--seed", "2"], 1),
    # plans at L = 12: hop factor degrees whose lcm exceeds the largest
    "symbol_ext_p2_m6_L12": (["symbol-ext", "--p", "2", "--m", "6",
                              "--seed", "3"], 0),
    "symbol_ext_p3_m3_L6": (["symbol-ext", "--p", "3", "--m", "3",
                             "--seed", "4"], 0),
    "symbol_ext_p5_m2": (["symbol-ext", "--p", "5", "--m", "2",
                          "--seed", "2"], 0),
    # a large prime: both hops split over F_1009 or F_1009^2, whose
    # eigenvalues planning does not search for
    "symbol_ext_p1009_m2": (["symbol-ext", "--p", "1009", "--m", "2",
                             "--seed", "0"], 0),
    # plans at L = 24 from hop factor degrees (8, 2) and (6, 4)
    "symbol_ext_p2_m10_L24": (["symbol-ext", "--p", "2", "--m", "10",
                               "--seed", "1"], 0),
    # the widest eigenvector system: hop factor degrees (12, 4) and
    # (8, 6, 2), so n d reaches 16 * 12 = 192
    "symbol_ext_p2_m16": (["symbol-ext", "--p", "2", "--m", "16",
                           "--seed", "0"], 0),
}

CASES = sorted(CLI_CASES) + ["exhaustive_scan_p2_m2_factored"]


def cli_argv(case: str, tmp: str) -> list[str]:
    """The CLI arguments of a case, with each "@name" replaced by a file in
    the directory tmp holding CHANNELS[name]."""
    argv = []
    for arg in CLI_CASES[case][0]:
        if arg.startswith("@"):
            path = Path(tmp) / f"{arg[1:]}.json"
            path.write_text(json.dumps(CHANNELS[arg[1:]]))
            arg = str(path)
        argv.append(arg)
    return argv


def render(case: str) -> tuple[int, str]:
    """Exit code and output text of one case."""
    if case == "exhaustive_scan_p2_m2_factored":
        # the GF(4) scan in the mode of the larger fields
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scheme, "_PAIR_LIMIT", 10)
            report = exhaustive_scan(2, 2)
        return 0, json.dumps(report.to_dict(), indent=2) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        argv = cli_argv(case, tmp)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("case", CASES)
def test_golden(case):
    code, text = render(case)
    assert code == CLI_CASES.get(case, (None, 0))[1]
    # bytes, not text: the CSV rows end in \r\n
    assert text == (GOLDEN / f"{case}.json").read_bytes().decode()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN / f"{case}.json").write_bytes(render(case)[1].encode())
        print("wrote", case, file=sys.stderr)
