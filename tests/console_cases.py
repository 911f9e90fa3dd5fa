"""Run the installed `gfalign` console script on a table of command lines,
one process per row, one row at a time, each under its wall-clock budget,
and check its exit code, its stdout and, on a refusal (exit 2), its
stderr.  Prints one line per failing row and exits 1 when any row fails.

    python -m pip install . pytest
    python tests/console_cases.py
    PYTHONOPTIMIZE=1 python tests/console_cases.py

Every CLI case of tests/test_golden.py is a row, with its golden stdout.
The other rows are commands that must answer or refuse quickly; in their
arguments, {tmp} is the directory holding the fixture files (FIXTURES).
"""

import json
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from test_cli import report_guard_channel
from test_golden import CLI_CASES, GOLDEN, cli_argv


@dataclass(frozen=True)
class Row:
    """A command line, its allowed exit codes, its wall-clock budget in
    seconds and its stdout, where pinned.  On exit 2, stderr must be one
    line starting "error: ", with none of INTERNAL in it, the text present
    in it and the ending at its end."""
    argv: tuple[str, ...]
    codes: tuple[int, ...] = (2,)
    budget: float = 10
    stdout: bytes | None = None
    present: str = ""
    ending: str = ""


INTERNAL = ("Traceback", "Exceeds the limit")     # a traceback; str() of a huge int
SAFE_PRIME = "1000000000000007243"

FIXTURES = {
    "huge.json": lambda: '{"p": 1' + "0" * 4999 + ', "m": 2}\n',
    "deep.json": lambda: "[" * 100000 + "]" * 100000 + "\n",
    # m = 25 over GF(2) with L = 16380: 148 symbols of L digits
    "wide.json": lambda: json.dumps(report_guard_channel()),
}


def refusal(budget: float, *argv: str, **rules) -> Row:
    return Row(argv, budget=budget, **rules)


ROWS = [
    refusal(10, "field-info", "--p", "2", "--m", "2", "--pi", "x+1"),
    refusal(10, "field-info", "--p", "2", "--m", "2", "--pi", "x^^2+x+1"),
    refusal(10, "symbol-ext", "--p", "2", "--m", "1", "--seed", "0", present="GF(2)"),
    refusal(10, "symbol-ext", "--p", "2", "--m", "0", "--seed", "1"),
    # an empty entry of a comma list: '1,,1' was read as [1, 1], '2,,3' as 2 and 3
    refusal(10, "symbol-ext", "--p", "2", "--m", "2", "--seed", "0", "--w1", "1,,1;0,1",
            "--w2", "1"),
    refusal(10, "bounds", "--p", "2,,3", "--m", "2"),
    # the reply guard: 148 symbols of 16380 digits pass 10^6
    refusal(1, "symbol-ext", "--channel", "{tmp}/wide.json", "--seed", "0", stdout=b"",
            ending="the limit is 1000000"),
    # primality was trial division up to sqrt(p), and factoring then listed
    # all p monic linear polynomials
    refusal(10, "symbol-ext", "--p", str(2 ** 61 - 1), "--m", "2", "--seed", "0"),
    # p - 1 = 2 q with q prime: building F_p factored p - 1 by trial division
    # up to sqrt(q)
    *(Row(argv, codes=(0, 2)) for argv in [
        ("symbol-ext", "--p", SAFE_PRIME, "--m", "2", "--seed", "0"),
        ("field-info", "--p", SAFE_PRIME, "--m", "1"),
        ("field-info", "--p", SAFE_PRIME, "--m", "2")]),
    # the order test exponentiated before it factored 2^200 - 1, about 16 s
    refusal(10, "mc", "--p", "2", "--m", "200", "--trials", "1", "--seed", "0"),
    refusal(10, "field-info", "--p", "2", "--m", "200"),
    # the trials ran for days at (2,3) and printed nothing until done
    refusal(2, "mc", "--p", "2", "--m", "3", "--trials", "100000000000", "--seed", "0"),
    refusal(2, "compare-ext", "--p", "2", "--m", "3", "--trials", "100000000000",
            "--seed", "0"),
    # more digits than Python prints: the refusal's own message printed the
    # number, and json.load read the integer
    refusal(10, "bounds", "--p", "2", "--m", "14500"),
    refusal(10, "field-info", "--p", "2", "--m", "15000"),
    refusal(10, "simulate", "--channel", "{tmp}/huge.json", "--seed", "1"),
    # json.load raised RecursionError; a directory for --out was refused
    # only after the scan ran
    refusal(10, "simulate", "--channel", "{tmp}/deep.json", "--seed", "1"),
    refusal(10, "symbol-ext", "--channel", "{tmp}/deep.json", "--seed", "1"),
    refusal(10, "scan", "--p", "2", "--m", "3", "--out", "{tmp}"),
    refusal(10, "scan", "--p", "2", "--m", "61"),
    # _core_count's powers of p^m, and its divisor loop to sqrt(m), never ended
    refusal(2, "scan", "--p", "5", "--m", "2147483647"),
    refusal(2, "scan", "--p", "2", "--m", "100000000000000000000"),
    # the channel draw ran before the factoring guard, and never ended here
    refusal(2, "symbol-ext", "--p", "2", "--m", "65537", "--seed", "0"),
    refusal(2, "symbol-ext", "--p", "3", "--m", "3000", "--seed", "0"),
    # the field trials ran for 25 s before the diagonal estimate refused
    refusal(2, "compare-ext", "--p", "2", "--m", "13", "--trials", "390000", "--seed", "0"),
]


def golden_rows(tmp: str) -> list[Row]:
    return [Row(tuple(cli_argv(case, tmp)), (code,),
                stdout=(GOLDEN / f"{case}.json").read_bytes())
            for case, (_, code) in sorted(CLI_CASES.items())]


def check(row: Row, tmp: str) -> tuple[float, str | None]:
    """Wall time of one run of the row, and what it got wrong, or None."""
    argv = [arg.replace("{tmp}", tmp) for arg in row.argv]
    start = time.perf_counter()
    try:
        run = subprocess.run(["gfalign", *argv], capture_output=True, timeout=row.budget)
    except subprocess.TimeoutExpired:
        return row.budget, f"still running after {row.budget} s"
    seconds = time.perf_counter() - start
    err = run.stderr.decode(errors="replace")
    if run.returncode not in row.codes:
        return seconds, f"exit {run.returncode}, expected {row.codes}: {err[-300:]!r}"
    if row.stdout is not None and run.stdout != row.stdout:
        return seconds, "stdout differs from the pinned bytes"
    if run.returncode != 2:
        return seconds, None
    faults = [f"holds {text!r}" for text in INTERNAL if text in err]
    if not (err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")):
        faults.append("is not one line starting 'error: '")
    if row.present not in err:
        faults.append(f"lacks {row.present!r}")
    if not err.endswith(row.ending + "\n"):
        faults.append(f"does not end in {row.ending!r}")
    return seconds, f"stderr {', '.join(faults)}: {err[-300:]!r}" if faults else None


def main() -> int:
    slowest = 0.0, ""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FIXTURES.items():
            Path(tmp, name).write_text(text())
        rows = golden_rows(tmp) + ROWS
        failures = 0
        for row in rows:
            seconds, problem = check(row, tmp)
            shown = " ".join(arg.replace(tmp, "{tmp}") for arg in row.argv)
            if problem:
                failures += 1
                print(f"FAIL gfalign {shown}: {problem}", file=sys.stderr)
            slowest = max(slowest, (seconds / row.budget, shown))
    print(f"{len(rows) - failures} of {len(rows)} rows pass; the closest to its budget "
          f"used {slowest[0]:.0%} of it: gfalign {slowest[1]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
