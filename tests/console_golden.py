"""Run every CLI case of tests/test_golden.py through the installed `gfalign`
console script, and compare its exit code and its output byte for byte with
tests/golden/<case>.json.  Exits 1 when a case differs.

    python -m pip install . pytest
    python tests/console_golden.py
"""

import subprocess
import sys
import tempfile

from test_golden import CLI_CASES, GOLDEN, cli_argv


def main() -> int:
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        for case, (_, want) in sorted(CLI_CASES.items()):
            run = subprocess.run(["gfalign", *cli_argv(case, tmp)],
                                 capture_output=True)
            if run.returncode != want:
                differ.append(f"{case}: exit {run.returncode}, expected {want}")
            elif run.stdout != (GOLDEN / f"{case}.json").read_bytes():
                differ.append(f"{case}: output differs from the golden file")
    for line in differ:
        print(line, file=sys.stderr)
    print(f"{len(CLI_CASES) - len(differ)} of {len(CLI_CASES)} cases match")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
