#!/usr/bin/env python3
"""gfalign benchmark.

One run of one workload::

    python3 perfbench/run.py --workload mimo-stream --seed 1 --seconds 45 --trace 0

prints each metric by name with its unit and sample count, then, as the
last line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones.  The exit code is 0 only when every
output check passed.

Other modes::

    python3 perfbench/run.py --suite OUT.json [--runs 10] [--seed 20260809]
    python3 perfbench/run.py --compare A.json B.json
    python3 perfbench/run.py --self-test

The work runs in child processes of this script (one at a time, each single
threaded): ``setup_s`` is the median over SETUP_REPEATS fresh processes,
because the field tables and imports it measures are cached per process.
Only the standard library is used.
"""

import time

_T0 = time.perf_counter_ns()  # start of the process, before any gfalign import

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 7
RUN_BUDGET_S = 170        # all child processes of one run together
DEV_SEED = 20260809  # the acceptance-test seed; the held-out seed is in README.md
WORKLOADS = ("mimo-stream", "symbol-ext")
# ROADMAP re-anchor figures this benchmark reproduces
ROADMAP_RUN_US = {"p2m2": 41, "p3m2": 54, "p2m3": 112, "p3m3": 92, "p2m4": 187}
ROADMAP_SCAN_S = 4.75
ROADMAP_MC_P2M2_PER_S = 37000


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


# -- child processes ------------------------------------------------------------


def child(args) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads as wl

    out = wl.Outcome()
    if args.role == "trace":
        import spans as tracing
        path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json.gz"
        metrics = tracing.traced_run(args.workload, args.seed, out, path)
        result = {"metrics": metrics, "spans_file": str(path.relative_to(ROOT))}
    else:
        work = wl.WORKLOADS[args.workload](args.seed, args.inject)
        setup_s = (time.perf_counter_ns() - _T0) / 1e9
        if args.role == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        out = work.timed(args.seconds)
        best = sorted(out.best_ns)
        result = {"setup_s": setup_s, "op": work.op, "call": work.call,
                  "ops": sum(out.input_ops), "best_s": sum(out.best_ns) / 1e9,
                  "inputs": len(best), "passes": out.passes,
                  "elapsed_s": out.elapsed_ns / 1e9,
                  "call_ms_p50": statistics.median(best) / 1e6,
                  "call_ms_p90": percentile(best, 0.9) / 1e6, "notes": out.notes}
    result.update(attempted=out.attempted, failed=out.failed, errors=out.errors,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


def spawn(args, role: str, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.inject:
        cmd += ["--inject", args.inject]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} process for {args.workload} exited "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


# -- one run --------------------------------------------------------------------


def single_run(args) -> int:
    if not (SRC / "gfalign" / "__init__.py").is_file():
        print(f"error: no gfalign sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.trace:
            res = spawn(args, "trace", deadline)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            if set(res["metrics"]) != set(units):
                raise RuntimeError("traced metrics differ from BENCHMARK.json per_layer")
            print(f"# traced run of {args.workload}, seed {args.seed}; "
                  f"spans in {res['spans_file']}")
            metrics = {k: {"value": res["metrics"][k], "unit": units[k]} for k in units}
            for name, m in metrics.items():
                print(f"{name:48s} {m['value']:.6g} {m['unit']}")
        else:
            # set-up processes before and after the measuring one, so that
            # they fall in different stretches of host load
            before = SETUP_REPEATS // 2
            setups = [spawn(args, "setup", deadline)["setup_s"] for _ in range(before)]
            res = spawn(args, "run", deadline)
            setups.append(res["setup_s"])
            setups += [spawn(args, "setup", deadline)["setup_s"]
                       for _ in range(SETUP_REPEATS - 1 - before)]
            values = {
                "ops_per_s": res["ops"] / res["best_s"],
                "call_ms_p50": res["call_ms_p50"],
                "call_ms_p90": res["call_ms_p90"],
                "setup_s": statistics.median(setups),
                "peak_rss_mb": res["peak_rss_mb"],
            }
            fastest = (f"fastest of {res['passes']} passes, over {res['inputs']} inputs "
                       f"({res['passes'] * res['inputs']} x {res['call']} in "
                       f"{res['elapsed_s']:.1f} s)")
            samples = {
                "ops_per_s": f"{res['ops']} x {res['op']}, each input's " + fastest,
                "call_ms_p50": fastest,
                "call_ms_p90": fastest,
                "setup_s": f"median of {SETUP_REPEATS} processes: "
                           + ", ".join(f"{s:.3f}" for s in setups),
                "peak_rss_mb": "1 process",
            }
            print(f"# {args.workload}, seed {args.seed}, {args.seconds} s")
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
            for name, m in metrics.items():
                print(f"{name:14s} {m['value']:12.6g} {m['unit']:6s} (n: {samples[name]})")
            for key, value in res["notes"].items():
                print(f"# {key}: {json.dumps(value, sort_keys=True)}")
    except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed = res["attempted"], res["failed"]
    print(f"fail_ratio     {failed / attempted:12.6g} 1      "
          f"(n: {failed} failed of {attempted} attempted)")
    for err in res["errors"]:
        print(f"# check failed: {err}")
    correct = failed == 0 and not res["errors"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


# -- suites, comparison and self-test ----------------------------------------------


def run_self(argv: list[str]) -> tuple[int, dict | None]:
    """Run this script in a child process; (exit code, last JSON line)."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv],
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def summarize(values: list[float]) -> dict:
    if not values:
        return {"median": math.nan, "q1": math.nan, "q3": math.nan,
                "spread": math.nan, "n": 0}
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0, "n": len(values)}


def environment() -> dict:
    commit = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip() or None
    except OSError:
        pass
    return {"commit": commit, "python": platform.python_version(),
            "platform": platform.platform(), "nproc": os.cpu_count()}


def run_ok(run: dict) -> bool:
    return run["exit"] == 0 and bool(run["result"]) and run["result"]["correct"]


def suite(args) -> int:
    spec = load_spec()
    record = {"env": environment(), "seconds": args.seconds, "runs": args.runs,
              "first_seed": args.seed, "workloads": {}}
    ok = True
    for w in WORKLOADS:
        runs = []
        for i in range(args.runs):
            seed = args.seed + i
            rc, res = run_self(["--workload", w, "--seed", str(seed),
                                "--seconds", str(args.seconds), "--trace", "0"])
            runs.append({"seed": seed, "exit": rc, "result": res})
            ok &= run_ok(runs[-1])
            print(f"{w} seed {seed}: exit {rc}", file=sys.stderr)
        rc, traced = run_self(["--workload", w, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", "1"])
        ok &= rc == 0
        # only correct runs count, each under its seed
        good = [r for r in runs if run_ok(r)]
        summary = {}
        for m in spec["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in good]
            summary[m["name"]] = {**summarize(vals), "unit": m["unit"], "values": vals,
                                  "seeds": [r["seed"] for r in good]}
        record["workloads"][w] = {
            "runs": runs, "summary": summary, "traced": traced,
            "failed_runs": len(runs) - len(good),
            "failed_ops": sum(r["result"]["failed"] for r in runs if r["result"])}
    record["roadmap"] = roadmap_rows(record)
    Path(args.suite).write_text(json.dumps(record, indent=1) + "\n")
    print_summary(record)
    return 0 if ok else 1


def roadmap_rows(record: dict) -> list[dict]:
    """The ROADMAP re-anchor rows this benchmark covers, with ratios."""
    traced = [w["traced"]["metrics"] for w in record["workloads"].values()
              if w["traced"] and w["traced"]["correct"]]
    if not traced:
        return []
    rows = []

    def layer(name):
        return statistics.median(t[name]["value"] for t in traced)

    for arm, ref in ROADMAP_RUN_US.items():
        got = layer(f"mimo.MimoPipeline.run.us.{arm}")
        rows.append({"row": f"MimoPipeline.run us/message {arm}", "roadmap": ref,
                     "measured": got, "ratio": got / ref})
    scan = layer("scheme.exhaustive_scan.s")
    rows.append({"row": "exhaustive_scan(2,2) s", "roadmap": ROADMAP_SCAN_S,
                 "measured": scan, "ratio": scan / ROADMAP_SCAN_S})
    mc = 1e6 / layer("feasibility.mc_feasibility.us_per_trial.p2m2")
    rows.append({"row": "mc trials/s at (2,2)", "roadmap": ROADMAP_MC_P2M2_PER_S,
                 "measured": mc, "ratio": mc / ROADMAP_MC_P2M2_PER_S})
    return rows


def print_summary(record: dict) -> None:
    print(f"{'workload':12s} {'metric':12s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s}  n")
    for w, data in record["workloads"].items():
        for name, s in data["summary"].items():
            print(f"{w:12s} {name:12s} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:7.3f}  {s['n']}  {s['unit']}")
    for row in record.get("roadmap", []):
        print(f"roadmap: {row['row']}: {row['measured']:.4g} vs {row['roadmap']} "
              f"(ratio {row['ratio']:.3f})")


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """Verdict of B against A by the rule of choosing-metrics section 8.
    ``a`` and ``b`` are paired: the same seed at the same index."""
    sa, sb = summarize(a), summarize(b)
    sign = 1 if better == "higher" else -1
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    gain = sign * (sb["median"] - sa["median"])
    if wins >= 0.9 * len(pairs) and gain > sa["q3"] - sa["q1"]:
        return "improved"
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    if sa["spread"] > bound and not all_better:
        return "unresolved"
    if -gain > bound * sa["median"]:
        return "worse"
    return "within bound"


def paired(sa: dict, sb: dict) -> tuple[list[float], list[float]]:
    """Values of the seeds both summaries hold, in the same order."""
    b = dict(zip(sb["seeds"], sb["values"]))
    seeds = [s for s in sa["seeds"] if s in b]
    a = dict(zip(sa["seeds"], sa["values"]))
    return [a[s] for s in seeds], [b[s] for s in seeds]


def compare(path_a: str, path_b: str) -> int:
    """One row per workload and end-to-end metric.  The verdict is "failed"
    when either side has a failed run, B fails more ops than A, or no seed
    ran correctly on both sides; then the exit code is 1."""
    spec = load_spec()
    rec_a = json.loads(Path(path_a).read_text())
    rec_b = json.loads(Path(path_b).read_text())
    print(f"A = {path_a} ({rec_a['env']['commit']}), B = {path_b} ({rec_b['env']['commit']})")
    print(f"{'workload':12s} {'metric':12s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'B/A':>7s} {'n':>3s}  verdict")
    failed = False
    for w in WORKLOADS:
        wa, wb = rec_a["workloads"][w], rec_b["workloads"][w]
        broken = (wa["failed_runs"] or wb["failed_runs"]
                  or wb["failed_ops"] > wa["failed_ops"])
        for m in spec["end_to_end"]:
            a, b = paired(wa["summary"][m["name"]], wb["summary"][m["name"]])
            sa, sb = summarize(a), summarize(b)

            def cell(s):
                return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"

            if broken or not a:
                v = (f"failed ({wa['failed_runs']} / {wb['failed_runs']} failed runs, "
                     f"{wa['failed_ops']} / {wb['failed_ops']} failed ops)")
                failed = True
            else:
                v = verdict(a, b, m["better"], m["bound"])
            ratio = sb["median"] / sa["median"] if a else math.nan
            print(f"{w:12s} {m['name']:12s} {cell(sa):>34s} {cell(sb):>34s} "
                  f"{ratio:7.3f} {len(a):3d}  {v}")
    return 1 if failed else 0


def self_test() -> int:
    """Each workload, given one deliberately wrong expectation, must fail."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import INJECT

    ok = True
    for w in WORKLOADS:
        rc, res = run_self(["--workload", w, "--seed", str(DEV_SEED), "--seconds", "1",
                            "--trace", "0", "--inject", INJECT[w]])
        bit = rc != 0 and res is not None and res["failed"] > 0 and not res["correct"]
        ok &= bit
        print(f"{w}: wrong {INJECT[w]} expectation -> exit {rc}, "
              f"failed {res and res['failed']} of {res and res['attempted']}: "
              f"{'caught' if bit else 'NOT CAUGHT'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float,
                        help="nominal measuring time per run, which fixes each workload's "
                        "number of passes (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite", metavar="OUT", help="run every workload --runs "
                        "times with seeds from --seed on, write the results to OUT")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --suite result files")
    parser.add_argument("--self-test", action="store_true",
                        help="check that a wrong expectation fails each workload")
    parser.add_argument("--role", choices=("setup", "run", "trace"), help=argparse.SUPPRESS)
    parser.add_argument("--inject", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.role:
        return child(args)
    if args.compare:
        return compare(*args.compare)
    if args.self_test:
        return self_test()
    if args.suite:
        return suite(args)
    if args.workload is None:
        parser.error("--workload is required")
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
