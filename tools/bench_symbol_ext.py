#!/usr/bin/env python3
"""Compare two checkouts of this repository on the symbol-ext path and write
the readings to one JSON file.

    python3 tools/bench_symbol_ext.py --parent DIR --change DIR --out BENCH.json \
        [--parts rounds,held_out,control,stages,wide,setup,eigen,run]

Each DIR is a checkout (for example a ``git archive`` of a commit) holding
``src/gfalign`` and ``perfbench/``.  Every seed is fixed below.  The parts:

* ``rounds``: ten alternating pairs of ``perfbench/run.py --workload W
  --seed S --seconds 45 --trace 0`` per workload, each side run in its own
  checkout, compared by ``perfbench/run.py --compare``;
* ``held_out``: the same on seeds 4242 and 4243, one more round per run;
* ``control``: both packages in one process, the 100 symbol-ext calls of a
  seed through each side's ``cli.main``, interleaved, each call keeping its
  best time over 15 passes; every reply is compared between the sides;
* ``stages``: per stage of those calls (argparse, channel draw, plan,
  precoders, pipeline set-up, message and run, ``to_dict``, JSON), the
  best time of each call summed over the calls, per side;
* ``wide``: fresh-process wall times of ``symbol-ext --seed 0`` at wide
  (p, m), interpreter start-up included, alternating sides;
* ``setup``: the ``setup_s`` of ``perfbench/run.py``'s set-up process,
  repeated in alternating pairs per workload;
* ``eigen``: both packages in one process, the eigen data of every plan in
  perfbench's mimo-stream pool, as its plan digest reads them, timed per
  pass over the plans, alternating sides; each digest is checked against
  the pinned one;
* ``run``: both packages in one process, ``MimoPipeline.run`` on every
  channel of perfbench's mimo-stream pool, per channel the best per-call
  time over passes that alternate sides, and per arm the median over its
  channels; every decode is compared between the sides and with the
  message.

Runs are sequential, one process at a time.  Only the standard library is
used.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROUND_SEEDS = tuple(range(20263340, 20263350))
HELD_OUT_SEEDS = (4242, 4243)
CONTROL_SEEDS = (20260809, 4243, 20263140)
CONTROL_PASSES = 15
STAGE_PASSES = 7
WIDE = ((2, 8), (5, 8), (2, 12), (2, 24), (2, 25), (3, 16))
WIDE_REPEATS = 3
WIDE_TIMEOUT_S = 120
SETUP_PAIRS = 15
EIGEN_PASSES = 15
RUN_PASSES, RUN_LOOPS, RUN_MESSAGES = 7, 50, 20
WORKLOADS = ("mimo-stream", "symbol-ext")
PARTS = ("rounds", "held_out", "control", "stages", "wide", "setup", "eigen", "run")


def clean_env() -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    return env


def bench_run(root: Path, workload: str, seed: int) -> dict | None:
    """The last JSON line of one perfbench run in checkout ``root``."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "45", "--trace", "0"],
                          cwd=root, env=clean_env(), capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        return {"exit": proc.returncode, "result": json.loads(lines[-1])}
    except (IndexError, json.JSONDecodeError):
        return {"exit": proc.returncode, "result": None}


def suite_record(root: Path, runs: dict[str, list]) -> dict:
    """A record of the shape ``perfbench/run.py --suite`` writes."""
    sys.path.insert(0, str(root / "perfbench"))
    try:
        bench = importlib.import_module("run")
        spec = bench.load_spec()
        record = {"env": {"commit": str(root)}, "workloads": {}}
        for w, rs in runs.items():
            good = [r for r in rs if bench.run_ok(r)]
            summary = {}
            for m in spec["end_to_end"]:
                vals = [r["result"]["metrics"][m["name"]]["value"] for r in good]
                summary[m["name"]] = {**bench.summarize(vals), "unit": m["unit"],
                                      "values": vals, "seeds": [r["seed"] for r in good]}
            record["workloads"][w] = {
                "runs": rs, "summary": summary, "failed_runs": len(rs) - len(good),
                "failed_ops": sum(r["result"]["failed"] for r in rs if r["result"])}
        return record
    finally:
        sys.path.pop(0)
        sys.modules.pop("run", None)


def paired_rounds(parent: Path, change: Path, seeds, work: Path, tag: str) -> dict:
    """Alternating parent/change perfbench runs on ``seeds``, then --compare."""
    runs = {"parent": {w: [] for w in WORKLOADS}, "change": {w: [] for w in WORKLOADS}}
    order = {}
    for w in WORKLOADS:
        for i, seed in enumerate(seeds):
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            order[str(seed)] = f"{sides[0]} first"
            for side in sides:
                root = parent if side == "parent" else change
                run = bench_run(root, w, seed)
                runs[side][w].append({"seed": seed, **run})
                print(f"{tag} {w} seed {seed} {side}: exit {run['exit']}", file=sys.stderr)
    paths = {}
    for side, root in (("parent", parent), ("change", change)):
        paths[side] = work / f"{tag}.{side}.json"
        paths[side].write_text(json.dumps(suite_record(root, runs[side]), indent=1))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--compare",
                           str(paths["parent"]), str(paths["change"])],
                          cwd=change, env=clean_env(), capture_output=True, text=True)
    values = {side: {w: [{"seed": r["seed"], "exit": r["exit"],
                          "metrics": r["result"] and {k: v["value"] for k, v in
                                                      r["result"]["metrics"].items()},
                          "failed": r["result"] and r["result"]["failed"]}
                         for r in runs[side][w]] for w in WORKLOADS} for side in runs}
    return {"seeds": list(seeds), "order": order,
            "compare": proc.stdout.strip().splitlines(), "runs": values}


# -- both packages in one process ------------------------------------------------


def load_package(root: Path) -> dict:
    """gfalign's modules imported from ``root``/src, then removed from
    sys.modules so that the other checkout can be imported beside them."""
    src = str(root / "src")
    for name in [n for n in sys.modules if n == "gfalign" or n.startswith("gfalign.")]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        importlib.import_module("gfalign.cli")
        mods = {n.split(".")[-1]: sys.modules[n] for n in list(sys.modules)
                if n == "gfalign" or n.startswith("gfalign.")}
    finally:
        sys.path.remove(src)
    for name in [n for n in sys.modules if n == "gfalign" or n.startswith("gfalign.")]:
        del sys.modules[name]
    return mods


def symbol_calls(change: Path, seed: int) -> list:
    """The 100 calls of a symbol-ext benchmark run, as (p, m, seed, class)."""
    pool = json.loads((change / "perfbench" / "pool.json").read_text())["symbol-ext"]
    sys.path.insert(0, str(change / "perfbench"))
    sys.path.insert(0, str(change / "src"))
    try:
        wl = importlib.import_module("workloads")
        groups = wl.SYMBOL_GROUPS
        calls = []
        for (p, m), cls, count in groups:
            rng = random.Random(f"symbol-ext:{seed}:{wl.arm_name(p, m)}:{cls}")
            calls += [(p, m, s, cls) for s, _, _ in
                      wl.stratified(pool[wl.arm_name(p, m)][cls], count, rng)]
        random.Random(f"symbol-ext:{seed}:order").shuffle(calls)
        return calls
    finally:
        del sys.path[:2]
        for name in [n for n in sys.modules if n == "workloads" or n == "gfalign"
                     or n.startswith("gfalign.")]:
            del sys.modules[name]


def warm(mods: dict, calls) -> None:
    """The set-up of perfbench's SymbolExt: build F_{p^L} of each planned call."""
    for p, m, _, cls in calls:
        if cls.startswith("L"):
            mods["gf"].make_field(p, int(cls[1:]))


def cli_call(mods: dict, call) -> tuple[int, str]:
    p, m, seed, _ = call
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = mods["cli"].main(["symbol-ext", "--p", str(p), "--m", str(m),
                               "--seed", str(seed)])
    return rc, buf.getvalue()


def control(parent: Path, change: Path) -> dict:
    sides = {"parent": load_package(parent), "change": load_package(change)}
    out = []
    for seed in CONTROL_SEEDS:
        calls = symbol_calls(change, seed)
        for mods in sides.values():
            warm(mods, calls)
        best = {side: [0] * len(calls) for side in sides}
        replies = {side: [None] * len(calls) for side in sides}
        for rep in range(CONTROL_PASSES):
            for i, call in enumerate(calls):
                order = ("parent", "change") if (rep + i) % 2 == 0 else ("change", "parent")
                for side in order:
                    t0 = time.perf_counter_ns()
                    reply = cli_call(sides[side], call)
                    dt = time.perf_counter_ns() - t0
                    if not best[side][i] or dt < best[side][i]:
                        best[side][i] = dt
                    replies[side][i] = reply
        row = {"seed": seed, "passes": CONTROL_PASSES,
               "replies_equal": replies["parent"] == replies["change"]}
        for side in sides:
            ms = [b / 1e6 for b in best[side]]
            row[side] = {"ops_per_s": len(ms) / (sum(ms) / 1e3),
                         "call_ms_p50": statistics.median(ms),
                         "call_ms_p90": sorted(ms)[max(0, -(-9 * len(ms) // 10) - 1)]}
        row["ratio"] = {k: row["change"][k] / row["parent"][k] for k in row["change"]}
        out.append(row)
        print(f"control seed {seed}: {row['ratio']}", file=sys.stderr)
    return {"how": "both packages imported in one process; the 100 symbol-ext calls "
                   "of each seed through each side's cli.main, alternating which side "
                   "runs first per call and pass, each call keeping its best time over "
                   f"{CONTROL_PASSES} passes; p90 is the nearest-rank percentile as in "
                   "perfbench/run.py; every reply and exit code compared between sides",
            "runs": out}


def stage_times(mods: dict, calls) -> dict[str, float]:
    """Per stage, the sum over the calls of each call's best time, in ms."""
    cli, mimo, gf = mods["cli"], mods["mimo"], mods["gf"]
    codes = hasattr(mimo, "simulate_symbol_codes")
    names = ("argparse", "channel draw", "plan_extension", "precoders",
             "MimoPipeline set-up", "message and run", "to_dict", "JSON")
    best = {name: [0] * len(calls) for name in names}
    for _ in range(STAGE_PASSES):
        for i, (p, m, seed, _) in enumerate(calls):
            argv = ["symbol-ext", "--p", str(p), "--m", str(m), "--seed", str(seed)]
            marks = [time.perf_counter_ns()]
            cli.build_parser().parse_args(argv)
            marks.append(time.perf_counter_ns())
            rng = random.Random(seed)
            ch = mimo.random_mimo_channel(p, m, rng)
            marks.append(time.perf_counter_ns())
            try:
                plan = mimo.plan_extension(ch)
            except mods["errors"].GFAlignError as exc:
                marks += [time.perf_counter_ns()] * 5
                payload = {"channel": mimo.mimo_channel_to_dict(ch), "error": str(exc),
                           "success": False}
            else:
                marks.append(time.perf_counter_ns())
                pre = mimo.build_mimo_precoders(plan)
                marks.append(time.perf_counter_ns())
                pipe = mimo.MimoPipeline(pre)
                marks.append(time.perf_counter_ns())
                if codes:
                    order = p ** plan.degree
                    w1 = [gf._randbelow(rng, order) for _ in range(m)]
                    w2 = [gf._randbelow(rng, order) for _ in range(m - 1)]
                    report = mimo.simulate_symbol_codes(ch, w1, w2, pipe)
                else:
                    w1, w2 = mimo.random_message(plan.ext, m, rng)
                    report = mimo.simulate_symbol_ext(ch, w1, w2, pipe)
                marks.append(time.perf_counter_ns())
                payload = report.to_dict()
                marks.append(time.perf_counter_ns())
            cli._json_text(payload)
            marks.append(time.perf_counter_ns())
            for k, name in enumerate(names):
                dt = marks[k + 1] - marks[k]
                if not best[name][i] or dt < best[name][i]:
                    best[name][i] = dt
    return {name: sum(v) / 1e6 for name, v in best.items()}


def stages(parent: Path, change: Path) -> dict:
    seed = CONTROL_SEEDS[0]
    calls = symbol_calls(change, seed)
    out = {}
    for side, root in (("parent", parent), ("change", change)):
        mods = load_package(root)
        warm(mods, calls)
        out[side] = stage_times(mods, calls)
        out[side]["total"] = sum(out[side].values())
    return {"how": f"the 100 symbol-ext calls of seed {seed} run stage by stage with "
                   f"each side's library, best of {STAGE_PASSES} passes per call and "
                   "stage, summed over the calls (ms per pass over the calls); a refused "
                   "plan times its error reply under JSON",
            "ms": out}


# -- fresh processes -------------------------------------------------------------


def wide(parent: Path, change: Path) -> dict:
    rows = []
    for p, m in WIDE:
        for rep in range(WIDE_REPEATS):
            sides = ("parent", "change") if rep % 2 == 0 else ("change", "parent")
            for side in sides:
                root = parent if side == "parent" else change
                env = dict(clean_env(), PYTHONPATH=str(root / "src"))
                argv = [sys.executable, "-m", "gfalign.cli", "symbol-ext", "--p", str(p),
                        "--m", str(m), "--seed", "0"]
                t0 = time.perf_counter()
                try:
                    proc = subprocess.run(argv, env=env, capture_output=True,
                                          timeout=WIDE_TIMEOUT_S)
                    code, stdout, err = proc.returncode, proc.stdout, proc.stderr
                except subprocess.TimeoutExpired:
                    code, stdout, err = None, b"", b"timeout"
                wall = time.perf_counter() - t0
                rows.append({"p": p, "m": m, "side": side, "repeat": rep, "exit": code,
                             "wall_s": wall, "stdout_bytes": len(stdout),
                             "stdout_sha256": hashlib.sha256(stdout).hexdigest()[:16],
                             "stderr": err.decode(errors="replace").strip()[:200]})
                print(f"wide ({p},{m}) {side}: exit {code} {wall:.2f} s", file=sys.stderr)
    return {"how": f"`python -m gfalign.cli symbol-ext --p P --m M --seed 0` in a fresh "
                   f"process with PYTHONPATH at each side's src, {WIDE_REPEATS} repeats "
                   f"alternating sides, timeout {WIDE_TIMEOUT_S} s",
            "runs": rows}


def setup(parent: Path, change: Path) -> dict:
    out = {}
    for w in WORKLOADS:
        values = {"parent": [], "change": []}
        for i in range(SETUP_PAIRS):
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in sides:
                root = parent if side == "parent" else change
                proc = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--role", "setup", "--workload", w,
                     "--seed", str(ROUND_SEEDS[0]), "--seconds", "45", "--trace", "0"],
                    cwd=root, env=clean_env(), capture_output=True, text=True, timeout=300)
                values[side].append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        summary = {}
        for side, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            summary[side] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / q2, "min": min(vals), "values": vals}
        summary["ratio"] = summary["change"]["median"] / summary["parent"]["median"]
        out[w] = summary
        print(f"setup {w}: {summary['ratio']:.3f}", file=sys.stderr)
    return {"how": f"{SETUP_PAIRS} alternating pairs per workload of perfbench/run.py's "
                   "set-up process (`--role setup`, seed "
                   f"{ROUND_SEEDS[0]}), each in its own checkout with "
                   "PYTHONDONTWRITEBYTECODE=1; setup_s is its time from process start to "
                   "the end of the workload's set-up",
            "workloads": out}


def eigen(parent: Path, change: Path) -> dict:
    sides = {"parent": load_package(parent), "change": load_package(change)}
    pool = json.loads((change / "perfbench" / "pool.json").read_text())["mimo-stream"]
    channels = [(*map(int, arm[1:].split("m")), seed, pinned)
                for arm, entry in pool.items() for cls in entry["pool"].values()
                for seed, pinned in cls]
    ms = {side: [] for side in sides}
    pinned_ok = {side: True for side in sides}
    for rep in range(EIGEN_PASSES):
        for side in (("parent", "change") if rep % 2 == 0 else ("change", "parent")):
            mimo = sides[side]["mimo"]
            plans = [(mimo.plan_extension(mimo.random_mimo_channel(p, m, random.Random(s))),
                      pinned) for p, m, s, pinned in channels]
            for plan, _ in plans:
                plan.ext
            t0 = time.perf_counter_ns()
            hops = [[{"eigenvalues": [e.code for e in hop.eigenvalues],
                      "eigenvectors": hop.eigenvectors.to_code_rows()}
                     for hop in (plan.hop1, plan.hop2)] for plan, _ in plans]
            ms[side].append((time.perf_counter_ns() - t0) / 1e6)
            for (plan, pinned), pair in zip(plans, hops):
                text = json.dumps({"summary": plan.summary(), "hops": pair},
                                  sort_keys=True, separators=(",", ":"))
                pinned_ok[side] &= hashlib.sha256(text.encode()).hexdigest()[:16] == pinned
    out = {side: {"median_ms": statistics.median(vals), "min_ms": min(vals),
                  "quartiles_ms": statistics.quantiles(vals, n=4), "values_ms": vals,
                  "digests_equal_pinned": pinned_ok[side]} for side, vals in ms.items()}
    out["ratio"] = out["change"]["median_ms"] / out["parent"]["median_ms"]
    print(f"eigen: {out['ratio']:.3f}", file=sys.stderr)
    return {"how": f"both packages imported in one process; the {len(channels)} plans of "
                   "perfbench/pool.json's mimo-stream pool, planned untimed with ext "
                   "built, then their eigenvalues and eigenvectors read as "
                   "workloads.plan_digest reads them, timed per pass over the plans; "
                   f"{EIGEN_PASSES} passes alternating which side runs first; each "
                   "digest compared with the pinned one", **out}


def run_us(run, messages) -> float:
    """Mean us per call of ``run`` over RUN_LOOPS passes over ``messages``."""
    t0 = time.perf_counter_ns()
    for _ in range(RUN_LOOPS):
        for w1, w2 in messages:
            run(w1, w2)
    return (time.perf_counter_ns() - t0) / (RUN_LOOPS * len(messages)) / 1e3


def run(parent: Path, change: Path) -> dict:
    sides = {"parent": load_package(parent), "change": load_package(change)}
    pool = json.loads((change / "perfbench" / "pool.json").read_text())["mimo-stream"]
    arms, decodes_equal = {}, True
    for arm, entry in pool.items():
        p, m = map(int, arm[1:].split("m"))
        seeds = [seed for cls in entry["pool"].values() for seed, _ in cls]
        pipes = {side: [] for side in sides}
        for side, mods in sides.items():
            mimo = mods["mimo"]
            for seed in seeds:
                try:
                    plan = mimo.plan_extension(mimo.random_mimo_channel(p, m, random.Random(seed)))
                except mods["errors"].GFAlignError:
                    continue
                pipe = mimo.MimoPipeline(mimo.build_mimo_precoders(plan))
                rng = random.Random(f"run:{arm}:{seed}")
                pipes[side].append((pipe.run, [mimo.random_message(plan.ext, m, rng)
                                               for _ in range(RUN_MESSAGES)]))
        channels = len(pipes["change"])
        best = {side: [0.0] * channels for side in sides}
        for rep in range(RUN_PASSES):
            for i in range(channels):
                for side in (("parent", "change") if (rep + i) % 2 == 0
                             else ("change", "parent")):
                    us = run_us(*pipes[side][i])
                    if not best[side][i] or us < best[side][i]:
                        best[side][i] = us
        for i in range(channels):
            got = {side: [[[v.code for v in part] for part in fn(w1, w2)]
                          for w1, w2 in messages]
                   for side, (fn, messages) in ((s, pipes[s][i]) for s in sides)}
            sent = [[[v.code for v in w] for w in msg] for msg in pipes["change"][i][1]]
            decodes_equal &= (len(pipes["parent"]) == channels
                              and got["parent"] == got["change"]
                              and [g[:2] for g in got["change"]] == sent)
        arms[arm] = {"channels": channels,
                     **{side: {"median_us": statistics.median(vals), "min_us": min(vals),
                               "max_us": max(vals)} for side, vals in best.items()}}
        arms[arm]["ratio"] = arms[arm]["change"]["median_us"] / arms[arm]["parent"]["median_us"]
        print(f"run {arm}: {arms[arm]['ratio']:.3f}", file=sys.stderr)
    return {"how": "both packages imported in one process; every channel of "
                   "perfbench/pool.json's mimo-stream pool planned, its MimoPipeline "
                   f"built and {RUN_MESSAGES} messages drawn per side from one seeded "
                   f"rng; per channel and pass, the mean us per call over {RUN_LOOPS} "
                   f"loops over its messages, best of {RUN_PASSES} passes alternating "
                   "which side runs first; per arm the median over its channels; every "
                   "decode compared, as codes, between the sides and with the message",
            "decodes_equal": decodes_equal, "arms": arms}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--parts", default=",".join(PARTS))
    args = parser.parse_args()
    parts = args.parts.split(",")
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record["host"] = {"python": platform.python_version(), "platform": platform.platform(),
                      "nproc": os.cpu_count()}
    parent, change = args.parent.resolve(), args.change.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for part in parts:
            if part == "rounds":
                record["rounds"] = paired_rounds(parent, change, ROUND_SEEDS, work, "rounds")
            elif part == "held_out":
                # each run of this part adds one round of the held-out seeds
                record.setdefault("held_out", []).append(
                    paired_rounds(parent, change, HELD_OUT_SEEDS, work, "held_out"))
            elif part in ("control", "stages", "wide", "setup", "eigen", "run"):
                record[part] = globals()[part](parent, change)
            else:
                parser.error(f"unknown part {part!r}")
            args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
