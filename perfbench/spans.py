"""Traced run: per-layer metrics from spans and from timed kernels.

Spans are recorded around the benchmark's own calls into the public
functions of each gfalign module (nothing inside the package is
instrumented).  A span has a name, start, end, parent and trace id (one per
channel, arm or extension degree); spans stay in memory and are written out
once at the end.  A span's self time is its duration minus the durations of
its children.

Every traced run measures every layer, whichever workload it is for: the
workload only chooses which untraced loop ``trace.overhead_ratio`` is
measured against.  The scalar scheme is measured by replaying the loop of
``exhaustive_scan(2, 2)`` stage by stage, against one untraced scan.
"""

from __future__ import annotations

import gzip
import itertools
import json
import math
import random
import statistics
from contextlib import contextmanager
from time import perf_counter_ns

from gfalign import mimo
from gfalign.errors import GFAlignError
from gfalign.feasibility import mc_feasibility
from gfalign.gf import make_field, minpoly_degree
from gfalign.linalg import (Mat, block2x2, char_poly, roots_in_field,
                            split_blocks)
from gfalign.polys import factor_poly
from gfalign.scheme import (TwoHopChannel, all_messages, apply_hop,
                            build_precoders, check_feasible,
                            destination_decode, exhaustive_scan,
                            relay_decode, relay_encode, source_encode)

import workloads as wl

STAGES = ("build_precoders", "source_encode", "apply_hop", "relay_decode",
          "relay_encode", "destination_decode")
MIMO_FNS = ("random_mimo_channel", "plan_extension", "build_mimo_precoders",
            "MimoPipeline.init", "simulate_symbol_ext")
EXT_DEGREES = (2, 3, 6, 12)
GF_TIERS = (("dense", 2, 3), ("log", 2, 16), ("poly", 2, 17))
MAT_SIZES = {2: 400, 4: 100, 8: 20}   # calls per kernel
MIMO_TRACE_MSGS = 30                   # messages per mimo-stream channel
CLI_REPEATS = 3
# the symbol-ext calls of a traced run: every group of the workload, fewer
# of each
TRACE_SYMBOL_GROUPS = tuple((pm, cls, {"L6": 10, "L12": 4}.get(cls, 2))
                            for pm, cls, _ in wl.SYMBOL_GROUPS)
# mc_feasibility calls of the traced run, as (p, m, trials): dense tables,
# log/antilog tables (the largest interned field) and plain polynomial
# arithmetic, about 50 ms each
MC_ARMS = ((2, 2, 1800), (2, 16, 500), (2, 17, 10))
# mc arms whose trial counts vary with the seed; at (2,16) no trial was
# rejected and at (2,17) every trial was feasible in any traced baseline run
MC_COUNTERS = {"p2m2": ("feasible_ratio", "rejected"), "p2m16": ("feasible_ratio",)}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {"gf.make_field.s": "s"}
    for tier, _, _ in GF_TIERS:
        for op in ("mul", "add", "inv"):
            units[f"gf.{tier}.{op}_ns"] = "ns"
    for tier, _, _ in GF_TIERS:
        units[f"gf.minpoly_degree.{tier}.us"] = "us"
    for op in ("solve", "inv", "det", "matmul"):
        for n in MAT_SIZES:
            units[f"linalg.Mat.{op}.n{n}.us"] = "us"
    for fn in ("linalg.char_poly", "polys.factor_poly", "linalg.roots_in_field"):
        for L in EXT_DEGREES:
            units[f"{fn}.ms.L{L}"] = "ms"
    for stage in STAGES:
        units[f"scheme.{stage}.self_s"] = "s"
    units["scheme.stage_self_share"] = "ratio"
    units["scheme.exhaustive_scan.s"] = "s"
    units["scheme.replay_overhead_ratio"] = "ratio"
    for p, m, _ in MC_ARMS:
        arm = wl.arm_name(p, m)
        units[f"scheme.check_feasible.us.{arm}"] = "us"
        units[f"feasibility.mc_feasibility.us_per_trial.{arm}"] = "us"
        for counter in MC_COUNTERS.get(arm, ()):
            units[f"feasibility.{counter}.{arm}"] = \
                "ratio" if counter == "feasible_ratio" else "count"
    for fn in MIMO_FNS:
        units[f"mimo.{fn}.self_s"] = "s"
    for p, m in wl.MIMO_ARMS:
        units[f"mimo.MimoPipeline.run.us.{wl.arm_name(p, m)}"] = "us"
    units["cli.self_ms"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    """In-memory span recorder for a single thread."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent, trace_id]
        self._stack: list[int] = []

    def _open(self, name, trace_id):
        parent = self._stack[-1] if self._stack else -1
        if trace_id is None and parent >= 0:
            trace_id = self.spans[parent][4]
        rec = [name, 0, 0, parent, trace_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def call(self, name, fn, *args, trace_id=None):
        rec = self._open(name, trace_id)
        rec[1] = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            rec[2] = perf_counter_ns()
            self._stack.pop()

    @contextmanager
    def span(self, name, trace_id=None):
        rec = self._open(name, trace_id)
        rec[1] = perf_counter_ns()
        try:
            yield rec
        finally:
            rec[2] = perf_counter_ns()
            self._stack.pop()

    def durations(self, name, trace_id=None) -> list[int]:
        return [s[2] - s[1] for s in self.spans
                if s[0] == name and (trace_id is None or s[4] == trace_id)]

    def self_ns(self) -> dict[str, tuple[int, int]]:
        """name -> (calls, total self time in ns)."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: dict[str, tuple[int, int]] = {}
        for s, c in zip(self.spans, child):
            calls, total = out.get(s[0], (0, 0))
            out[s[0]] = (calls + 1, total + s[2] - s[1] - c)
        return out

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {"fields": ["name", "start_ns", "end_ns", "parent", "trace_id"],
                   "names": names,
                   "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)


def _median_ns(loop, count: int, repeats: int = 5) -> float:
    """Median over repeats of the per-item time of ``loop()``."""
    samples = []
    for _ in range(repeats):
        t0 = perf_counter_ns()
        loop()
        samples.append((perf_counter_ns() - t0) / count)
    return statistics.median(samples)


def gf_kernels(rng: random.Random) -> dict[str, float]:
    t0 = perf_counter_ns()
    make_field(2, 16)
    out = {"gf.make_field.s": (perf_counter_ns() - t0) / 1e9}
    sizes = {"dense": (20000, 20000, 2000), "log": (20000, 20000, 400),
             "poly": (400, 20, 8)}
    for tier, p, m in GF_TIERS:
        spec = make_field(p, m)
        n_fast, n_inv, n_minpoly = sizes[tier]
        xs = [spec.random_element(rng, nonzero=True) for _ in range(n_fast)]
        ys = [spec.random_element(rng, nonzero=True) for _ in range(n_fast)]
        pairs = list(zip(xs, ys))

        def mul():
            for a, b in pairs:
                a * b

        def add():
            for a, b in pairs:
                a + b

        def inv():
            for a in xs[:n_inv]:
                a.inv()

        def minpoly():
            for a in xs[:n_minpoly]:
                minpoly_degree(a)

        out[f"gf.{tier}.mul_ns"] = _median_ns(mul, n_fast)
        out[f"gf.{tier}.add_ns"] = _median_ns(add, n_fast)
        out[f"gf.{tier}.inv_ns"] = _median_ns(inv, n_inv)
        out[f"gf.minpoly_degree.{tier}.us"] = _median_ns(minpoly, n_minpoly, 3) / 1e3
    return out


def mat_kernels(rng: random.Random) -> dict[str, float]:
    ground = make_field(2, 1)
    out = {}
    for n, count in MAT_SIZES.items():
        mats = []
        while len(mats) < 2:
            a = Mat.build(ground, [[rng.randrange(2) for _ in range(n)]
                                   for _ in range(n)])
            if a.det():
                mats.append(a)
        a, b = mats
        rhs = Mat.column(ground, [rng.randrange(2) for _ in range(n)])
        kernels = {"solve": lambda: a.solve(rhs), "inv": a.inv, "det": a.det,
                   "matmul": lambda: a @ b}
        for op, fn in kernels.items():
            def loop(fn=fn):
                for _ in range(count):
                    fn()
            out[f"linalg.Mat.{op}.n{n}.us"] = _median_ns(loop, count) / 1e3
    return out


def feasible_hop_tuples(spec):
    """Feasible first-hop and second-hop coefficient tuples, in the order
    exhaustive_scan visits them."""
    m = spec.m
    hop1, hop2 = [], []
    for t in itertools.product(list(spec.nonzero_elements()), repeat=4):
        ch = TwoHopChannel(spec, t, t)
        verdict = check_feasible(ch)
        if ch.hop_det(1) and verdict.hop1_degree == m:
            hop1.append(t)
        if ch.hop_det(2) and verdict.hop2_degree == m:
            hop2.append(t)
    return hop1, hop2


def scan_replay(tr: Tracer, out: wl.Outcome) -> int:
    """The paired loop of exhaustive_scan(2, 2), stage by stage.  Returns
    the wall time in ns."""
    spec = make_field(2, 2)
    hop1, hop2 = feasible_hop_tuples(spec)
    messages = list(all_messages(spec))
    call = tr.call
    with tr.span("scan.replay", trace_id="scan-gf4") as root:
        for i, (t1, t2) in enumerate(itertools.product(hop1, hop2)):
            with tr.span("scan.channel", trace_id=f"scan-gf4:{i}"):
                ch = TwoHopChannel(spec, t1, t2)
                pre = call("scheme.build_precoders", build_precoders, ch)
                for msg in messages:
                    x1, x2 = call("scheme.source_encode", source_encode, pre, msg)
                    y1, y2 = call("scheme.apply_hop", apply_hop, ch, 1, x1, x2)
                    u1 = call("scheme.relay_decode", relay_decode, pre, ch, y1, 1)
                    u2 = call("scheme.relay_decode", relay_decode, pre, ch, y2, 2)
                    x3 = call("scheme.relay_encode", relay_encode, pre, u1, 1)
                    x4 = call("scheme.relay_encode", relay_encode, pre, u2, 2)
                    y3, y4 = call("scheme.apply_hop", apply_hop, ch, 2, x3, x4)
                    got = call("scheme.destination_decode", destination_decode,
                               pre, y3, y4)
                    out.attempted += 1
                    if got != msg:
                        out.fail(1, f"scan replay channel {i}: {got} != {msg}")
    expect = wl.GOLDEN["scan-gf4"]["round_trips"]
    if len(hop1) * len(hop2) * len(messages) != expect:
        out.fail(1, "scan replay does not cover the golden round trips")
    return root[2] - root[1]


def mimo_slice(tr: Tracer, seed: int, out: wl.Outcome, untraced: bool):
    """The mimo-stream channels of ``seed``, MIMO_TRACE_MSGS messages each.
    Returns (traced, untraced) wall times of the message loop in ns, each the
    shorter of two rounds, and per arm the mean over its channels of the
    median time per message in us."""
    items, labels = [], {}
    for p, m in wl.MIMO_ARMS:
        arm = wl.arm_name(p, m)
        rng = random.Random(f"mimo-stream:{seed}:{p}:{m}:messages")
        with tr.span("mimo-stream.setup", trace_id=arm):
            pipes = wl.mimo_channels(seed, p, m, tr.call)
        for k, (pipe, ok, label) in enumerate(pipes):
            if not ok:
                out.fail(1, f"{label}: plan differs from the pinned one")
            if pipe is None:
                continue
            labels[f"{arm}:{k}"] = label
            for _ in range(MIMO_TRACE_MSGS):
                items.append((f"{arm}:{k}", pipe.run,
                              *mimo.random_message(pipe.ext, m, rng)))
    plain = traced = 0
    for _ in range(2):
        if untraced:
            t0 = perf_counter_ns()
            for _, run, w1, w2 in items:
                run(w1, w2)
            plain = min(plain or math.inf, perf_counter_ns() - t0)
        t0 = perf_counter_ns()
        for tid, run, w1, w2 in items:
            got1, got2, _, _ = tr.call("mimo.MimoPipeline.run", run, w1, w2,
                                       trace_id=tid)
            out.attempted += 1
            if got1 != w1 or got2 != w2:
                out.fail(1, f"mimo-stream {labels[tid]}: decode differs")
        traced = min(traced or math.inf, perf_counter_ns() - t0)
    metrics = {}
    for p, m in wl.MIMO_ARMS:
        arm = wl.arm_name(p, m)
        per_channel = [statistics.median(tr.durations("mimo.MimoPipeline.run", tid))
                       for tid in labels if tid.startswith(f"{arm}:")]
        metrics[f"mimo.MimoPipeline.run.us.{arm}"] = statistics.fmean(per_channel) / 1e3
    return traced, plain, metrics


def hop_products(ch: mimo.MimoChannel):
    q11, q12, q21, q22 = ch.hop1
    s11, s12, s21, s22 = split_blocks(block2x2(*ch.hop2).inv(), ch.m)
    return (q11.inv() @ q12 @ q22.inv() @ q21, s11.inv() @ s12 @ s22.inv() @ s21)


def library_symbol_ext(call: wl.SymbolCall, fn=lambda name, f, *args: f(*args)):
    """The library calls ``gfalign symbol-ext`` makes for ``call``: returns
    (channel, plan, report), or (channel, exception, None) on a rejection."""
    rng = random.Random(call.seed)
    ch = fn("mimo.random_mimo_channel", mimo.random_mimo_channel, call.p, call.m, rng)
    try:
        plan = fn("mimo.plan_extension", mimo.plan_extension, ch)
    except GFAlignError as exc:
        return ch, exc, None
    pre = fn("mimo.build_mimo_precoders", mimo.build_mimo_precoders, plan)
    pipe = fn("mimo.MimoPipeline.init", mimo.MimoPipeline, pre)
    w1, w2 = fn("mimo.random_message", mimo.random_message, plan.ext, call.m, rng)
    report = fn("mimo.simulate_symbol_ext", mimo.simulate_symbol_ext, ch, w1, w2, pipe)
    return ch, plan, report


def cli_self_ms(calls: list[wl.SymbolCall]) -> float:
    """Median over the calls below L=12 of a CLI call's time minus the time
    of the library calls it makes, each the fastest of CLI_REPEATS.  The
    L=12 calls are left out: their planning time swings by more than the
    CLI's own time."""
    diffs = []
    for call in calls:
        if call.cls == "L12":
            continue
        cli_ns, lib_ns = [], []
        for _ in range(CLI_REPEATS):
            t0 = perf_counter_ns()
            wl.run_cli(call)
            t1 = perf_counter_ns()
            library_symbol_ext(call)
            cli_ns.append(t1 - t0)
            lib_ns.append(perf_counter_ns() - t1)
        diffs.append((min(cli_ns) - min(lib_ns)) / 1e6)
    return statistics.median(diffs)


def symbol_slice(tr: Tracer, seed: int, out: wl.Outcome, untraced: bool):
    """The TRACE_SYMBOL_GROUPS calls of symbol-ext through the CLI, then the
    same seeds through the library.  Returns (traced, untraced) CLI wall times in ns,
    each the shorter of two rounds, and cli.self_ms."""
    calls = wl.symbol_calls(seed, TRACE_SYMBOL_GROUPS)
    for call in calls:
        if call.cls.startswith("L"):
            make_field(call.p, int(call.cls[1:]))
    plain = traced = 0
    for _ in range(2):
        if untraced:
            t0 = perf_counter_ns()
            for call in calls:
                wl.run_cli(call)
            plain = min(plain or math.inf, perf_counter_ns() - t0)
        t0 = perf_counter_ns()
        replies = [tr.call("cli.main", wl.run_cli, call,
                           trace_id=f"symbol-ext:{call.seed}") for call in calls]
        traced = min(traced or math.inf, perf_counter_ns() - t0)

    for call, (rc, text) in zip(calls, replies):
        out.attempted += 1
        problem = wl.check_symbol_reply(call, rc, text)
        with tr.span("symbol-ext.library", trace_id=f"symbol-ext:{call.seed}"):
            ch, plan, report = library_symbol_ext(call, tr.call)
        if report is None:
            reason = type(plan).__name__
            if problem is None and (reason != call.cls
                                    or json.loads(text)["error"] != str(plan)):
                problem = f"seed {call.seed}: library raised {reason}: {plan}"
            plan = None
        elif problem is None and json.loads(text) != report.to_dict():
            problem = f"seed {call.seed}: CLI reply differs from the library"
        if problem:
            out.fail(1, problem)
        if plan is not None:
            L = f"L{plan.degree}"
            for prod in hop_products(ch):
                cp = tr.call("linalg.char_poly", char_poly, prod, trace_id=L)
                tr.call("polys.factor_poly", factor_poly, cp, trace_id=L)
                tr.call("linalg.roots_in_field", roots_in_field, cp, plan.ext,
                        trace_id=L)
    return traced, plain, {"cli.self_ms": cli_self_ms(calls)}


def mc_slice(tr: Tracer, seed: int, out: wl.Outcome) -> dict[str, float]:
    """Two mc_feasibility calls per arm of MC_ARMS, then the trials replayed
    through check_feasible."""
    metrics = {}
    chunk_seed = seed * 1_000_000
    for p, m, trials in MC_ARMS:
        arm = wl.arm_name(p, m)
        spec = make_field(p, m)
        for _ in range(2):
            r = tr.call("feasibility.mc_feasibility", mc_feasibility, p, m, trials,
                        chunk_seed, trace_id=arm)
        metrics[f"feasibility.mc_feasibility.us_per_trial.{arm}"] = \
            min(tr.durations("feasibility.mc_feasibility", arm)) / trials / 1e3
        counters = {"feasible_ratio": r.feasible / trials, "rejected": r.rejected}
        for counter in MC_COUNTERS.get(arm, ()):
            metrics[f"feasibility.{counter}.{arm}"] = counters[counter]
        # the trial draws of mc_feasibility: a string-seeded substream each
        feasible = rejected = 0
        for i in range(trials):
            rng = random.Random(f"{chunk_seed}:{i}")
            codes = [rng.randrange(1, spec.order) for _ in range(8)]
            ch = TwoHopChannel(spec, tuple(map(spec.from_code, codes[:4])),
                               tuple(map(spec.from_code, codes[4:])))
            verdict = tr.call("scheme.check_feasible", check_feasible, ch, trace_id=arm)
            rejected += not verdict.model_ok
            feasible += verdict.feasible
        out.attempted += trials
        if (feasible, rejected) != (r.feasible, r.rejected):
            out.fail(trials, f"{arm}: check_feasible replay gives {feasible} feasible "
                     f"/ {rejected} rejected, mc_feasibility {r.feasible} / {r.rejected}")
        metrics[f"scheme.check_feasible.us.{arm}"] = statistics.median(
            tr.durations("scheme.check_feasible", arm)) / 1e3
    return metrics


def traced_run(workload: str, seed: int, out: wl.Outcome, spans_path) -> dict[str, float]:
    """Measure every per-layer metric; the tracing overhead is taken on
    ``workload``'s loop.  Appends check results to ``out``."""
    rng = random.Random(f"trace:{seed}")
    tr = Tracer()
    metrics = gf_kernels(rng)
    metrics.update(mat_kernels(rng))

    t0 = perf_counter_ns()
    report = exhaustive_scan(2, 2)
    scan_plain = perf_counter_ns() - t0
    out.attempted += report.round_trips
    if report.to_dict() != wl.GOLDEN["scan-gf4"]:
        out.fail(report.round_trips, "scan report differs from golden: "
                 + json.dumps(report.to_dict(), sort_keys=True))
    scan_traced = scan_replay(tr, out)
    mimo_traced, mimo_plain, mimo_metrics = mimo_slice(tr, seed, out,
                                                       workload == "mimo-stream")
    sym_traced, sym_plain, sym_metrics = symbol_slice(tr, seed, out,
                                                      workload == "symbol-ext")
    mc_metrics = mc_slice(tr, seed, out)
    for part in (mimo_metrics, sym_metrics, mc_metrics):
        metrics.update(part)

    selfs = tr.self_ns()
    for stage in STAGES:
        metrics[f"scheme.{stage}.self_s"] = selfs[f"scheme.{stage}"][1] / 1e9
    metrics["scheme.stage_self_share"] = sum(
        selfs[f"scheme.{s}"][1] for s in STAGES) / scan_traced
    for fn in MIMO_FNS:
        metrics[f"mimo.{fn}.self_s"] = selfs[f"mimo.{fn}"][1] / 1e9
    for fn in ("linalg.char_poly", "polys.factor_poly", "linalg.roots_in_field"):
        for L in EXT_DEGREES:
            # every degree occurs: symbol_calls fills one group per degree
            metrics[f"{fn}.ms.L{L}"] = statistics.median(tr.durations(fn, f"L{L}")) / 1e6
    metrics["scheme.exhaustive_scan.s"] = scan_plain / 1e9
    metrics["scheme.replay_overhead_ratio"] = scan_traced / scan_plain
    traced, plain = {"mimo-stream": (mimo_traced, mimo_plain),
                     "symbol-ext": (sym_traced, sym_plain)}[workload]
    metrics["trace.overhead_ratio"] = traced / plain
    tr.write(spans_path)
    return metrics
