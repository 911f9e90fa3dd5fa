"""The benchmark workloads: seeded set-up, a timed loop and output checks.

Each workload is a class: the constructor is the set-up and ``timed``
runs the measured loop, then checks the outputs.  Every input is derived
from the seed, partly by sampling the screened pool in pool.json (see
make_pool.py); the program receives nothing else.  ``inject`` names a
deliberately wrong expectation the self-test uses to prove the checks bite.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

from gfalign import cli, mimo
from gfalign.errors import GFAlignError
from gfalign.gf import make_field

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden.json").read_text())
POOL_PATH = HERE / "pool.json"

# mimo-stream arms (p, m), the c09 shape.  pool.json holds, per arm, the
# number of channels of each extension degree L, stratified to the L shares
# of c09's seeded draws, and a pool of screened channel seeds per L.
MIMO_ARMS = ((2, 2), (3, 2), (2, 3), (3, 3), (2, 4))
MIMO_CHANNELS_PER_ARM = 10
# Messages per channel.  Sorted by run time, the messages form groups: the
# L=2 arms (about 45 us), the L=3 channels (about 75 us), (2,4) (about
# 145 us) and the L=6 channels of (3,3) (about 200 us), which are half of
# that arm's channels.  At equal weights the L=6 messages are 10% of all, so
# p90 would sit on their boundary with (2,4) and jump between the two.
# Twice the messages per (3,3) channel puts p50 in the middle of the L=3
# group and p90 inside the L=6 group.
MIMO_MSGS = {(3, 3): 320}
MIMO_MSGS_DEFAULT = 160

# symbol-ext calls per run, as ((p, m), verdict class, count).  The class
# is "L<k>" for a channel that plans over F_{p^k}, or the exception the CLI
# reports for a channel it refuses.  Fixed counts keep each latency
# percentile inside one group of similar calls.  Sorted by latency, a run
# holds 70 calls of about 2-13 ms at L <= 3 or rejected, 26 (3,3) calls of
# about 21 ms and 4 (2,6) L=12 calls of 0.22-0.29 s (a few L=3 channels
# redraw singular matrices and cost up to 45 ms).  So p50 falls inside the
# cheap calls, p90 inside the (3,3) calls, and the L=12 calls are the top
# of the ten beyond p90.  A call keeps its fastest time over the passes,
# and a shared host is busy for stretches of seconds to minutes, so only a
# short call that runs many times finds a quiet moment in most runs: cheap
# calls for the bulk make the passes short and many.  (2,6) channels that plan with
# L <= 6 or are rejected cost anywhere from 10 to 120 ms, because
# random_mimo_channel redraws singular matrices; the mix leaves them out.
SYMBOL_GROUPS = (
    ((2, 2), "L2", 25),
    ((3, 2), "DegenerateSpectrum", 20),
    ((2, 3), "L3", 25),
    ((3, 3), "L6", 26),
    ((2, 6), "L12", 4),
)

def arm_name(p: int, m: int) -> str:
    return f"p{p}m{m}"


def digest(obj) -> str:
    """Short digest of a JSON value, independent of its formatting."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def plan_digest(plan: mimo.ExtensionPlan) -> str:
    """Digest of a plan: its summary, eigenvalues and eigenvectors."""
    hops = [{"eigenvalues": [e.code for e in hop.eigenvalues],
             "eigenvectors": hop.eigenvectors.to_code_rows()}
            for hop in (plan.hop1, plan.hop2)]
    return digest({"summary": plan.summary(), "hops": hops})


@functools.cache
def pool() -> dict:
    return json.loads(POOL_PATH.read_text())


def passes_for(seconds: float, pass_s: float) -> int:
    """Passes over the inputs for a run of about ``seconds``.  ``pass_s`` is
    a fixed estimate of one pass, so the count depends on the arguments
    only, never on the speed of the program."""
    return max(1, round(seconds / pass_s))


def rejection_reason(message: str) -> str | None:
    """Exception class behind a symbol-ext error message, or None."""
    if "repeated irreducible factor" in message:
        return "DegenerateSpectrum"
    if message.endswith("is singular"):
        return "SingularChannel"
    return None


def reply_class(rc: int, reply: dict) -> str | None:
    """Verdict class of a parsed symbol-ext reply, or None when the reply is
    not a correct verdict of either kind."""
    if rc == 0 and reply.get("success") is True:
        if reply["decoded"] != reply["message"]:
            return None
        return f"L{reply['plan']['extension_degree']}"
    if rc == 1 and reply.get("success") is False:
        return rejection_reason(reply.get("error", ""))
    return None


@dataclass
class SymbolCall:
    p: int
    m: int
    seed: int
    cls: str
    digest: str


def stratified(entries: list, count: int, rng: random.Random) -> list:
    """``count`` entries, one from each of ``count`` equal slices of
    ``entries``; the pool lists them from the fastest call to the slowest,
    so every sample spans the pool's range of costs."""
    n = len(entries)
    return [entries[rng.randrange(k * n // count, (k + 1) * n // count)]
            for k in range(count)]


def symbol_calls(seed: int, groups=SYMBOL_GROUPS) -> list[SymbolCall]:
    """CLI seeds for ``groups``, sampled by ``seed`` from the screened pool
    and shuffled, so every stretch of the loop mixes the groups."""
    calls = []
    for pm, cls, count in groups:
        entries = pool()["symbol-ext"][arm_name(*pm)][cls]
        rng = random.Random(f"symbol-ext:{seed}:{arm_name(*pm)}:{cls}")
        calls += [SymbolCall(pm[0], pm[1], s, cls, pinned)
                  for s, pinned, _ in stratified(entries, count, rng)]
    random.Random(f"symbol-ext:{seed}:order").shuffle(calls)
    return calls


def run_cli(call: SymbolCall) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["symbol-ext", "--p", str(call.p), "--m", str(call.m),
                       "--seed", str(call.seed)])
    return rc, buf.getvalue()


def check_symbol_reply(call: SymbolCall, rc: int, text: str) -> str | None:
    """None when the CLI's reply is a correct verdict for the call and
    equals the reply pinned for its seed."""
    try:
        reply = json.loads(text)
    except json.JSONDecodeError:
        return f"seed {call.seed}: reply is not JSON (exit {rc})"
    got = reply_class(rc, reply)
    if got is None:
        return f"seed {call.seed}: exit {rc} with reply {reply.get('error')!r}"
    if got != call.cls:
        return f"seed {call.seed}: verdict {got}, expected {call.cls}"
    if digest(reply) != call.digest:
        return f"seed {call.seed}: reply differs from the pinned one"
    return None


def mimo_channels(seed: int, p: int, m: int, call=lambda name, fn, *args: fn(*args)):
    """The arm's channels for ``seed``: sampled from the screened pool, per
    extension degree L as many as pool.json gives.  Returns, per channel,
    (pipeline or None, whether the plan equals the pinned one, label)."""
    arm = pool()["mimo-stream"][arm_name(p, m)]
    pipes = []
    for cls, count in arm["counts"].items():
        rng = random.Random(f"mimo-stream:{seed}:{arm_name(p, m)}:{cls}")
        for s, pinned in rng.sample(arm["pool"][cls], count):
            ch = call("mimo.random_mimo_channel", mimo.random_mimo_channel,
                      p, m, random.Random(s))
            try:
                plan = call("mimo.plan_extension", mimo.plan_extension, ch)
            except GFAlignError:
                pipes.append((None, False, f"{arm_name(p, m)} seed {s}"))
                continue
            ok = f"L{plan.degree}" == cls and plan_digest(plan) == pinned
            pre = call("mimo.build_mimo_precoders", mimo.build_mimo_precoders, plan)
            pipes.append((call("mimo.MimoPipeline.init", mimo.MimoPipeline, pre), ok,
                          f"{arm_name(p, m)} seed {s}"))
    return pipes


@dataclass
class Outcome:
    """What a timed loop did.  Each distinct input keeps its fastest time
    over a fixed number of passes, so short slow phases of a shared host
    drop out."""

    best_ns: list[int] = field(default_factory=list)    # per input
    input_ops: list[int] = field(default_factory=list)  # ops per input
    passes: int = 0
    calls: int = 0
    elapsed_ns: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)

    def cycle(self, call, input_ops: list[int], passes: int) -> None:
        """Run ``call(i)`` for every input i in turn, ``passes`` times."""
        n = len(input_ops)
        best = [0] * n
        start = perf_counter_ns()
        for _ in range(passes):
            for i in range(n):
                t0 = perf_counter_ns()
                call(i)
                dt = perf_counter_ns() - t0
                if not best[i] or dt < best[i]:
                    best[i] = dt
        self.elapsed_ns = perf_counter_ns() - start
        self.passes = passes
        self.calls = n * passes
        self.best_ns = best
        self.input_ops = list(input_ops)


class MimoStream:
    """Pre-planned matrix channels; the timed part streams pre-generated
    extension-field messages through MimoPipeline.run."""

    op = "verified round trip"
    call = "MimoPipeline.run"
    pass_s = 1.5

    def __init__(self, seed: int, inject: str | None = None):
        per_channel = []
        self.bad_plans = []
        self.channels = 0
        for p, m in MIMO_ARMS:
            rng = random.Random(f"mimo-stream:{seed}:{p}:{m}:messages")
            count = MIMO_MSGS.get((p, m), MIMO_MSGS_DEFAULT)
            for pipe, ok, label in mimo_channels(seed, p, m):
                self.channels += 1
                if not ok:
                    self.bad_plans.append(label)
                if pipe is None:
                    continue
                per_channel.append([(pipe.run, *mimo.random_message(pipe.ext, m, rng))
                                    for _ in range(count)])
        # interleave channels so every stretch of the loop mixes all arms
        self.items = [msgs[i] for i in range(max(map(len, per_channel)))
                      for msgs in per_channel if i < len(msgs)]
        self.expected = [(w1, w2) for _, w1, w2 in self.items]
        if inject == "decode":
            w1, w2 = self.expected[0]
            self.expected[0] = ((w1[0] + w1[0].spec.one,) + w1[1:], w2)

    def timed(self, seconds: float) -> Outcome:
        out = Outcome()
        items, expected = self.items, self.expected
        bad = []

        def call(i):
            run, w1, w2 = items[i]
            got1, got2, _, _ = run(w1, w2)
            if (got1, got2) != expected[i]:
                bad.append(i)

        out.cycle(call, [1] * len(items), passes_for(seconds, self.pass_s))
        # each planned channel is one op of the set-up
        out.attempted = out.calls + self.channels
        if bad:
            out.fail(len(bad), f"{len(bad)} MimoPipeline.run decodes differ from "
                     f"the message, first at input {bad[0]}")
        for label in self.bad_plans:
            out.fail(1, f"{label}: plan differs from the pinned one")
        return out


class SymbolExt:
    """In-process ``gfalign symbol-ext --p P --m M --seed S`` calls; each is a
    fresh channel draw, plan, precoder build and one message."""

    op = "channel (one CLI call)"
    call = "cli.main symbol-ext"
    pass_s = 3.0

    def __init__(self, seed: int, inject: str | None = None):
        self.calls = symbol_calls(seed)
        for call in self.calls:
            if call.cls.startswith("L"):
                make_field(call.p, int(call.cls[1:]))
        if inject == "reply":
            self.calls[0].digest = "0" * 16

    def timed(self, seconds: float) -> Outcome:
        out = Outcome()
        calls = self.calls
        first: dict[int, tuple[int, str]] = {}
        changed = []

        def call(i):
            reply = run_cli(calls[i])
            if first.setdefault(i, reply) != reply:
                changed.append(i)

        out.cycle(call, [1] * len(calls), passes_for(seconds, self.pass_s))
        out.attempted = out.calls
        for i in changed:
            out.fail(1, f"seed {calls[i].seed}: reply differs between calls")
        counts: dict[str, dict[str, int]] = {}
        for i, (rc, text) in first.items():
            problem = check_symbol_reply(calls[i], rc, text)
            if problem:
                out.fail(out.passes, problem)
                continue
            arm = counts.setdefault(arm_name(calls[i].p, calls[i].m), {})
            arm[calls[i].cls] = arm.get(calls[i].cls, 0) + 1
        out.notes["verdicts"] = counts
        return out


WORKLOADS = {"mimo-stream": MimoStream, "symbol-ext": SymbolExt}
INJECT = {"mimo-stream": "decode", "symbol-ext": "reply"}
