#!/usr/bin/env python3
"""Build pool.json: the screened channel seeds the workloads sample from,
with the outputs of the program they are checked against.

    python3 perfbench/make_pool.py

Screening happens here, once, and not in a workload's measured set-up.
The file is written at the seed commit; rebuilding it on a later commit
would pin that commit's outputs instead.

- ``mimo-stream``: per arm, the extension degrees L of the c09 shape's
  seeded draws (C09_DRAWS channels drawn from one stream per arm, as the
  acceptance test c09 draws them), their shares among the channels that
  plan, and the number of channels per L that gives MIMO_CHANNELS_PER_ARM
  channels at those shares (largest remainder).  Then a pool of
  POOL_FACTOR times that many integer channel seeds per L, each with a
  digest of its plan (summary, eigenvalues and eigenvectors).
- ``symbol-ext``: per group of SYMBOL_GROUPS, POOL_FACTOR times the seeds a
  run needs, each with the digest of the CLI's reply and the fastest of
  COST_PASSES calls in ms, listed from the fastest to the slowest.  A run
  samples one seed from each of equal slices of that order (see
  workloads.stratified), so its calls span the pool's range of costs.
"""

import json
import random
import re
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from gfalign import mimo  # noqa: E402
from gfalign.errors import GFAlignError  # noqa: E402

import workloads as wl  # noqa: E402

C09_SEED = 20260809      # the acceptance tests' SEED
C09_DRAWS = 200
POOL_FACTOR = 3
MIN_POOL = 6
MAX_DRAWS = 20000
COST_PASSES = 8


def plan_class(ch) -> tuple[str, object]:
    """("L<k>", plan) for a channel that plans, (exception name, None) else."""
    try:
        plan = mimo.plan_extension(ch)
    except GFAlignError as exc:
        return type(exc).__name__, None
    return f"L{plan.degree}", plan


def stratify(shares: dict[str, float], total: int) -> dict[str, int]:
    """Counts summing to ``total`` in proportion to ``shares``."""
    raw = {k: v * total for k, v in shares.items()}
    counts = {k: int(v) for k, v in raw.items()}
    for k in sorted(raw, key=lambda k: counts[k] - raw[k])[:total - sum(counts.values())]:
        counts[k] += 1
    return {k: n for k, n in sorted(counts.items()) if n}


def mimo_arm(p: int, m: int) -> dict:
    stream = random.Random(f"{C09_SEED}:mimo:{p}:{m}")
    draws = Counter(plan_class(mimo.random_mimo_channel(p, m, stream))[0]
                    for _ in range(C09_DRAWS))
    planned = {k: n for k, n in draws.items() if k.startswith("L")}
    total = sum(planned.values())
    shares = {k: n / total for k, n in sorted(planned.items())}
    counts = stratify(shares, wl.MIMO_CHANNELS_PER_ARM)
    want = {k: max(POOL_FACTOR * n, MIN_POOL) for k, n in counts.items()}
    pools: dict[str, list] = {k: [] for k in counts}
    seeds = random.Random(f"pool:mimo-stream:{p}:{m}")
    for _ in range(MAX_DRAWS):
        if all(len(pools[k]) >= n for k, n in want.items()):
            break
        s = seeds.randrange(1 << 30)
        cls, plan = plan_class(mimo.random_mimo_channel(p, m, random.Random(s)))
        if cls in pools and len(pools[cls]) < want[cls]:
            pools[cls].append([s, wl.plan_digest(plan)])
    else:
        raise RuntimeError(f"mimo-stream pool at ({p},{m}) not filled")
    return {"c09_draws": dict(sorted(draws.items())), "shares": shares,
            "counts": counts, "pool": pools}


def symbol_arms() -> dict:
    want: dict[tuple, int] = {}
    for pm, cls, count in wl.SYMBOL_GROUPS:
        want[pm, cls] = want.get((pm, cls), 0) + POOL_FACTOR * count
    out: dict[str, dict] = {}
    for pm in dict.fromkeys(pm for pm, _, _ in wl.SYMBOL_GROUPS):
        pools = {cls: [] for (q, cls) in want if q == pm}
        seeds = random.Random(f"pool:symbol-ext:{pm[0]}:{pm[1]}")
        for _ in range(MAX_DRAWS):
            if all(len(pools[cls]) >= want[pm, cls] for cls in pools):
                break
            s = seeds.randrange(1 << 30)
            # classify without the CLI first: most draws are not wanted
            cls, _ = plan_class(mimo.random_mimo_channel(pm[0], pm[1], random.Random(s)))
            if cls not in pools or len(pools[cls]) >= want[pm, cls]:
                continue
            rc, text = wl.run_cli(wl.SymbolCall(pm[0], pm[1], s, cls, ""))
            reply = json.loads(text)
            if wl.reply_class(rc, reply) != cls:
                raise RuntimeError(f"seed {s}: CLI verdict differs from the library's")
            pools[cls].append([s, wl.digest(reply)])
        else:
            raise RuntimeError(f"symbol-ext pool at {pm} not filled")
        out[wl.arm_name(*pm)] = {cls: by_cost(pm, cls, entries)
                                 for cls, entries in pools.items()}
    return out


def by_cost(pm: tuple, cls: str, entries: list) -> list:
    """``entries`` with the fastest of COST_PASSES CLI calls appended to
    each, in ms, from the fastest to the slowest.  The passes run over all
    entries in turn, so the calls of one entry fall in different stretches
    of host load."""
    best = [float("inf")] * len(entries)
    for _ in range(COST_PASSES):
        for i, (s, _) in enumerate(entries):
            t0 = perf_counter_ns()
            wl.run_cli(wl.SymbolCall(pm[0], pm[1], s, cls, ""))
            best[i] = min(best[i], (perf_counter_ns() - t0) / 1e6)
    return sorted(([s, d, round(ms, 1)] for (s, d), ms in zip(entries, best)),
                  key=lambda e: e[2])


def main() -> int:
    record = {"mimo-stream": {}, "symbol-ext": {}}
    for p, m in wl.MIMO_ARMS:
        arm = mimo_arm(p, m)
        record["mimo-stream"][wl.arm_name(p, m)] = arm
        print(f"mimo-stream ({p},{m}): c09 draws {arm['c09_draws']}, "
              f"channels per L {arm['counts']}", file=sys.stderr)
    record["symbol-ext"] = symbol_arms()
    # one pool entry per line keeps the file short and diffable
    text = re.sub(r'\[\s+(\d+),\s+("\w+")(,\s+[\d.]+)?\s+\]',
                  lambda g: f"[{g[1]}, {g[2]}{', ' + g[3][1:].strip() if g[3] else ''}]",
                  json.dumps(record, indent=1))
    wl.POOL_PATH.write_text(text + "\n")
    print(f"wrote {wl.POOL_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
