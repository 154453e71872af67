"""Check that nominal time follows a known change of the package's speed.

    python3 perfbench/gauge_check.py --record perfbench/gauge_check.json

For every workload in BENCHMARK.json it runs the workload's ops as run.py
does, in one process, and puts a slowed pass between every two plain
ones.  In a slowed pass one kind of op (SLOWED) calls the package twice,
so the pass takes longer by that kind's time in a plain pass.  Two things
are checked:

- the state of an op does not reach the gauge: the calibration loop runs
  as fast inside ops, where their live objects and working set are
  there, as right after them.  After an op that a timer sample fell into,
  at most once per gauge period, the loop is run again between ops, and
  the ratio of the last sample inside to this one is taken; the two are
  less than a period apart, so a change of host speed hardly moves it.
  The median ratio must be within TOLERANCE of 1;
- nominal time follows the slowdown: the slowed pass's nominal time over
  the mean of the plain passes on either side of it is, in the median,
  within TOLERANCE of the ratio the plain passes predict.

The same ratios in wall time are printed and recorded as well; on a host
whose speed steps by tens of percent they scatter more.  Outputs are not
checked here (run.py does that).  Exit status 0 means both checks hold on
every workload.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

import run  # caps BLAS threads before numpy is imported

#: Op name prefix of the op kind slowed in each workload.
SLOWED = {
    "figures": "preset fig2b ",
    "mc-steady": "steady-M1e6",
    "mc-transient": "transient-k50",
    "oracle": "collide_oracle_matrix[",
}
#: Slowed passes per workload, and the wall seconds after which no more start.
SLOWED_PASSES = 5
BUDGET_S = 60.0
TOLERANCE = 0.05
SEED = 1


class Times(NamedTuple):
    wall: float
    nominal: float
    kind_wall: float  # of the ops named in SLOWED
    kind_nominal: float


def one_pass(workload, prefix: str, calls: int, speed, inside_over_between: list) -> Times:
    """Times of one pass; appends inside/between loop ratios to the list."""
    import tracing

    totals = [0.0, 0.0, 0.0, 0.0]
    last_between = 0.0
    for op in workload.ops:
        slowed = op.name.startswith(prefix)
        for _ in range(calls if slowed else 1):
            ticks = speed.counts[op.gauge, True]
            _, own, nominal = speed.run(op.gauge, lambda: op.run(tracing.NO_TRACE))
            totals[0] += own
            totals[1] += nominal
            if slowed:
                totals[2] += own
                totals[3] += nominal
            now = time.perf_counter()
            if (speed.counts[op.gauge, True] > ticks
                    and now - speed.latest_at[op.gauge] < run.gauge.PERIOD_S
                    and now - last_between > run.gauge.PERIOD_S):
                inside = speed.latest[op.gauge]
                inside_over_between.append(inside / speed.sample(op.gauge))
                last_between = time.perf_counter()
    return Times(*totals)


def ratios(slowed: list[Times], plain: list[Times], wall: bool) -> tuple[list, list]:
    """Measured and predicted slowed/plain pass ratios, one per slowed pass."""
    measured, predicted = [], []
    for s, a, b in zip(slowed, plain, plain[1:]):
        total = (a.wall + b.wall) if wall else (a.nominal + b.nominal)
        kind = (a.kind_wall + b.kind_wall) if wall else (a.kind_nominal + b.kind_nominal)
        measured.append((s.wall if wall else s.nominal) / (0.5 * total))
        predicted.append(1.0 + kind / total)
    return measured, predicted


def check(name: str, tmp: Path) -> dict:
    import workloads

    workload = workloads.build(name, SEED, tmp)
    prefix = SLOWED[name]
    loop_ratios: dict[str, list[float]] = {"plain": [], "slowed": []}
    with run.gauge.Gauge() as speed:
        one_pass(workload, prefix, 1, speed, [])  # warm-up
        plain = [one_pass(workload, prefix, 1, speed, loop_ratios["plain"])]
        slowed: list[Times] = []
        start = time.perf_counter()
        while len(slowed) < SLOWED_PASSES and time.perf_counter() - start < BUDGET_S:
            slowed.append(one_pass(workload, prefix, 2, speed, loop_ratios["slowed"]))
            plain.append(one_pass(workload, prefix, 1, speed, loop_ratios["plain"]))
    entry: dict = {"slowed_ops": prefix.strip(), "slowed_passes": len(slowed)}
    for label, wall in (("nominal", False), ("wall", True)):
        measured, predicted = ratios(slowed, plain, wall)
        entry[label] = {
            "measured": measured,
            "predicted": predicted,
            "off": statistics.median(m / p - 1.0 for m, p in zip(measured, predicted)),
        }
    entry["loop_inside_off"] = {
        passes: {"pairs": len(values), "off": statistics.median(values) - 1.0}
        for passes, values in loop_ratios.items()
    }
    entry["follows"] = abs(entry["nominal"]["off"]) <= TOLERANCE and all(
        abs(v["off"]) <= TOLERANCE for v in entry["loop_inside_off"].values())
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", type=Path, help="write every ratio and verdict here")
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    record: dict = {"seed": SEED, "tolerance": TOLERANCE,
                    "environment": run.environment(), "workloads": {}}
    ok = True
    tmp = run.OUT / "gauge-check"
    for name in (w["name"] for w in bench["workloads"]):
        tmp.mkdir(parents=True, exist_ok=True)
        try:
            entry = check(name, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        ok &= entry["follows"]
        record["workloads"][name] = entry
        n, w = entry["nominal"], entry["wall"]
        print(f"{name}: {entry['slowed_ops']} run twice in {entry['slowed_passes']} passes; "
              f"slowed/plain pass ratio off its prediction by {n['off']:+.4f} nominal, "
              f"{w['off']:+.4f} wall (median ratio {statistics.median(n['measured']):.4f} "
              f"nominal, {statistics.median(w['measured']):.4f} wall); loop inside/between "
              f"ops off by {json.dumps({k: round(v['off'], 4) for k, v in entry['loop_inside_off'].items()})}"
              f"; follows {entry['follows']}")
    record["follows"] = bool(ok)
    print(f"nominal time follows the injected change on every workload: {ok}")
    if args.record:
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
