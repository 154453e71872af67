"""Run the benchmark in two sets and report whether the sets agree.

    python3 perfbench/agree.py --runs 10 --record perfbench/results.json

Each set makes ``--runs`` untraced runs of every workload in
BENCHMARK.json, each run ``run_seconds`` long with its own seed (set A:
1..n, set B: n+1..2n; runs of the two sets alternate).  For every
end-to-end metric it reports the median, the quartiles and the spread
(quartile distance over median) of each set.  The sets agree when every
spread, set-up time's too, stays within the metric's bound and the two
medians differ by no more than the bound, in either direction.  One traced
run per set (same seed) checks that the per-layer counts repeat exactly.
Exit status 0 means the sets agree and every run was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_UNITS = ("count", "ratio")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def worse_by(metric: dict, base: float, new: float) -> float:
    """How much worse new is than base, as a share of base; negative if better."""
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--record", type=Path, help="write every value and verdict here")
    args = parser.parse_args()
    seconds = bench["run_seconds"]

    import numpy

    record = {
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpu_model": cpu_model(),
            "cpus": os.cpu_count(),
            "blas_threads": 1,
        },
        "run_seconds": seconds,
        "runs_per_set": args.runs,
        "workloads": {},
    }
    ok = correct = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets: list[list[dict]] = [[], []]
        for i in range(args.runs):
            for s in range(2):
                result = run_once(workload, 1 + i + s * args.runs, seconds, 0)
                correct &= result["correct"]
                sets[s].append(result)
        entry: dict = {"fail_ratio": [r["failed"] / r["attempted"] for r in sets[0]], "metrics": {}}
        print(f"{workload}: fail_ratio {entry['fail_ratio'][0]:.6g}, all runs correct {correct}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results]
                stats.append((values, *spread(values)))
            line = f"  {name:<12}"
            verdict = {"bound": bound, "sets": []}
            for values, median, q1, q3, rel in stats:
                steady = rel <= bound
                ok &= steady
                line += f" median {median:.6g} [{q1:.6g}, {q3:.6g}] spread {rel:.3f}"
                line += "" if steady else " (SPREAD OVER BOUND)"
                verdict["sets"].append({"values": values, "median": median, "q1": q1, "q3": q3,
                                        "spread": rel})
            change = worse_by(metric, stats[0][1], stats[1][1])
            ok &= abs(change) <= bound
            verdict["worse_by"] = change
            line += f" | B worse by {change:+.3f} (bound +-{bound})"
            print(line + f" {metric['unit']}")
            entry["metrics"][name] = verdict
        traced = [run_once(workload, 1, seconds, 1)["metrics"] for _ in range(2)]
        exact = {
            name: [t[name]["value"] for t in traced]
            for name, m in traced[0].items()
            if m["unit"] in EXACT_UNITS
        }
        differing = [name for name, (a, b) in exact.items() if a != b]
        ok &= not differing
        entry["traced_counts"] = {name: values[0] for name, values in exact.items()}
        entry["traced_counts_differing"] = differing
        print(f"  per-layer counts repeat exactly: {not differing} {differing or ''}")
        record["workloads"][workload] = entry
    record["agree"] = bool(ok)
    record["correct"] = bool(correct)
    print(f"sets agree: {ok}; every run correct: {correct}")
    if args.record:
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok and correct else 1


if __name__ == "__main__":
    sys.exit(main())
