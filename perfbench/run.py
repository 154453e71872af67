"""thermomachine benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The benchmark is single-threaded and closed-loop: each
op starts after the previous one returned, BLAS runs on one thread, and
the set-up probes run as child processes one at a time.

``--trace 0`` times the workload end to end: set-up in fresh processes,
peak memory in one more fresh process that sets up and makes one unchecked
pass, then in this process one warm-up pass and passes until ``--seconds``
have gone by.
``--trace 1`` alternates untraced and traced passes, then times the
public functions of every module (layers.py), and prints the per-module
metrics.  Either way every op's output is checked, and the last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1

# Cap BLAS threads before numpy is imported, here and in the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import gauge  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("figures", "mc-steady", "mc-transient", "oracle")
ITEM_METRIC = {"rows": "rows_per_s", "trials": "trials_per_s", "collisions": "collisions_per_s"}
SETUP_PROBES = 9
MIN_PASSES = 2


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    # Default: the package's default master seed, where reference.json was captured.
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=0x5EED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "rss"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
    }


def setup_probe(args: argparse.Namespace) -> None:
    """Child process: print wall and nominal seconds of import plus input construction."""
    import importlib

    def setup():
        workloads = importlib.import_module("workloads")
        workloads.build(args.workload, args.seed, OUT / "setup-probe")

    with gauge.Gauge(("python",)) as speed:
        result, wall, nominal = speed.run("python", setup)
    if isinstance(result, Exception):
        raise result
    print(repr(wall), repr(nominal))


def rss_probe(args: argparse.Namespace, tmp: Path) -> None:
    """Child process: print peak resident MB of set-up plus one unchecked pass.

    Nothing but the package's calls and their inputs runs here: no expected
    values, no output checks, no gauge.  The ops run in name order, because
    the peak depends on the order (by up to 5% on figures, whose order is
    seeded) and should not move from one seed to the next.
    """
    import workloads

    workload = workloads.build(args.workload, args.seed, tmp)
    for op in sorted(workload.ops, key=lambda op: op.name):
        try:
            op.run(tracing.NO_TRACE)
        except Exception:  # the measuring process counts and checks failures
            pass
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def probe(args: argparse.Namespace, kind: str) -> list[str]:
    """The last stdout line of a fresh ``--probe kind`` process, split."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--probe", kind]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"{kind} probe failed:\n{done.stderr}")
    return done.stdout.strip().splitlines()[-1].split()


class Tally:
    """Attempted, failed and wrong ops over a run, with one example each."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.unexpected = 0
        self.examples: dict[str, str] = {}


class Pass(NamedTuple):
    wall: float  # seconds inside the package calls
    nominal: float  # the same, in nominal seconds (see gauge.py)
    items: int  # rows, trials or collisions of the ops whose output was right


def run_pass(workload, tracer, tally: Tally, speed: gauge.Gauge) -> Pass:
    """One pass over the workload's ops; only the package calls are timed."""
    wall = nominal = 0.0
    items = 0
    for index, op in enumerate(workload.ops):
        tally.attempted += 1
        with tracer.span("bench.op", index):
            output, own, own_nominal = speed.run(op.gauge, lambda: op.run(tracer))
        wall += own
        nominal += own_nominal
        if isinstance(output, Exception):
            tally.failed += 1
            if op.known_error is None or not isinstance(output, op.known_error):
                tally.unexpected += 1
            tally.examples.setdefault(op.name, f"{type(output).__name__}: {output}")
        elif (reason := op.check(output)) is None:
            items += op.items
        else:
            tally.failed += 1
            tally.wrong += 1
            tally.examples.setdefault(op.name, f"wrong output: {reason}")
        # Free this op's output before the next op runs, so that peak memory
        # does not depend on the seeded op order.
        del output
    return Pass(wall, nominal, items)


def tail(times: list[float]) -> str:
    """Highest percentile with at least ten passes beyond it, if there is one."""
    n = len(times)
    if n < 11:
        return f"n/a (needs 11 passes, have {n})"
    ordered = sorted(times)
    return f"{ordered[n - 11]:.6g} s (p{100.0 * (n - 10) / n:.1f} of {n} passes)"


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "thermomachine" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe == "setup":
        setup_probe(args)
        return 0

    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.probe == "rss":
            rss_probe(args, tmp)
            return 0
        return measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args: argparse.Namespace, tmp: Path) -> int:
    setup = [] if args.trace else [tuple(map(float, probe(args, "setup")))
                                    for _ in range(SETUP_PROBES)]
    peak_rss_mb = None if args.trace else float(probe(args, "rss")[0])

    import thermomachine
    import workloads

    if not Path(thermomachine.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: thermomachine imported from outside {SRC}", file=sys.stderr)
        return 2

    workload = workloads.build(args.workload, args.seed, tmp)
    workload.prepare()
    tally = Tally()
    plain: list[Pass] = []
    traced: list[Pass] = []
    tracer = tracing.Tracer()
    with gauge.Gauge() as speed:
        run_pass(workload, tracing.NO_TRACE, tally, speed)  # warm-up: caches, lazy set-up
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or len(plain) < MIN_PASSES:
            plain.append(run_pass(workload, tracing.NO_TRACE, tally, speed))
            if args.trace:
                traced.append(run_pass(workload, tracer, tally, speed))
        pass_spans = len(tracer.spans)
        if args.trace:
            import layers

            metrics = layers.measure(args.seed, tracer, speed, tmp)

    pass_s = statistics.median(p.nominal for p in plain)
    rate = statistics.median(p.items / p.nominal for p in plain)
    lines = [
        f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
        f"{len(plain)} untraced passes after one warm-up",
        f"pass_s {pass_s:.6g} s nominal, {statistics.median(p.wall for p in plain):.6g} s wall "
        f"(medians); pass_s_tail {tail([p.nominal for p in plain])}",
        f"{ITEM_METRIC[workload.item]} {rate:.6g} 1/s nominal (items_per_s)",
        f"fail_ratio {tally.failed / tally.attempted:.6g} ({tally.failed}/{tally.attempted} ops; "
        f"{tally.wrong} wrong outputs, {tally.failed - tally.wrong} raised)",
    ]
    lines += [f"  failed op {name}: {why}" for name, why in sorted(tally.examples.items())]
    lines.append(f"counters {json.dumps(workload.counters)}")
    lines.append(f"gauge loop mean ms inside ops {json.dumps(speed.mean_ms(True))}, between ops "
                 f"{json.dumps(speed.mean_ms(False))} (nominal {1e3 * gauge.NOMINAL_S} ms)")

    if args.trace:
        traced_s = statistics.median(p.nominal for p in traced)
        metrics["trace.overhead_s"] = (traced_s - pass_s, "s")
        lines.append(
            f"tracing overhead {traced_s - pass_s:.6g} s per pass "
            f"(traced {traced_s:.6g} s, untraced {pass_s:.6g} s, {len(traced)} traced passes)"
        )
        for module, secs in sorted(tracer.self_time_by_module(0, pass_spans).items()):
            lines.append(f"self time in traced passes: {module} {1e3 * secs / len(traced):.6g} ms/pass")
        for module, secs in sorted(tracer.self_time_by_module(pass_spans).items()):
            lines.append(f"self time in layer probes: {module} {1e3 * secs:.6g} ms")
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                  "environment": environment(), "pass_spans": pass_spans})
        lines.append(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": (statistics.median(nominal for _, nominal in setup), "s"),
            "pass_s": (pass_s, "s"),
            "items_per_s": (rate, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        lines.append("setup_s wall/nominal: " + ", ".join(f"{w:.4f}/{n:.4f}" for w, n in setup))

    lines.append(f"environment {json.dumps(environment())}")
    lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    print("\n".join(f"# {line}" for line in lines))
    result = {
        "correct": tally.wrong == 0 and tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
