"""Per-module timings for the traced run.

Each probe times the benchmark's own calls into one module's public
functions on fixed inputs, inside a span named ``<module>.<function>``,
and reports the median over repeats in nominal time (gauge.py).  The
inputs are the ones the workloads use: the fig2b/figS1b parameter blocks,
the oracle workload's random machines and the Monte Carlo studies at the
run's seed.
"""

from __future__ import annotations

import math
import statistics
from pathlib import Path

import thermomachine as tm
from thermomachine import cli

import expect
import workloads

REPEATS = 5


class CountingModel:
    """Wraps a p0(T) model and counts the calls ml_estimate makes."""

    def __init__(self, model) -> None:
        self.model = model
        self.calls = 0

    def __call__(self, T: float) -> float:
        self.calls += 1
        return self.model(T)


class Probe:
    """Times calls in spans, in nominal seconds.

    The exact oracles are gauged by the small-numpy loop, Philox sampling
    by the large-numpy loop and everything else by the Python loop.
    """

    def __init__(self, tracer, speed) -> None:
        self.tracer = tracer
        self.speed = speed

    def once(self, name: str, fn) -> float:
        if name.startswith(("dynamics.exact_unitary", "dynamics.collide_oracle")):
            kind = "numpy-small"
        elif name == "estimation.sample_measurements":
            kind = "numpy-large"
        else:
            kind = "python"
        with self.tracer.span(name):
            return self.speed.nominal(kind, fn)

    def median(self, name: str, fn, repeats: int = REPEATS) -> float:
        return statistics.median(self.once(name, fn) for _ in range(repeats))

    def per_call(self, name: str, fn, args: list, repeats: int = REPEATS) -> float:
        """Median over repeats of the mean seconds per call of fn(*a) over args."""

        def loop():
            for a in args:
                fn(*a)

        return self.median(name, loop, repeats) / len(args)


def measure(seed: int, tracer, speed, tmp: Path) -> dict[str, tuple[float, str]]:
    probe = Probe(tracer, speed)
    m: dict[str, tuple[float, str]] = {}
    steady = workloads.tuned(workloads.STUDIES["steady-M1e4"][0])
    cold = tm.tune_config(1.0, T=0.1, T_prior=0.1, T_v=1.0)  # fig2b block
    cold_params = tm.collision_params(cold)
    ks = list(range(0, 50_001, 10))  # fig2b k axis
    oracle_inputs = workloads.oracle_inputs(200, seed)
    h = tm.build_triad_hamiltonian(cold)
    k_points = [(k, 1.0, cold, 1) for k in ks[1::10]]

    us = {
        "core.collision_params": (tm.collision_params, [(cold,)] * 2000),
        "core.tune_config": (tm.tune_config, [(1.0, 0.1, 0.1, 1.0)] * 2000),
        "dynamics.transient_population": (
            tm.transient_population, [(k, 1.0, cold_params) for k in ks]),
        "dynamics.exact_unitary": (tm.exact_unitary, [(h, cold.collision_time)] * 500),
        "dynamics.collide_oracle": (
            tm.collide_oracle, [(probe_state, c) for c, probe_state, _, _ in oracle_inputs]),
        "dynamics.collide_oracle_matrix": (
            tm.collide_oracle_matrix, [(rho, c) for c, _, rho, _ in oracle_inputs]),
        "dynamics.collide_oracle_dlevel": (
            tm.collide_oracle_dlevel, [(p.p0, s, c) for c, p, _, s in oracle_inputs]),
        "metrology.snr_transient": (tm.snr_transient, k_points),
        "metrology.sensitivity_transient": (tm.sensitivity_transient, [a[:3] for a in k_points]),
        "metrology.snr_steady": (tm.snr_steady, [(steady, 1)] * 2000),
        "metrology.snr_thermal": (tm.snr_thermal, [(0.1, 1.0, 1)] * 2000),
        "metrology.snr_sample_bound": (
            tm.snr_sample_bound, [(k, 1.0 / 11.0, 1.0) for k in range(1, 2001)]),
    }
    for name, (fn, args) in us.items():
        m[f"{name}_us"] = (1e6 * probe.per_call(name, fn, args), "us")

    figs1b = tm.tune_config(1.0, T=1 / 10.5, T_prior=0.1, T_v=1.0)
    m["heat.perturbation_trajectory_ms"] = (1e3 * probe.median(
        "heat.perturbation_trajectory", lambda: tm.perturbation_trajectory(50_000, 1.0, figs1b)),
        "ms")

    m.update(_estimation(seed, probe, steady))
    m.update(_scenarios_tables_cli(seed, probe, tmp))
    return m


def _estimation(seed: int, probe: Probe, steady) -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {}
    m["estimation.trial_seed_us"] = (1e6 * probe.per_call(
        "estimation.trial_seed", tm.trial_seed, [(seed, i) for i in range(1000)]), "us")
    p_steady = tm.steady_population(steady)
    draw_seed = tm.trial_seed(seed, 0)
    m["estimation.sample_ns_per_draw"] = (1e9 / 1_000_000 * probe.median(
        "estimation.sample_measurements",
        lambda: tm.sample_measurements(p_steady, 1_000_000, draw_seed)), "ns")

    records = [tm.sample_measurements(p_steady, 10_000, tm.trial_seed(seed, i)) for i in range(200)]
    model, interval = tm.steady_model(steady), tm.prior_interval(steady)
    m["estimation.ml_steady_us"] = (1e6 * probe.per_call(
        "estimation.ml_estimate", tm.ml_estimate, [(r, model, interval) for r in records]), "us")

    machine, M, _, k, _ = workloads.STUDIES["transient-k50"]
    config = workloads.tuned(machine)
    p_true = tm.transient_population(k, 1.0, tm.collision_params(config))
    counting = CountingModel(tm.transient_model(config, k, 1.0))
    interval = tm.prior_interval(config)
    trials = 10
    records = [tm.sample_measurements(p_true, M, tm.trial_seed(seed, i)) for i in range(trials)]
    times = [
        probe.once("estimation.ml_estimate",
                   lambda r=r: tm.ml_estimate(r, counting, interval, monotone=False))
        for r in records
    ]
    m["estimation.ml_transient_ms"] = (1e3 * statistics.median(times), "ms")
    m["estimation.model_calls_per_trial"] = (counting.calls / trials, "count")

    shares = {}
    for name in workloads.STUDIES:
        spec = workloads.study_spec(name)
        shares[name] = expect.philox_m0(expect.true_p0(spec), spec["M"], seed, spec["trials"])
    repeats = sum(len(m0) - len(set(m0.tolist())) for m0 in shares.values())
    m["estimation.repeat_m0_share"] = (repeats / sum(len(m0) for m0 in shares.values()), "ratio")
    for name, m0 in shares.items():
        m[f"estimation.repeat_m0_share.{name}"] = (expect.repeat_share(m0), "ratio")
    return m


def _scenarios_tables_cli(seed: int, probe: Probe, tmp: Path) -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {}
    tables = {name: tm.run_scenario(tm.PRESETS[name]) for name in workloads.PRESETS}
    for name in workloads.PRESETS:
        m[f"scenarios.run_scenario_ms.{name}"] = (1e3 * probe.median(
            "scenarios.run_scenario", lambda name=name: tm.run_scenario(tm.PRESETS[name]), 3),
            "ms")
    m["scenarios.run_verification_ms"] = (1e3 * probe.median(
        "scenarios.run_verification",
        lambda: tm.run_verification(workloads.VERIFY_SAMPLES, seed)), "ms")
    rows = sum(len(t.rows) for t in tables.values())
    m["scenarios.rows_total"] = (rows, "count")
    m["scenarios.singular_cells_total"] = (
        sum(1 for t in tables.values() for row in t.rows for x in row if not math.isfinite(x)),
        "count")

    texts = [tm.to_csv(t) for t in tables.values()]
    # to_json refuses tables with inf cells, so it is timed on the others.
    finite = [t for t in tables.values() if all(math.isfinite(x) for r in t.rows for x in r)]
    m["tables.to_csv_us_per_row"] = (1e6 / rows * probe.median(
        "tables.to_csv", lambda: [tm.to_csv(t) for t in tables.values()], 3), "us")
    m["tables.from_csv_us_per_row"] = (1e6 / rows * probe.median(
        "tables.from_csv", lambda: [tm.from_csv(t) for t in texts], 3), "us")
    m["tables.to_json_us_per_row"] = (1e6 / sum(len(t.rows) for t in finite) * probe.median(
        "tables.to_json", lambda: [tm.to_json(t) for t in finite], 3), "us")
    m["tables.export_ms"] = (1e3 * probe.median(
        "tables.export",
        lambda: [tm.export(t, "csv", tmp / f"{n}.csv") for n, t in tables.items()], 3), "ms")

    # cli.main minus run_scenario plus export of the same op, on the smallest
    # preset so that the difference is not lost in the noise of the sweep.
    path = tmp / "figS1a-cli.csv"
    via_cli = probe.median("cli.main", lambda: cli.main(["preset", "figS1a", "--out", str(path)]), 15)
    direct = probe.median(
        "bench.direct", lambda: tm.export(tm.run_scenario(tm.PRESETS["figS1a"]), "csv", path), 15)
    m["cli.overhead_ms"] = (1e3 * (via_cli - direct), "ms")
    return m
