"""The four benchmark workloads: inputs from the seed, one pass of ops, checks.

A workload is a list of ops.  ``op.run(tracer)`` calls the package and
returns its output; only that call is timed.  ``op.check(output)`` returns
None when the output is right and the reason when it is not.  ``prepare``
loads the committed reference and computes expected outputs; it runs after
set-up and before timing, and is not part of either.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import thermomachine as tm
from thermomachine import cli

import expect

#: The package's default master seed; the Monte Carlo reference was
#: captured at it, so per-trial m0 is compared bit for bit only there.
DEFAULT_SEED = 0x5EED

REFERENCE = Path(__file__).resolve().parent / "reference.json"

PRESETS = ("fig1b", "fig2a", "fig2b", "fig3", "figS1a", "figS1b", "figS2-ratio")
CLI_DEFAULTS = ("steady", "transient", "cost", "heat", "noisy")
FORMATS = ("csv", "json")

#: Random machines per oracle pass, each collided by all three oracles.
ORACLE_CONFIGS = 1000
#: Configurations the ``verify`` battery samples (its CLI default).
VERIFY_SAMPLES = 200

_STEADY = {"eps_s": 1.0, "T": 0.2, "T_prior": 0.25, "T_v": 1.0, "p00": 1.0}
_TIER1 = {"eps_s": 1.0, "T": 0.25, "T_prior": 0.25, "T_v": 1.0, "p00": 1.0}

#: name -> (machine, M, trials, k, via); k None is the steady model.
STUDIES = {
    "steady-M1e3": (_STEADY, 1_000, 1000, None, "study"),
    "steady-M1e4": (_STEADY, 10_000, 1000, None, "cli"),
    "steady-M1e5": (_STEADY, 100_000, 1000, None, "study"),
    "steady-M1e6": (_STEADY, 1_000_000, 100, None, "study"),
    "transient-k50": (_STEADY, 10_000, 100, 50, "study"),
    "transient-k60": (_TIER1, 4_000, 100, 60, "study"),
}


@dataclass
class Op:
    name: str
    run: Callable
    check: Callable
    items: int
    #: Calibration loop that resembles the op's work (gauge.py).
    gauge: str = "python"
    #: Exception type of a known, documented defect: counted as failed,
    #: but it does not make the run incorrect.
    known_error: type | None = None


@dataclass
class Workload:
    name: str
    item: str  # what items_per_s counts
    ops: list[Op]
    prepare: Callable[[], None] = lambda: None
    counters: dict = field(default_factory=dict)


def tuned(machine: dict):
    return tm.tune_config(
        machine["eps_s"], T=machine["T"], T_prior=machine["T_prior"], T_v=machine["T_v"],
        p00=machine["p00"],
    )


def machine_dict(machine: dict) -> dict:
    """Machine fields for :mod:`expect`, with the prior-tuned ancilla gap."""
    eps_p = machine["eps_s"] * (machine["T_v"] - machine["T_prior"]) / machine["T_prior"]
    return dict(machine, eps_v=machine["eps_s"] + eps_p)


def study_spec(study: str) -> dict:
    """A study's inputs in the form :mod:`expect` takes."""
    machine, M, trials, k, _ = STUDIES[study]
    return {"config": machine_dict(machine), "M": M, "trials": trials, "k": k,
            "p00": machine["p00"]}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def build(name: str, seed: int, tmp: Path) -> Workload:
    return {
        "figures": figures,
        "mc-steady": mc_steady,
        "mc-transient": mc_transient,
        "oracle": oracle,
    }[name](seed, tmp)


# ----------------------------------------------------------------------
# figures: every preset and analytic CLI default, in both formats
# ----------------------------------------------------------------------


def figures(seed: int, tmp: Path) -> Workload:
    keys = [f"preset {p}" for p in PRESETS] + list(CLI_DEFAULTS)
    ref: dict = {}
    wl = Workload("figures", "rows", [])

    def make(key: str, fmt: str) -> Op:
        path = tmp / f"{key.replace(' ', '-')}.{fmt}"
        argv = key.split(" ") + ["--format", fmt, "--out", str(path)]

        def run(tracer):
            with tracer.span("cli.main"):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"exit code {code}")
            with tracer.span("io.read"):
                text = path.read_text()
            if fmt == "json":
                return text, None
            with tracer.span("tables.from_csv"):
                return text, tm.from_csv(text)

        def check(output):
            text, table = output
            expected = ref[key]
            if fmt == "json":
                columns, values = expect.json_values(json.loads(text))
            else:
                meta, columns, values = expect.parse_csv(text)
                if any(meta.get(k) != v for k, v in expected["meta"].items()):
                    return "table meta names another scenario"
            reason = expect.compare_table(expected, columns, values)
            if reason is None and table is not None and tm.to_csv(table) != text:
                reason = "CSV re-export is not byte-identical"
            return reason

        return Op(f"{key} {fmt}", run, check, items=0)

    ops = [(key, fmt) for key in keys for fmt in FORMATS]
    random.Random(seed).shuffle(ops)
    wl.ops = [make(key, fmt) for key, fmt in ops]

    def prepare():
        ref.update(load_reference()["figures"])
        for op in wl.ops:
            key, fmt = op.name.rsplit(" ", 1)
            op.items = ref[key]["rows"]
            # Known defect: to_json refuses inf cells (allow_nan=False), so the
            # JSON export of a table with a singular cell raises ValueError.
            if fmt == "json" and ref[key]["nonfinite"]:
                op.known_error = ValueError
        for key in keys:
            wl.counters[f"rows[{key}]"] = ref[key]["rows"]
            wl.counters[f"singular_cells[{key}]"] = len(ref[key]["nonfinite"])

    wl.prepare = prepare
    return wl


# ----------------------------------------------------------------------
# mc-steady / mc-transient: empirical_snr_study and the montecarlo CLI
# ----------------------------------------------------------------------


def _mc(name: str, study_names: list[str], seed: int, tmp: Path) -> Workload:
    wl = Workload(name, "trials", [])
    expected: dict = {}
    for study in study_names:
        machine, M, trials, k, via = STUDIES[study]
        config = tuned(machine)
        wl.ops.append(_study_op(study, config, M, trials, k, via, seed, tmp, expected))

    def prepare():
        reference = load_reference()["mc"]
        for study in study_names:
            exp = expect.study_expectation(study_spec(study), seed)
            exp["reference"] = None
            if seed == reference["seed"]:
                ref = reference["studies"][study]
                if exp["m0"].tolist() != ref["m0"]:
                    raise RuntimeError(f"{study}: Philox m0 stream differs from the reference")
                exp["reference"] = ref
            expected[study] = exp
            wl.counters[f"repeat_m0_share[{study}]"] = expect.repeat_share(exp["m0"])

    wl.prepare = prepare
    return wl


def _study_op(study, config, M, trials, k, via, seed, tmp, expected) -> Op:
    if via == "cli":
        # The montecarlo CLI default is this study; the check confirms it.
        path = tmp / f"{study}.csv"
        argv = ["montecarlo", "--seed", str(seed), "--out", str(path)]

        def run(tracer):
            with tracer.span("cli.main"):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"exit code {code}")
            _, columns, values = expect.parse_csv(path.read_text())
            row = dict(zip(columns, values[0]))
            if (row["M"], row["trials"]) != (M, trials):
                raise RuntimeError("montecarlo CLI default no longer matches the study")
            return float(row["t_hat_mean"]), float(row["t_hat_std"])
    else:

        def run(tracer):
            with tracer.span("estimation.empirical_snr_study"):
                report = tm.empirical_snr_study(config, M=M, trials=trials, seed=seed, k=k)
            return report.t_hat_mean, report.t_hat_std

    def check(output):
        mean, std = output
        exp = expected[study]
        targets = [("expected", exp)] + ([("reference", exp["reference"])] if exp["reference"] else [])
        for label, target in targets:
            if abs(mean - target["mean"]) > exp["tol"] or abs(std - target["std"]) > exp["tol"]:
                return (
                    f"t-hat mean/std {mean!r}/{std!r} vs {label} "
                    f"{target['mean']!r}/{target['std']!r}"
                )
        return None

    # From M = 1e5 the Philox draws outweigh seed splitting and ML per trial.
    kind = "numpy-large" if M >= 100_000 else "python"
    return Op(study, run, check, items=trials, gauge=kind)


def mc_steady(seed: int, tmp: Path) -> Workload:
    return _mc("mc-steady", [s for s in STUDIES if s.startswith("steady")], seed, tmp)


def mc_transient(seed: int, tmp: Path) -> Workload:
    return _mc("mc-transient", [s for s in STUDIES if s.startswith("transient")], seed, tmp)


# ----------------------------------------------------------------------
# oracle: the verify battery plus the three exact-evolution oracles
# ----------------------------------------------------------------------


def battery_configs(samples: int, seed: int) -> list:
    """Random machines drawn exactly as the verify battery draws them."""
    rng = np.random.default_rng(seed)
    configs = []
    for _ in range(samples):
        eps_s = rng.uniform(0.5, 2.0)
        t_prior = eps_s * rng.uniform(0.05, 0.45)
        T = t_prior * rng.uniform(0.15, 1.85)
        t_v = rng.uniform(2.0, 4.0) * t_prior
        configs.append(
            tm.tune_config(
                eps_s=eps_s, T=T, T_prior=t_prior, T_v=t_v,
                eps_I=rng.uniform(0.5, 2.0), p00=rng.uniform(0.0, 1.0),
            )
        )
    return configs


def oracle_inputs(samples: int, seed: int) -> list[tuple]:
    """(config, diagonal probe, coherent 2x2 probe, three-level sample) per machine."""
    extra = np.random.default_rng([seed, 1])
    inputs = []
    for config in battery_configs(samples, seed):
        p0 = config.p00
        coherence = np.sqrt(p0 * (1.0 - p0)) * np.exp(1j * extra.uniform(0.0, 2.0 * np.pi))
        rho = np.array([[p0, coherence], [np.conj(coherence), 1.0 - p0]])
        levels = (0.0, config.eps_s, config.eps_s * extra.uniform(1.5, 3.0))
        sample = tm.DLevelSample(levels=levels, temperature=config.T, pair=(0, 1))
        inputs.append((config, tm.ProbeState(p0=p0), rho, sample))
    return inputs


def oracle(seed: int, tmp: Path) -> Workload:
    wl = Workload("oracle", "collisions", [])
    path = tmp / "verify.csv"
    argv = ["verify", "--seed", str(seed), "--out", str(path)]

    def run_verify(tracer):
        with tracer.span("cli.main"):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return path.read_text()

    def check_verify(text):
        _, columns, values = expect.parse_csv(text)
        ok = values[:, columns.index("ok")]
        return None if len(ok) and np.all(ok == 1.0) else "a verify check is not ok"

    wl.ops.append(Op("verify", run_verify, check_verify, items=VERIFY_SAMPLES))
    inputs = oracle_inputs(ORACLE_CONFIGS, seed)
    analytic: list[tuple] = []

    def within(got: float, want: float) -> str | None:
        return None if abs(got - want) <= 1e-10 else f"oracle {got!r} vs analytic {want!r}"

    for i, (config, probe, rho, sample) in enumerate(inputs):

        def run_diag(tracer, config=config, probe=probe):
            with tracer.span("dynamics.collide_oracle"):
                return tm.collide_oracle(probe, config).p0

        def run_matrix(tracer, config=config, rho=rho):
            with tracer.span("dynamics.collide_oracle_matrix"):
                return tm.collide_oracle_matrix(rho, config)

        def run_dlevel(tracer, config=config, sample=sample, p0=probe.p0):
            with tracer.span("dynamics.collide_oracle_dlevel"):
                return tm.collide_oracle_dlevel(p0, sample, config)

        def check_matrix(out, i=i, rho=rho):
            want_p0, r = analytic[i][0], analytic[i][2]
            return within(float(out[0, 0].real), want_p0) or within(
                abs(out[0, 1]), (1.0 - r) * abs(rho[0, 1])
            ) or within(float(np.trace(out).real), 1.0)

        wl.ops += [
            Op(f"collide_oracle[{i}]", run_diag, lambda out, i=i: within(out, analytic[i][0]), 1,
               "numpy-small"),
            Op(f"collide_oracle_matrix[{i}]", run_matrix, check_matrix, 1, "numpy-small"),
            Op(f"collide_oracle_dlevel[{i}]", run_dlevel,
               lambda out, i=i: within(out, analytic[i][1]), 1, "numpy-small"),
        ]

    def prepare():
        for config, probe, _, sample in inputs:
            params = tm.collision_params(config)
            w, pair = tm.reduce_d_level(sample, config)
            rescaled = tm.CollisionParams(r=w * pair.r, p0_inf=pair.p0_inf)
            analytic.append(
                (
                    tm.collide_analytic(probe.p0, params),
                    tm.collide_analytic(probe.p0, rescaled),
                    params.r,
                )
            )

    wl.prepare = prepare
    return wl
