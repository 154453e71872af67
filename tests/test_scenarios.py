"""Preset fidelity and scenario table contents."""

from __future__ import annotations

import ast
import inspect
import math
import re
import warnings
from collections import Counter
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_calls, scalar_configs
from thermomachine import PRESETS, SQRT_TWO_OVER_PI, __version__, run_scenario, run_verification
from thermomachine import cli, dynamics, scenarios, to_csv
from thermomachine.core import GapOrderingWarning, collision_params, tune_config
from thermomachine.dynamics import (
    COUPLED_STATES,
    ProbeState,
    build_triad_hamiltonian,
    collide_analytic,
    collide_oracle,
    exact_unitary,
    steady_population,
    transient_population,
)
from thermomachine.heat import heat_ancilla, heat_sample, perturbation_trajectory, probe_energy_change
from thermomachine.metrology import fisher_binary, snr_steady, snr_transient
from thermomachine.scenarios import Scenario, verification_passed


def test_preset_parameter_blocks():
    fig1b = PRESETS["fig1b"]
    assert fig1b.priors == (0.25, 0.125, 1.0 / 12.0, 0.0625)
    assert fig1b.M == 1 and fig1b.points == 400
    assert PRESETS["fig2a"].T_prior == 0.25
    assert PRESETS["fig2a"].temps == (0.25, 1.0 / 4.5, 1.0 / 3.5)
    assert PRESETS["fig2b"].T_prior == 0.1
    assert PRESETS["fig2b"].temps == (0.1, 1.0 / 10.5, 1.0 / 9.5)
    assert PRESETS["fig3"].T == 1.0 / 11.0 and PRESETS["fig3"].T_prior == 0.1
    assert PRESETS["fig3"].p00 == 1.0 and PRESETS["fig3"].M_alt == 2
    assert PRESETS["figS1a"].T_prior == 0.25
    assert PRESETS["figS1b"].T_prior == 0.1
    ratio = PRESETS["figS2-ratio"]
    assert ratio.T == 1.0 / 8.0 and ratio.T_prior == 1.0 / 7.0 and ratio.p00 == 1.0


def test_fig1b_grid_contains_prior_and_endpoint():
    table = run_scenario(PRESETS["fig1b"])
    for t_prior in PRESETS["fig1b"].priors:
        block = [row for row in table.rows if row[0] == t_prior]
        assert len(block) == 400
        temps = [row[1] for row in block]
        assert min(temps) > 0.0
        assert temps[-1] == pytest.approx(2.0 * t_prior, rel=1e-15)
        assert any(abs(t - t_prior) < 1e-12 for t in temps)


def test_fig1b_snr_at_prior_temperature():
    table = run_scenario(PRESETS["fig1b"])
    snr_col = table.columns.index("snr")
    for t_prior in PRESETS["fig1b"].priors:
        rows = [row for row in table.rows if row[0] == t_prior]
        at_prior = min(rows, key=lambda row: abs(row[1] - t_prior))
        assert at_prior[snr_col] == pytest.approx(0.5 / t_prior, rel=1e-9)
    first = [row for row in table.rows if row[0] == 0.25]
    at = min(first, key=lambda row: abs(row[1] - 0.25))
    assert at[snr_col] == pytest.approx(2.0, rel=1e-9)


def test_fig3_measurement_cost_claim():
    # The claim compares the machine's steady limit for M = 2 against the
    # thermal probe spending M = k measurements: 20000 are not enough.
    scenario = PRESETS["fig3"]
    table = run_scenario(scenario)
    last = table.rows[-1]
    cols = {name: i for i, name in enumerate(table.columns)}
    assert last[cols["k"]] == 20000.0
    steady_m2 = table.meta["snr_machine_steady_m2"]
    assert steady_m2 == pytest.approx(6.897832111934779, abs=1e-6)
    assert last[cols["snr_thermal_mk"]] == pytest.approx(6.357418174358228, abs=1e-6)
    assert max(row[cols["snr_thermal_mk"]] for row in table.rows) < steady_m2
    # The transient machine columns are still climbing inside this window.
    assert last[cols["snr_machine_m2"]] < steady_m2


def test_figs2_ratio_meta_reference():
    scenario = PRESETS["figS2-ratio"]
    table = run_scenario(replace(scenario, k_max=20))
    assert table.meta["ref_sqrt_2_over_pi"] == SQRT_TWO_OVER_PI
    cols = {name: i for i, name in enumerate(table.columns)}
    for row in table.rows:
        assert row[cols["ratio_to_bound"]] == pytest.approx(
            row[cols["snr_machine_m1"]] / row[cols["snr_sample_bound"]], rel=1e-12
        )


def test_heat_trajectory_converges_to_dashed_lines():
    table = run_scenario(PRESETS["figS1a"])
    cols = {name: i for i, name in enumerate(table.columns)}
    for T in PRESETS["figS1a"].temps:
        for p00 in PRESETS["figS1a"].p00_values:
            block = [r for r in table.rows if r[0] == T and r[1] == p00]
            assert len(block) == 300
            assert abs(block[-1][cols["delta_p"]]) < 1e-4
            assert abs(block[-1][cols["delta_p"]]) < abs(block[0][cols["delta_p"]])


def test_fig2b_step_subsampling():
    scenario = PRESETS["fig2b"]
    table = run_scenario(replace(scenario, k_max=100, k_step=10))
    ks = sorted({row[2] for row in table.rows})
    assert ks == [0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0]


def test_montecarlo_scenario_row():
    scenario = Scenario(
        name="mc", kind="montecarlo", T=0.2, T_prior=0.25, M=2000, trials=120, seed=5
    )
    table = run_scenario(scenario)
    assert len(table.rows) == 1
    row = dict(zip(table.columns, table.rows[0]))
    assert row["T_true"] == 0.2
    assert row["trials"] == 120.0
    assert row["t_hat_mean"] == pytest.approx(0.2, rel=0.05)
    assert table.meta["seed"] == 5


@pytest.mark.parametrize(
    "extra, named",
    [(dict(p00=0.3, k_measure=5), "k_measure, p00"), (dict(p00=0.3), "p00"),
     (dict(k_measure=5), "k_measure")],
)
def test_steady_montecarlo_built_in_python_refuses_the_transient_fields(extra, named):
    plain = Scenario(name="m", kind="montecarlo", T=0.2, T_prior=0.25, M=100, trials=100)
    with pytest.raises(ValueError, match=f"^steady montecarlo scenarios do not read {named}$"):
        run_scenario(replace(plain, **extra))
    # The transient study reads both, and the steady one runs on their defaults.
    transient = replace(plain, **{"k_measure": 5, **extra, "model": "transient"})
    assert len(run_scenario(transient).rows) == 1
    assert len(run_scenario(replace(plain, p00=1.0, k_measure=None)).rows) == 1


def test_transient_montecarlo_scenario():
    scenario = Scenario(
        name="mc-k",
        kind="montecarlo",
        model="transient",
        k_measure=40,
        T=0.25,
        T_prior=0.25,
        p00=1.0,
        M=1000,
        trials=100,
        seed=6,
    )
    table = run_scenario(scenario)
    row = dict(zip(table.columns, table.rows[0]))
    assert table.meta["model"] == "transient"
    assert 0.0 <= row["clamped_fraction"] <= 1.0


def test_tables_are_reported_in_sample_gap_units():
    # Doubling every energy scale leaves all dimensionless ratios intact,
    # so the normalized table must be identical (factor 2 is float-exact).
    base = Scenario(name="u", kind="steady-sweep", T_prior=0.25, T_v=1.0, points=16)
    scaled = replace(base, eps_s=2.0, T_prior=0.5, T_v=2.0)
    assert run_scenario(scaled).rows == run_scenario(base).rows

    base_heat = Scenario(
        name="u", kind="heat-trajectory", T=0.2, T_prior=0.25, T_v=1.0, k_min=1, k_max=20
    )
    scaled_heat = replace(base_heat, eps_s=2.0, T=0.4, T_prior=0.5, T_v=2.0)
    assert run_scenario(scaled_heat).rows == run_scenario(base_heat).rows


def test_verification_battery_passes():
    table = run_verification(samples=60, seed=3)
    assert verification_passed(table)
    names = str(table.meta["checks"]).split(",")
    assert "oracle_vs_analytic" in names
    assert "heat_conservation" in names
    assert len(names) == len(table.rows)


@pytest.mark.parametrize("seed", [0x5EED, 7, 3])
@pytest.mark.parametrize("samples", [1, 2, 25, 200])
def test_random_configs_equal_the_scalar_draws(samples, seed):
    machines, configs = scenarios._random_configs(samples, seed), scalar_configs(samples, seed)
    for name in [f.name for f in fields(machines)] + ["eps_v"]:
        lanes = getattr(machines, name)
        assert lanes.dtype == np.float64 and lanes.shape == (samples,)
        assert lanes.tobytes() == np.array([getattr(c, name) for c in configs]).tobytes()


def loop_battery(samples, seed):
    """The verify battery as one loop per check: the reference for its cells and meta."""
    configs = scalar_configs(samples, seed)
    checks = []

    unitaries = [exact_unitary(build_triad_hamiltonian(c), c.collision_time) for c in configs]
    err = 0.0
    for u in unitaries:
        err = max(err, float(np.abs(u @ u.conj().T - np.eye(8)).max()))
    checks.append(("unitarity", err, 1e-12))

    a, b = COUPLED_STATES
    err_swap = 0.0
    for u in unitaries:
        mags = np.abs(u)
        err_swap = max(err_swap, abs(mags[b, a] - 1.0), abs(mags[a, b] - 1.0))
        for idx in range(8):
            if idx not in (a, b):
                err_swap = max(err_swap, abs(mags[idx, idx] - 1.0))
    checks.append(("full_swap_permutation", err_swap, 1e-10))

    err = 0.0
    for config in configs:
        h_full = build_triad_hamiltonian(config)
        h_free = h_full.copy()
        h_free[a, b] = 0.0
        h_free[b, a] = 0.0
        h_int = h_full - h_free
        comm = h_int @ h_free - h_free @ h_int
        err = max(err, float(np.abs(comm).max()))
    checks.append(("resonant_commutation", err, 1e-12))

    err = 0.0
    for config in configs:
        params = collision_params(config)
        oracle = collide_oracle(ProbeState(p0=config.p00), config).p0
        err = max(err, abs(oracle - collide_analytic(config.p00, params)))
    checks.append(("oracle_vs_analytic", err, 1e-10))

    err = 0.0
    for config in configs[: min(25, samples)]:
        params = collision_params(config)
        p0 = config.p00
        for k in range(1, 501):
            p0 = collide_analytic(p0, params)
            if k in (1, 10, 100, 500):
                err = max(err, abs(p0 - transient_population(k, config.p00, params)))
    checks.append(("closed_form_vs_iteration", err, 1e-12))

    err = 0.0
    for config in configs:
        params = collision_params(config)
        err = max(err, abs(collide_analytic(params.p0_inf, params) - params.p0_inf))
    checks.append(("fixed_point", err, 1e-12))

    err = 0.0
    for config in configs:
        for k in (1, 7, 150):
            balance = (
                heat_sample(k, config.p00, config)
                + heat_ancilla(k, config.p00, config)
                + probe_energy_change(k, config.p00, config)
            )
            err = max(err, abs(balance))
    checks.append(("heat_conservation", err, 1e-12))

    err = 0.0
    for config in configs:
        traj = perturbation_trajectory(40, config.p00, config)
        p0_40 = transient_population(40, config.p00, collision_params(config))
        err = max(err, abs(float(traj.delta_p.sum()) - (p0_40 - config.p00)))
    checks.append(("telescoping", err, 1e-12))

    err = 0.0
    for config in configs:
        q_s = heat_sample(60, config.p00, config)
        q_v = heat_ancilla(60, config.p00, config)
        if abs(q_s) > 1e-15 and abs(q_v) > 1e-15:
            err = max(err, 1.0 if q_s * q_v >= 0.0 else 0.0)
    checks.append(("heat_sign_opposition", err, 0.5))

    err = 0.0
    for config in configs:
        point = snr_steady(config, M=3)
        fisher = fisher_binary(steady_population(config), point.sensitivity)
        if point.snr > 0:
            err = max(err, abs(point.snr - config.T * math.sqrt(3 * fisher)) / point.snr)
    checks.append(("snr_fisher_consistency", err, 1e-12))

    meta = {
        "scenario": "verify",
        "kind": "verify",
        "version": __version__,
        "seed": seed,
        "samples": samples,
        "checks": ",".join(name for name, _, _ in checks),
    }
    cells = np.array(
        [(float(i), 1.0 if error <= tol else 0.0, error) for i, (_, error, tol) in enumerate(checks)]
    )
    return cells, meta


@pytest.mark.parametrize("samples, seed", [(1, 3), (25, 7), (60, 3), (200, 0x5EED)])
def test_verification_table_equals_loop_battery(samples, seed):
    cells, meta = loop_battery(samples, seed)
    table = run_verification(samples=samples, seed=seed)
    assert table.cells.tobytes() == cells.tobytes()
    assert list(table.meta.items()) == list(meta.items())


def nan_lanes(machines):
    h, u, _ = dynamics._triad_lanes(machines)
    return h, u, np.full_like(machines.p00, math.nan)


def nan_heat(k, p00, config):
    return np.full(np.broadcast_shapes(np.shape(k), np.shape(p00)), math.nan)


def nan_snr(config, M):
    nan = np.full(np.shape(config.T), math.nan)
    return SimpleNamespace(snr=nan, sensitivity=nan)


@pytest.mark.parametrize(
    "target, patch, failed",
    [
        ("_triad_lanes", nan_lanes, {"oracle_vs_analytic"}),
        ("heat_sample", nan_heat, {"heat_conservation", "heat_sign_opposition"}),
        ("snr_steady", nan_snr, {"snr_fisher_consistency"}),
    ],
)
def test_nan_error_fails_its_check(monkeypatch, capsys, target, patch, failed):
    monkeypatch.setattr(scenarios, target, patch)
    table = run_verification(samples=5, seed=3)
    names = str(table.meta["checks"]).split(",")
    for name, (_, ok, error) in zip(names, table.rows):
        if name in failed:
            assert ok == 0.0 and math.isnan(error), name
        else:
            assert ok == 1.0 and math.isfinite(error), name
    assert cli.main(["verify", "--set", "samples=5", "--seed", "3"]) == cli.EXIT_VERIFY
    assert "verification FAILED" in capsys.readouterr().err


#: The closed forms and the stacked oracle verify calls once over all machines, and the
#: single-machine oracle calls it never makes (its one _unitary call is the stacked one).
PER_BATTERY = (
    "collision_params", "heat_sample", "heat_ancilla", "probe_energy_change", "snr_steady",
    "perturbation_trajectory", "_triad_lanes",
)
SINGLE_MACHINE = ("collide_oracle", "build_triad_hamiltonian", "exact_unitary", "_unitary")


def test_verify_calls_each_closed_form_once_over_all_machines(monkeypatch):
    calls = Counter()
    count_calls(monkeypatch, scenarios, PER_BATTERY, calls)
    count_calls(monkeypatch, dynamics, SINGLE_MACHINE, calls)
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: shapes.append(h.shape) or eigh(h))
    assert verification_passed(run_verification(samples=200))
    assert calls == dict.fromkeys(PER_BATTERY + ("_unitary",), 1)
    assert shapes == [(200, 8, 8)]  # one eigendecomposition over the stacked Hamiltonians


@pytest.mark.parametrize("name", ["fig3", "figS2-ratio"])
def test_cost_comparison_evaluates_each_machine_once(monkeypatch, name):
    # Both measurement counts read one transient and one steady point: only T sqrt(M F) differs.
    scenario, calls = replace(PRESETS[name], k_max=400, M=3, M_alt=7), Counter()
    count_calls(monkeypatch, scenarios, ("snr_transient", "snr_steady"), calls)
    table = run_scenario(scenario)
    assert calls == {"snr_transient": 1, "snr_steady": 1}
    monkeypatch.undo()
    (config,) = scenario._machines
    k = np.arange(1, 401)
    for M, column, meta in ((3, 1, "snr_machine_steady_m1"), (7, 2, "snr_machine_steady_m2")):
        assert table.cells[:, column].tobytes() == snr_transient(k, 1.0, config, M).snr.tobytes()
        assert table.meta[meta] == snr_steady(config, M).snr


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(name="x", kind="mystery")
    with pytest.raises(ValueError):
        Scenario(name="x", kind="steady-sweep", points=-1)
    with pytest.raises(ValueError):
        Scenario(name="x", kind="transient-sweep", k_min=5, k_max=1)
    with pytest.raises(ValueError):
        run_scenario(Scenario(name="x", kind="cost-comparison"))  # missing T
    with pytest.raises(ValueError):
        run_scenario(
            Scenario(name="x", kind="montecarlo", T=0.2, T_prior=0.25, model="transient")
        )  # transient model without k_measure
    with pytest.raises(ValueError):
        run_scenario(
            Scenario(name="x", kind="montecarlo", T=0.2, T_prior=0.25, model="bogus")
        )


@pytest.mark.parametrize(
    "kind, message",
    [
        ("steady-sweep", "steady-sweep needs T_prior or priors"),
        ("transient-sweep", "transient-sweep needs T or temps"),
        ("heat-trajectory", "heat-trajectory needs T or temps"),
    ],
)
def test_missing_axis_names_both_fields(kind, message):
    with pytest.raises(ValueError, match=message):
        run_scenario(Scenario(name="x", kind=kind, T_prior=None if kind == "steady-sweep" else 0.25))


#: A scenario of each kind that runs: the CLI's default for it.
BY_KIND = {scenario.kind: scenario for scenario in cli._DEFAULTS.values()}


@pytest.mark.parametrize(
    "kind, unread",
    [
        ("steady-sweep", dict(k_max=5)),
        ("transient-sweep", dict(delta_Tv_rel=0.1)),
        ("cost-comparison", dict(temps=(0.1, 0.2))),
        ("heat-trajectory", dict(M=7)),
        ("noisy-ancilla", dict(p00=0.5)),
        ("montecarlo", dict(points=10)),
        ("verify", dict(T=0.2)),
    ],
)
def test_scenario_built_in_python_refuses_a_field_its_kind_never_reads(kind, unread):
    (field,) = unread  # a montecarlo study is a steady one by default, and says so
    with pytest.raises(ValueError, match=rf"\b{kind} scenarios do not read {field}$"):
        run_scenario(replace(BY_KIND[kind], **unread))


@pytest.mark.parametrize(
    "kind, field",
    [
        ("transient-sweep", "T_prior"),
        ("cost-comparison", "T"),
        ("cost-comparison", "T_prior"),
        ("heat-trajectory", "T_prior"),
        ("noisy-ancilla", "T_prior"),
        ("montecarlo", "T"),
        ("montecarlo", "T_prior"),
    ],
)
def test_missing_needed_field_is_named(kind, field):
    with pytest.raises(ValueError, match=f"^{kind} needs {field}$"):
        run_scenario(replace(BY_KIND[kind], **{field: None}))


#: Every (kind, need) pair of the kind table, each unset on the kind's CLI default.
NEEDS = [
    ("steady-sweep", dict(T_prior=None), "T_prior or priors"),
    ("transient-sweep", dict(T_prior=None), "T_prior"),
    ("transient-sweep", dict(T=None), "T or temps"),
    ("cost-comparison", dict(T=None), "T"),
    ("cost-comparison", dict(T_prior=None), "T_prior"),
    ("heat-trajectory", dict(T_prior=None), "T_prior"),
    ("heat-trajectory", dict(T=None), "T or temps"),
    ("noisy-ancilla", dict(T_prior=None), "T_prior"),
    ("montecarlo", dict(T=None), "T"),
    ("montecarlo", dict(T_prior=None), "T_prior"),
    ("montecarlo", dict(model="transient"), "k_measure"),  # the transient study's readout
]


def test_needs_cover_the_kind_table():
    listed = {(kind, need.replace(" or ", "|")) for kind, _, need in NEEDS}
    table = {(kind, need) for kind, (_, _, needs) in scenarios._KINDS.items() for need in needs}
    assert table | {("montecarlo", "k_measure")} == listed


@pytest.mark.parametrize("kind, unset, need", NEEDS)
def test_scenario_missing_a_need_is_refused_when_built(kind, unset, need):
    with pytest.raises(ValueError, match=f"^{kind} needs {need}$"):
        replace(BY_KIND[kind], **unset)


@pytest.mark.parametrize(
    "kind, unread",
    [
        ("steady-sweep", dict(k_step=2)),
        ("transient-sweep", dict(points=10)),
        ("cost-comparison", dict(p00_values=(0.5,))),
        ("heat-trajectory", dict(M_alt=3)),
        ("noisy-ancilla", dict(k_max=10)),
        ("montecarlo", dict(temps=(0.2,))),
        ("verify", dict(eps_s=2.0)),
    ],
)
def test_scenario_with_an_unread_field_is_refused_when_built(kind, unread):
    (field,) = unread
    with pytest.raises(ValueError, match=rf"\b{kind} scenarios do not read {field}$"):
        replace(BY_KIND[kind], **unread)


#: (scenario fields, the words of the refusal): each tuning rule a scenario can break, refused
#: when it is built by the functions its runner tunes with.
TUNING_REFUSALS = [
    pytest.param(
        dict(kind="transient-sweep", T=0.2, T_prior=0.25, T_v=0.2),
        "tuning rule requires T_v >= T_prior, got 0.2 < 0.25",
        id="T_prior",
    ),
    pytest.param(
        dict(kind="steady-sweep", priors=(0.25, 2.0), T_v=1.0),
        "tuning rule requires T_v >= T_prior, got 1.0 < 2.0",
        id="prior-in-priors",
    ),
    pytest.param(
        dict(kind="noisy-ancilla", T_prior=0.1, T_v=1.0, delta_Tv_rel=0.95),
        "tuning rule requires mistuned T_v >= T_prior, got 0.050000000000000044 < 0.1",
        id="noisy-undershoot",
    ),
    pytest.param(
        dict(kind="noisy-ancilla", T_prior=0.1, delta_Tv_rel=-0.1),
        "delta_Tv_rel must be finite and lie in [0, inf), got -0.1",
        id="negative-delta_Tv_rel",
    ),
]


@pytest.mark.parametrize("given, message", TUNING_REFUSALS)
def test_a_broken_tuning_rule_is_refused_when_built(given, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Scenario("x", **given)
    base = BY_KIND[given["kind"]]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replace(base, **{k: v for k, v in given.items() if k != "kind"})


@pytest.mark.filterwarnings("ignore::thermomachine.GapOrderingWarning")
def test_the_tuning_check_follows_the_runner():
    # A steady sweep with priors tunes by them alone, and the overshoot of a noisy tuning
    # never falls below T_v; each builds and runs.
    for scenario in (
        Scenario("x", "steady-sweep", T_prior=2.0, priors=(0.25,), T_v=1.0, points=3),
        Scenario("x", "noisy-ancilla", T_prior=0.1, T_v=0.1, delta_Tv_rel=0.0, points=3),
    ):
        assert np.isfinite(run_scenario(scenario).cells).all()
    with pytest.raises(ValueError, match="mistuned T_v >= T_prior"):
        Scenario("x", "noisy-ancilla", T_prior=0.1, T_v=0.1, delta_Tv_rel=1e-9, points=3)


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def tuning_scenarios(draw):
    """Fields of a scenario of a kind that tunes machines, with short axes and few trials."""
    kind = draw(st.sampled_from([kind for kind in scenarios._KINDS if kind != "verify"]))
    temperature = log_uniform(1e-4, 10.0)
    given = dict(
        kind=kind,
        eps_s=draw(log_uniform(1e-3, 1e3)),
        T_v=draw(log_uniform(1e-3, 1e3)),
        T_prior=draw(temperature),
    )
    if kind in ("steady-sweep", "noisy-ancilla"):
        given["points"] = draw(st.integers(0, 6))
    if kind == "steady-sweep":
        given["priors"] = draw(st.lists(temperature, max_size=3))
    if kind == "noisy-ancilla":
        given["delta_Tv_rel"] = draw(st.floats(-0.5, 1.5))
    if kind in ("transient-sweep", "cost-comparison", "heat-trajectory"):
        given.update(k_min=draw(st.integers(0, 3)), k_max=draw(st.integers(3, 40)))
    if kind != "steady-sweep" and kind != "noisy-ancilla":
        given.update(T=draw(temperature), p00=draw(st.floats(0.0, 1.0)))
    if kind in ("steady-sweep", "transient-sweep", "cost-comparison", "noisy-ancilla"):
        given["M"] = draw(st.integers(1, 10**6))
    if kind == "montecarlo":
        given.update(M=draw(st.integers(1, 2000)), trials=draw(st.integers(95, 105)))
        if draw(st.booleans()):
            given.update(model="transient", k_measure=draw(st.integers(0, 40)))
        else:
            del given["p00"]  # a steady study reads no p00
    return given


@settings(max_examples=300, deadline=None)
@given(given=tuning_scenarios())
def test_a_tuning_scenario_that_builds_runs_to_a_table_without_nan(given):
    """A scenario is refused when built or runs to a table with no NaN cell."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GapOrderingWarning)
        try:
            scenario = Scenario("fuzz", **given)
        except ValueError:
            return
        table = run_scenario(scenario)
    assert not np.isnan(table.cells).any()


def test_no_runner_checks_a_field():
    """A scenario is checked when it is built, so neither run_scenario nor a runner raises."""
    raises = [
        fn.name
        for fn in ast.parse(inspect.getsource(scenarios)).body
        if isinstance(fn, ast.FunctionDef)
        and (fn.name == "run_scenario" or fn.name.startswith("_run_"))
        for node in ast.walk(fn)
        if isinstance(node, ast.Raise)
    ]
    assert raises == []


#: (kind, fields, machines the constructor builds: one per prior or per (T, p00) block)
TUNED_MACHINES = [
    ("steady-sweep", dict(priors=(0.25, 0.125), points=5), 2),
    ("transient-sweep", dict(T_prior=0.25, temps=(0.2, 0.3), p00_values=(0.5, 1.0)), 4),
    ("cost-comparison", dict(T=0.2, T_prior=0.25, k_max=5), 1),
    ("heat-trajectory", dict(T_prior=0.25, temps=(0.2, 0.3), k_min=1, k_max=5), 2),
    ("noisy-ancilla", dict(T_prior=0.25, delta_Tv_rel=0.1, points=5), 1),
    ("montecarlo", dict(T=0.2, T_prior=0.25, M=100, trials=100), 1),
]


@pytest.mark.parametrize("kind, given, built", TUNED_MACHINES, ids=[r[0] for r in TUNED_MACHINES])
def test_building_tunes_each_machine_once_and_running_tunes_none(monkeypatch, kind, given, built):
    # The constructor tunes each block's machine once, and the runner evaluates those machines:
    # scenarios constructs no MachineConfig of its own, and a run tunes none.
    calls = Counter()
    count_calls(monkeypatch, scenarios, ("tune_config", "MachineConfig"), calls)
    scenario = Scenario("x", kind, **given)
    assert calls == {"tune_config": built} and len(scenario._machines) == built
    run_scenario(scenario)
    assert calls == {"tune_config": built}


def _machines_the_runners_tuned(scenario):
    """The machines the runners tuned before a scenario kept its own: a reference copy."""
    s = scenario
    if s.kind in ("steady-sweep", "noisy-ancilla"):
        return [
            tune_config(s.eps_s, scenarios._temperature_grid(s, t), t, s.T_v, p00=s.p00)
            for t in s.priors or (s.T_prior,)
        ]
    return [
        tune_config(s.eps_s, T, s.T_prior, s.T_v, p00=p)
        for T in s.temps or (s.T,)
        for p in s.p00_values or (s.p00,)
    ]


BUILT = {**PRESETS, **{f"cli-{name}": s for name, s in cli._DEFAULTS.items() if name != "verify"}}


@pytest.mark.parametrize("name", sorted(BUILT))
def test_built_machines_are_the_ones_the_runners_tuned(name):
    # Field by field and bit for bit, the block order included.
    scenario = BUILT[name]
    want = _machines_the_runners_tuned(scenario)
    assert len(scenario._machines) == len(want)
    for got, ref in zip(scenario._machines, want):
        for f in fields(ref):
            a, b = np.asarray(getattr(got, f.name)), np.asarray(getattr(ref, f.name))
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, f.name)


def test_machines_are_no_field():
    # So ==, repr, replace and the field list read as before; replace builds its own machines.
    scenario, verify = PRESETS["fig2a"], Scenario("v", "verify")
    assert "_machines" not in repr(scenario) + " ".join(f.name for f in fields(scenario))
    copy = replace(scenario)
    assert copy == scenario and copy._machines == scenario._machines
    assert copy._machines is not scenario._machines
    assert verify._machines == () and replace(verify, samples=3) != verify


@pytest.mark.parametrize(
    "kind, given",
    [
        ("transient-sweep", dict(T_prior=0.25, temps=(0.2, 0.3))),
        ("transient-sweep", dict(T_prior=0.25, temps=(0.2,), p00_values=(0.5, 1.0))),
        ("steady-sweep", dict(priors=(0.25, 0.125), points=5)),
    ],
)
def test_multi_valued_fields_take_arrays_and_write_the_tuples_bytes(kind, given):
    expected = Scenario("x", kind, **given)
    arrays = {k: np.array(v) if type(v) is tuple else v for k, v in given.items()}
    built = Scenario("x", kind, **arrays)
    assert built == expected
    assert all(type(x) is float for x in built.priors + built.temps + built.p00_values)
    assert to_csv(run_scenario(built)) == to_csv(run_scenario(expected))


def test_gap_ordering_warns_once_per_prior():
    # When the scenario is built, like every tuning check; the run tunes no machine.
    with pytest.warns(GapOrderingWarning) as built:
        scenario = Scenario(name="x", kind="steady-sweep", priors=(0.25, 0.3), T_v=0.4, points=50)
    assert len(built) == 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_scenario(scenario)
