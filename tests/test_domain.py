"""Domain checks: the library refuses NaN, +-inf and out-of-range inputs with a ValueError.

The checks all go through ``core._check_range`` and ``core._check_count``.  The tables below
have one row per checked float or count parameter of a public constructor or function; a row
names the word the refusal must carry, a value the call accepts and values it refuses.  Not
checked: the oracle's matrix inputs (``exact_unitary``'s h, ``collide_oracle_matrix``'s rho)
and the fields of the result records (``CollisionParams`` and the like).
"""

from __future__ import annotations

import ast
import math
import re
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from thermomachine import (
    DLevelSample,
    MachineConfig,
    MeasurementRecord,
    NoisyAncillaSpec,
    ProbeState,
    build_triad_hamiltonian,
    collide_analytic,
    collide_oracle,
    collide_oracle_dlevel,
    collide_oracle_matrix,
    collision_params,
    empirical_snr_study,
    exact_unitary,
    fisher_binary,
    heat_ancilla,
    heat_sample,
    jump_rate_derivative,
    max_thermal_snr,
    ml_estimate,
    perturbation_trajectory,
    probe_energy_change,
    required_interactions,
    sample_measurements,
    sensitivity_steady,
    sensitivity_transient,
    snr_noisy_ancilla,
    snr_sample_bound,
    snr_steady,
    snr_thermal,
    snr_transient,
    steady_model,
    thermal_population,
    transient_model,
    transient_population,
    trial_seed,
    tune_config,
)
from thermomachine.scenarios import Scenario

CONFIG = tune_config(eps_s=1.0, T=0.2, T_prior=0.25, T_v=1.0)
PARAMS = collision_params(CONFIG)
RECORD = MeasurementRecord(m0=600, M=1000, seed=0)
NON_FINITE = (math.nan, math.inf, -math.inf)
TRIAD = build_triad_hamiltonian(CONFIG)
THREE_LEVEL = DLevelSample((0.0, 1.0, 2.5), 0.2, (0, 1))


def _tuned(**kw):
    return tune_config(**{"eps_s": 1.0, "T": 0.2, "T_prior": 0.25, "T_v": 1.0, **kw})


def _sweep(**kw):
    return Scenario("x", "transient-sweep", **{"T_prior": 0.25, "k_max": 3, "T": 0.2, **kw})


def _at(T):
    return replace(CONFIG, T=T)


def _collide_at(eps_p):
    """collide_oracle at eps_I on a machine whose gaps dwarf the default eps_I = 1."""
    machine = MachineConfig(eps_s=1.0, eps_p=eps_p, T=1.0, T_v=1.0, T_prior=1.0)
    return lambda eps_I: collide_oracle(ProbeState(0.3), replace(machine, eps_I=eps_I))


# (row id, call of the value, word the message names, a legal value, out-of-range values)
FLOAT_ROWS = [
    ("thermal_population.gap", lambda x: thermal_population(x, 1.0), "gap", 1.0, (-0.5,)),
    (
        "thermal_population.temperature",
        lambda x: thermal_population(1.0, x),
        "temperature",
        0.2,
        (0.0, -1.0),
    ),
    (
        "thermal_population.temperature[array]",
        lambda x: thermal_population(1.0, np.array([0.2, x])),
        "temperature",
        0.3,
        (0.0, -1.0),
    ),
    *[
        (f"MachineConfig.{n}", lambda x, n=n: replace(CONFIG, **{n: x}), n, 0.5, (0.0, -1.0))
        for n in ("eps_s", "T", "T_v", "T_prior", "eps_I")
    ],
    ("MachineConfig.eps_p", lambda x: replace(CONFIG, eps_p=x), "eps_p", 0.0, (-1.0,)),
    # An eps_p whose oracle top level eps_p + eps_s + eps_v overflows; that refusal names eps_p too.
    (
        "MachineConfig.top_level",
        lambda x: replace(CONFIG, eps_s=1.0, eps_p=x),
        "eps_p",
        8.9e307,
        (9e307, 1e308, 1.7e308),
    ),
    (
        "MachineConfig.top_level[array]",
        lambda x: replace(CONFIG, eps_s=np.array([1.0, 4e307]), eps_p=np.array([1.0, x])),
        "eps_p",
        4.9e307,
        (5e307, 1e308),
    ),
    ("MachineConfig.p00", lambda x: replace(CONFIG, p00=x), "p00", 0.0, (-0.1, 1.1)),
    # Machines the exact oracle cannot evolve, refused by their cause: the collision phase w t
    # overflows (eps_p = 7e307), or eps_v + eps_I rounds to eps_v (eps_p = 1e300).
    ("collide_oracle.eps_I[phase]", _collide_at(7e307), "eps_I", 1e300, (1.0, 1e-300)),
    ("collide_oracle.eps_I[absorbed]", _collide_at(1e300), "eps_I", 1e290, (1.0,)),
    ("tune_config.eps_s", lambda x: _tuned(eps_s=x), "eps_s", 2.0, (0.0, -1.0)),
    ("tune_config.T", lambda x: _tuned(T=x), "T", 0.1, (0.0, -1.0)),
    ("tune_config.T_prior", lambda x: _tuned(T_prior=x), "T_prior", 0.5, (0.0, -1.0, 2.0)),
    ("tune_config.T_v", lambda x: _tuned(T_v=x), "T_v", 0.5, (0.0, -1.0, 0.2)),
    ("tune_config.eps_I", lambda x: _tuned(eps_I=x), "eps_I", 2.0, (0.0, -1.0)),
    ("tune_config.p00", lambda x: _tuned(p00=x), "p00", 0.5, (-0.1, 1.1)),
    ("ProbeState.p0", ProbeState, "p0", 1.0, (-0.1, 1.1)),
    # A scenario refuses with MachineConfig's messages when built, not when its runner tunes it.
    ("Scenario.eps_s", lambda x: _sweep(eps_s=x), "eps_s", 2.0, (0.0, -1.0)),
    ("Scenario.T", lambda x: _sweep(T=x), "T", 0.3, (0.0, -0.2)),
    ("Scenario.temps", lambda x: _sweep(T=None, temps=(0.2, x)), "T", 0.3, (0.0, -0.2)),
    ("Scenario.p00", lambda x: _sweep(p00=x), "p00", 0.5, (-0.1, 1.5)),
    ("Scenario.p00_values", lambda x: _sweep(p00_values=(1.0, x)), "p00", 0.5, (-0.1, 1.5)),
    (
        "DLevelSample.levels",
        lambda x: DLevelSample((0.0, x, 2.0), 0.2, (0, 2)),
        "levels",
        1.0,
        (3.0, -1.0),
    ),
    (
        "DLevelSample.temperature",
        lambda x: DLevelSample((0.0, 1.0, 2.0), x, (0, 2)),
        "temperature",
        0.2,
        (0.0, -1.0),
    ),
    ("transient_population.p00", lambda x: transient_population(3, x, PARAMS), "p00", 0.0, (2.0,)),
    ("sensitivity_transient.p00", lambda x: sensitivity_transient(3, x, CONFIG), "p00", 0, (-1.0,)),
    ("snr_transient.p00", lambda x: snr_transient(3, x, CONFIG), "p00", 0.5, (1.5,)),
    ("snr_thermal.T", lambda x: snr_thermal(x, 1.0), "temperature", 0.2, (0.0, -1.0)),
    ("snr_thermal.gap", lambda x: snr_thermal(0.2, x), "gap", 1.0, (-1.0,)),
    ("max_thermal_snr.T", max_thermal_snr, "temperature", 0.2, (0.0, -1.0)),
    ("NoisyAncillaSpec.delta_Tv_rel", NoisyAncillaSpec, "delta_Tv_rel", 0.0, (-0.1,)),
    ("snr_sample_bound.T", lambda x: snr_sample_bound(3, x, 1.0), "temperature", 0.2, (0.0,)),
    ("snr_sample_bound.eps_s", lambda x: snr_sample_bound(3, 0.2, x), "gap", 1.0, (-1.0,)),
    (
        "required_interactions.target_snr",
        lambda x: required_interactions(x, 0.1, 1.0),
        "target_snr",
        0.5,
        (0.0, -1.0),
    ),
    (
        "required_interactions.T",
        lambda x: required_interactions(1.0, x, 1.0),
        "temperature",
        0.1,
        (0.0, 1.0 / 800.0),  # eps_s/T = 800: the one-qubit bound underflows to 0
    ),
    ("required_interactions.eps_s", lambda x: required_interactions(1, 0.1, x), "gap", 1, (-1.0,)),
    ("heat_sample.p00", lambda x: heat_sample(3, x, CONFIG), "p00", 0.0, (1.5,)),
    ("heat_ancilla.p00", lambda x: heat_ancilla(3, x, CONFIG), "p00", 0.0, (1.5,)),
    ("probe_energy_change.p00", lambda x: probe_energy_change(3, x, CONFIG), "p00", 0.0, (1.5,)),
    (
        "perturbation_trajectory.p00",
        lambda x: perturbation_trajectory(3, x, CONFIG),
        "p00",
        0.0,
        (1.5,),
    ),
    ("fisher_binary.p0", lambda x: fisher_binary(x, 0.1), "p0", 0.5, (-0.1, 1.1)),
    ("fisher_binary.sensitivity", lambda x: fisher_binary(0.5, x), "sensitivity", -0.1, ()),
    # Not bounded to [0, 1]: an iterated map may round one ulp past 1.
    ("collide_analytic.p0", lambda x: collide_analytic(x, PARAMS), "p0", 1.0 + 2**-52, ()),
    (
        "collide_oracle_dlevel.p0_probe",
        lambda x: collide_oracle_dlevel(x, THREE_LEVEL, CONFIG),
        "p0_probe",
        0.5,
        (-0.1, 1.1),
    ),
    ("exact_unitary.t", lambda x: exact_unitary(TRIAD, x), "t", -1.0, ()),
    (
        "collide_oracle_matrix.t",
        lambda x: collide_oracle_matrix(np.diag([0.5, 0.5]), CONFIG, x),
        "t",
        1.0,
        (),
    ),
    (
        "build_triad_hamiltonian.detuning",
        lambda x: build_triad_hamiltonian(CONFIG, x),
        "detuning",
        -0.1,
        (),
    ),
    ("sample_measurements.p0", lambda x: sample_measurements(x, 10, 0), "p0", 0.5, (-0.1, 1.2)),
    (
        "ml_estimate.interval[0]",
        lambda x: ml_estimate(RECORD, steady_model(CONFIG), (x, 0.5)),
        "interval lo",
        1e-3,
        (0.0, -1.0),
    ),
    (
        "ml_estimate.interval[1]",
        lambda x: ml_estimate(RECORD, steady_model(CONFIG), (0.1, x)),
        "interval hi",
        0.5,
        (0.1, 0.05),
    ),
    ("steady_model.T", lambda x: steady_model(CONFIG)(x), "T", 0.2, (0.0, -0.1)),
    ("transient_model.T", lambda x: transient_model(CONFIG, 10, 1.0)(x), "T", 0.2, (0.0, -0.1)),
    (
        "transient_model.T[array]",
        lambda x: transient_model(CONFIG, 10, 1.0)(np.array([0.2, x])),
        "T",
        0.3,
        (0.0, -0.1),
    ),
]


@pytest.mark.filterwarnings("ignore::thermomachine.GapOrderingWarning")
@pytest.mark.parametrize(
    "call, word, legal, out_of_range", [r[1:] for r in FLOAT_ROWS], ids=[r[0] for r in FLOAT_ROWS]
)
def test_illegal_float_is_refused_by_name(call, word, legal, out_of_range):
    call(legal)  # the row itself is well formed
    for x in (*NON_FINITE, *out_of_range):
        with pytest.raises(ValueError, match=rf"\b{re.escape(word)}\b"):
            call(x)


@pytest.mark.parametrize(
    "eps_s, eps_p",
    [
        (1e308, 1e308),
        (1.0, 1.7e308),
        (1e308, np.array([1.0, 1e308])),
        (np.array([1.0, 1.0]), 1e308),
    ],
)
def test_an_overflowing_top_level_is_refused_by_name(eps_s, eps_p):
    message = r"^\(eps_s \+ eps_p\) / 2 must be finite and lie in \[0, 4.49423e\+307\], got "
    with pytest.raises(ValueError, match=message):
        MachineConfig(eps_s=eps_s, eps_p=eps_p, T=1.0, T_v=1.0, T_prior=1.0)


def test_the_overflow_check_is_the_top_level_s_own():
    # Refused exactly where the Hamiltonian's top entry would round to inf, at the ulps around
    # max / 2 (a sum eps_v near it) and max / 4 (two gaps near it); a machine kept builds a
    # finite Hamiltonian whose top entry is that sum.
    half, quarter = sys.float_info.max / 2.0, sys.float_info.max / 4.0
    big = [half, np.nextafter(half, 0.0), 2.0**1022, 2.0**969, 2.0**968, 3.0 * 2.0**968]
    big += [quarter, np.nextafter(quarter, math.inf), np.nextafter(quarter, 0.0), 2.0**1021, 1.0]
    for a in map(float, big):
        for b in map(float, big):
            top = b + a + (a + b)  # the layout's eps_p + eps_s + eps_v
            if math.isinf(top):
                with pytest.raises(ValueError, match=r"\(eps_s \+ eps_p\) / 2"):
                    MachineConfig(eps_s=a, eps_p=b, T=1.0, T_v=1.0, T_prior=1.0)
            else:
                config = MachineConfig(eps_s=a, eps_p=b, T=1.0, T_v=1.0, T_prior=1.0)
                assert build_triad_hamiltonian(config).max() == top


# (row id, call of a temperature x): every formula dividing by T^2 takes x = 1e-150 and refuses by
# name a T outside [2^-511, 2^512), where T^2 is no normal float: 1e-170, whose square underflows
# to 0, 1e-160, whose square is subnormal, and 1e155, whose square overflows (one check, in
# metrology._population_slope).
UNDERFLOW_ROWS = [
    ("sensitivity_steady", lambda x: sensitivity_steady(_at(x))),
    ("sensitivity_steady[array]", lambda x: sensitivity_steady(_at(np.array([0.2, x])))),
    ("snr_steady", lambda x: snr_steady(_at(x))),
    ("snr_steady[array]", lambda x: snr_steady(_at(np.array([0.2, x])))),
    ("jump_rate_derivative", lambda x: jump_rate_derivative(_at(x))),
    ("snr_transient", lambda x: snr_transient(3, 1.0, _at(x))),
    ("snr_transient[array]", lambda x: snr_transient(3, 1.0, _at(np.array([0.2, x])))),
    ("sensitivity_transient", lambda x: sensitivity_transient(np.arange(3), 1.0, _at(x))),
    ("snr_noisy_ancilla", lambda x: snr_noisy_ancilla(_at(x), NoisyAncillaSpec(0.1))),
    ("snr_thermal[array]", lambda x: snr_thermal(np.array([0.2, x]), 1.0)),
    ("snr_sample_bound", lambda x: snr_sample_bound(3, x, 1.0)),
    ("max_thermal_snr", max_thermal_snr),
    ("required_interactions", lambda x: required_interactions(1.0, x, x)),  # eps_s/T = 1
    # Scenarios that built and then failed when run, or ran to 0 slope cells: each kind that
    # forms a slope refuses its machines' T when it is built (a one-point grid at x for steady).
    ("Scenario[transient]", lambda x: Scenario("x", "transient-sweep", T=x, T_prior=x, T_v=2 * x)),
    (
        "Scenario[steady]",
        lambda x: Scenario("x", "steady-sweep", T_prior=0.25, t_min=x, t_max=2 * x, points=1),
    ),
    # eps_s / T = 1e-3: at x = 1e155 the tuning product eps_s (T_v - T_prior) stays finite.
    (
        "Scenario[cost]",
        lambda x: Scenario("x", "cost-comparison", eps_s=x / 1e3, T=x, T_prior=x, T_v=2 * x),
    ),
]


@pytest.mark.parametrize("bad", [1e-170, 1e-160, 1e155])
@pytest.mark.parametrize("call", [r[1] for r in UNDERFLOW_ROWS], ids=[r[0] for r in UNDERFLOW_ROWS])
def test_a_temperature_whose_square_underflows_is_refused_by_name(call, bad):
    call(1e-150)
    message = re.escape(f"T must be finite and lie in [1.49167e-154, 1.34078e+154], got {bad}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(bad)


# (row id, call of the count, word the message names, a legal value, illegal values)
COUNT_ROWS = [
    ("snr_steady.M", lambda n: snr_steady(CONFIG, n), "M", 3, (0, 2.5, True)),
    # numpy holds an int past 2^63 as an object, whose elements are Python ints.
    ("snr_steady.M[object]", lambda n: snr_steady(CONFIG, n), "M", 3, (np.array([10**308, 2]),)),
    ("snr_transient.M", lambda n: snr_transient(3, 1.0, CONFIG, n), "M", 3, (0, 2.5)),
    ("snr_thermal.M", lambda n: snr_thermal(0.2, 1.0, n), "M", np.arange(1, 3), (np.arange(2),)),
    (
        "snr_sample_bound.k",
        lambda n: snr_sample_bound(n, 0.2, 1.0),
        "k",
        np.array([1, 2]),
        (0, 1.0, np.array([1.0]), np.array([2, 0])),
    ),
    ("transient_population.k", lambda n: transient_population(n, 1.0, PARAMS), "k", 0, (-1, 0.5)),
    ("ProbeState.k", lambda n: ProbeState(1.0, n), "k", 0, (-1, 0.5)),
    (
        "perturbation_trajectory.k_max",
        lambda k: perturbation_trajectory(k, 1.0, CONFIG),
        "k_max",
        1,
        (0, 2.0),
    ),
    ("DLevelSample.levels", lambda n: DLevelSample((0.0, 1.0)[:n], 0.2, (0, 1)), "levels", 2, (1,)),
    (
        "empirical_snr_study.trials",
        lambda n: empirical_snr_study(CONFIG, 10, n),
        "trials",
        100,
        (99, 100.0),
    ),
    # A seed is refused before it is split into uint32 words, where a negative int never ends.
    ("trial_seed.seed", lambda n: trial_seed(n, 0), "seed", 0, (-1, 1.0, True)),
    ("trial_seed.trial", lambda n: trial_seed(0, n), "trial", 0, (-1, 1.5, True)),
    (
        "sample_measurements.seed",
        lambda n: sample_measurements(0.5, 10, n),
        "seed",
        0,
        (-1, 1.5, True),
    ),
    ("MeasurementRecord.seed", lambda n: MeasurementRecord(1, 2, n), "seed", 0, (-1, 1.5, True)),
    (
        "empirical_snr_study.seed",
        lambda n: empirical_snr_study(CONFIG, 10, 100, seed=n),
        "seed",
        2**200 + 17,
        (-1, 2.5, True, np.float64(3.0)),
    ),
    ("Scenario.seed", lambda n: Scenario("x", "verify", seed=n), "seed", 0, (-1, 0.5, False)),
    (
        "Scenario.k_min",
        lambda n: Scenario("x", "heat-trajectory", T=0.2, T_prior=0.25, k_min=n),
        "k_min",
        0,
        (-5, 0.5),
    ),
    (
        "Scenario.trials",
        lambda n: Scenario("x", "montecarlo", T=0.2, T_prior=0.25, trials=n),
        "trials",
        100,
        (99, 100.0),
    ),
    (
        "Scenario.k_measure",
        lambda n: Scenario("x", "montecarlo", T=0.2, T_prior=0.25, model="transient", k_measure=n),
        "k_measure",
        0,
        (-5, 0.5, True),
    ),
]


@pytest.mark.parametrize(
    "call, word, legal, illegal", [r[1:] for r in COUNT_ROWS], ids=[r[0] for r in COUNT_ROWS]
)
def test_illegal_count_is_refused_by_name(call, word, legal, illegal):
    call(legal)
    for n in illegal:
        with pytest.raises(ValueError, match=rf"\b{re.escape(word)}\b.*integer"):
            call(n)


# (row id, call of a machine): an oracle takes one machine and refuses a MachineConfig stacking
# several (here two temperatures) by name, not with numpy's IndexError or one lane's float.
STACKED = tune_config(eps_s=1.0, T=np.array([0.2, 0.3]), T_prior=0.25, T_v=1.0)
STACKED_ROWS = [
    ("collide_oracle", lambda c: collide_oracle(ProbeState(0.5), c)),
    ("collide_oracle_matrix", lambda c: collide_oracle_matrix(np.diag([0.5, 0.5]), c)),
    ("collide_oracle_dlevel", lambda c: collide_oracle_dlevel(0.5, THREE_LEVEL, c)),
]


@pytest.mark.parametrize("call", [r[1] for r in STACKED_ROWS], ids=[r[0] for r in STACKED_ROWS])
def test_an_oracle_refuses_a_stacked_machine_by_name(call):
    call(CONFIG)
    with pytest.raises(ValueError, match="an oracle takes one machine"):
        call(STACKED)


def _nan_passing_checks(source: str) -> list[str]:
    """Each ``if`` whose body raises ValueError and whose test reaches a comparison with a
    float literal through and/or (or a call's arguments) but not through ``not``.

    Such a test is False at NaN, so NaN passes the check it was written to make.
    """

    def float_compares(test: ast.expr) -> bool:
        if isinstance(test, ast.BoolOp):
            return any(map(float_compares, test.values))
        if isinstance(test, ast.Call):
            return any(map(float_compares, test.args))
        return isinstance(test, ast.Compare) and any(
            isinstance(node, ast.Constant) and type(node.value) is float
            for side in (test.left, *test.comparators)
            for node in ast.walk(side)
        )

    def raises_value_error(body: list[ast.stmt]) -> bool:
        return any(
            isinstance(s, ast.Raise)
            and isinstance(s.exc, ast.Call)
            and getattr(s.exc.func, "id", None) == "ValueError"
            for s in body
        )

    return [
        f"{node.lineno}: if {ast.unparse(node.test)}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.If) and raises_value_error(node.body) and float_compares(node.test)
    ]


def test_the_guard_tells_the_nan_passing_shape_from_the_refusing_one():
    flagged = """
if x <= 0.0:
    raise ValueError("x")
if a is None or y < 2.0 * b:
    raise ValueError("y")
if np.any(z <= 0.0):
    raise ValueError("z")
"""
    assert len(_nan_passing_checks(flagged)) == 3
    passed = """
if not x > 0.0:
    raise ValueError("x")
if k < 0:
    raise ValueError("k")
if x <= 0.0:
    return math.inf
"""
    assert _nan_passing_checks(passed) == []


SOURCES = sorted((Path(__file__).parents[1] / "src" / "thermomachine").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_domain_check_lets_nan_through(path):
    assert _nan_passing_checks(path.read_text()) == []
