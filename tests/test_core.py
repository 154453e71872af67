"""Thermal populations, machine tuning and collision parameters."""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np
import pytest

from thermomachine import (
    GapOrderingWarning,
    MachineConfig,
    ProbeState,
    collide_oracle,
    collision_params,
    thermal_population,
    tune_config,
)
from thermomachine.core import _probe_gap
from thermomachine.metrology import NoisyAncillaSpec, snr_noisy_ancilla
from thermomachine.scenarios import Scenario

# 1/(1 + e^-5) evaluated to 50 digits with decimal arithmetic.
P0_GAP1_T02 = 0.993307149075715144


def test_degenerate_qubit_is_maximally_mixed():
    qubit = thermal_population(0.0, 1.0)
    assert qubit.p0 == pytest.approx(0.5, abs=1e-15)
    assert qubit.p1 == pytest.approx(0.5, abs=1e-15)


def test_infinite_temperature_limit():
    qubit = thermal_population(1.0, 1e12)
    assert qubit.p0 == pytest.approx(0.5, abs=1e-9)


def test_cold_qubit_value():
    qubit = thermal_population(1.0, 0.2)
    assert qubit.p0 == pytest.approx(P0_GAP1_T02, abs=1e-14)
    assert qubit.p0 + qubit.p1 == pytest.approx(1.0, abs=1e-12)


def test_extreme_arguments_stay_finite():
    assert thermal_population(1.0, 1e-6).p0 == 1.0
    assert thermal_population(1e6, 1.0).p1 == 0.0


def test_population_monotone_in_gap_over_temperature():
    ratios = np.linspace(0.01, 30.0, 400)
    p0 = [thermal_population(x, 1.0).p0 for x in ratios]
    assert all(b > a for a, b in zip(p0, p0[1:]))
    assert all(0.5 < x < 1.0 for x in p0)


@pytest.mark.parametrize(
    "t_prior, expected_v, expected_p",
    [(0.25, 4.0, 3.0), (0.5, 2.0, 1.0), (0.1, 10.0, 9.0)],
)
def test_tuning_rule(t_prior, expected_v, expected_p):
    config = tune_config(eps_s=1.0, T=t_prior, T_prior=t_prior, T_v=1.0)
    assert config.eps_v == pytest.approx(expected_v, rel=1e-15)
    assert config.eps_p == pytest.approx(expected_p, rel=1e-15)
    assert config.eps_v == config.eps_p + config.eps_s  # resonance, exact


def test_cold_bath_flagged_not_fatal():
    with pytest.warns(GapOrderingWarning):
        config = tune_config(eps_s=1.0, T=0.2, T_prior=0.3, T_v=0.5)
    assert config.eps_p == pytest.approx(1.0 / 1.5, rel=1e-12)


def test_cold_bath_strict_mode_raises():
    # The standard warnings filter is what makes a cold bath fatal.
    with warnings.catch_warnings():
        warnings.simplefilter("error", GapOrderingWarning)
        with pytest.raises(GapOrderingWarning):
            tune_config(eps_s=1.0, T=0.2, T_prior=0.3, T_v=0.5)


def test_tune_config_tunes_array_lanes_as_the_float_calls_and_warns_once():
    t_v = np.array([1.0, 0.4, 0.3])
    with pytest.warns(GapOrderingWarning) as record:
        lanes = tune_config(eps_s=1.3, T=0.2, T_prior=np.array([0.25, 0.25, 0.1]), T_v=t_v)
    assert len(record) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GapOrderingWarning)
        floats = [tune_config(1.3, 0.2, tp, v) for tp, v in ((0.25, 1.0), (0.25, 0.4), (0.1, 0.3))]
    assert lanes.eps_p.tobytes() == np.array([c.eps_p for c in floats]).tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error", GapOrderingWarning)
        tune_config(eps_s=1.0, T=0.2, T_prior=0.25, T_v=np.array([0.5, 1.0]))  # no cold lane


@pytest.mark.parametrize(
    "T_v, T_prior",
    [(0.2, 0.25), (np.array([1.0, 0.2]), 0.25), (1.0, np.array([0.25, 2.0])), (np.nan, 0.25)],
)
def test_the_tuning_rule_refuses_a_bath_below_the_prior(T_v, T_prior):
    with pytest.raises(ValueError, match=r"\bT_v\b"):
        _probe_gap(1.0, T_v, T_prior)


def test_the_tuning_rule_is_written_once_and_refuses_every_tuning():
    sources = (Path(__file__).parents[1] / "src" / "thermomachine").glob("*.py")
    assert sum(path.read_text().count("T_v >= T_prior") for path in sources) == 1
    config = MachineConfig(eps_s=1.0, eps_p=3.0, T=0.2, T_v=1.0, T_prior=0.25)
    for tuning, name in (
        (lambda: tune_config(eps_s=1.0, T=0.2, T_prior=0.25, T_v=0.2), "T_v"),
        (lambda: snr_noisy_ancilla(config, NoisyAncillaSpec(0.9, -1)), "mistuned T_v"),
        (lambda: Scenario("x", "montecarlo", T=0.2, T_prior=0.25, T_v=0.2), "T_v"),
    ):
        with pytest.raises(ValueError, match=f"^tuning rule requires {name} >= T_prior, got "):
            tuning()


@pytest.mark.xfail(
    strict=True,
    raises=ValueError,
    reason="_probe_gap forms eps_s * (T_v - T_prior) before dividing by T_prior, and that product "
    "overflows to inf (eps_p must be finite ... got inf) where the true gap is 1e155; dividing "
    "first moves every tuned machine's bits, so the fix is parked with ROADMAP item 2",
)
def test_a_machine_at_large_scale_is_tuned():
    config = tune_config(1e155, 1e155, 1e155, 2e155)
    assert config.eps_p == pytest.approx(1e155, rel=1e-15)


def test_config_field_validation():
    with pytest.raises(ValueError):
        MachineConfig(eps_s=0.0, eps_p=1.0, T=0.1, T_v=1.0, T_prior=0.25)
    with pytest.raises(ValueError):
        MachineConfig(eps_s=1.0, eps_p=1.0, T=0.1, T_v=1.0, T_prior=0.25, p00=1.5)
    with pytest.raises(ValueError):
        MachineConfig(eps_s=1.0, eps_p=1.0, T=-0.1, T_v=1.0, T_prior=0.25)


def test_collision_params_reference_values():
    # Frozen from 50-digit decimal evaluation of the defining formulas.
    config = MachineConfig(eps_s=1.0, eps_p=3.0, T=0.2, T_v=1.0, T_prior=0.25)
    params = collision_params(config)
    assert params.r == pytest.approx(0.024438302842438081, abs=1e-14)
    assert params.p0_inf == pytest.approx(0.268941421369995120, abs=1e-14)


def test_collision_params_match_iterated_oracle():
    # The exact triad map, iterated, is the independent source for (r, p0_inf):
    # p0_inf from the fixed point, r from the per-step contraction factor.
    config = MachineConfig(eps_s=1.0, eps_p=3.0, T=0.2, T_v=1.0, T_prior=0.25)
    probe = ProbeState(p0=1.0)
    for _ in range(2500):
        probe = collide_oracle(probe, config)
    params = collision_params(config)
    assert probe.p0 == pytest.approx(params.p0_inf, abs=1e-12)

    p1 = collide_oracle(ProbeState(p0=1.0), config).p0
    p2 = collide_oracle(ProbeState(p0=p1), config).p0
    r_oracle = 1.0 - (p2 - p1) / (p1 - 1.0)
    assert r_oracle == pytest.approx(params.r, abs=1e-10)


def test_tuned_machine_balances_at_prior():
    for t_v in (1.0, 0.9, 2.7):
        config = tune_config(eps_s=1.3, T=0.21, T_prior=0.21, T_v=t_v)
        assert collision_params(config).p0_inf == pytest.approx(0.5, abs=1e-14)


def test_thermal_fixed_point_when_bath_matches_sample():
    # T_v = T with eps_p = eps_s: the probe settles into its own Gibbs state.
    config = MachineConfig(eps_s=1.0, eps_p=1.0, T=0.25, T_v=0.25, T_prior=0.25)
    p0_inf = collision_params(config).p0_inf
    assert p0_inf == pytest.approx(thermal_population(config.eps_p, config.T).p0, rel=1e-14)


def test_steady_population_monotone_in_temperature():
    temps = np.linspace(0.02, 1.0, 300)
    values = [
        collision_params(
            MachineConfig(eps_s=1.0, eps_p=3.0, T=float(t), T_v=1.0, T_prior=0.25)
        ).p0_inf
        for t in temps
    ]
    assert all(b > a for a, b in zip(values, values[1:]))
