"""Sensitivities, Fisher information and the SNR family."""

from __future__ import annotations

import ast
import math
import warnings
from collections import Counter
from decimal import Decimal, localcontext

import numpy as np
import pytest
from conftest import count_calls, random_machine_configs

from thermomachine import (
    PRESETS,
    MachineConfig,
    NoisyAncillaSpec,
    SQRT_TWO_OVER_PI,
    collision_params,
    fisher_binary,
    jump_rate_derivative,
    max_thermal_snr,
    noisy_peak,
    noisy_peak_in_prior,
    required_interactions,
    run_scenario,
    sensitivity_steady,
    sensitivity_transient,
    snr_noisy_ancilla,
    snr_sample_bound,
    snr_steady,
    snr_thermal,
    snr_transient,
    steady_population,
    transient_population,
    tune_config,
)
from thermomachine import metrology
from thermomachine.dynamics import contraction_power
from dataclasses import replace
from pathlib import Path

# Frozen from 50-digit decimal evaluations of the closed forms.
SNR_STEADY_T02 = 2.217047209925184771
SNR_STEADY_X8_PRIOR7 = 3.547275535880295634
SNR_THERMAL_X11_PER_SQRT_M = 0.044953735019273041
SNR_THERMAL_X4 = 0.531604457668159384
SAMPLE_BOUND_X5_K100 = 4.076780798249445651


@pytest.fixture
def config():
    return tune_config(eps_s=1.0, T=0.2, T_prior=0.25, T_v=1.0)


def test_fisher_direct_value():
    assert fisher_binary(0.5, 4.0) == 64.0
    assert fisher_binary(0.3, 0.0) == 0.0


def test_fisher_boundary_is_signaled():
    assert math.isinf(fisher_binary(0.0, 1.0))
    assert math.isinf(fisher_binary(1.0, 1.0))


def test_fisher_equals_two_outcome_log_derivative_sum():
    # F = sum_j p_j (d ln p_j / dT)^2 specialized to two outcomes.
    p0, lam = 0.37, 2.1
    expected = p0 * (lam / p0) ** 2 + (1 - p0) * (lam / (1 - p0)) ** 2
    assert fisher_binary(p0, lam) == pytest.approx(expected, rel=1e-14)


def test_sensitivity_steady_at_prior():
    config = tune_config(eps_s=1.0, T=0.25, T_prior=0.25, T_v=1.0)
    assert sensitivity_steady(config) == pytest.approx(4.0, rel=1e-12)


def test_sensitivity_steady_matches_finite_difference():
    for config in random_machine_configs(30, seed=3):
        h = 1e-6 * config.T
        up = steady_population(replace(config, T=config.T + h))
        down = steady_population(replace(config, T=config.T - h))
        fd = (up - down) / (2.0 * h)
        assert sensitivity_steady(config) == pytest.approx(fd, rel=1e-6)


def test_sensitivity_steady_vanishes_at_low_temperature():
    config = MachineConfig(eps_s=1.0, eps_p=3.0, T=0.01, T_v=1.0, T_prior=0.25)
    assert sensitivity_steady(config) < 1e-30


def test_sensitivity_transient_edges(config):
    assert sensitivity_transient(0, 1.0, config) == 0.0
    lam_inf = sensitivity_steady(config)
    assert sensitivity_transient(10**6, 1.0, config) == pytest.approx(lam_inf, rel=1e-12)
    with pytest.raises(ValueError):
        sensitivity_transient(-1, 1.0, config)


def test_sensitivity_transient_matches_finite_difference():
    for config in random_machine_configs(25, seed=5):
        params_of = lambda t: collision_params(replace(config, T=t))
        h = 1e-6 * config.T
        # Central differences of populations cannot resolve slopes below
        # roughly eps/(2h); exponentially flat configs sit under that floor.
        floor = 1e-9 / config.T
        for k in (1, 3, 17, 200):
            fd = (
                transient_population(k, config.p00, params_of(config.T + h))
                - transient_population(k, config.p00, params_of(config.T - h))
            ) / (2.0 * h)
            lam = sensitivity_transient(k, config.p00, config)
            assert lam == pytest.approx(fd, rel=1e-5, abs=floor)


def _two_term_slope(k, p00, config):
    """d p0_k / dT formed apart from ``snr_transient``, as the bit reference: its own collision
    params and powers, lambda_inf through ``sensitivity_steady``."""
    params = collision_params(config)
    q_k, q_km1 = contraction_power(params.r, k), contraction_power(params.r, k - (k > 0))
    return (1.0 - q_k) * sensitivity_steady(config) + k * (
        params.p0_inf - p00
    ) * jump_rate_derivative(config) * q_km1


@pytest.mark.parametrize("name", ["fig2a", "fig2b"])
def test_the_transient_slope_keeps_its_two_term_bits(name):
    preset = PRESETS[name]
    grid = np.arange(preset.k_min, preset.k_max + 1, preset.k_step)
    for T in preset.temps:
        for p00 in (0.0, 0.5, 1.0):
            config = tune_config(preset.eps_s, T, preset.T_prior, preset.T_v, p00=p00)
            for k in (grid, 0, 1, int(grid[-1])):
                want = np.float64(_two_term_slope(k, p00, config)).tobytes()
                assert np.float64(sensitivity_transient(k, p00, config)).tobytes() == want
                assert np.float64(snr_transient(k, p00, config).sensitivity).tobytes() == want
            assert type(sensitivity_transient(0, p00, config)) is float


def test_sensitivity_steady_reads_the_steady_point(monkeypatch, config):
    calls = Counter()
    count_calls(monkeypatch, metrology, ["snr_steady"], calls)
    metrology.sensitivity_steady(config)
    assert calls == {"snr_steady": 1}


def test_snr_transient_forms_its_machine_once(monkeypatch, config):
    # The slope is formed inline: one steady pair gives p0_inf, p1_inf and lambda_inf.
    assert not hasattr(metrology, "_transient_slope")
    calls = Counter()
    once = {"_steady_pair": 1, "collision_params": 1, "jump_rate_derivative": 1}
    count_calls(monkeypatch, metrology, once, calls)
    for call in (
        lambda: metrology.snr_transient(np.arange(5), 0.5, config, 3),
        lambda: metrology.snr_transient(7, 1.0, config),
        lambda: metrology.sensitivity_transient(7, 0.5, config),
    ):
        calls.clear()
        call()
        assert calls == once


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="d p0_k/dT >= 0 holds for every machine (transient_model's docstring), but the "
    "closed form's two terms cancel on cold machines: 1,842 of these 3,000 read < 0, worst "
    "-1.7e-16 at eps_s/T = 49.3, k = 300, p00 = 0.632 (ROADMAP item 2)",
)
def test_transient_sensitivity_is_never_negative_on_cold_machines():
    rng = np.random.default_rng(22)
    # Per machine: eps_s/T, T_prior/T, T_v/T_prior, p00; then one k each.
    draws = rng.uniform((20.0, 0.55, 2.0, 0.0), (700.0, 1.9, 4.0, 1.0), (3000, 4))
    ks = rng.choice([1, 10, 300, 10**4, 10**6], len(draws))
    negative = []
    for (x, prior, bath, p00), k in zip(draws.tolist(), ks.tolist()):
        T = 1.0 / x
        config = tune_config(1.0, T, prior * T, bath * (prior * T), p00=p00)
        if not sensitivity_transient(k, p00, config) >= 0.0:
            negative.append((x, k, p00))
    assert negative == []


def test_jump_rate_derivative_matches_finite_difference(config):
    h = 1e-6 * config.T
    fd = (
        collision_params(replace(config, T=config.T + h)).r
        - collision_params(replace(config, T=config.T - h)).r
    ) / (2.0 * h)
    assert jump_rate_derivative(config) == pytest.approx(fd, rel=1e-6)


def test_snr_steady_reference_values(config):
    assert snr_steady(config, M=1).snr == pytest.approx(SNR_STEADY_T02, rel=1e-12)
    at_prior = tune_config(eps_s=1.0, T=0.25, T_prior=0.25, T_v=1.0)
    assert snr_steady(at_prior, M=1).snr == pytest.approx(2.0, rel=1e-12)
    skewed = tune_config(eps_s=1.0, T=1.0 / 8.0, T_prior=1.0 / 7.0, T_v=1.0)
    assert snr_steady(skewed, M=1).snr == pytest.approx(SNR_STEADY_X8_PRIOR7, rel=1e-12)


def test_snr_steady_closed_form_regression():
    # sqrt(M) e^{-x/2} / (1 + e^{-x}) * eps_s/T with x = eps_s/T - eps_v/T_v.
    for config in random_machine_configs(40, seed=17):
        x = config.eps_s / config.T - config.eps_v / config.T_v
        closed = (
            math.sqrt(3)
            * math.exp(-x / 2.0)
            / (1.0 + math.exp(-x))
            * (config.eps_s / config.T)
        )
        assert snr_steady(config, M=3).snr == pytest.approx(closed, rel=1e-12)


def test_snr_point_internal_consistency():
    for config in random_machine_configs(40, seed=19):
        point = snr_steady(config, M=5)
        implied = config.T * math.sqrt(5 * point.fisher)
        assert point.snr == pytest.approx(implied, rel=1e-12)
        p0 = steady_population(config)
        if 1e-8 < p0 < 1.0 - 1e-8:  # 1 - p0 itself is exact only here
            assert point.fisher == pytest.approx(
                fisher_binary(p0, point.sensitivity), rel=1e-7
            )


def test_snr_steady_suppressed_at_interval_edges():
    t_prior = 0.1
    peak = snr_steady(tune_config(1.0, t_prior, t_prior, 1.0), M=1).snr
    low = snr_steady(tune_config(1.0, 0.02 * t_prior, t_prior, 1.0), M=1).snr
    high = snr_steady(tune_config(1.0, 1.98 * t_prior, t_prior, 1.0), M=1).snr
    assert low < 1e-6 * peak
    assert high < peak / 10.0


def test_snr_steady_peak_structure():
    # The exponential damping factor snr * T / eps_s peaks exactly at the
    # prior temperature; the extra eps_s/T factor pulls the full-SNR peak
    # slightly below it.
    t_prior = 0.125
    temps = np.linspace(0.05, 1.95, 191) * t_prior
    snrs = np.array(
        [snr_steady(tune_config(1.0, float(t), t_prior, 1.0), M=1).snr for t in temps]
    )
    damping = snrs * temps
    assert temps[int(np.argmax(damping))] == pytest.approx(t_prior, rel=1e-9)
    best = temps[int(np.argmax(snrs))]
    assert 0.85 * t_prior < best < t_prior
    assert snrs.max() < 1.05 * snr_steady(tune_config(1.0, t_prior, t_prior, 1.0)).snr


def test_snr_transient_approaches_steady(config):
    steady = snr_steady(config, M=2).snr
    late = snr_transient(5 * 10**4, 1.0, config, M=2).snr
    assert late == pytest.approx(steady, rel=1e-9)


def test_snr_transient_singular_at_pure_start(config):
    point = snr_transient(0, 1.0, config, M=1)
    assert point.singular
    assert math.isinf(point.snr)


def test_transient_peak_precedes_plateau_for_mixed_start_above_prior():
    # Verified against finite differences of the exact populations: the
    # interior SNR maximum appears for the mixed start with T above the
    # prior; the ground start climbs to its plateau monotonically.
    ks = np.unique(np.round(np.logspace(0.0, 5.7, 300)).astype(int))

    config = tune_config(eps_s=1.0, T=1.0 / 9.5, T_prior=0.1, T_v=1.0, p00=0.5)
    snrs = np.array([snr_transient(int(k), 0.5, config).snr for k in ks])
    steady = snr_steady(config).snr
    peak = int(np.argmax(snrs))
    assert snrs[peak] > steady
    assert ks[peak] < ks[-1] // 10

    ground = tune_config(eps_s=1.0, T=1.0 / 10.5, T_prior=0.1, T_v=1.0, p00=1.0)
    snrs_ground = np.array([snr_transient(int(k), 1.0, ground).snr for k in ks])
    assert np.all(np.diff(snrs_ground) > -1e-12)
    assert snrs_ground[-1] <= snr_steady(ground).snr + 1e-12


def test_snr_thermal_reference_values():
    assert snr_thermal(1.0 / 11.0, 1.0, M=1) == pytest.approx(
        SNR_THERMAL_X11_PER_SQRT_M, rel=1e-12
    )
    assert snr_thermal(1.0 / 11.0, 1.0, M=20000) == pytest.approx(
        SNR_THERMAL_X11_PER_SQRT_M * math.sqrt(20000.0), rel=1e-12
    )
    assert snr_thermal(0.25, 1.0, M=1) == pytest.approx(SNR_THERMAL_X4, rel=1e-12)
    # Machine at the same temperature beats it by ~4x (2.0 vs 0.53).
    machine = snr_steady(tune_config(1.0, 0.25, 0.25, 1.0), M=1).snr
    assert machine / snr_thermal(0.25, 1.0, M=1) > 3.5


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="six fig1b cells at eps_s/T = 800-1200 read 0 in snr and snr_thermal, where the "
    "true values are normal floats (snr ~1.1e-170 and snr_thermal ~1.5e-171 at eps_s/T = 800 "
    "and T_prior = 1/4): a population near e^-800 underflows to 0 before its square root is "
    "taken (ROADMAP item 2)",
)
def test_fig1b_cold_cells_inside_the_float_range_are_not_zero():
    table = run_scenario(PRESETS["fig1b"])
    column = table.columns.index
    x = 1.0 / table.cells[:, column("T")]  # eps_s = 1
    cold = table.cells[(x > 799.0) & (x < 1201.0)][:, [column("snr"), column("snr_thermal")]]
    # At eps_s/T >= 1600, e^(-eps_s/2T) itself is below the float range: those cells are 0.
    assert cold.shape == (6, 2)
    assert (cold > 0.0).all()


def decimal_thermal_peak() -> float:
    """Root of (y/2) tanh(y/2) = 1 by 40-digit bisection, rounded once to float."""
    with localcontext() as ctx:
        ctx.prec = 40
        lo, hi = Decimal(1), Decimal(4)
        for _ in range(140):
            mid = (lo + hi) / 2
            e = mid.exp()  # (y/2) tanh(y/2) = (y/2) (e^y - 1) / (e^y + 1)
            lo, hi = (mid, hi) if mid / 2 * (e - 1) / (e + 1) < 1 else (lo, mid)
        return float(lo)


def test_thermal_gap_optimum():
    # True optimum of y e^{-y/2}/(1+e^{-y}) sits at y ~= 2.3994, value ~= 0.66274.
    y_star = decimal_thermal_peak()
    gap, peak = max_thermal_snr(T=1.0, M=1)
    assert abs(gap - y_star) <= 1e-15
    assert peak == pytest.approx(0.662743, abs=5e-5)
    # Scale invariance: only gap/T matters.
    gap2, peak2 = max_thermal_snr(T=0.05, M=1)
    assert abs(gap2 / 0.05 - y_star) <= 1e-15
    assert peak2 == pytest.approx(peak, rel=1e-9)
    _, peak16 = max_thermal_snr(T=1.0, M=16)
    assert peak16 == pytest.approx(4.0 * peak, rel=1e-9)


def test_noisy_ancilla_zero_error_reduces_to_steady(config):
    ideal = snr_steady(config, M=3).snr
    noisy = snr_noisy_ancilla(config, NoisyAncillaSpec(0.0, sign=1), M=3).snr
    assert noisy == pytest.approx(ideal, rel=1e-15)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("delta", [0.1, 0.4])
def test_noisy_ancilla_peak_formula(sign, delta):
    config = tune_config(eps_s=1.0, T=0.05, T_prior=0.1, T_v=1.0)
    spec = NoisyAncillaSpec(delta, sign=sign)
    t_peak, point = noisy_peak(config, spec, M=1)
    assert t_peak == pytest.approx(config.T_prior / (1.0 + sign * delta), rel=1e-15)
    expected = 0.5 * (1.0 + sign * delta) * config.eps_s / config.T_prior
    assert point.snr == pytest.approx(expected, rel=1e-12)


def test_noisy_ancilla_overshoot_example():
    # delta = 0.4, plus branch, T_prior = eps_s/10: peak 7.0 at T = eps_s/14.
    config = tune_config(eps_s=1.0, T=0.05, T_prior=0.1, T_v=1.0)
    t_peak, point = noisy_peak(config, NoisyAncillaSpec(0.4, sign=1), M=1)
    assert t_peak == pytest.approx(1.0 / 14.0, rel=1e-12)
    assert point.snr == pytest.approx(7.0, rel=1e-12)


@pytest.mark.parametrize(
    "delta, inside",
    [(0.3, True), (0.5, True), (0.500001, False), (0.7, False), (1.0, False), (1.5, False)],
)
def test_noisy_undershoot_peak_interval(delta, inside):
    config = tune_config(eps_s=1.0, T=0.05, T_prior=0.1, T_v=1.0)
    assert noisy_peak_in_prior(config, NoisyAncillaSpec(delta, sign=-1)) is inside


def test_an_undershoot_without_a_peak_refuses_its_t():
    # Where 1 - delta <= 0 the mistuned exponent never vanishes: no T has a peak.
    config = tune_config(eps_s=1.0, T=0.05, T_prior=0.1, T_v=1.0)
    with pytest.raises(ValueError, match=r"^T must be"):
        noisy_peak(config, NoisyAncillaSpec(1.0, sign=-1))


def test_noisy_ancilla_closed_form_regression():
    # sqrt(M) e^(-a x_T/2) / (1 + e^(-a x_T)) * eps_s/T with a = eps_s/T and
    # x_T = 1 - (T/T_prior)(1 +/- delta), for tuned machines.
    rng = np.random.default_rng(37)
    for _ in range(40):
        t_prior = rng.uniform(0.05, 0.3)
        config = tune_config(
            eps_s=1.0,
            T=t_prior * rng.uniform(0.2, 1.8),
            T_prior=t_prior,
            T_v=t_prior * rng.uniform(2.0, 5.0),
        )
        sign = 1 if rng.random() < 0.5 else -1
        delta = rng.uniform(0.0, 0.45)
        a = config.eps_s / config.T
        x_t = 1.0 - (config.T / config.T_prior) * (1.0 + sign * delta)
        closed = (
            math.sqrt(2.0)
            * math.exp(-a * x_t / 2.0)
            / (1.0 + math.exp(-a * x_t))
            * a
        )
        got = snr_noisy_ancilla(config, NoisyAncillaSpec(delta, sign), M=2).snr
        assert got == pytest.approx(closed, rel=1e-11)


def test_noisy_spec_validation():
    with pytest.raises(ValueError):
        NoisyAncillaSpec(-0.1, sign=1)
    with pytest.raises(ValueError):
        NoisyAncillaSpec(0.1, sign=0)


def test_sample_bound_values():
    assert snr_sample_bound(1, 0.25, 1.0) == pytest.approx(
        snr_thermal(0.25, 1.0, M=1), rel=1e-15
    )
    assert snr_sample_bound(100, 0.2, 1.0) == pytest.approx(
        SAMPLE_BOUND_X5_K100, rel=1e-12
    )
    with pytest.raises(ValueError):
        snr_sample_bound(0, 0.2, 1.0)


def reference_sample_bound(k: int, T: float, eps_s: float) -> float:
    """The k-qubit bound as its own closed form, sqrt(k e^-x) / (1 + e^-x) x with x = eps_s/T."""
    x = eps_s / T
    e = math.exp(-x)
    return math.sqrt(k * e) / (1.0 + e) * x


@pytest.mark.parametrize("T, eps_s", [(1.0 / 8.0, 1.0), (1.0 / 11.0, 1.0), (0.3, 1.7)])
def test_sample_bound_matches_its_closed_form(T, eps_s):
    # snr_sample_bound is the thermal SNR of k qubits; the closed form above
    # is the formula it replaced, kept as the reference.
    ks = np.arange(1, 6001)
    got = snr_sample_bound(ks, T, eps_s)
    want = np.array([reference_sample_bound(int(k), T, eps_s) for k in ks])
    assert np.max(np.abs(got - want) / want) <= 1e-15


def test_sample_bound_sqrt_k_scaling():
    for k in (1, 9, 400):
        assert snr_sample_bound(4 * k, 0.3, 1.0) == pytest.approx(
            2.0 * snr_sample_bound(k, 0.3, 1.0), rel=1e-12
        )
    ks = [snr_sample_bound(k, 0.3, 1.0) for k in range(1, 50)]
    assert all(b > a for a, b in zip(ks, ks[1:]))


def test_required_interactions_inverts_bound():
    for k0 in (1, 7, 100, 12345):
        target = snr_sample_bound(k0, 0.2, 1.0)
        assert required_interactions(target, 0.2, 1.0) == k0
    # Just below the k = 100 bound value still needs all 100 qubits.
    assert required_interactions(4.0767, 0.2, 1.0) == 100
    assert required_interactions(SAMPLE_BOUND_X5_K100 * 1.000001, 0.2, 1.0) == 101


def test_required_interactions_refuses_targets_past_2_to_53():
    # Past 2^53 a step of k no longer moves the float bound; 1e200 squared overflows.
    per_qubit = snr_sample_bound(1, 0.1, 1.0)
    for target in (1e11 * per_qubit, 1e200):
        with pytest.raises(ValueError, match=r"2\^53"):
            required_interactions(target, 0.1, 1.0)
    target = 1e6 * per_qubit  # k ~ 1e12 returns after a few adjustment steps
    k = required_interactions(target, 0.1, 1.0)
    assert 0.99e12 < k < 1.01e12
    assert snr_sample_bound(k - 1, 0.1, 1.0) < target <= snr_sample_bound(k, 0.1, 1.0)
    # The estimate ratio^2 reads 2999999999999999.5, past which 1e-9 is below an ulp: its
    # ceiling 3e15 overshoots the smallest k by one, and the downward step takes it back.
    target = snr_sample_bound(1, 1.0, 1.0) * math.sqrt(3e15)
    k = required_interactions(target, 1.0, 1.0)
    assert k == 2999999999999999
    assert snr_sample_bound(k - 1, 1.0, 1.0) < target <= snr_sample_bound(k, 1.0, 1.0)


def test_required_interactions_exponential_scaling():
    # k ~ e^(eps_s/T) dominates: after dividing out the known x^2 prefactor
    # the log-count grows with unit slope in x = eps_s/T.
    target = 2.0
    xs = np.arange(5.0, 13.0)
    ks = [required_interactions(target, 1.0 / x, 1.0) for x in xs]
    assert all(b > 1.5 * a for a, b in zip(ks, ks[1:]))
    corrected = [math.log(k) + 2.0 * math.log(x) for k, x in zip(ks, xs)]
    slope = np.polyfit(xs, corrected, 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)


def test_reference_constant():
    assert SQRT_TWO_OVER_PI == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-15)


#: Each reads a slope at a T outside [2^-511, 2^512), where T^2 is no normal float: past it
#: T^2 overflows and the slope read 0, below it T^2 is subnormal (the steady sensitivity at
#: eps_s = T = 1e-158 was off by 1.6e-8) or 0, and an SNR read inf.
SLOPES_PAST_THE_RANGE = [
    ("max_thermal_snr(1e155)", lambda: max_thermal_snr(1e155)),
    ("max_thermal_snr(1e-160)", lambda: max_thermal_snr(1e-160)),
    ("snr_thermal(1e-155)", lambda: snr_thermal(1e-155, 1e-155)),
    *(
        (f"sensitivity_steady({T:g})", lambda T=T: sensitivity_steady(tune_config(T, T, T, 2 * T)))
        for T in (1e-155, 1e-158, 1e-160, 1e-161)
    ),
]


@pytest.mark.parametrize(
    "call", [r[1] for r in SLOPES_PAST_THE_RANGE], ids=[r[0] for r in SLOPES_PAST_THE_RANGE]
)
def test_a_slope_past_the_normal_range_of_t_squared_is_refused(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^T must be finite and lie in \[1.49167e-154, "):
            call()


@pytest.mark.parametrize("M", [1, 4])
@pytest.mark.parametrize("T", [2.0**-511, 1e-150, 1e-3, 1e3, 1e150, 2.0**512 * (1 - 2.0**-53)])
def test_the_thermal_peak_snr_does_not_depend_on_the_scale_of_t(T, M):
    # sqrt(M) y* / (2 cosh(y*/2)) at every T: the peak is a function of gap/T alone.
    assert max_thermal_snr(T, M)[1] == pytest.approx(max_thermal_snr(1.0, M)[1], rel=1e-15, abs=0)


def test_every_thermal_snr_reaches_the_one_cramer_rao_step(monkeypatch):
    calls = Counter()
    count_calls(monkeypatch, metrology, ["_cramer_rao_snr"], calls)
    for call in (
        lambda: metrology.snr_thermal(0.3, 0.7, 4),
        lambda: metrology.snr_sample_bound(np.arange(1, 5), 0.3, 0.7),
        lambda: metrology.max_thermal_snr(0.3, 2),
    ):
        calls.clear()
        call()
        assert calls == {"_cramer_rao_snr": 1}


def test_the_square_root_of_every_snr_is_taken_in_the_cramer_rao_step():
    tree = ast.parse(Path(metrology.__file__).read_text())
    (step,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_cramer_rao_snr"]

    def sqrt_calls(node):
        return sum(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_sqrt" for n in ast.walk(node))

    assert sqrt_calls(tree) == sqrt_calls(step) > 0


# At T = 1.5e-154 and M = 10^6, M F ~ 1e313 would overflow; sqrt(M) (T sqrt(F)) never forms it.
def test_steady_snr_at_the_bottom_of_the_range_is_finite():
    T = 1.5e-154  # eps_s = T, balanced at the prior: p0 = 1/2 and snr = sqrt(M) / 2
    assert snr_steady(tune_config(T, T=T, T_prior=T, T_v=2 * T), 10**6).snr == pytest.approx(500.0)


def test_thermal_snr_at_the_bottom_of_the_range_is_finite():
    T = 1.5e-154
    want = 1000.0 * max_thermal_snr(1.0)[1]  # ~662.7
    assert snr_thermal(T, 2.3993572805154675 * T, 10**6) == pytest.approx(want)
