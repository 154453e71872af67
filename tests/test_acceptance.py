"""Acceptance gate: every quantitative target, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 4 takes the thermal peak location from the root of
(y/2) tanh(y/2) = 1, solved here without the package; criterion 10 checks
the 0.38 floor of the excited-start transient SNR against the
sqrt(2/pi)-scaled sample bound, and reports the ground-start ratio, which
has no such floor, in its diagnostic line.
"""

from __future__ import annotations

from dataclasses import replace

import math
import time

import numpy as np
from conftest import random_machine_configs

from thermomachine import (
    DLevelSample,
    NoisyAncillaSpec,
    PRESETS,
    ProbeState,
    SQRT_TWO_OVER_PI,
    build_triad_hamiltonian,
    collide_analytic,
    collide_oracle,
    collide_oracle_dlevel,
    collision_params,
    empirical_snr_study,
    exact_unitary,
    heat_ancilla,
    heat_sample,
    max_thermal_snr,
    noisy_peak,
    noisy_peak_in_prior,
    probe_energy_change,
    reduce_d_level,
    run_scenario,
    snr_sample_bound,
    snr_steady,
    snr_thermal,
    snr_transient,
    steady_population,
    transient_population,
    tune_config,
)
from thermomachine.dynamics import COUPLED_STATES
from thermomachine.estimation import DEFAULT_SEED
from thermomachine.scenarios import Scenario


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:02d}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def test_criterion_01_full_swap_unitary():
    start = time.perf_counter()
    config = tune_config(eps_s=1.3, T=0.2, T_prior=0.25, T_v=1.1, eps_I=0.7)
    u = exact_unitary(build_triad_hamiltonian(config), config.collision_time)
    a, b = COUPLED_STATES
    swap_err = max(abs(abs(u[b, a]) - 1.0), abs(abs(u[a, b]) - 1.0))
    diag_err = max(
        abs(abs(u[i, i]) - 1.0) for i in range(8) if i not in (a, b)
    )
    elapsed = time.perf_counter() - start
    ok = swap_err < 1e-10 and diag_err < 1e-10 and elapsed < 1.0
    _report(1, ok, f"swap err {swap_err:.2e}, invariant err {diag_err:.2e}, {elapsed:.2f}s")
    assert swap_err < 1e-10
    assert diag_err < 1e-10
    assert elapsed < 1.0


def test_criterion_02_oracle_equivalence():
    start = time.perf_counter()
    worst_collision = 0.0
    for config in random_machine_configs(1000, seed=101):
        params = collision_params(config)
        oracle = collide_oracle(ProbeState(p0=config.p00), config).p0
        worst_collision = max(
            worst_collision, abs(oracle - collide_analytic(config.p00, params))
        )

    # Iterated-map comparison: per-step float noise accumulates like eps/r,
    # so the iteration configs stay at r >= 3e-3 to test the formula rather
    # than roundoff drift.
    rng = np.random.default_rng(103)
    worst_transient = 0.0
    checkpoints = (1, 10, 100, 1000, 10000)
    for _ in range(25):
        t_prior = rng.uniform(0.18, 0.45)
        config = tune_config(
            eps_s=1.0,
            T=t_prior * rng.uniform(0.5, 1.85),
            T_prior=t_prior,
            T_v=t_prior * rng.uniform(2.0, 4.0),
            p00=rng.uniform(0.0, 1.0),
        )
        params = collision_params(config)
        p0 = config.p00
        for k in range(1, checkpoints[-1] + 1):
            p0 = collide_analytic(p0, params)
            if k in checkpoints:
                worst_transient = max(
                    worst_transient,
                    abs(p0 - transient_population(k, config.p00, params)),
                )
    elapsed = time.perf_counter() - start
    ok = worst_collision < 1e-10 and worst_transient < 1e-12 and elapsed < 30.0
    _report(
        2,
        ok,
        f"collision err {worst_collision:.2e} (1000 configs), "
        f"iteration err {worst_transient:.2e} (k<=1e4), {elapsed:.1f}s",
    )
    assert worst_collision < 1e-10
    assert worst_transient < 1e-12
    assert elapsed < 30.0


def test_criterion_03_maximum_steady_snr():
    rel_errs = []
    for eps_s, t_prior in ((1.0, 0.25), (2.0, 0.4), (1.0, 1.0 / 7.0)):
        config = tune_config(eps_s=eps_s, T=t_prior, T_prior=t_prior, T_v=1.5)
        got = snr_steady(config, M=1).snr
        rel_errs.append(abs(got - eps_s / (2.0 * t_prior)) / (eps_s / (2.0 * t_prior)))
    at_quarter = snr_steady(tune_config(1.0, 0.25, 0.25, 1.0), M=1).snr
    skewed = snr_steady(tune_config(1.0, 1.0 / 8.0, 1.0 / 7.0, 1.0), M=1).snr
    ok = max(rel_errs) < 1e-12 and abs(at_quarter - 2.0) < 0.01 and abs(skewed - 3.547) < 0.01
    _report(
        3,
        ok,
        f"peak identity rel err {max(rel_errs):.2e}; snr(T=eps/4) {at_quarter:.3f}; "
        f"snr(x=8, prior 7) {skewed:.4f}",
    )
    assert max(rel_errs) < 1e-12
    assert abs(at_quarter - 2.0) < 0.01
    assert abs(skewed - 3.547) < 0.01


def _thermal_peak_root() -> float:
    """Root of (y/2) tanh(y/2) = 1 by bisection.

    The thermal SNR sqrt(M) y e^(-y/2) / (1 + e^(-y)) = sqrt(M) y / (2 cosh(y/2)),
    y = gap/T, is stationary exactly there.
    """
    lo, hi = 1.0, 4.0  # the left side is 0.23 at y = 1 and 1.93 at y = 4
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if 0.5 * mid * math.tanh(0.5 * mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_04_thermal_baseline_peak():
    y_star = _thermal_peak_root()
    expected_peak = y_star / (2.0 * math.cosh(0.5 * y_star))
    maxima = {T: max_thermal_snr(T=T, M=1) for T in (1.0, 0.05, 3.0)}
    location_err = max(abs(gap / T - y_star) for T, (gap, _) in maxima.items())
    gap_star, peak = maxima[1.0]
    value_at_25 = snr_thermal(1.0, 2.5, M=1)
    _, peak16 = max_thermal_snr(T=1.0, M=16)
    location_ok = location_err <= 1e-15
    exact_ok = abs(peak - expected_peak) <= 1e-12 * expected_peak
    value_ok = abs(peak - 0.662) <= 1e-3
    m16_ok = peak16 > 2.0
    _report(
        4,
        location_ok and exact_ok and value_ok and m16_ok,
        f"peak {peak:.8f}*sqrt(M) at gap/T {gap_star:.6f} "
        f"(root of (y/2)tanh(y/2)=1: {y_star:.10f}, worst location err "
        f"{location_err:.1e}); value at 2.50 {value_at_25:.6f}; "
        f"M=16 peak {peak16:.3f}",
    )
    assert location_ok, f"thermal peak {location_err:.2e} from gap/T = {y_star:.10f}"
    assert exact_ok, f"peak value {peak!r} vs y*/(2 cosh(y*/2)) = {expected_peak!r}"
    assert value_ok, f"peak value {peak:.6f} vs 0.662 +/- 1e-3"
    assert m16_ok, f"M=16 peak {peak16:.3f} must exceed 2"


def test_criterion_05_measurement_cost():
    config = tune_config(eps_s=1.0, T=1.0 / 11.0, T_prior=0.1, T_v=1.0, p00=1.0)
    machine_m2 = snr_steady(config, M=2).snr
    thermal_20k = snr_thermal(1.0 / 11.0, 1.0, M=20000)
    x = 1.0  # eps_s/T - eps_v/T_v at this tuning
    machine_closed = math.sqrt(2.0) * math.exp(-x / 2.0) / (1.0 + math.exp(-x)) * 11.0
    thermal_closed = (
        math.sqrt(20000.0) * math.exp(-5.5) / (1.0 + math.exp(-11.0)) * 11.0
    )
    ok = (
        machine_m2 > thermal_20k
        and abs(machine_m2 - machine_closed) < 1e-3
        and abs(thermal_20k - thermal_closed) < 1e-3
    )
    _report(
        5,
        ok,
        f"machine steady M=2 {machine_m2:.4f} > thermal M=20000 {thermal_20k:.4f}",
    )
    assert abs(machine_m2 - machine_closed) < 1e-3
    assert abs(thermal_20k - thermal_closed) < 1e-3
    assert machine_m2 > thermal_20k


def test_criterion_06_noisy_ancilla():
    config = tune_config(eps_s=1.0, T=0.05, T_prior=0.1, T_v=1.0)
    worst = 0.0
    for sign in (1, -1):
        for delta in (0.0, 0.2, 0.4):
            for m in (1, 9):
                t_peak, point = noisy_peak(config, NoisyAncillaSpec(delta, sign), M=m)
                expected = (
                    0.5 * math.sqrt(m) * (1.0 + sign * delta) / config.T_prior
                )
                worst = max(worst, abs(point.snr - expected) / expected)
                assert t_peak == config.T_prior / (1.0 + sign * delta)
    inside_ok = (
        noisy_peak_in_prior(config, NoisyAncillaSpec(0.3, -1))
        and noisy_peak_in_prior(config, NoisyAncillaSpec(0.5, -1))
        and not noisy_peak_in_prior(config, NoisyAncillaSpec(0.51, -1))
        and not noisy_peak_in_prior(config, NoisyAncillaSpec(0.8, -1))
    )
    ok = worst < 1e-12 and inside_ok
    _report(6, ok, f"peak identity rel err {worst:.2e}; interval rule holds {inside_ok}")
    assert worst < 1e-12
    assert inside_ok


def test_criterion_07_heat_bounds():
    worst_closed = 0.0
    worst_balance = 0.0
    signs_ok = True
    bound_ok = True
    for config in random_machine_configs(120, seed=107):
        p0_inf = steady_population(config)
        for p00 in np.linspace(0.0, 1.0, 21):
            q_inf = heat_sample(10**9, float(p00), config)
            worst_closed = max(
                worst_closed, abs(q_inf - config.eps_s * (p00 - p0_inf))
            )
            bound_ok &= abs(q_inf) <= config.eps_s + 1e-15
        for k in (1, 13, 500):
            q_s = heat_sample(k, config.p00, config)
            q_v = heat_ancilla(k, config.p00, config)
            q_p = probe_energy_change(k, config.p00, config)
            worst_balance = max(worst_balance, abs(q_s + q_v + q_p))
            if abs(q_s) > 1e-15:
                signs_ok &= q_s * q_v < 0.0
    ok = worst_closed < 1e-12 and worst_balance < 1e-12 and signs_ok and bound_ok
    _report(
        7,
        ok,
        f"closed-form err {worst_closed:.2e}, balance err {worst_balance:.2e}, "
        f"signs opposed {signs_ok}, |Q_S| <= eps_s {bound_ok}",
    )
    assert worst_closed < 1e-12
    assert worst_balance < 1e-12
    assert signs_ok
    assert bound_ok


def test_criterion_08_crb_saturation_monte_carlo():
    start = time.perf_counter()
    config = tune_config(eps_s=1.0, T=0.25, T_prior=0.25, T_v=1.0)
    report = empirical_snr_study(config, M=10**4, trials=10**3, seed=DEFAULT_SEED)
    elapsed = time.perf_counter() - start
    rel = abs(report.empirical_snr - report.crb_snr) / report.crb_snr
    ok = rel < 0.05 and elapsed < 120.0
    _report(
        8,
        ok,
        f"empirical {report.empirical_snr:.1f} vs CRB {report.crb_snr:.1f} "
        f"({100 * rel:.1f}%), clamped {report.clamped_fraction:.3f}, {elapsed:.1f}s",
    )
    assert rel < 0.05
    assert elapsed < 120.0


def test_criterion_09_d_level_reduction():
    config = tune_config(eps_s=1.0, T=0.2, T_prior=0.25, T_v=1.0)
    sample = DLevelSample(levels=(0.0, 1.0, 2.0), temperature=0.2, pair=(0, 1))
    w, pair_params = reduce_d_level(sample, config)

    p0 = 1.0
    for _ in range(6000):
        new = collide_oracle_dlevel(p0, sample, config)
        if abs(new - p0) < 1e-15:
            p0 = new
            break
        p0 = new
    fixed_err = abs(p0 - steady_population(config))

    r_eff = w * pair_params.r
    map_err = 0.0
    for start_p0 in (0.0, 0.35, 0.8, 1.0):
        oracle = collide_oracle_dlevel(start_p0, sample, config)
        predicted = (1.0 - r_eff) * start_p0 + r_eff * pair_params.p0_inf
        map_err = max(map_err, abs(oracle - predicted))

    ok = fixed_err < 1e-10 and map_err < 1e-12
    _report(
        9,
        ok,
        f"12-dim fixed point err {fixed_err:.2e}; one-collision map err {map_err:.2e} "
        f"(w = {w:.6f})",
    )
    assert fixed_err < 1e-10
    assert map_err < 1e-12


def test_criterion_10_ratio_floor():
    config = tune_config(eps_s=1.0, T=1.0 / 8.0, T_prior=1.0 / 7.0, T_v=1.0)
    ks = np.arange(1, 6001)
    bounds = np.array([snr_sample_bound(int(k), config.T, config.eps_s) for k in ks])

    def ratios(p00: float) -> np.ndarray:
        snrs = np.array([snr_transient(int(k), p00, config, M=1).snr for k in ks])
        return snrs / bounds

    excited, ground = ratios(0.0), ratios(1.0)
    scaled = excited / SQRT_TWO_OVER_PI
    i_scaled = int(np.argmin(scaled))
    i_min, i_max = int(np.argmin(ground)), int(np.argmax(ground))
    worst = max(excited.max(), ground.max())

    table = run_scenario(replace(PRESETS["figS2-ratio"], k_max=64))
    reference_emitted = table.meta.get("ref_sqrt_2_over_pi") == SQRT_TWO_OVER_PI

    floor_ok = bool(scaled.min() >= 0.38)
    bound_ok = bool(worst <= 1.0)
    _report(
        10,
        floor_ok and bound_ok and reference_emitted,
        f"excited start vs sqrt(2/pi)-scaled bound: min {scaled[i_scaled]:.4f} at "
        f"k={ks[i_scaled]}; max ratio {worst:.5f} (<= 1 {bound_ok}); ground start: "
        f"min {ground[i_min]:.2e} at k={ks[i_min]}, max {ground[i_max]:.4f} at "
        f"k={ks[i_max]}, at k=6000 {ground[-1]:.4f}; sqrt(2/pi) reference "
        f"emitted {reference_emitted}",
    )
    assert reference_emitted
    assert bound_ok, f"transient SNR exceeds the k-qubit bound: ratio {worst:.6f}"
    assert floor_ok, (
        f"excited-start ratio to the sqrt(2/pi)-scaled bound falls to "
        f"{scaled[i_scaled]:.4f} at k={ks[i_scaled]}, below 0.38"
    )
