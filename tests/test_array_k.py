"""Array-k contract: an integer ndarray k gives the per-k scalar results bit for bit."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermomachine import (
    PRESETS,
    CollisionParams,
    MachineConfig,
    collision_params,
    run_scenario,
    sensitivity_transient,
    snr_sample_bound,
    snr_thermal,
    snr_transient,
    transient_population,
    tune_config,
)
from thermomachine.dynamics import contraction_power

UNDERFLOW_EXPONENT = 745.2


def bits(values) -> list[int]:
    """Raw float64 bit patterns, so -0.0 and 0.0 (and every ulp) differ."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def edge_ks(r: float, extra: list[int]) -> np.ndarray:
    """0, 1, a few small counts, and both sides of the underflow edge of r."""
    ks = {0, 1, 2, 3, *extra}
    rate = -math.log1p(-r) if r < 1.0 else math.inf
    if 0.0 < rate < math.inf:
        edge = UNDERFLOW_EXPONENT / rate
        if edge < 2.0**52:
            ks.update(k for k in range(int(edge) - 2, int(edge) + 3) if k >= 0)
    return np.array(sorted(ks), dtype=np.int64)


rates = st.one_of(
    st.just(0.0),
    st.just(1.0),
    st.just(5e-324),
    st.floats(min_value=5e-324, max_value=1e-300),  # subnormal and tiny
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1.0 - 1e-9, max_value=1.0),  # r -> 1
)
extra_ks = st.lists(st.integers(min_value=0, max_value=10**9), max_size=6)


@settings(max_examples=300, deadline=None)
@given(r=rates, p0_inf=st.floats(0.0, 1.0), p00=st.floats(0.0, 1.0), extra=extra_ks)
def test_contraction_and_population_match_scalar_bits(r, p0_inf, p00, extra):
    ks = edge_ks(r, extra)
    params = CollisionParams(r=r, p0_inf=p0_inf)
    assert bits(contraction_power(r, ks)) == bits(
        [contraction_power(r, int(k)) for k in ks]
    )
    assert bits(transient_population(ks, p00, params)) == bits(
        [transient_population(int(k), p00, params) for k in ks]
    )


def log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


machines = st.builds(
    MachineConfig,
    eps_s=log_uniform(1e-2, 1e2),
    eps_p=st.one_of(st.just(0.0), log_uniform(1e-3, 1e2)),
    T=log_uniform(1e-4, 1e2),
    T_v=log_uniform(1e-4, 1e2),
    T_prior=st.just(1.0),
    p00=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
)


@settings(max_examples=300, deadline=None)
@given(config=machines, extra=extra_ks, M=st.integers(1, 10**6))
def test_sensitivity_and_snr_match_scalar_bits(config, extra, M):
    ks = edge_ks(collision_params(config).r, extra)
    p00 = config.p00
    assert bits(sensitivity_transient(ks, p00, config)) == bits(
        [sensitivity_transient(int(k), p00, config) for k in ks]
    )
    point = snr_transient(ks, p00, config, M)
    scalars = [snr_transient(int(k), p00, config, M) for k in ks]
    for field in ("k", "snr", "sensitivity", "fisher"):
        assert bits(getattr(point, field)) == bits([getattr(s, field) for s in scalars])
    assert point.singular.tolist() == [s.singular for s in scalars]


@settings(max_examples=100, deadline=None)
@given(
    T=log_uniform(1e-4, 1e2),
    eps_s=log_uniform(1e-2, 1e2),
    ks=st.lists(st.integers(1, 10**9), min_size=1, max_size=8),
)
def test_sample_bound_and_thermal_match_scalar_bits(T, eps_s, ks):
    arr = np.array(ks, dtype=np.int64)
    assert bits(snr_sample_bound(arr, T, eps_s)) == bits(
        [snr_sample_bound(k, T, eps_s) for k in ks]
    )
    assert bits(snr_thermal(T, eps_s, arr)) == bits([snr_thermal(T, eps_s, k) for k in ks])


def test_array_k_validation_and_scalar_types():
    config = tune_config(eps_s=1.0, T=0.1, T_prior=0.1, T_v=1.0)
    with pytest.raises(ValueError):
        contraction_power(0.1, np.array([0, -1]))
    with pytest.raises(ValueError):
        sensitivity_transient(np.array([-1]), 1.0, config)
    with pytest.raises(ValueError):
        snr_sample_bound(np.array([1, 0]), 0.1, 1.0)
    with pytest.raises(ValueError):
        snr_thermal(0.1, 1.0, np.array([0]))
    # An int k keeps the scalar path and returns a plain float.
    assert type(contraction_power(0.1, 3)) is float
    assert type(sensitivity_transient(3, 1.0, config)) is float
    assert type(snr_transient(3, 1.0, config).snr) is float


def rebuild_transient_sweep(scenario) -> list[tuple[float, ...]]:
    u = scenario.eps_s
    rows = []
    for T in scenario.temps:
        for p00 in scenario.p00_values:
            config = tune_config(scenario.eps_s, T, scenario.T_prior, scenario.T_v, p00=p00)
            params = collision_params(config)
            for k in range(scenario.k_min, scenario.k_max + 1, scenario.k_step):
                rows.append(
                    (
                        T / u,
                        p00,
                        float(k),
                        transient_population(k, p00, params),
                        sensitivity_transient(k, p00, config) * u,
                        snr_transient(k, p00, config, scenario.M).snr,
                    )
                )
    return rows


def rebuild_cost_comparison(scenario) -> list[tuple[float, ...]]:
    config = tune_config(
        scenario.eps_s, scenario.T, scenario.T_prior, scenario.T_v, p00=scenario.p00
    )
    rows = []
    for k in range(max(1, scenario.k_min), scenario.k_max + 1, scenario.k_step):
        snr_m1 = snr_transient(k, scenario.p00, config, scenario.M).snr
        bound = snr_sample_bound(k, scenario.T, scenario.eps_s)
        rows.append(
            (
                float(k),
                snr_m1,
                snr_transient(k, scenario.p00, config, scenario.M_alt).snr,
                snr_thermal(scenario.T, scenario.eps_s, k),
                bound,
                snr_m1 / bound,
            )
        )
    return rows


@pytest.mark.parametrize(
    "name, k_max, k_step, rebuild",
    [
        ("fig2b", 50000, 997, rebuild_transient_sweep),
        ("fig3", 20000, 331, rebuild_cost_comparison),
        ("figS2-ratio", 6000, 97, rebuild_cost_comparison),
    ],
)
def test_presets_on_subsampled_grid_equal_scalar_rebuild(name, k_max, k_step, rebuild):
    scenario = replace(PRESETS[name], k_max=k_max, k_step=k_step)
    assert run_scenario(scenario).rows == tuple(rebuild(scenario))
