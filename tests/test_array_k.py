"""Array contract: an integer ndarray k or a float ndarray T gives the scalar calls bit for bit.

The per-temperature loops that built the steady-sweep and noisy-ancilla
tables before their column builds are kept here as the reference.
"""

from __future__ import annotations

import ast
import math
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scalar_configs
from thermomachine import (
    PRESETS,
    CollisionParams,
    MachineConfig,
    NoisyAncillaSpec,
    collision_params,
    heat_ancilla,
    heat_sample,
    perturbation_trajectory,
    prior_interval,
    probe_energy_change,
    run_scenario,
    sensitivity_transient,
    snr_noisy_ancilla,
    snr_sample_bound,
    snr_steady,
    snr_thermal,
    snr_transient,
    steady_population,
    thermal_population,
    transient_population,
    transient_model,
    tune_config,
)
from thermomachine.cli import _DEFAULTS
from thermomachine.core import _gibbs_pair, _params_at, libm, stable_logistic
from thermomachine.dynamics import (
    ProbeState,
    _triad_lanes,
    build_triad_hamiltonian,
    collide_analytic,
    collide_oracle,
    contraction_power,
    exact_unitary,
)
from thermomachine.metrology import _steady_pair
from thermomachine.scenarios import _temperature_grid
from thermomachine.tables import ResultTable

EXP_UNDERFLOW = 745.1332191019412  # math.exp(-x) is 0 past here, subnormal just below
UNDERFLOW_EXPONENT = 745.2


def bits(values) -> list[int]:
    """Raw float64 bit patterns, so -0.0 and 0.0 (and every ulp) differ."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def edge_ks(r: float, extra: list[int]) -> np.ndarray:
    """0, 1, a few small counts, and both sides of each underflow edge of r."""
    ks = {0, 1, 2, 3, *extra}
    rate = -math.log1p(-r) if r < 1.0 else math.inf
    if 0.0 < rate < math.inf:
        for exponent in (EXP_UNDERFLOW, UNDERFLOW_EXPONENT):
            edge = exponent / rate
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


@settings(max_examples=100, deadline=None)
@given(
    machines=st.lists(
        st.tuples(rates, st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        min_size=1,
        max_size=25,
    ),
    k=st.integers(0, 10**6),
)
def test_collision_map_on_machine_arrays_matches_scalar_bits(machines, k):
    r, p0_inf, p0 = map(np.array, zip(*machines))
    params = CollisionParams(r=r, p0_inf=p0_inf)
    scalar = [CollisionParams(r=a, p0_inf=b) for a, b, _ in machines]
    assert bits(collide_analytic(p0, params)) == bits(
        [collide_analytic(x, one) for (_, _, x), one in zip(machines, scalar)]
    )
    assert bits(transient_population(k, p0, params)) == bits(
        [transient_population(k, x, one) for (_, _, x), one in zip(machines, scalar)]
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
    for heat in (heat_sample, heat_ancilla, probe_energy_change):
        assert bits(heat(ks, p00, config)) == bits([heat(int(k), p00, config) for k in ks])


#: Measurement counts for an int64 M axis: small ones, and ones past 2^53 that round to a float.
m_axes = st.lists(
    st.one_of(st.integers(1, 10**6), st.sampled_from([2**53 + 1, 2**62 + 1, 2**63 - 1])),
    min_size=1,
    max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(config=machines, extra=extra_ks, Ms=m_axes)
def test_an_m_axis_matches_the_per_m_scalar_bits(config, extra, Ms):
    # An integer array M broadcasts against k (snr_transient) and T (snr_steady), and only the
    # snr field reads it.  Where M F overflows, both give inf; numpy's warning is not a bit.
    ks, T = edge_ks(collision_params(config).r, extra), np.array([config.T, 2.0 * config.T])
    with np.errstate(over="ignore"):
        point = snr_transient(ks, config.p00, config, np.array(Ms)[:, None])
        steady = snr_steady(replace(config, T=T), np.array(Ms)[:, None])
    assert bits(point.snr) == bits(
        [[snr_transient(int(k), config.p00, config, M).snr for k in ks] for M in Ms]
    )
    assert bits(steady.snr) == bits(
        [[snr_steady(replace(config, T=t), M).snr for t in T.tolist()] for M in Ms]
    )
    assert bits(point.fisher) == bits(snr_transient(ks, config.p00, config).fisher)


def stack(configs) -> MachineConfig:
    """One config whose fields are arrays, one lane per machine."""
    return MachineConfig(
        **{f.name: np.array([getattr(c, f.name) for c in configs]) for f in fields(MachineConfig)}
    )


def assert_oracle_lanes_equal_the_machines(configs):
    """The stacked triad oracle against the single-machine oracle, Hamiltonian and unitary."""
    stacked = stack(configs)
    h, u, p0 = _triad_lanes(stacked)
    assert bits(p0) == bits([collide_oracle(ProbeState(p0=c.p00), c).p0 for c in configs])
    assert h.tobytes() == np.array([build_triad_hamiltonian(c) for c in configs]).tobytes()
    for c, lane in zip(configs[:20], u):
        single = exact_unitary(build_triad_hamiltonian(c), c.collision_time)
        assert lane.tobytes() == single.tobytes()


def assert_lanes_equal_the_machines(configs, M):
    """Each closed form on one config stacking the machines' fields, against one call a machine."""
    stacked = stack(configs)
    assert_oracle_lanes_equal_the_machines(configs)
    p00, ks = stacked.p00.copy(), np.array([0, 1, 7, 150, 60])[:, None]
    params = collision_params(stacked)
    for field in ("r", "p0_inf"):
        assert bits(getattr(params, field)) == bits(
            [getattr(collision_params(c), field) for c in configs]
        )
    for heat in (heat_sample, heat_ancilla, probe_energy_change):
        assert bits(heat(ks, p00, stacked)) == bits(
            [[heat(k, c.p00, c) for c in configs] for k in ks[:, 0].tolist()]
        )
    point, scalars = snr_steady(stacked, M), [snr_steady(c, M) for c in configs]
    for field in ("T", "p0", "snr", "sensitivity", "fisher"):
        assert bits(getattr(point, field)) == bits([getattr(s, field) for s in scalars])
    lanes = perturbation_trajectory(40, p00, stacked)
    scalars = [perturbation_trajectory(40, c.p00, c) for c in configs]
    for field in ("delta_p", "sample_p0", "ancilla_p0"):
        assert bits(getattr(lanes, field).T) == bits([getattr(s, field) for s in scalars])
    # A lane's steps summed as one contiguous row add in the scalar sum's order.
    assert bits(np.ascontiguousarray(lanes.delta_p.T).sum(axis=1)) == bits(
        [s.delta_p.sum() for s in scalars]
    )
    assert bits(p00) == bits(stacked.p00)  # the trajectory leaves its p00 lanes as they were


@pytest.mark.parametrize("samples, seed", [(1, 3), (200, 7)])
def test_stacked_battery_machines_equal_the_per_machine_calls(samples, seed):
    assert_lanes_equal_the_machines(scalar_configs(samples, seed), 3)


@pytest.mark.parametrize("seed", [3, 7, 0x5EED])
def test_oracle_lanes_equal_the_single_machine_oracle(seed):
    assert_oracle_lanes_equal_the_machines(scalar_configs(1000, seed))


@settings(max_examples=100, deadline=None)
@given(configs=st.lists(machines, min_size=1, max_size=8), M=st.integers(1, 10**6))
def test_stacked_machines_equal_the_per_machine_calls(configs, M):
    assert_lanes_equal_the_machines(configs, M)


@settings(max_examples=100, deadline=None)
@given(config=machines, extra=extra_ks)
def test_snr_point_population_is_the_dynamics_population(config, extra):
    params = collision_params(config)
    ks = edge_ks(params.r, extra)
    p00 = config.p00
    expected = transient_population(ks, p00, params)
    assert bits(snr_transient(ks, p00, config).p0) == bits(expected)
    assert bits([snr_transient(k, p00, config).p0 for k in ks.tolist()]) == bits(expected)
    assert bits(snr_steady(config).p0) == bits(steady_population(config))


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
    # One formula path serves both: an int k gives a plain float.
    assert type(contraction_power(0.1, 3)) is float
    assert type(sensitivity_transient(3, 1.0, config)) is float
    assert type(snr_transient(3, 1.0, config).snr) is float
    assert type(snr_transient(3, 1.0, config).fisher) is float
    assert type(heat_sample(3, 1.0, config)) is type(heat_ancilla(3, 1.0, config)) is float


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


# ----------------------------------------------------------------------
# Array T: the steady, thermal and noisy-ancilla forms on a temperature axis
# ----------------------------------------------------------------------

def near(x: float) -> list[float]:
    return [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]


logistic_edges = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, math.inf, -math.inf]
logistic_edges += near(EXP_UNDERFLOW) + near(-EXP_UNDERFLOW) + near(745.2) + near(-745.2)


@settings(max_examples=300, deadline=None)
@given(xs=st.lists(st.floats(allow_nan=False), max_size=12), lo=st.floats(-800.0, 800.0))
def test_logistic_matches_scalar_bits(xs, lo):
    x = np.array(logistic_edges + xs + [lo, -lo])
    assert bits(stable_logistic(x)) == bits([stable_logistic(v) for v in x.tolist()])
    want = [[branched_logistic(v) for v in x.tolist()], [branched_logistic(-v) for v in x.tolist()]]
    scalar = list(zip(*(_steady_pair(exponent(v)) for v in x.tolist())))
    for pair in (_steady_pair(exponent(x)), scalar):
        assert [bits(pair[0]), bits(pair[1])] == [bits(want[0]), bits(want[1])]


def exponent(x):
    """A stand-in machine whose steady exponent eps_v/T_v - eps_s/T is x itself, bit for bit."""
    return SimpleNamespace(eps_v=x, T_v=1.0, eps_s=0.0, T=1.0)


def signed_pair(x):
    """(1 / (1 + e^-x), 1 / (1 + e^x)) from one e = e^-|x| and a pow sign select, written out:
    the reference form."""
    e = libm(math.exp, -abs(x))
    total = 1.0 + e
    return e ** (x < 0.0) / total, e ** (x >= 0.0) / total


def test_steady_pair_is_the_signed_pair():
    # The steady pair's two logistics of +-x are the one-exp signed pair, NaN and both zeros too.
    x = np.array(logistic_edges + [math.nan])
    want = [bits(half) for half in signed_pair(x)]
    assert [bits(half) for half in _steady_pair(exponent(x))] == want
    assert [bits(half) for half in zip(*(_steady_pair(exponent(v)) for v in x.tolist()))] == want


gibbs_exponents = [0.0, -0.0, 5e-324, 1e-300, 36.7, 709.78, 745.13, 746.0, 1e308]


def test_gibbs_pair_is_the_signed_pair_at_non_negative_exponents():
    x = np.array(gibbs_exponents)
    want = [bits(half) for half in signed_pair(x)]
    assert [bits(half) for half in _gibbs_pair(x)] == want
    assert [bits(half) for half in zip(*map(_gibbs_pair, gibbs_exponents))] == want
    assert type(_gibbs_pair(36.7)[1]) is float
    both = np.array(gibbs_exponents + [-v for v in gibbs_exponents])
    assert bits(stable_logistic(both)) == bits(signed_pair(both)[0])
    assert bits([stable_logistic(v) for v in both.tolist()]) == bits(signed_pair(both)[0])
    want = [bits(half) for half in signed_pair(both)]
    assert [bits(half) for half in _steady_pair(exponent(both))] == want


def branched_logistic(x: float) -> float:
    """1 / (1 + e^-x) with a branch on the sign of x: the reference form."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def two_logistic_params(x_s: float, ancilla, x_v: float) -> tuple[float, float]:
    """(r, p0_inf) with each sample population from its own logistic: the reference form."""
    sample_p0, sample_p1 = stable_logistic(x_s), stable_logistic(-x_s)
    return sample_p1 * ancilla.p0 + sample_p0 * ancilla.p1, stable_logistic(x_v - x_s)


sample_exponents = st.one_of(
    st.just(0.0),  # eps_s/T underflowed
    st.sampled_from([1e-300, 1e-20, 1.0, *near(EXP_UNDERFLOW), *near(745.2), 800.0]),
    log_uniform(1e-300, 800.0),
)


@settings(max_examples=100, deadline=None)
@given(
    xs=st.lists(sample_exponents, min_size=1, max_size=12),
    gap=st.one_of(st.just(0.0), log_uniform(1e-2, 1e2)),
    t_v=log_uniform(1e-3, 1e2),
)
def test_shared_sample_exponential_is_the_two_logistic_form(xs, gap, t_v):
    ancilla, x_v = thermal_population(gap, t_v), gap / t_v
    want = [two_logistic_params(x, ancilla, x_v) for x in xs]
    scalar = [_params_at(x, ancilla, x_v) for x in xs]
    array = _params_at(np.array(xs), ancilla, x_v)
    for i, field in enumerate(("r", "p0_inf")):
        expected = bits([w[i] for w in want])
        assert bits([getattr(p, field) for p in scalar]) == expected, field
        assert bits(getattr(array, field)) == expected, field


@settings(max_examples=100, deadline=None)
@given(
    k=st.one_of(
        st.sampled_from([0, 1, 2, 5, 10, 50, 1000, 10**4, 10**6]),
        st.integers(min_value=0, max_value=10**6),
    ),
    p00=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    eps_s=log_uniform(1e-1, 1e1),
    eps_p=st.one_of(st.just(0.0), log_uniform(1e-3, 1e1)),
    t_v=log_uniform(1e-2, 1e1),
    t_prior=log_uniform(1e-2, 1e1),
    fracs=st.lists(st.floats(min_value=1e-12, max_value=1.0), max_size=20),
    rs=st.lists(rates, max_size=8),
)
def test_transient_model_and_rate_arrays_match_scalar_bits(
    k, p00, eps_s, eps_p, t_v, t_prior, fracs, rs
):
    config = MachineConfig(eps_s=eps_s, eps_p=eps_p, T=t_prior, T_v=t_v, T_prior=t_prior)
    lo, hi = prior_interval(config)
    T = np.array([lo, math.nextafter(lo, math.inf), hi, *(f * hi for f in fracs)])
    model = transient_model(config, k, p00)
    assert bits(model(T)) == bits([model(t) for t in T.tolist()])
    r = np.array([0.0, 5e-324, 1e-300, 0.5, 1.0, *rs])
    assert bits(contraction_power(r, k)) == bits([contraction_power(x, k) for x in r.tolist()])


def temperature_axis(scale: float):
    """T/scale log-uniform in [1e-4, 1e2], as a sorted float array."""
    return st.lists(log_uniform(1e-4, 1e2), min_size=1, max_size=10).map(
        lambda ts: np.array(sorted(t * scale for t in ts))
    )


@settings(max_examples=200, deadline=None)
@given(
    gap=log_uniform(1e-2, 1e2),
    data=st.data(),
    M=st.one_of(st.just(1), st.integers(1, 10**6)),
)
def test_thermal_forms_match_scalar_bits(gap, data, M):
    T = data.draw(temperature_axis(gap))
    qubit = thermal_population(gap, T)
    scalars = [thermal_population(gap, t) for t in T.tolist()]
    assert bits(qubit.p0) == bits([q.p0 for q in scalars])
    assert bits(qubit.p1) == bits([q.p1 for q in scalars])
    assert bits(snr_thermal(T, gap, M)) == bits([snr_thermal(t, gap, M) for t in T.tolist()])


def crossing_temperature(config: MachineConfig) -> float:
    """The T where x_s = eps_s/T equals x_v = eps_v/T_v, so x_v - x_s changes sign."""
    return config.eps_s * config.T_v / config.eps_v


def assert_point_matches_scalars(point, scalars) -> None:
    for field in ("T", "snr", "sensitivity", "fisher", "p0"):
        assert bits(getattr(point, field)) == bits([getattr(s, field) for s in scalars]), field


@settings(max_examples=200, deadline=None)
@given(config=machines, data=st.data(), M=st.integers(1, 10**6))
def test_steady_snr_matches_scalar_bits(config, data, M):
    # Both signs of x_v - x_s: the axis straddles the crossing temperature.
    t_cross = crossing_temperature(config)
    T = np.concatenate([data.draw(temperature_axis(config.eps_s)), near(t_cross)])
    scalars = [snr_steady(replace(config, T=t), M) for t in T.tolist()]
    assert_point_matches_scalars(snr_steady(replace(config, T=T), M), scalars)


@settings(max_examples=200, deadline=None)
@given(
    eps_s=log_uniform(1e-2, 1e2),
    prior=log_uniform(1e-4, 1e2),
    bath=st.floats(2.0, 4.0),
    delta=st.floats(0.0, 0.5),
    sign=st.sampled_from([1, -1]),
    data=st.data(),
    M=st.integers(1, 10**6),
)
def test_noisy_ancilla_snr_matches_scalar_bits(eps_s, prior, bath, delta, sign, data, M):
    # The prior temperature is where the tuned machine's x_v - x_s changes sign.
    t_prior = prior * eps_s
    T = np.concatenate([data.draw(temperature_axis(eps_s)), near(t_prior)])
    config = tune_config(eps_s=eps_s, T=T, T_prior=t_prior, T_v=bath * t_prior)
    noisy = NoisyAncillaSpec(delta, sign)
    scalars = [snr_noisy_ancilla(replace(config, T=t), noisy, M) for t in T.tolist()]
    assert_point_matches_scalars(snr_noisy_ancilla(config, noisy, M), scalars)


def test_array_temperature_validation_and_scalar_types():
    with pytest.raises(ValueError):
        thermal_population(1.0, np.array([0.1, 0.0]))
    with pytest.raises(ValueError):
        MachineConfig(eps_s=1.0, eps_p=1.0, T=np.array([0.1, -0.1]), T_v=1.0, T_prior=0.25)
    with pytest.raises(ValueError):
        snr_thermal(np.array([0.1, 0.2]), 1.0, 0)
    # The same path gives plain floats for a float T.
    assert type(stable_logistic(0.3)) is float
    assert type(thermal_population(1.0, 0.2).p1) is float
    assert type(snr_steady(tune_config(1.0, 0.2, 0.25, 1.0)).snr) is float
    assert type(snr_thermal(0.2, 1.0)) is float


def per_point_steady_sweep(scenario):
    """One tuned machine and three SNR calls per temperature: the reference loop."""
    u = scenario.eps_s
    rows = []
    for t_prior in scenario.priors or (scenario.T_prior,):
        for T in _temperature_grid(scenario, t_prior):
            point = snr_steady(tune_config(u, T, t_prior, scenario.T_v), scenario.M)
            rows.append(
                (
                    t_prior / u,
                    T / u,
                    point.p0,
                    point.sensitivity * u,
                    point.snr,
                    snr_thermal(T, u, scenario.M),
                    0.5 * math.sqrt(scenario.M) * u / T,
                )
            )
    columns = ("T_prior", "T", "p0_inf", "sensitivity", "snr", "snr_thermal", "snr_at_prior")
    return ResultTable(columns, rows)


def per_point_noisy_ancilla(scenario):
    """One tuned machine and three SNR calls per temperature: the reference loop."""
    u = scenario.eps_s
    specs = [NoisyAncillaSpec(scenario.delta_Tv_rel, sign) for sign in (1, -1)]
    rows = []
    for T in _temperature_grid(scenario, scenario.T_prior):
        config = tune_config(u, T, scenario.T_prior, scenario.T_v)
        noisy = [snr_noisy_ancilla(config, spec, scenario.M).snr for spec in specs]
        rows.append((T / u, snr_steady(config, scenario.M).snr, *noisy))
    return ResultTable(("T", "snr_ideal", "snr_plus", "snr_minus"), rows)


T_AXIS_CASES = [
    {},
    {"t_min": 0.01, "t_max": 0.3},
    {"M": 7},
    {"points": 0},
    {"points": 1},
    {"T_prior": 0.002},
    {"eps_s": 2.5, "T_v": 2.0},
]


@pytest.mark.parametrize("settings_", T_AXIS_CASES)
@pytest.mark.parametrize(
    "base, rebuild",
    [
        (PRESETS["fig1b"], per_point_steady_sweep),
        (_DEFAULTS["steady"], per_point_steady_sweep),
        (_DEFAULTS["noisy"], per_point_noisy_ancilla),
        (replace(_DEFAULTS["noisy"], delta_Tv_rel=0.5), per_point_noisy_ancilla),
    ],
)
def test_temperature_sweeps_equal_the_per_point_loop(base, rebuild, settings_):
    scenario = replace(base, **settings_)
    table, reference = run_scenario(scenario), rebuild(scenario)
    assert table.columns == reference.columns
    assert table.cells.shape == reference.cells.shape
    assert table.cells.tobytes() == reference.cells.tobytes()


#: The functions that may tell a float from an array.  libm maps a libm function per
#: element; a domain check or square root on a float costs ~0.1 us, on a 0-d array ~2.7 us.
TYPE_BRANCH_EXEMPT = {"libm", "_check_range", "_check_count", "_sqrt"}
ONE_PATH_MODULES = ("core", "dynamics", "heat", "metrology")


def _type_branches(source: str) -> list[str]:
    """Each ``isinstance(x, <ndarray or float>)`` and ``type(x) is [not] float`` outside the
    functions in ``TYPE_BRANCH_EXEMPT``."""

    def mentions_float_or_array(node: ast.AST) -> bool:
        return any(
            getattr(n, "id", getattr(n, "attr", None)) in ("ndarray", "float")
            for n in ast.walk(node)
        )

    def calls(node: ast.AST, name: str) -> bool:
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == name

    def tells_type(node: ast.AST) -> bool:
        if calls(node, "isinstance"):
            return mentions_float_or_array(node.args[1])
        return (
            isinstance(node, ast.Compare)
            and any(calls(side, "type") for side in (node.left, *node.comparators))
            and mentions_float_or_array(node)
        )

    tree = ast.parse(source)
    exempt = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name in TYPE_BRANCH_EXEMPT
        for node in ast.walk(func)
    }
    return [
        f"{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if id(node) not in exempt and tells_type(node)
    ]


def test_the_guard_flags_each_type_branch_form():
    flagged = """
def f(x):
    if isinstance(x, np.ndarray):
        return libm(math.exp, x)
    y = x if isinstance(x, (int, float)) else 0.0
    if type(x) is float:
        return y
    return y if type(x) is not float else 1.0
"""
    assert len(_type_branches(flagged)) == 4
    passed = """
def libm(fn, x):
    if isinstance(x, np.ndarray):
        return x
    return fn(x)
def _check_count(name, value, low):
    return isinstance(value, bool) or type(value) is float
def g(x, y):
    return isinstance(x, bool) or type(x) is type(y)
"""
    assert _type_branches(passed) == []


@pytest.mark.parametrize("module", ONE_PATH_MODULES)
def test_formulas_have_one_path_for_floats_and_arrays(module):
    source = Path(__file__).parents[1] / "src" / "thermomachine" / f"{module}.py"
    assert _type_branches(source.read_text()) == []
