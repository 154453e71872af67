"""Triad evolution oracle versus the analytic collision recurrence."""

from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import random_machine_configs

from thermomachine import (
    DLevelSample,
    MachineConfig,
    ProbeState,
    build_triad_hamiltonian,
    collide_analytic,
    collide_oracle,
    collide_oracle_dlevel,
    collide_oracle_matrix,
    collision_params,
    exact_unitary,
    reduce_d_level,
    steady_population,
    transient_population,
    tune_config,
)
from thermomachine.dynamics import COUPLED_STATES, contraction_power


@pytest.fixture
def config():
    return tune_config(eps_s=1.0, T=0.2, T_prior=0.25, T_v=1.0)


def test_free_hamiltonian_is_diagonal(config):
    h = build_triad_hamiltonian(MachineConfig(
        eps_s=config.eps_s, eps_p=config.eps_p, T=config.T,
        T_v=config.T_v, T_prior=config.T_prior, eps_I=1e-300, p00=1.0,
    ))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                idx = 4 * i + 2 * j + k
                expected = i * config.eps_p + j * config.eps_s + k * config.eps_v
                assert h[idx, idx] == pytest.approx(expected, rel=1e-15)
    off = h - np.diag(np.diag(h))
    assert np.abs(off).max() <= 1e-300


def test_hamiltonian_hermitian(config):
    h = build_triad_hamiltonian(config)
    assert np.abs(h - h.conj().T).max() < 1e-14


def test_interaction_commutes_on_resonance(config):
    h = build_triad_hamiltonian(config)
    a, b = COUPLED_STATES
    h_free = h.copy()
    h_free[a, b] = h_free[b, a] = 0.0
    h_int = h - h_free
    assert np.abs(h_int @ h_free - h_free @ h_int).max() < 1e-14


@pytest.mark.parametrize("delta", [0.3, -0.7, 1.9])
def test_detuned_commutator_norm(config, delta):
    # Off resonance the commutator has exactly two entries of size eps_I*|delta|,
    # so its Frobenius norm is sqrt(2) * eps_I * |delta|.
    h = build_triad_hamiltonian(config, detuning=delta)
    a, b = COUPLED_STATES
    h_free = h.copy()
    h_free[a, b] = h_free[b, a] = 0.0
    h_int = h - h_free
    comm = h_int @ h_free - h_free @ h_int
    assert np.linalg.norm(comm) == pytest.approx(
        math.sqrt(2.0) * config.eps_I * abs(delta), rel=1e-12
    )


def test_unitary_at_zero_time_is_identity(config):
    u = exact_unitary(build_triad_hamiltonian(config), 0.0)
    assert np.abs(u - np.eye(8)).max() < 1e-14


def test_unitarity(config):
    u = exact_unitary(build_triad_hamiltonian(config), config.collision_time)
    assert np.abs(u @ u.conj().T - np.eye(8)).max() < 1e-12


def test_non_hermitian_rejected():
    with pytest.raises(ValueError):
        exact_unitary(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_full_swap_exchanges_coupled_pair(config):
    u = exact_unitary(build_triad_hamiltonian(config), config.collision_time)
    a, b = COUPLED_STATES
    assert abs(u[b, a]) == pytest.approx(1.0, abs=1e-10)
    assert abs(u[a, b]) == pytest.approx(1.0, abs=1e-10)
    for idx in range(8):
        if idx not in (a, b):
            assert abs(u[idx, idx]) == pytest.approx(1.0, abs=1e-10)
    # Swap phase is -i times the free-evolution phase of the coupled pair.
    h = build_triad_hamiltonian(config)
    free_phase = np.exp(-1j * h[a, a] * config.collision_time)
    assert u[b, a] == pytest.approx(-1j * free_phase, abs=1e-10)


def test_oracle_fixed_point(config):
    p0_inf = steady_population(config)
    out = collide_oracle(ProbeState(p0=p0_inf), config)
    assert out.p0 == pytest.approx(p0_inf, abs=1e-12)
    assert out.k == 1


def test_oracle_reference_value(config):
    # Frozen from the 50-digit decimal evaluation of (1-r) + r p0_inf.
    out = collide_oracle(ProbeState(p0=1.0), config)
    assert out.p0 == pytest.approx(0.982134169059877607, abs=1e-12)


def test_oracle_matches_analytic_on_random_configs():
    for config in random_machine_configs(200, seed=7):
        params = collision_params(config)
        for p0 in (0.0, 0.31, config.p00, 1.0):
            oracle = collide_oracle(ProbeState(p0=p0), config).p0
            assert oracle == pytest.approx(collide_analytic(p0, params), abs=1e-10)


def test_diagonal_states_stay_diagonal(config):
    rho = np.diag([0.6, 0.4]).astype(complex)
    out = collide_oracle_matrix(rho, config)
    assert abs(out[0, 1]) < 1e-14
    assert abs(out[1, 0]) < 1e-14
    assert out[0, 0].real + out[1, 1].real == pytest.approx(1.0, abs=1e-12)


def test_probe_coherence_never_amplified(config):
    # Bloch-equator inputs: coherence magnitude contracts by exactly (1 - r).
    r = collision_params(config).r
    for phi in np.linspace(0.0, 2.0 * math.pi, 17):
        c = 0.5 * np.exp(1j * phi)
        rho = np.array([[0.5, c], [np.conj(c), 0.5]])
        out = collide_oracle_matrix(rho, config)
        assert abs(out[0, 1]) <= abs(c) + 1e-15
        assert abs(out[0, 1]) == pytest.approx((1.0 - r) * abs(c), abs=1e-12)


def test_partial_swap_time_is_verifiable(config):
    # The oracle exposes arbitrary t; at t = pi/(4 eps_I) the exchange is partial.
    rho = np.diag([1.0, 0.0]).astype(complex)
    half = collide_oracle_matrix(rho, config, t=config.collision_time / 2.0)
    full = collide_oracle_matrix(rho, config)
    assert half[0, 0].real > full[0, 0].real


@pytest.mark.parametrize("fraction", [0.13, 0.5, 0.81, 2.0])
def test_partial_swap_population_law(config, fraction):
    # Only the coupled pair evolves, with exchange probability sin^2(eps_I t),
    # so a partial collision is the full-swap map with rate r sin^2(eps_I t).
    t = fraction * config.collision_time
    weight = math.sin(config.eps_I * t) ** 2
    params = collision_params(config)
    for p0 in (0.0, 0.37, 1.0):
        rho = np.diag([p0, 1.0 - p0]).astype(complex)
        out = collide_oracle_matrix(rho, config, t=t)
        expected = p0 + weight * params.r * (params.p0_inf - p0)
        assert out[0, 0].real == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("r", [0.0, 1.0])
def test_degenerate_rates(r):
    from thermomachine import CollisionParams

    params = CollisionParams(r=r, p0_inf=0.25)
    assert collide_analytic(0.9, params) == (0.9 if r == 0.0 else 0.25)


def test_transient_population_edges(config):
    params = collision_params(config)
    assert transient_population(0, 0.77, params) == 0.77
    assert transient_population(10**9, 0.77, params) == pytest.approx(
        params.p0_inf, abs=1e-15
    )
    one = transient_population(1, 1.0, params)
    assert one == pytest.approx(collide_analytic(1.0, params), abs=1e-15)
    with pytest.raises(ValueError):
        transient_population(-1, 0.5, params)


def test_closed_form_equals_iteration():
    checkpoints = (1, 10, 100, 1000, 10000)
    for config in random_machine_configs(40, seed=11):
        params = collision_params(config)
        p0 = config.p00
        for k in range(1, checkpoints[-1] + 1):
            p0 = collide_analytic(p0, params)
            if k in checkpoints:
                assert abs(p0 - transient_population(k, config.p00, params)) < 1e-12


def test_geometric_contraction():
    for config in random_machine_configs(50, seed=13):
        params = collision_params(config)
        gap0 = abs(config.p00 - params.p0_inf)
        for k in (1, 5, 50, 400):
            gap_k = abs(transient_population(k, config.p00, params) - params.p0_inf)
            assert gap_k == pytest.approx(
                contraction_power(params.r, k) * gap0, abs=1e-13
            )


def test_contraction_power_underflow_guard():
    assert contraction_power(1e-4, 0) == 1.0
    assert contraction_power(1e-4, 10**5) == pytest.approx(
        math.exp(10**5 * math.log1p(-1e-4)), rel=1e-12
    )
    assert contraction_power(1e-4, 10**8) == 0.0


def test_steady_population_matches_iterated_oracle(config):
    probe = ProbeState(p0=0.0)
    for _ in range(2200):
        probe = collide_oracle(probe, config)
    assert probe.p0 == pytest.approx(steady_population(config), abs=1e-12)


# ----------------------------------------------------------------------
# d-level samples
# ----------------------------------------------------------------------


def test_dlevel_validation():
    with pytest.raises(ValueError):
        DLevelSample(levels=(0.0,), temperature=0.2, pair=(0, 0))
    with pytest.raises(ValueError):
        DLevelSample(levels=(0.0, 1.0, 0.5), temperature=0.2, pair=(0, 1))
    with pytest.raises(ValueError):
        DLevelSample(levels=(0.0, 0.0, 1.0), temperature=0.2, pair=(0, 1))  # degenerate


def test_two_level_reduction_is_identity(config):
    sample = DLevelSample(levels=(0.0, 1.0), temperature=config.T, pair=(0, 1))
    w, params = reduce_d_level(sample, config)
    reference = collision_params(config)
    assert w == pytest.approx(1.0, abs=1e-15)
    assert params.r == pytest.approx(reference.r, rel=1e-14)
    assert params.p0_inf == pytest.approx(reference.p0_inf, rel=1e-14)


def test_triad_oracle_is_the_two_level_sample_oracle():
    # The triad is the d = 2 sample (0, eps_s) addressed on its pair (0, 1);
    # only the sample populations differ in rounding (logistic vs Gibbs sum).
    for config in random_machine_configs(40, seed=5):
        sample = DLevelSample(levels=(0.0, config.eps_s), temperature=config.T, pair=(0, 1))
        for p0 in (0.0, config.p00, 1.0):
            rho = np.diag([p0, 1.0 - p0]).astype(complex)
            matrix = collide_oracle_matrix(rho, config)[0, 0].real
            assert abs(matrix - collide_oracle_dlevel(p0, sample, config)) <= 1e-15


def test_three_level_fixed_point_matches_qubit_formula(config):
    sample = DLevelSample(levels=(0.0, 1.0, 2.0), temperature=config.T, pair=(0, 1))
    p0 = 1.0
    for _ in range(4000):
        new = collide_oracle_dlevel(p0, sample, config)
        if abs(new - p0) < 1e-15:
            p0 = new
            break
        p0 = new
    assert p0 == pytest.approx(steady_population(config), abs=1e-10)


def test_three_level_one_collision_rescales_rate(config):
    sample = DLevelSample(levels=(0.0, 1.0, 2.0), temperature=config.T, pair=(0, 1))
    w, params = reduce_d_level(sample, config)
    for p0 in (0.0, 0.45, 1.0):
        oracle = collide_oracle_dlevel(p0, sample, config)
        r_eff = w * params.r
        assert oracle == pytest.approx(
            (1.0 - r_eff) * p0 + r_eff * params.p0_inf, abs=1e-12
        )


def test_steady_state_independent_of_pair_weight(config):
    # The pair weight only rescales the approach rate, not the fixed point.
    wide = DLevelSample(levels=(0.0, 1.0, 1.2, 3.0), temperature=config.T, pair=(0, 1))
    w, params = reduce_d_level(wide, config)
    assert w < 1.0
    assert params.p0_inf == pytest.approx(steady_population(config), rel=1e-14)


def test_cold_sample_pair_weight_tends_to_one():
    sample = DLevelSample(levels=(0.0, 1.0, 2.0), temperature=1e-3, pair=(0, 1))
    assert sample.pair_weight == pytest.approx(1.0, abs=1e-12)


def test_four_level_excited_pair_reduction():
    # Addressing an excited pair: the conditional pair state is still the
    # Gibbs qubit at the pair gap, so the same rescaled map must hold
    # against the 16-dimensional oracle.
    config = tune_config(eps_s=0.9, T=0.3, T_prior=0.2, T_v=0.9)
    sample = DLevelSample(
        levels=(0.0, 0.4, 1.3, 2.1), temperature=0.3, pair=(1, 2)
    )
    assert sample.pair_gap == pytest.approx(config.eps_s, rel=1e-12)
    w, params = reduce_d_level(sample, config)
    assert 0.0 < w < 1.0
    r_eff = w * params.r
    for p0 in (0.1, 0.6, 1.0):
        oracle = collide_oracle_dlevel(p0, sample, config)
        assert oracle == pytest.approx(
            (1.0 - r_eff) * p0 + r_eff * params.p0_inf, abs=1e-12
        )
    assert params.p0_inf == pytest.approx(steady_population(config), rel=1e-14)


def test_mismatched_pair_gap_rejected(config):
    sample = DLevelSample(levels=(0.0, 2.0, 3.0), temperature=config.T, pair=(0, 1))
    with pytest.raises(ValueError):
        reduce_d_level(sample, config)
