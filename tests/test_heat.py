"""Heat bookkeeping, conservation and per-collision perturbations."""

from __future__ import annotations

from decimal import Decimal

import numpy as np
import pytest
from conftest import decimal_relaxation, random_machine_configs

from thermomachine import (
    PRESETS,
    build_triad_hamiltonian,
    collision_params,
    exact_unitary,
    heat_ancilla,
    heat_sample,
    perturbation_trajectory,
    probe_energy_change,
    run_scenario,
    thermal_population,
    transient_population,
    tune_config,
)


@pytest.fixture
def config():
    return tune_config(eps_s=1.0, T=0.2, T_prior=0.25, T_v=1.0)


def test_no_heat_from_the_fixed_point(config):
    p0_inf = collision_params(config).p0_inf
    for k in (1, 10, 1000):
        assert heat_sample(k, p0_inf, config) == 0.0
        assert heat_ancilla(k, p0_inf, config) == 0.0


def test_one_step_reference_value(config):
    # Frozen: eps_s * (1 - p0_inf) * r from the 50-digit decimal evaluation.
    assert heat_sample(1, 1.0, config) == pytest.approx(0.017865830940122392, abs=1e-14)


def test_sample_heating_bounded_by_one_quantum():
    for config in random_machine_configs(40, seed=23):
        p0_inf = collision_params(config).p0_inf
        for p00 in np.linspace(0.0, 1.0, 11):
            q_limit = heat_sample(10**9, p00, config)
            assert abs(q_limit) <= config.eps_s + 1e-15
            assert q_limit == pytest.approx(
                config.eps_s * (p00 - p0_inf), rel=1e-12, abs=1e-15
            )


def test_heats_oppose_and_conserve():
    for config in random_machine_configs(60, seed=29):
        for k in (1, 5, 80, 2000):
            q_s = heat_sample(k, config.p00, config)
            q_v = heat_ancilla(k, config.p00, config)
            q_p = probe_energy_change(k, config.p00, config)
            assert abs(q_s + q_v + q_p) < 1e-12
            if abs(q_s) > 1e-15:
                assert q_s * q_v < 0.0
                assert q_v == pytest.approx(
                    -q_s * config.eps_v / config.eps_s, rel=1e-12
                )


def test_single_step_identity(config):
    params = collision_params(config)
    delta_1 = params.r * (params.p0_inf - config.p00)
    assert heat_ancilla(1, config.p00, config) == pytest.approx(
        config.eps_v * delta_1, rel=1e-12
    )


def test_mixed_probe_can_cool_the_sample():
    # p00 = 1/2 below the fixed point: the probe ground gains, the sample cools.
    config = tune_config(eps_s=1.0, T=0.24, T_prior=0.1, T_v=1.0, p00=0.5)
    assert collision_params(config).p0_inf > 0.5
    assert heat_sample(50, 0.5, config) < 0.0
    assert heat_ancilla(50, 0.5, config) > 0.0


def test_trajectory_telescopes(config):
    # The recurrence's running sums against the closed-form heats at every k.
    traj = perturbation_trajectory(300, config.p00, config)
    params = collision_params(config)
    p0_300 = transient_population(300, config.p00, params)
    assert float(traj.delta_p.sum()) == pytest.approx(p0_300 - config.p00, abs=1e-13)
    k, change = np.arange(1, 301), traj.delta_p.cumsum()
    heats = (heat_sample(k, config.p00, config), heat_ancilla(k, config.p00, config))
    np.testing.assert_allclose(-config.eps_s * change, heats[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(config.eps_v * change, heats[1], rtol=0, atol=1e-12)


# k of the scalar heats, and the rows of the table's k axis (figS1b steps k by 10 from 1)
# nearest them.
DECIMAL_KS = {
    "figS1a": ((1, 10, 300), (1, 10, 300)),
    "figS1b": ((1, 10, 1000, 50_000), (1, 11, 1001, 49_991)),
}


@pytest.mark.parametrize("name", sorted(DECIMAL_KS))
def test_heats_are_the_decimal_relaxation_to_1e14(name):
    scenario = PRESETS[name]
    scalar_ks, table_ks = DECIMAL_KS[name]
    table = run_scenario(scenario)
    column = {c: table.cells[:, i] for i, c in enumerate(table.columns)}
    u = scenario.eps_s
    for config in scenario._machines:
        T, p00 = config.T, config.p00
        in_block = (column["T"] == T / u) & (column["p00"] == p00)
        for k in sorted({*scalar_ks, *table_ks}):
            change = decimal_relaxation(config, k, p00).change
            want = (-Decimal(config.eps_s) * change, Decimal(config.eps_v) * change)
            got = []
            if k in scalar_ks:
                got += [heat_sample(k, p00, config), heat_ancilla(k, p00, config)]
            if k in table_ks:
                row = np.flatnonzero(in_block & (column["k"] == k))
                assert row.size == 1, (T, p00, k)
                got += [column["q_sample"][row[0]] * u, column["q_ancilla"][row[0]] * u]
            for value, exact in zip(got, want * (len(got) // 2)):
                assert abs(Decimal(value) - exact) <= Decimal("1e-14") * abs(exact), (T, p00, k)


def test_trajectory_steps_decay_geometrically(config):
    traj = perturbation_trajectory(200, config.p00, config)
    r = collision_params(config).r
    ratios = traj.delta_p[1:] / traj.delta_p[:-1]
    assert np.allclose(ratios, 1.0 - r, atol=1e-12)


def test_ground_start_heats_sample_monotonically(config):
    traj = perturbation_trajectory(400, 1.0, config)
    assert np.all(traj.delta_p < 0.0)
    # Successive fresh sample qubits end ever closer to (but below) thermal.
    assert np.all(np.diff(traj.sample_p0) > 0.0)
    assert np.all(traj.sample_p0 < thermal_population(config.eps_s, config.T).p0)
    assert np.all(traj.ancilla_p0 > thermal_population(config.eps_v, config.T_v).p0)
    assert heat_sample(400, 1.0, config) > 0.0


def test_trajectory_converges_to_unperturbed_values(config):
    traj = perturbation_trajectory(3000, 1.0, config)
    sample = thermal_population(config.eps_s, config.T)
    ancilla = thermal_population(config.eps_v, config.T_v)
    assert traj.sample_p0[-1] == pytest.approx(sample.p0, abs=1e-12)
    assert traj.ancilla_p0[-1] == pytest.approx(ancilla.p0, abs=1e-12)


def test_step_magnitudes_by_regime():
    cold = tune_config(eps_s=1.0, T=1.0 / 10.5, T_prior=0.1, T_v=1.0)
    warm = tune_config(eps_s=1.0, T=1.0 / 4.5, T_prior=0.25, T_v=1.0)
    cold_step = abs(perturbation_trajectory(1, 1.0, cold).delta_p[0])
    warm_step = abs(perturbation_trajectory(1, 1.0, warm).delta_p[0])
    assert 1e-6 < cold_step < 1e-4
    assert 1e-3 < warm_step < 1e-1


def test_trajectory_cross_checked_against_matrix_oracle(config):
    # Post-collision sample/ancilla populations from the full 8x8 state.
    traj = perturbation_trajectory(12, config.p00, config)
    params = collision_params(config)
    sample = thermal_population(config.eps_s, config.T)
    ancilla = thermal_population(config.eps_v, config.T_v)
    u = exact_unitary(build_triad_hamiltonian(config), config.collision_time)
    rng = np.random.default_rng(31)
    for step in rng.choice(np.arange(1, 13), size=3, replace=False):
        j = int(step) - 1
        p0_before = transient_population(j, config.p00, params)
        rho = np.kron(
            np.diag([p0_before, 1.0 - p0_before]),
            np.kron(np.diag([sample.p0, sample.p1]), np.diag([ancilla.p0, ancilla.p1])),
        ).astype(complex)
        six = (u @ rho @ u.conj().T).reshape(2, 2, 2, 2, 2, 2)
        sample_p0 = float(np.einsum("ijkimk->jm", six)[0, 0].real)
        ancilla_p0 = float(np.einsum("ijkijn->kn", six)[0, 0].real)
        probe_p0 = float(np.einsum("ijkljk->il", six)[0, 0].real)
        assert sample_p0 == pytest.approx(traj.sample_p0[j], abs=1e-12)
        assert ancilla_p0 == pytest.approx(traj.ancilla_p0[j], abs=1e-12)
        assert probe_p0 - p0_before == pytest.approx(traj.delta_p[j], abs=1e-12)
