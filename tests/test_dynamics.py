"""Triad evolution oracle versus the analytic collision recurrence."""

from __future__ import annotations

import ast
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

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
from thermomachine import dynamics
from thermomachine.dynamics import COUPLED_STATES, _hamiltonian, contraction_power


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


@pytest.mark.parametrize("h", [np.zeros((2, 3)), np.zeros(4), np.zeros((2, 2, 2))])
def test_non_square_rejected(h):
    with pytest.raises(ValueError, match="square"):
        exact_unitary(h, 1.0)


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


#: Machines MachineConfig keeps but the exact oracle cannot evolve, with the cause each names:
#: at eps_p = 7e307 the top level is finite (1.4e308) but the collision phase w t overflows at
#: t = pi / 2; at eps_p = 1e300 the phase is finite but eps_v + eps_I rounds to eps_v, where the
#: oracle mapped p0 = 0.3 to 0.3 and the closed form gives 0.488.
UNEVOLVABLE = [
    (MachineConfig(eps_s=1.0, eps_p=7e307, T=1.0, T_v=1.0, T_prior=1.0), "collision phase w t"),
    (MachineConfig(eps_s=1.0, eps_p=1e300, T=1.0, T_v=1.0, T_prior=1.0), r"\(eps_v \+ eps_I\)"),
]


@pytest.mark.parametrize("machine, cause", UNEVOLVABLE)
def test_a_machine_the_oracle_cannot_evolve_is_refused_by_its_cause(config, machine, cause):
    sample = DLevelSample((0.0, machine.eps_s, 2.0 * machine.eps_s), machine.T, (0, 1))
    machines = MachineConfig(
        *(np.array([getattr(c, f.name) for c in (config, machine)]) for f in fields(config))
    )
    with np.errstate(all="raise"):  # refused before any floating-point fault
        for call in (
            lambda: collide_oracle(ProbeState(p0=0.3), machine),
            lambda: collide_oracle_matrix(np.diag([0.3, 0.7]), machine),
            lambda: collide_oracle_dlevel(0.3, sample, machine),
            lambda: dynamics._triad_lanes(machines),  # the one body refuses a lane alike
        ):
            with pytest.raises(ValueError, match=f"^{cause}"):
                call()


def test_the_exact_oracle_is_written_once():
    # One eigendecomposition and one partial trace serve single calls and the stacked triad, so
    # verify's oracle rows run the code a single collide_oracle runs.
    calls = [n for n in ast.walk(ast.parse(Path(dynamics.__file__).read_text()))
             if isinstance(n, ast.Call)]
    names = [ast.unparse(n.func) for n in calls]
    subscripts = [n.args[0].value for n, name in zip(calls, names) if name == "np.einsum"]
    traces = [s for s in subscripts if set(s.split("->")[0]) - set(s.split("->")[1]) - {"."}]
    assert names.count("np.linalg.eigh") == 1 and len(traces) == 1


def test_a_nan_collision_is_refused_not_clamped_to_zero(monkeypatch, config):
    machines = MachineConfig(*(np.array([getattr(config, f.name)] * 2) for f in fields(config)))
    single = collide_oracle(ProbeState(p0=config.p00), config).p0
    evolve, nan_lane = dynamics._evolve, np.array([1.0, math.nan])[:, None, None]
    monkeypatch.setattr(dynamics, "_evolve", lambda rho, c: evolve(rho, c) * nan_lane)
    _, _, p0 = dynamics._triad_lanes(machines)
    assert p0[0] == single and math.isnan(p0[1])
    monkeypatch.setattr(dynamics, "collide_oracle_matrix", lambda rho, c: np.diag([math.nan, 0j]))
    with pytest.raises(ValueError, match=r"^p0 must be finite and lie in \[0, 1\], got nan$"):
        collide_oracle(ProbeState(p0=0.5), config)
    monkeypatch.setattr(dynamics, "_collide_exact", lambda rho, c, sample: np.diag([math.nan, 0j]))
    sample = DLevelSample((0.0, config.eps_s, 3.0), config.T, (0, 1))
    assert math.isnan(collide_oracle_dlevel(0.5, sample, config))


@pytest.mark.parametrize("eps_s, eps_p", [(1.0, sys.float_info.max / 2), (4e307, 4.9e307)])
def test_the_oracle_collides_a_machine_at_the_overflow_bound(eps_s, eps_p):
    # The largest Hamiltonians MachineConfig keeps: eigh converges and, at an eps_I that keeps the
    # phase finite, both oracles collide as the map does, with no floating-point warning.
    config = MachineConfig(eps_s=eps_s, eps_p=eps_p, T=1e307, T_v=1.0, T_prior=1.0, eps_I=1e300)
    machines = MachineConfig(*(np.array([getattr(config, f.name)] * 2) for f in fields(config)))
    with np.errstate(all="raise"):
        assert np.isfinite(build_triad_hamiltonian(config)).all()
        _, u, lanes = dynamics._triad_lanes(machines)
        for p0 in (0.0, 0.3, config.p00):
            oracle = collide_oracle(ProbeState(p0=p0), config).p0
            analytic = collide_analytic(p0, collision_params(config))
            assert oracle == pytest.approx(analytic, abs=1e-12)
    assert np.isfinite(u).all() and (lanes == oracle).all()


@pytest.mark.parametrize(
    "x", [-math.inf, -1.0, -5e-324, -0.0, 0.0, 5e-324, 0.5, 1 - 2**-53, 1.0, 1 + 2**-52, math.inf]
)
def test_the_oracle_clamps_as_min_of_one_and_max_of_zero(monkeypatch, config, x):
    want = np.float64(min(1.0, max(0.0, x))).tobytes()
    monkeypatch.setattr(dynamics, "collide_oracle_matrix", lambda rho, c: np.diag([x, 0j]))
    got = collide_oracle(ProbeState(p0=0.5), config).p0
    assert np.float64(got).tobytes() == want
    monkeypatch.setattr(dynamics, "_collide_exact", lambda rho, c, sample: np.diag([x, 0j]))
    got = collide_oracle_dlevel(0.5, DLevelSample((0.0, config.eps_s, 3.0), config.T, (0, 1)), config)
    assert type(got) is float and np.float64(got).tobytes() == want


def test_the_dlevel_oracle_gives_a_population_it_takes_back():
    # Rounding put this collision's ground population one ulp past 1 before the read-out clamped it.
    eps_s, T = 2.238587321443997, 1.4385805432216259
    config = MachineConfig(
        eps_s=eps_s, eps_p=3.714654630740684, T=T, T_v=0.08005343884460445, T_prior=1.0,
        eps_I=2.0070407662760408,
    )
    sample = DLevelSample((0.0, eps_s, 2.514124209244738), T, (0, 1))
    p0 = collide_oracle_dlevel(1.0, sample, config)
    assert p0 == 1.0
    assert 0.0 <= collide_oracle_dlevel(p0, sample, config) <= 1.0


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
    assert contraction_power(r, 2) == 1.0 - r
    assert transient_population(2, 0.9, params) == (0.9 if r == 0.0 else 0.25)


def test_a_rate_outside_the_unit_interval_is_refused_by_name():
    from thermomachine import CollisionParams

    def refuses(call) -> bool:
        try:
            call()
        except ValueError as error:
            return str(error).startswith("r ")
        return False

    accepted = [
        (name, r)
        for r in (-0.5, -5e-324, math.nextafter(1.0, 2.0), 1.5, math.inf, math.nan)
        for name, call in [
            ("contraction_power", lambda: contraction_power(r, 2)),
            ("transient_population", lambda: transient_population(2, 1.0, CollisionParams(r, 0.25))),
        ]
        if not refuses(call)
    ]
    assert accepted == []


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
# Reference: the state built with two np.kron calls, the unitary from
# np.linalg.eigh and the Gibbs populations from their textbook formulas, all
# written here, against which the oracles must agree bit for bit.
# ----------------------------------------------------------------------


def textbook_unitary(h, t):
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def gibbs_qubit(gap, T):
    e = math.exp(-gap / T)
    return [1.0 / (1.0 + e), e / (1.0 + e)]


def gibbs_levels(levels, T):
    e = np.asarray(levels, dtype=float)
    w = np.exp(-(e - e.min()) / T)
    return w / w.sum()


def kron_collide(rho_probe, sample_pops, h, config, t):
    d = len(sample_pops)
    rho_sv = np.kron(np.diag(sample_pops), np.diag(gibbs_qubit(config.eps_v, config.T_v)))
    rho = np.kron(np.asarray(rho_probe, dtype=complex), rho_sv)
    u = textbook_unitary(h, t)
    return np.einsum("ijkljk->il", (u @ rho @ u.conj().T).reshape(2, d, 2, 2, d, 2))


def oracle_cases(n, seed):
    """(config, p0, coherent 2x2 probe, three-level sample, four-level sample, time) on seeded
    random machines; the four-level sample is addressed on an excited pair, its ground level
    away from 0."""
    rng = np.random.default_rng(seed)
    for config in random_machine_configs(n, seed=seed):
        p0, e = config.p00, config.eps_s
        c = math.sqrt(p0 * (1.0 - p0)) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        rho = np.array([[p0, c], [np.conj(c), 1.0 - p0]])
        three = DLevelSample(levels=(0.0, e, e * rng.uniform(1.5, 3.0)), temperature=config.T,
                             pair=(0, 1))
        base, low = rng.uniform(-2.0, 2.0), e * rng.uniform(0.1, 0.9)
        levels = tuple(base + x for x in (0.0, low, low + e, (low + e) * rng.uniform(1.2, 2.0)))
        four = DLevelSample(levels=levels, temperature=config.T, pair=(1, 2))
        yield config, p0, rho, three, four, rng.uniform(-3.0, 3.0)


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_oracles_equal_the_kron_reference_bit_for_bit(seed):
    # Each oracle runs twice in a row, so the second call reads the channel memo.
    for config, p0, rho, three, four, t in oracle_cases(100, seed):
        triad, pops = build_triad_hamiltonian(config), gibbs_qubit(config.eps_s, config.T)
        tc = config.collision_time
        diagonal = kron_collide(np.diag([p0, 1.0 - p0]), pops, triad, config, tc)
        for _ in range(2):
            assert collide_oracle_matrix(np.diag([p0, 1.0 - p0]), config).tobytes() == (
                diagonal.tobytes()
            )
        for _ in range(2):
            assert collide_oracle(ProbeState(p0=p0), config).p0 == min(
                1.0, max(0.0, float(diagonal[0, 0].real))
            )
        for time in (tc, t, 0.0, -0.0, 0.0):  # -0.0 reads 0.0's memo entry, and 0.0 its own
            coherent = kron_collide(rho, pops, triad, config, time)
            for _ in range(2):
                assert collide_oracle_matrix(rho, config, time).tobytes() == coherent.tobytes()
        # three's levels and pair at a temperature other than config.T
        for sample in (three, replace(three, temperature=1.5 * config.T), four):
            pops_d = gibbs_levels(sample.levels, sample.temperature)
            assert sample.populations().tobytes() == pops_d.tobytes()
            h = _hamiltonian(config, sample.levels, sample.pair)
            reduced = kron_collide(np.diag([p0, 1.0 - p0]), pops_d, h, config, tc)
            for _ in range(2):
                assert collide_oracle_dlevel(p0, sample, config) == float(reduced[0, 0].real)


def test_a_call_repeating_a_recent_machine_runs_no_new_eigendecomposition(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(len(h)) or eigh(h))
    dynamics._channel.cache_clear()
    configs = random_machine_configs(6, seed=27)
    config, rho = configs[0], np.diag([0.3, 0.7])
    collide_oracle(ProbeState(p0=0.3), config)
    collide_oracle_matrix(rho, config)  # the same machine at the same default t
    assert calls == [8]
    sample = DLevelSample((0.0, config.eps_s, 3.0 * config.eps_s), config.T, (0, 1))
    for call, eighs in (
        (lambda: collide_oracle_matrix(rho, config, 0.5), [8]),  # a new t
        (lambda: collide_oracle_matrix(rho, config, 0.0), [8]),
        (lambda: collide_oracle_matrix(rho, config, -0.0), []),  # -0.0 == 0.0: a hit
        (lambda: collide_oracle_dlevel(0.3, sample, config), [12]),  # a d-level sample
        # a sample built from lists, anew each time: the second call hits
        (lambda: collide_oracle_dlevel(0.3, DLevelSample([0.0, 0.5, 4.0], config.T, [0, 1]),
                                       config), [12]),
        (lambda: collide_oracle_dlevel(0.3, DLevelSample((0.0, config.eps_s), config.T, (0, 1)),
                                       config), [8]),  # the triad's own levels: other populations
        (lambda: collide_oracle_matrix(rho, configs[1]), [8]),  # another machine
    ):
        before = len(calls)
        call()
        call()
        assert calls[before:] == eighs
    # Cycling through more machines than the memo holds runs one per call.
    cycle = configs[: dynamics._channel.cache_info().maxsize + 1]
    dynamics._channel.cache_clear()
    calls.clear()
    for c in cycle * 3:
        collide_oracle_matrix(rho, c)
    assert len(calls) == 3 * len(cycle)


def test_an_unhashable_key_skips_the_memo(config):
    rho = np.diag([0.3, 0.7])
    zero_d = replace(config, T=np.array(config.T))
    assert collide_oracle_matrix(rho, zero_d).tobytes() == (
        collide_oracle_matrix(rho, config).tobytes()
    )
    tupled = DLevelSample((0.0, 1.0, 2.5), config.T, (0, 1))
    zero_d = DLevelSample(tupled.levels, np.array(config.T), tupled.pair)
    assert collide_oracle_dlevel(0.3, zero_d, config) == collide_oracle_dlevel(0.3, tupled, config)


@pytest.mark.parametrize("levels, pair", [
    ([0.0, 1.0, 2.5], [0, 1]), (np.array([0.0, 1.0, 2.5]), np.array([0, 1])), ((0, 1, 2.5), (0, 1))
])
def test_a_sample_keeps_its_levels_and_pair_as_tuples(config, levels, pair):
    sample = DLevelSample(levels, config.T, pair)
    tupled = DLevelSample((0.0, 1.0, 2.5), config.T, (0, 1))
    assert sample == tupled and hash(sample) == hash(tupled)
    assert sample.levels == (0.0, 1.0, 2.5) and {type(e) for e in sample.levels} == {float}
    assert sample.pair == (0, 1) and isinstance(sample.pair, tuple)


@pytest.mark.parametrize(
    "pair, message",
    [((0, 3), "distinct level indices"), ((-1, 1), "distinct level indices"),
     ((1, 1), "distinct level indices"), ((1, 0), "ordered")],
)
def test_a_sample_refuses_a_pair_that_is_not_two_of_its_levels(config, pair, message):
    with pytest.raises(ValueError, match=message):
        DLevelSample((0.0, 1.0, 2.5), config.T, pair)


@pytest.mark.parametrize("w", [-1e308, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0, 1e308])
def test_a_zero_t_of_either_sign_gives_one_phase(w):
    # At t = +-0, w * (-1j t) holds only signed zeros, whose signs depend on w's sign alone: these
    # w stand for every finite eigenvalue.  So e^(-iHt) has one set of bits at 0.0 and -0.0, and
    # the channel memo keys t by ==.
    w = np.array([w])
    assert np.exp(w * (-1j * 0.0)).tobytes() == np.exp(w * (-1j * -0.0)).tobytes()


@pytest.mark.parametrize("dim", [2, 8, 12])
def test_exact_unitary_is_the_textbook_eigh_form_byte_for_byte(dim):
    rng = np.random.default_rng(dim)
    for _ in range(60):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for h in ((a + a.conj().T) / 2, (a.real + a.real.T) / 2):
            for t in (0.0, -0.0, rng.uniform(0.0, 5.0), -rng.uniform(0.0, 5.0), math.pi / 2):
                assert exact_unitary(h, t).tobytes() == textbook_unitary(h, t).tobytes()


def test_exact_unitary_raises_on_a_phase_past_the_float_range():
    # w t = 2e308 overflows: the oracles' named error, not numpy's warning and a NaN unitary.
    with np.errstate(over="warn", invalid="warn"), pytest.raises(ValueError, match="phase w t"):
        exact_unitary(np.diag([0.0, 2.0]), 1e308)


def test_hamiltonian_is_exactly_symmetric():
    # The oracles skip exact_unitary's Hermitian check because this holds by construction.
    for config, _, _, three, four, _ in oracle_cases(100, 5):
        for h in (
            build_triad_hamiltonian(config),
            build_triad_hamiltonian(config, detuning=0.37),
            _hamiltonian(config, three.levels, three.pair),
            _hamiltonian(config, four.levels, four.pair),
        ):
            assert h.dtype == np.float64
            assert np.array_equal(h, h.T)


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
