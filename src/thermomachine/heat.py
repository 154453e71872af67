"""Heat bookkeeping for the sample stream and the ancilla bath.

Sign convention: heat absorbed by a subsystem is positive.  Per collision
the swap moves one quantum, so eps_v * dp = eps_s * dp + eps_p * dp holds
identically through the resonance eps_v = eps_s + eps_p, and the three
cumulative heats always sum to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MachineConfig, _check_count, _check_range, collision_params, thermal_population
from .dynamics import contraction_power, transient_population


def heat_sample(k: int, p00: float, config: MachineConfig) -> float:
    """Total heat absorbed by the sample stream after k collisions.

    eps_s (p00 - p0_inf) [1 - (1-r)^k]; bounded by eps_s in magnitude.
    """
    _check_range("p00", p00, 0.0, 1.0, closed=True)
    params = collision_params(config)
    return config.eps_s * (p00 - params.p0_inf) * (1.0 - contraction_power(params.r, k))


def heat_ancilla(k: int, p00: float, config: MachineConfig) -> float:
    """Total heat absorbed by the ancilla bath after k collisions.

    eps_v (p0_inf - p00) [1 - (1-r)^k]; opposite sign to the sample heat,
    rescaled by eps_v / eps_s.
    """
    _check_range("p00", p00, 0.0, 1.0, closed=True)
    params = collision_params(config)
    return config.eps_v * (params.p0_inf - p00) * (1.0 - contraction_power(params.r, k))


def probe_energy_change(k: int, p00: float, config: MachineConfig) -> float:
    """Probe energy gained after k collisions: eps_p (p00 - p0_k).

    Neither heat nor work is claimed for the probe; this is the neutral
    balance term closing  Q_S + Q_v + Q_P = 0.
    """
    p0_k = transient_population(k, p00, collision_params(config))
    return config.eps_p * (p00 - p0_k)


@dataclass(frozen=True)
class HeatTrajectory:
    """Per-collision population perturbations and cumulative heats.

    Arrays are indexed by step j = 1..k_max: ``delta_p[j-1]`` is the probe
    ground-population change of the j-th collision, ``sample_p0`` and
    ``ancilla_p0`` the post-collision ground populations of the j-th fresh
    sample qubit and of the ancilla, and ``q_sample`` / ``q_ancilla`` the
    cumulative absorbed heats after j collisions.
    """

    delta_p: np.ndarray
    sample_p0: np.ndarray
    ancilla_p0: np.ndarray
    q_sample: np.ndarray
    q_ancilla: np.ndarray


def perturbation_trajectory(k_max: int, p00: float, config: MachineConfig) -> HeatTrajectory:
    """Step-by-step perturbations for the first k_max collisions.

    Computed analytically from delta_j = r (p0_inf - p0_{j-1}); the matrix
    oracle reproduces the same numbers (cross-checked in the tests).
    """
    _check_count("k_max", k_max, 1)
    _check_range("p00", p00, 0.0, 1.0, closed=True)
    params = collision_params(config)
    sample = thermal_population(config.eps_s, config.T)
    ancilla = thermal_population(config.eps_v, config.T_v)

    delta = np.empty(k_max)
    p0 = p00
    for j in range(k_max):
        step = params.r * (params.p0_inf - p0)
        delta[j] = step
        p0 += step
    q_sample = -config.eps_s * np.cumsum(delta)
    q_ancilla = config.eps_v * np.cumsum(delta)
    return HeatTrajectory(
        delta_p=delta,
        sample_p0=sample.p0 + delta,
        ancilla_p0=ancilla.p0 - delta,
        q_sample=q_sample,
        q_ancilla=q_ancilla,
    )
