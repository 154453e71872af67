"""Heat bookkeeping for the sample stream and the ancilla bath.

Sign convention: heat absorbed by a subsystem is positive.  Per collision
the swap moves one quantum, so eps_v * dp = eps_s * dp + eps_p * dp holds
identically through the resonance eps_v = eps_s + eps_p, and the three
cumulative heats always sum to zero.  Every function takes an array-valued config or
p00 (one lane per machine), and those with a k an integer ndarray k, through one formula
path: scalars give a float, and each array element that float bit for bit (``core.libm``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MachineConfig, _check_count, _check_range, collision_params, libm
from .core import thermal_population
from .dynamics import transient_population


def _population_change(k: int | np.ndarray, p00: float, config: MachineConfig):
    """p0_k - p00 = (p00 - p0_inf) expm1(k log1p(-r)), with no cancellation at small k r.

    r <= 1/2 for every machine (both excited populations are <= 1/2): log1p(-r) is finite.
    """
    _check_count("k", k, 0)
    _check_range("p00", p00, 0.0, 1.0, closed=True)
    params = collision_params(config)
    return (p00 - params.p0_inf) * libm(math.expm1, k * libm(math.log1p, -params.r))


def heat_sample(k: int | np.ndarray, p00: float, config: MachineConfig) -> float | np.ndarray:
    """Total heat absorbed by the sample stream after k collisions.

    -eps_s (p0_k - p00) = eps_s (p00 - p0_inf) [1 - (1-r)^k]; bounded by eps_s in magnitude.
    """
    return -config.eps_s * _population_change(k, p00, config)


def heat_ancilla(k: int | np.ndarray, p00: float, config: MachineConfig) -> float | np.ndarray:
    """Total heat absorbed by the ancilla bath after k collisions.

    eps_v (p0_k - p00); opposite sign to the sample heat, rescaled by eps_v / eps_s.
    """
    return config.eps_v * _population_change(k, p00, config)


def probe_energy_change(
    k: int | np.ndarray, p00: float, config: MachineConfig
) -> float | np.ndarray:
    """Probe energy gained after k collisions: eps_p (p00 - p0_k).

    Neither heat nor work is claimed for the probe; this is the neutral
    balance term closing  Q_S + Q_v + Q_P = 0, formed apart from the heats'
    closed form so that the balance checks one against the other.
    """
    p0_k = transient_population(k, p00, collision_params(config))
    return config.eps_p * (p00 - p0_k)


@dataclass(frozen=True)
class HeatTrajectory:
    """Per-collision population perturbations.

    Arrays are indexed by step j = 1..k_max: ``delta_p[j-1]`` is the probe
    ground-population change of the j-th collision, ``sample_p0`` and
    ``ancilla_p0`` the post-collision ground populations of the j-th fresh
    sample qubit and of the ancilla.  The cumulative heats after j
    collisions are :func:`heat_sample` and :func:`heat_ancilla` at k = j.
    Machine lanes (an array-valued config or p00) are the trailing axes:
    ``delta_p[j-1]`` then holds step j of every lane.
    """

    delta_p: np.ndarray
    sample_p0: np.ndarray
    ancilla_p0: np.ndarray


def perturbation_trajectory(k_max: int, p00: float, config: MachineConfig) -> HeatTrajectory:
    """Step-by-step perturbations for the first k_max collisions.

    Computed analytically from delta_j = r (p0_inf - p0_{j-1}); the matrix
    oracle reproduces the same numbers (cross-checked in the tests).  All lanes
    step at once; ``np.ascontiguousarray(delta_p.T).sum(axis=1)`` adds each lane's
    steps in the scalar ``delta_p.sum()``'s order (a sum over axis 0 does not).
    """
    _check_count("k_max", k_max, 1)
    _check_range("p00", p00, 0.0, 1.0, closed=True)
    params = collision_params(config)
    sample = thermal_population(config.eps_s, config.T)
    ancilla = thermal_population(config.eps_v, config.T_v)
    delta, p0 = np.empty((k_max, *np.broadcast_shapes(np.shape(params.r), np.shape(p00)))), p00
    for j in range(k_max):
        delta[j] = step = params.r * (params.p0_inf - p0)
        p0 = p0 + step  # never in place: an array p00 is the caller's
    return HeatTrajectory(delta_p=delta, sample_p0=sample.p0 + delta, ancilla_p0=ancilla.p0 - delta)
