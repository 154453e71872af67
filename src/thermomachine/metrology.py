"""Fisher information, sensitivities and signal-to-noise ratios.

SNR means T / (estimation error), so larger is better.  Every SNR here is the Cramer-Rao bound
for M independent binary energy measurements, snr = T sqrt(M F) with F = lambda^2 / (p0 p1),
assembled from populations and sensitivities through one pipeline whose last step
``_cramer_rao_snr`` alone reads M and takes the roots of M and F apart (M F could overflow);
the equivalent closed forms are kept in the test suite as regression cross-checks.

The k-dependent forms also take an integer ndarray of collision counts, and
the steady, thermal and noisy-ancilla forms a float ndarray of temperatures
(as ``T`` or ``MachineConfig.T``).  Each formula has one path for both: an
int k or a float T gives floats, and each array element equals that float
bit for bit (``core.libm`` says why).  Every SNR also takes an integer ndarray M,
broadcast against k or T, each element bit for bit the call with that int M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import MachineConfig, _check_count, _check_range, _gibbs_pair, _probe_gap
from .core import collision_params, stable_logistic, thermal_population
from .dynamics import _relax, contraction_power

#: Asymptotic ratio between the best two-outcome measurement on k thermal
#: qubits and the full k-qubit energy measurement; emitted alongside ratio
#: tables as a labeled reference line.
SQRT_TWO_OVER_PI = math.sqrt(2.0 / math.pi)

#: gap/T at the thermal SNR peak (the Schottky peak): sqrt(M) y / (2 cosh(y/2))
#: is stationary where (y/2) tanh(y/2) = 1, whose root y* this is, correctly rounded.
_THERMAL_PEAK = 2.3993572805154675


@dataclass(frozen=True)
class SnrPoint:
    """One evaluated SNR with its ingredients.

    ``k`` is the collision count (math.inf for the steady state), ``M`` the
    number of energy measurements and ``p0`` the probe ground population
    the SNR was computed from.  ``singular`` marks boundary populations
    (p0 in {0, 1}) where the Fisher information diverges and the SNR is
    reported as an explicit undefined variant instead of NaN.
    """

    T: float
    M: int
    k: float
    snr: float
    sensitivity: float
    fisher: float
    p0: float
    singular: bool = False


def fisher_binary(p0: float, sensitivity: float) -> float:
    """Fisher information of a binary outcome: lambda^2 / (p0 (1 - p0)).

    Boundary populations are the signaled singularity (math.inf, never
    NaN); an interior point with zero sensitivity carries no information.
    """
    _check_range("p0", p0, 0.0, 1.0, closed=True)
    _check_range("sensitivity", sensitivity, -math.inf)
    return _fisher_two_sided(p0, 1.0 - p0, sensitivity)


def _fisher_two_sided(p0, p1, sensitivity):
    # Same quantity as fisher_binary, but with the excited population given
    # explicitly so exponential tails keep full relative precision.  One path
    # for floats and arrays; a float input gives a float.
    with np.errstate(divide="ignore", invalid="ignore"):
        fisher = np.divide(sensitivity * sensitivity, p0 * p1)
    fisher = np.where(sensitivity == 0.0, 0.0, fisher)
    fisher = np.where((p0 <= 0.0) | (p1 <= 0.0), math.inf, fisher)
    return fisher if fisher.ndim else float(fisher)


def _sqrt(x):
    # Both are correctly rounded, so an array matches the per-element floats.
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _cramer_rao_snr(T, M, fisher):
    """sqrt(M) (T sqrt(F)), the pipeline's last step (inf where F is); M an int or integer array."""
    _check_count("M", M, 1)
    return _sqrt(M) * (T * _sqrt(fisher))


def _steady_pair(config: MachineConfig) -> tuple[float, float]:
    """(p0_inf, p1_inf) = logistics of +-(eps_v/T_v - eps_s/T), each in its own scale, where
    1 minus the other would quantize a tail at the ulp of 1."""
    x = config.eps_v / config.T_v - config.eps_s / config.T
    return stable_logistic(x), stable_logistic(-x)


def _check_slope_temperature(T: float) -> None:
    """Refuse T unless 2^-511 <= T < 2^512, where T^2 is a normal float; arrays per element.
    Past 2^512 T^2 overflows and a slope reads 0; below 2^-511 it is subnormal and drops digits."""
    _check_range("T", T, 2.0**-511, 2.0**512 * (1.0 - 2.0**-53), closed=True)  # T, not T^2


def _population_slope(p0: float, p1: float, gap: float, T: float) -> float:
    """p0 p1 gap / T^2: the T-derivative of a population 1 / (1 + e^(+-gap/T))."""
    _check_slope_temperature(T)  # every T^2 division of the module runs after this one
    return p0 * p1 * gap / (T * T)


def sensitivity_steady(config: MachineConfig) -> float:
    """d p0_inf / dT = p0_inf p1_inf eps_s / T^2, as ``snr_steady`` forms it."""
    return snr_steady(config).sensitivity


def jump_rate_derivative(config: MachineConfig) -> float:
    """dr/dT = (d p1_s / dT)(p0_v - p1_v); only the sample depends on T; the config is checked."""
    sample, ancilla = _gibbs_pair(config.eps_s / config.T), _gibbs_pair(config.eps_v / config.T_v)
    return _population_slope(*sample, config.eps_s, config.T) * (ancilla[0] - ancilla[1])


def sensitivity_transient(k: int, p00: float, config: MachineConfig) -> float:
    """d p0_k / dT after k (int or integer array) collisions, as ``snr_transient`` forms it."""
    return snr_transient(k, p00, config).sensitivity


def snr_steady(config: MachineConfig, M: int = 1) -> SnrPoint:
    """Steady-state SNR of the probe for M (an int or integer array) energy measurements.

    The steady sensitivity is p0 p1 eps_s/T^2, so the Fisher information
    reduces to sensitivity * eps_s/T^2 with no population division; deep
    exponential tails therefore underflow to the true limit 0 instead of
    tripping the boundary singularity.
    """
    p0, p1 = _steady_pair(config)
    lam = _population_slope(p0, p1, config.eps_s, config.T)
    fisher = lam * config.eps_s / (config.T * config.T)
    return SnrPoint(
        T=config.T, M=M, k=math.inf, snr=_cramer_rao_snr(config.T, M, fisher),
        sensitivity=lam, fisher=fisher, p0=p0,
    )


def snr_transient(k: int, p00: float, config: MachineConfig, M: int = 1) -> SnrPoint:
    """Transient SNR after k collisions from initial ground population p00.

    Its sensitivity d p0_k / dT, [1 - (1-r)^k] lambda_inf + k (p0_inf - p00) (dr/dT) (1-r)^(k-1),
    is 0 at k = 0 (the initial state carries no temperature information).  An integer array
    ``k`` gives array fields (but T and M); an integer array ``M`` broadcasts with ``k`` in ``snr``.
    """
    params = collision_params(config)
    q = contraction_power(params.r, k)
    _check_range("p00", p00, 0.0, 1.0, closed=True)
    # At k = 0 the exponent k - 1 is clamped to 0; both terms of the slope are then +0.
    q_km1 = contraction_power(params.r, k - (k > 0))
    p0_inf, p1_inf = _steady_pair(config)
    lam_inf = _population_slope(p0_inf, p1_inf, config.eps_s, config.T)
    sensitivity = (1.0 - q) * lam_inf + k * (p0_inf - p00) * jump_rate_derivative(config) * q_km1
    p0 = _relax(q, p0_inf, p00)
    fisher = _fisher_two_sided(p0, _relax(q, p1_inf, 1.0 - p00), sensitivity)
    return SnrPoint(
        T=config.T, M=M, k=k * 1.0, snr=_cramer_rao_snr(config.T, M, fisher),
        sensitivity=sensitivity, fisher=fisher, p0=p0, singular=fisher == math.inf,
    )


def snr_thermal(T: float, gap: float, M: int = 1) -> float:
    """SNR of a probe fully thermalized at T with the given gap.

    Equals sqrt(M) e^(-gap/2T) / (1 + e^(-gap/T)) * (gap/T).  As in ``snr_steady`` the Fisher
    information is lambda gap / T^2, with no population division; ``_cramer_rao_snr`` folds
    in M (an int or integer array).
    """
    qubit = thermal_population(gap, T)
    lam = _population_slope(qubit.p0, qubit.p1, gap, T)
    return _cramer_rao_snr(T, M, lam * gap / (T * T))


def max_thermal_snr(T: float, M: int = 1) -> tuple[float, float]:
    """Maximize the thermal SNR over the probe gap at fixed T.

    Returns (gap_at_max, max_snr) = (y* T, snr_thermal(T, y* T, M)), with
    y* = ``_THERMAL_PEAK``.
    """
    gap = _THERMAL_PEAK * T
    return gap, snr_thermal(T, gap, M)


@dataclass(frozen=True)
class NoisyAncillaSpec:
    """Relative error on the ancilla bath temperature used for gap tuning.

    ``sign`` is +1 when the estimate overshoots (T_v (1 + delta)) and -1
    when it undershoots.  delta_Tv_rel <= 1/2 keeps the undershoot peak
    inside the prior interval.
    """

    delta_Tv_rel: float
    sign: int = 1

    def __post_init__(self) -> None:
        _check_range("delta_Tv_rel", self.delta_Tv_rel, 0.0, closed=True)
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")


def _mistuned_gap(tuning, noisy: NoisyAncillaSpec) -> float:
    """Probe gap of ``tuning`` (a MachineConfig or Scenario) tuned with T_v (1 +/- delta) as T_v."""
    tv_est = tuning.T_v * (1.0 + noisy.sign * noisy.delta_Tv_rel)
    return _probe_gap(tuning.eps_s, tv_est, tuning.T_prior, "mistuned T_v")


def snr_noisy_ancilla(
    config: MachineConfig, noisy: NoisyAncillaSpec, M: int = 1
) -> SnrPoint:
    """Steady SNR when the tuning used T_v (1 +/- delta) instead of T_v.

    Realized as the ordinary steady SNR of the mistuned machine, so the
    exponent becomes (eps_s/T) x_T with x_T = 1 - (T/T_prior)(1 +/- delta).
    """
    return snr_steady(replace(config, eps_p=_mistuned_gap(config, noisy)), M)


def noisy_peak(
    config: MachineConfig, noisy: NoisyAncillaSpec, M: int = 1
) -> tuple[float, SnrPoint]:
    """Temperature and value of the x_T = 0 peak of the noisy-tuned SNR.

    The peak sits at T = T_prior / (1 +/- delta) with value
    (sqrt(M)/2)(1 +/- delta) eps_s / T_prior.  Where 1 - delta <= 0 there is no peak: its T
    reads inf and is refused by name.
    """
    scale = 1.0 + noisy.sign * noisy.delta_Tv_rel
    t_peak = config.T_prior / scale if scale > 0.0 else math.inf
    return t_peak, snr_noisy_ancilla(replace(config, T=t_peak), noisy, M)


def noisy_peak_in_prior(config: MachineConfig, noisy: NoisyAncillaSpec) -> bool:
    """Whether the x_T = 0 peak lies in the prior interval (0, 2 T_prior].

    The right endpoint counts as inside: the undershoot branch at
    delta = 1/2 peaks exactly at 2 T_prior, and where 1 - delta <= 0 there is no peak.
    """
    return 1.0 + noisy.sign * noisy.delta_Tv_rel >= 0.5


def snr_sample_bound(k: int, T: float, eps_s: float) -> float:
    """Best SNR of an energy measurement on k (int or integer array) sample qubits.

    The thermal SNR of k qubits, sqrt(k e^(-eps_s/T)) / (1 + e^(-eps_s/T)) * (eps_s/T);
    any probe scheme that consumed k qubits is bounded by this.
    """
    _check_count("k", k, 1)
    return snr_thermal(T, eps_s, k)


def required_interactions(target_snr: float, T: float, eps_s: float) -> int:
    """Smallest k whose k-qubit bound reaches target_snr.

    Closed-form inversion of the sqrt(k) scaling, then an exact adjustment
    against snr_sample_bound itself.
    """
    _check_range("target_snr", target_snr, 0.0)
    per_qubit = snr_sample_bound(1, T, eps_s)
    if not per_qubit > 0.0:
        raise ValueError("bound vanishes at this gap/temperature")
    ratio = target_snr / per_qubit
    estimate = ratio * ratio  # inf past the float range
    if not estimate <= 2.0**53:  # past 2^53 a step of k no longer moves the float bound
        raise ValueError(f"target_snr {target_snr:g} needs more than 2^53 interactions")
    k = max(1, math.ceil(estimate - 1e-9))
    while snr_sample_bound(k, T, eps_s) < target_snr:
        k += 1
    while k > 1 and snr_sample_bound(k - 1, T, eps_s) >= target_snr:
        k -= 1
    return k
