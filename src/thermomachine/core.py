"""Domain types and thermal building blocks for the collisional thermometer.

Unit conventions: a single shared arbitrary energy unit with k_B = hbar = 1,
so temperatures are energies and all Gibbs exponents are plain ratios.
Exponents are always formed as differences of energy/temperature ratios
(never as ratios of exponentials) and fed through a sign-branched logistic,
so populations stay finite and exact at extreme arguments.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np


class GapOrderingWarning(UserWarning):
    """Ancilla bath colder than twice the prior temperature.

    The tuning rule then yields a probe gap smaller than the sample gap.
    Every closed form below remains valid; only the gap-ordering argument
    for ultracold operation is lost.
    """


def libm(fn, x: np.ndarray) -> np.ndarray:
    """The libm function ``fn`` (``math.exp``, ``math.log1p``) per element, bit for bit the
    scalar call; numpy's ``exp`` can be one ulp off, which the k = 1 transient sensitivity
    amplifies some 4,400-fold."""
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _check_range(name: str, x, low: float, high: float = sys.float_info.max, closed: bool = False):
    """Refuse x unless low < x <= high (low <= x <= high if ``closed``), element-wise on arrays.

    NaN fails as written and the default ``high`` refuses +inf; a float (each scalar model
    call) takes no numpy call.
    """
    if isinstance(x, np.ndarray):
        ok = (x >= low if closed else x > low) & (x <= high)
        if ok.all():
            return
        x = x[~ok].flat[0]
    elif (low <= x <= high) if closed else (low < x <= high):
        return
    bottom = f"[{low:g}" if closed else f"({low:g}"
    top = "inf)" if high == sys.float_info.max else f"{high:g}]"
    raise ValueError(f"{name} must be finite and lie in {bottom}, {top}, got {x}")


def _check_count(name: str, value: object, low: int) -> None:
    """Refuse a count that is not an integer >= low (bool and float alike); arrays per element."""
    if isinstance(value, np.ndarray):
        bad = value[~(value >= low)] if value.dtype.kind in "iu" else value.ravel()
        if bad.size == 0:
            return
        value = bad[0].item()
    # __index__ marks a lossless integer, numpy's too, at a fraction of numbers.Integral's cost.
    elif not isinstance(value, bool) and hasattr(value, "__index__") and value >= low:
        return
    raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def stable_logistic(x: float | np.ndarray) -> float | np.ndarray:
    """1 / (1 + e^-x), branched on the sign of x to avoid overflow; arrays per element."""
    # A float skips the ndarray check (~50 ns): every scalar model call passes here.
    if type(x) is not float and isinstance(x, np.ndarray):
        e = libm(math.exp, -np.abs(x))
        return np.where(x >= 0.0, 1.0, e) / (1.0 + e)
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


@dataclass(frozen=True)
class ThermalQubit:
    """Gibbs ground and excited populations of a two-level system."""

    p0: float
    p1: float


def thermal_population(gap: float, temperature: float | np.ndarray) -> ThermalQubit:
    """Thermal ground/excited populations: p0 = 1 / (1 + e^(-gap/T)).

    Parameters
    ----------
    gap : float
        Energy gap, finite, >= 0.
    temperature : float or float array
        Temperature, finite, strictly > 0 (T -> 0 is handled only as analytic
        limits inside the metrology formulas, never as a Gibbs state).
    """
    _check_range("temperature", temperature, 0.0)
    _check_range("gap", gap, 0.0, closed=True)
    x = gap / temperature
    # Both populations from the logistic in their own scale: 1 - p0 would
    # quantize a cold qubit's excited population at the ulp of 1.
    return ThermalQubit(p0=stable_logistic(x), p1=stable_logistic(-x))


@dataclass(frozen=True)
class MachineConfig:
    """Full parameter set of one probe/sample/ancilla machine.

    ``eps_s`` and ``eps_p`` are stored; the ancilla gap is the derived
    property ``eps_v = eps_s + eps_p`` so the three-body resonance holds
    exactly by construction.

    Fields
    ------
    eps_s : sample qubit gap (finite, > 0)
    eps_p : probe gap (finite, >= 0)
    T : sample temperature, the estimand (finite, > 0); a float array is a temperature axis
    T_v : ancilla bath temperature (finite, > 0)
    T_prior : prior temperature, half the assumed upper bound on T (finite, > 0)
    eps_I : three-body coupling strength (finite, > 0); collision time is pi/(2 eps_I)
    p00 : initial probe ground population in [0, 1]
    """

    eps_s: float
    eps_p: float
    T: float
    T_v: float
    T_prior: float
    eps_I: float = 1.0
    p00: float = 1.0

    def __post_init__(self) -> None:
        for name in ("eps_s", "T", "T_v", "T_prior", "eps_I"):
            _check_range(name, getattr(self, name), 0.0)
        _check_range("eps_p", self.eps_p, 0.0, closed=True)
        _check_range("p00", self.p00, 0.0, 1.0, closed=True)

    @property
    def eps_v(self) -> float:
        """Ancilla gap; equals eps_s + eps_p exactly (resonance)."""
        return self.eps_s + self.eps_p

    @property
    def collision_time(self) -> float:
        """Duration of one full-swap collision, pi / (2 eps_I)."""
        return math.pi / (2.0 * self.eps_I)


def tune_config(
    eps_s: float,
    T: float,
    T_prior: float,
    T_v: float,
    eps_I: float = 1.0,
    p00: float = 1.0,
) -> MachineConfig:
    """Build a machine with the ancilla gap set by the prior-temperature rule.

    The ancilla gap is tuned to eps_v = (T_v / T_prior) * eps_s, hence
    eps_p = eps_s * (T_v - T_prior) / T_prior.  T_v >= 2 * T_prior keeps
    eps_p >= eps_s; a smaller bath temperature is flagged with
    :class:`GapOrderingWarning`; a warnings filter can make it an error.
    """
    _check_range("T_prior", T_prior, 0.0)
    _check_range("T_v", T_v, 0.0)
    if T_v < 2.0 * T_prior:
        warnings.warn(
            f"T_v = {T_v} < 2 * T_prior = {2.0 * T_prior}: probe gap falls below the sample gap",
            GapOrderingWarning,
            stacklevel=2,
        )
    if T_v < T_prior:
        raise ValueError("tuning rule requires T_v >= T_prior")
    eps_p = _probe_gap(eps_s, T_v, T_prior)
    return MachineConfig(
        eps_s=eps_s, eps_p=eps_p, T=T, T_v=T_v, T_prior=T_prior, eps_I=eps_I, p00=p00
    )


def _probe_gap(eps_s: float, T_v: float, T_prior: float) -> float:
    """Probe gap eps_s (T_v - T_prior) / T_prior that puts eps_v at (T_v / T_prior) eps_s."""
    return eps_s * (T_v - T_prior) / T_prior


@dataclass(frozen=True)
class CollisionParams:
    """The pair (r, p0_inf) that fully determines the probe dynamics.

    r is the per-collision jump rate and p0_inf the steady ground
    population; the probe map is p0 -> (1 - r) p0 + r p0_inf.
    """

    r: float
    p0_inf: float


def collision_params(config: MachineConfig) -> CollisionParams:
    """Jump rate and fixed point of the collision map for ``config``.

    r = p1_s p0_v + p0_s p1_v from the sample and ancilla Gibbs states;
    p0_inf = 1 / (1 + e^(eps_s/T - eps_v/T_v)).
    """
    ancilla = thermal_population(config.eps_v, config.T_v)
    return _params_at(config.eps_s / config.T, ancilla, config.eps_v / config.T_v)


def _params_at(x_s: float, ancilla: ThermalQubit, x_v: float) -> CollisionParams:
    """(r, p0_inf) at sample exponent x_s = eps_s/T; ancilla and x_v = eps_v/T_v fixed.

    The T-dependent half of :func:`collision_params`, so a model that varies
    only T builds the ancilla state once.  As x_s >= 0, one e = e^(-x_s)
    gives both sample populations, bit for bit the logistics of +-x_s.
    """
    e = libm(math.exp, -x_s) if isinstance(x_s, np.ndarray) else math.exp(-x_s)
    total = 1.0 + e
    sample_p0, sample_p1 = 1.0 / total, e / total
    r = sample_p1 * ancilla.p0 + sample_p0 * ancilla.p1
    return CollisionParams(r=r, p0_inf=_fixed_point(x_s, x_v))


def _fixed_point(x_s: float, x_v: float) -> float:
    """Steady ground population 1 / (1 + e^(x_s - x_v)) from the two Gibbs exponents."""
    return stable_logistic(x_v - x_s)
