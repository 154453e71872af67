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


def libm(fn, x: float | np.ndarray) -> float | np.ndarray:
    """libm's ``fn`` (``math.exp``, ``math.expm1``, ``math.log1p``) of a float, or per array element
    bit for bit; numpy's ``exp`` can be one ulp off, which the k = 1 transient sensitivity amplifies
    some 4,400-fold.  The one place that tells a float from an array: formulas have one path."""
    if isinstance(x, np.ndarray):
        return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return fn(x)


def _check_range(name: str, x, low: float, high: float = sys.float_info.max, closed: bool = False):
    """Refuse x unless low < x <= high (low <= x <= high if ``closed``), element-wise on arrays.

    NaN fails as written and the default ``high`` refuses +inf; a float (a scalar call, as
    the oracle's or a model's at _bisect's two interval ends) takes no numpy call.
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
        value = bad[:1].tolist()[0]  # an object array holds Python ints, which have no .item()
    # __index__ marks a lossless integer, numpy's too, at a fraction of numbers.Integral's cost.
    elif not isinstance(value, bool) and hasattr(value, "__index__") and value >= low:
        return
    raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def stable_logistic(x: float | np.ndarray) -> float | np.ndarray:
    """1 / (1 + e^-x), with no overflow at any x; arrays per element."""
    e = libm(math.exp, -abs(x))
    # e ** (x < 0.0) is e where x < 0 and 1.0 elsewhere: pow is exact at exponents 1 and 0.
    return e ** (x < 0.0) / (1.0 + e)


def _gibbs_pair(x: float | np.ndarray) -> tuple:
    """(stable_logistic(x), stable_logistic(-x)) bit for bit at an exponent x >= 0 (-0.0 too),
    from one exp and with no sign select."""
    e = libm(math.exp, -x)
    total = 1.0 + e
    return 1.0 / total, e / total


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
    return ThermalQubit(*_gibbs_pair(gap / temperature))


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
        # The oracle's top level eps_p + eps_s + eps_v is 2 (eps_s + eps_p): finite exactly where
        # the halves (exact there) sum to at most max / 4, warning-free.
        half = 0.5 * self.eps_s + 0.5 * self.eps_p
        _check_range("(eps_s + eps_p) / 2", half, 0.0, 0.25 * sys.float_info.max, closed=True)

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
    """Build a machine tuned by the prior-temperature rule eps_v = (T_v / T_prior) eps_s, which
    needs the ancilla bath at or above the prior temperature (:func:`_probe_gap`).

    T_v >= 2 T_prior keeps eps_p >= eps_s; a colder bath is flagged with
    :class:`GapOrderingWarning` (a warnings filter can make it an error).  Array fields
    give one machine per lane, each bit for bit the float call, and one warning for all.
    """
    eps_p = _probe_gap(eps_s, T_v, T_prior)
    if not np.asarray(T_v >= 2.0 * T_prior).all():
        warnings.warn(
            f"T_v = {T_v} < 2 * T_prior = {2.0 * T_prior}: probe gap falls below the sample gap",
            GapOrderingWarning,
            stacklevel=2,
        )
    return MachineConfig(
        eps_s=eps_s, eps_p=eps_p, T=T, T_v=T_v, T_prior=T_prior, eps_I=eps_I, p00=p00
    )


def _probe_gap(eps_s: float, T_v: float, T_prior: float, name: str = "T_v") -> float:
    """The tuning rule's one statement: probe gap eps_s (T_v - T_prior) / T_prior, where the bath
    temperature ``name`` it tunes with lies at or above the prior temperature (half the bound on
    T), both finite and > 0; arrays per element."""
    _check_range("T_prior", T_prior, 0.0)
    _check_range(name, T_v, 0.0)
    if not np.asarray(T_v >= T_prior).all():
        raise ValueError(f"tuning rule requires {name} >= T_prior, got {T_v} < {T_prior}")
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
    """(r, p0_inf) at sample exponent x_s = eps_s/T >= 0; ancilla and x_v = eps_v/T_v fixed.

    The T-dependent half of :func:`collision_params`, so a model that varies
    only T builds the ancilla state once.  A float array x_s gives array-valued
    params, each element bit for bit the float call.
    """
    sample_p0, sample_p1 = _gibbs_pair(x_s)
    r = sample_p1 * ancilla.p0 + sample_p0 * ancilla.p1
    return CollisionParams(r=r, p0_inf=stable_logistic(x_v - x_s))  # 1 / (1 + e^(x_s - x_v))
