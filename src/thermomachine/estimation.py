"""Monte Carlo measurement simulation and maximum-likelihood inversion.

Random number contract
----------------------
All randomness comes from numpy's Philox 4x64 counter-based generator.  A
measurement record is produced by drawing one uniform per measurement and
counting ground outcomes (u < p0), i.e. plain Bernoulli inversion, so a
given (p0, M, seed) triple yields the same counts on every platform that
runs the same numpy stream.  The test is made on Philox's raw 64-bit
words: ``Generator.random`` maps a word x to u = (x >> 11) 2^-53, an exact
product, so u < p0 holds iff x < ceil(p0 2^53) 2^11, and counting words
below that threshold counts the same trials without forming any uniform
(p0 = 1, whose threshold 2^64 exceeds uint64, counts all M).  The words
are drawn from that one stream in blocks of 2^15, which gives the counts
of a single draw of all M while holding one block in memory.  Per-trial
seeds are split from the master seed as
SeedSequence(master, spawn_key=(trial,)) -> first uint64, which makes
trials independent of execution order and safe to run concurrently.

Maximum likelihood
------------------
Both models are non-decreasing in T, so the binomial ML estimate is the
root of p0(T) = m0/M, clamped to the prior interval (Mehboudi, Sanpera &
Correa, J. Phys. A 52, 303001 (2019)): the steady one through its
closed-form inverse, the transient one by bisection to adjacent floats.
An estimate reads only (m0, M), so a study draws every trial's count, then
estimates the distinct counts in one call: the transient bisection steps
them in lockstep on one float array, one model call per step for all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import MachineConfig, _check_count, _check_range, _fixed_point, _params_at
from .core import thermal_population
from .dynamics import transient_population
from .metrology import snr_steady, snr_transient

#: Fixed default master seed so bare invocations are reproducible.
DEFAULT_SEED = 0x5EED

#: Lower edge of the search interval, as a fraction of its upper edge; the
#: open end T -> 0 of the prior interval is represented by this point.
_INTERVAL_FLOOR = 1e-12

#: Raw Philox words per draw in ``sample_measurements``; it caps a trial's memory at any M.
_DRAW_BLOCK = 2**15

#: Empirical CRB checks are only meaningful for M >= this (ML regularity).
SMALL_M_THRESHOLD = 1000


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome counts of M probe energy measurements at fixed p0."""

    m0: int
    M: int
    seed: int

    def __post_init__(self) -> None:
        _check_count("m0", self.m0, 0)
        _check_count("M", self.M, max(self.m0, 1))  # so 0 <= m0 <= M


@dataclass(frozen=True)
class EstimationReport:
    """Aggregate of a simulate/estimate study.

    ``empirical_snr`` is T_true / sample standard deviation of the
    estimates (the statistical-spread reading of the error), ``rmse`` the
    root-mean-square error against T_true for transparency, and
    ``crb_snr`` the Cramer-Rao prediction at the same (model, M).
    """

    t_hat_mean: float
    t_hat_std: float
    rmse: float
    empirical_snr: float
    crb_snr: float
    trials: int
    clamped_fraction: float
    small_m_warning: bool = False
    singular: bool = False


def trial_seed(master_seed: int, trial: int) -> int:
    """Per-trial 64-bit seed split from the master seed (documented above)."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(trial,))
    return int(ss.generate_state(1, np.uint64)[0])


def _ground_threshold(p0: float) -> int:
    """The t with  x < t  iff  (x >> 11) 2^-53 < p0,  for every uint64 word x.

    p0 * 2^53 is a power-of-two scaling, so it is exact, as is the uniform;
    t = 2^64 at p0 = 1 does not fit in uint64.
    """
    return math.ceil(p0 * 2.0**53) << 11


def sample_measurements(p0: float, M: int, seed: int) -> MeasurementRecord:
    """Draw m0 ~ Binomial(M, p0) from the Philox stream keyed by ``seed``."""
    _check_count("M", M, 1)
    _check_range("p0", p0, 0.0, 1.0, closed=True)
    if p0 == 1.0:
        return MeasurementRecord(m0=M, M=M, seed=seed)
    bitgen = np.random.Philox(np.random.SeedSequence(seed))
    threshold = np.uint64(_ground_threshold(p0))
    m0 = 0
    for start in range(0, M, _DRAW_BLOCK):
        m0 += int(np.count_nonzero(bitgen.random_raw(min(_DRAW_BLOCK, M - start)) < threshold))
    return MeasurementRecord(m0=m0, M=M, seed=seed)


def ml_estimate(
    record: MeasurementRecord,
    model: Callable[[float], float],
    interval: tuple[float, float],
    monotone: bool = True,
) -> tuple[float, bool]:
    """Maximum-likelihood temperature from a measurement record.

    ``model`` maps T to the ground probability p0(T) on ``interval``; the
    estimate is clamped to an endpoint when m0/M is at or past p0 there,
    and the flag in the returned (T_hat, clamped) pair says so.

    The ML condition is p0(T_hat) = m0/M.  With ``monotone`` the model must
    be a ``steady_model``, and that condition is solved through its
    closed-form inverse; otherwise it is bisected, which needs a
    non-decreasing model that also takes a float ndarray T, element by
    element, as ``steady_model`` and ``transient_model`` do (the latter's
    docstring derives d p0_k/dT >= 0).
    """
    t_hat, clamped = _estimator(model, interval, monotone)([record.m0], record.M)
    return float(t_hat[0]), bool(clamped[0])


def _invert_monotone(
    m0: int, M: int, temperature: Callable[[float], float], lo: float, hi: float
) -> tuple[float, bool]:
    """T_hat = temperature(ln(m0/m1)), where p0(T_hat) = m0/M, clamped to [lo, hi]."""
    m1 = M - m0
    if m0 == 0:
        return lo, True
    if m1 == 0:
        return hi, True
    # log(m0/m1) rounds once, where log(m0) - log(m1) cancels near m0 = m1. The
    # difference serves ratios past 2^(+-1000) (M > 2^1000): it cannot cancel
    # there, and m0/m1 may leave the normal floats.
    ratio_is_normal = max(m0, m1) < min(m0, m1) << 1000
    t_hat = temperature(math.log(m0 / m1) if ratio_is_normal else math.log(m0) - math.log(m1))
    if t_hat < lo:
        return lo, True
    if t_hat > hi:
        return hi, True
    return t_hat, False


def _estimator(
    model: Callable[[float], float],
    interval: tuple[float, float],
    monotone: bool,
) -> Callable[[Sequence[int], int], tuple[np.ndarray, np.ndarray]]:
    """(m0 values, M) -> (T_hat array, clamped array) for a fixed model.

    The m0 values are Python ints, so each m0/M rounds once at any M.  The
    model is evaluated at the interval ends once, here; the frequencies
    strictly between them are bisected together on model(T) < m0/M until no
    midpoint lies inside its bracket.  A finished lane is a fixed point
    (model(a) < m0/M <= model(b) held when a and b were set), so each lane
    ends on the midpoint a lone bisection returns.
    """
    lo, hi = interval
    _check_range("interval lo", lo, 0.0)
    _check_range("interval hi", hi, lo)
    if monotone:
        temperature = getattr(model, "temperature", None)
        if temperature is None:
            raise TypeError("monotone=True needs a steady_model, which carries its exact inverse")

        def invert(m0s: Sequence[int], M: int) -> tuple[np.ndarray, np.ndarray]:
            pairs = np.array([_invert_monotone(m0, M, temperature, lo, hi) for m0 in m0s], float)
            return pairs[:, 0], pairs[:, 1] == 1.0

        return invert
    p_lo, p_hi = model(lo), model(hi)

    def bisect(m0s: Sequence[int], M: int) -> tuple[np.ndarray, np.ndarray]:
        frequency = np.array([m0 / M for m0 in m0s], float)
        t_hat = np.where(frequency <= p_lo, lo, hi)
        inside = ~((frequency <= p_lo) | (frequency >= p_hi))
        f = frequency[inside]
        a, b = np.full_like(f, lo), np.full_like(f, hi)
        while np.count_nonzero((a < (mid := 0.5 * (a + b))) & (mid < b)):
            below = model(mid) < f
            np.copyto(a, mid, where=below)
            np.copyto(b, mid, where=~below)
        t_hat[inside] = mid
        return t_hat, ~inside

    return bisect


def steady_model(config: MachineConfig) -> Callable[[float], float]:
    """T -> steady ground population 1 / (1 + e^(eps_s/T - x_v)), other knobs fixed.

    The model carries its exact inverse as ``.temperature(logit)``: the T
    with ln(p0/p1) = logit is eps_s / (x_v - logit), and math.inf when
    logit >= x_v (p0 at or past its T -> inf limit).
    """

    eps_s, x_v = config.eps_s, config.eps_v / config.T_v

    def p0_of(T: float) -> float:
        return _fixed_point(eps_s / T, x_v)

    p0_of.temperature = lambda logit: eps_s / (x_v - logit) if logit < x_v else math.inf
    return p0_of


def transient_model(config: MachineConfig, k: int, p00: float) -> Callable[[float], float]:
    """T -> probe ground population after k collisions from p00.

    The ancilla state and eps_v/T_v are computed once; each call forms
    (r, p0_inf) from T alone, bit for bit as ``collision_params`` would.
    A float ndarray T gives the scalar calls element by element, bit for bit.

    The model is non-decreasing in T for every machine, k and p00, which
    the bisection in ``ml_estimate`` relies on.  With q_j = (1-r)^j and
    g_k = 1 - q_k - k r q_(k-1) = P(Binomial(k, r) >= 2), the identity
    r p0_inf = p1_s p0_v gives

        d p0_k/dT = lam_inf g_k + k q_(k-1) (dp1_s/dT) [(1-p00) p0_v + p00 p1_v],

    where lam_inf = d p0_inf/dT; every factor is >= 0.
    """
    eps_s, x_v = config.eps_s, config.eps_v / config.T_v
    ancilla = thermal_population(config.eps_v, config.T_v)

    def p0_of(T: float) -> float:
        _check_range("T", T, 0.0)
        return transient_population(k, p00, _params_at(eps_s / T, ancilla, x_v))

    return p0_of


def prior_interval(config: MachineConfig) -> tuple[float, float]:
    """Numerical search interval for the prior knowledge T in (0, 2 T_prior)."""
    hi = 2.0 * config.T_prior
    return _INTERVAL_FLOOR * hi, hi


def empirical_snr_study(
    config: MachineConfig,
    M: int,
    trials: int,
    seed: int = DEFAULT_SEED,
    k: int | None = None,
    p00: float | None = None,
) -> EstimationReport:
    """Run ``trials`` independent simulate/estimate rounds and aggregate.

    ``k`` = None uses the steady-state model (closed-form inversion); an
    integer k uses the transient model after k collisions from initial
    ground population ``p00`` (default: the config's).  Identical inputs
    give a bit-identical report.  The empirical spread needs a real
    ensemble, hence the floor on ``trials``.
    """
    _check_count("trials", trials, 100)
    if p00 is None:
        p00 = config.p00

    if k is None:
        model, crb = steady_model(config), snr_steady(config, M)
    else:
        model, crb = transient_model(config, k, p00), snr_transient(k, p00, config, M)
    p_true = model(config.T)
    singular = p_true <= 0.0 or p_true >= 1.0
    estimate = _estimator(model, prior_interval(config), monotone=k is None)
    m0 = [sample_measurements(p_true, M, trial_seed(seed, i)).m0 for i in range(trials)]
    distinct, index = np.unique(m0, return_inverse=True)
    t_hat, was_clamped = estimate(distinct.tolist(), M)
    estimates, clamped = t_hat[index], int(np.count_nonzero(was_clamped[index]))

    # Equal estimates have no spread: std and mean would read rounding (~1e-28, 1 ulp).
    spread = estimates.min() < estimates.max()
    std = float(estimates.std(ddof=1)) if spread else 0.0
    rmse = float(np.sqrt(np.mean((estimates - config.T) ** 2)))
    empirical = config.T / std if std > 0.0 else math.inf
    return EstimationReport(
        t_hat_mean=float(estimates.mean()) if spread else float(estimates[0]),
        t_hat_std=std,
        rmse=rmse,
        empirical_snr=empirical,
        crb_snr=crb.snr,
        trials=trials,
        clamped_fraction=clamped / trials,
        small_m_warning=M < SMALL_M_THRESHOLD,
        singular=singular,
    )
