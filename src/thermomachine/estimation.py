"""Monte Carlo measurement simulation and maximum-likelihood inversion.

Random number contract
----------------------
All randomness comes from numpy's Philox 4x64 counter-based generator.  A
measurement record is produced by drawing one uniform per measurement and
counting ground outcomes (u < p0), i.e. plain Bernoulli inversion, so a
given (p0, M, seed) triple yields the same counts on every platform that
runs the same numpy stream.  Per-trial seeds are split from the master
seed as  SeedSequence(master, spawn_key=(trial,)) -> first uint64, which
makes trials independent of execution order and safe to run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import MachineConfig, _fixed_point, _params_at, thermal_population
from .dynamics import transient_population
from .metrology import _golden_section_max, snr_steady, snr_transient

#: Fixed default master seed so bare invocations are reproducible.
DEFAULT_SEED = 0x5EED

#: Lower edge of the search interval, as a fraction of its upper edge; the
#: open end T -> 0 of the prior interval is represented by this point.
_INTERVAL_FLOOR = 1e-12

#: Points of the likelihood grid that brackets a transient ML search.
_GRID_POINTS = 1024

#: Empirical CRB checks are only meaningful for M >= this (ML regularity).
SMALL_M_THRESHOLD = 1000


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome counts of M probe energy measurements at fixed p0."""

    m0: int
    M: int
    seed: int

    def __post_init__(self) -> None:
        if not 0 <= self.m0 <= self.M:
            raise ValueError("need 0 <= m0 <= M")


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


def sample_measurements(p0: float, M: int, seed: int) -> MeasurementRecord:
    """Draw m0 ~ Binomial(M, p0) from the Philox stream keyed by ``seed``."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if not 0.0 <= p0 <= 1.0:
        raise ValueError("p0 must lie in [0, 1]")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    m0 = int(np.count_nonzero(rng.random(M) < p0))
    return MeasurementRecord(m0=m0, M=M, seed=seed)


def ml_estimate(
    record: MeasurementRecord,
    model: Callable[[float], float],
    interval: tuple[float, float],
    monotone: bool = True,
) -> tuple[float, bool]:
    """Maximum-likelihood temperature from a measurement record.

    ``model`` maps T to the ground probability p0(T) on ``interval``; the
    estimate is clamped to the interval endpoints when the likelihood peaks
    outside, and the flag in the returned (T_hat, clamped) pair says so.

    With ``monotone`` (the steady-state model) the ML condition
    p0(T_hat) = m0/M is solved by bisection to 5e-13 of the interval width
    (1e-12 T_prior on the canonical prior interval (0, 2 T_prior));
    otherwise (transient models) the binomial log-likelihood is maximized
    on a dense grid and refined by golden-section search.
    """
    return _estimator(model, interval, monotone)(record)


def _invert_monotone(
    record: MeasurementRecord,
    model: Callable[[float], float],
    lo: float,
    hi: float,
) -> tuple[float, bool]:
    target = record.m0 / record.M
    p_lo, p_hi = model(lo), model(hi)
    increasing = p_hi >= p_lo
    if record.m0 == 0 or record.m0 == record.M:
        # Boundary counts: the residual keeps one sign on the whole interval.
        want_high_p0 = record.m0 == record.M
        return (hi, True) if want_high_p0 == increasing else (lo, True)
    f_lo = p_lo - target
    f_hi = p_hi - target
    if not increasing:
        f_lo, f_hi = -f_lo, -f_hi
    if f_lo > 0.0:
        return lo, True
    if f_hi < 0.0:
        return hi, True
    a, b = lo, hi
    tol = 5e-13 * (hi - lo)
    while b - a > tol:
        mid = 0.5 * (a + b)
        f_mid = model(mid) - target
        if not increasing:
            f_mid = -f_mid
        if f_mid <= 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b), False


def _log_terms(p0: float) -> tuple[float, float]:
    """(log p0, log(1 - p0)) through libm, -inf where the probability is 0."""
    return (
        math.log(p0) if p0 > 0.0 else -math.inf,
        math.log1p(-p0) if p0 < 1.0 else -math.inf,
    )


def _log_likelihood(m0: int, m1: int, log_p, log_1mp):
    """Binomial log-likelihood m0 log p0 + m1 log(1 - p0), float or array.

    A term with a zero count is dropped (0 * -inf would be NaN); IEEE
    multiply and add are correctly rounded, so an array gives each
    element's float value bit for bit.
    """
    ll = 0.0
    if m0 > 0:
        ll += m0 * log_p
    if m1 > 0:
        ll += m1 * log_1mp
    return ll


def _estimator(
    model: Callable[[float], float],
    interval: tuple[float, float],
    monotone: bool,
) -> Callable[[MeasurementRecord], tuple[float, bool]]:
    """record -> (T_hat, clamped) for a fixed model.

    The record-free work is done here, once: for the likelihood search,
    the model and its logs on the grid.  Each record then costs one array
    scan plus the golden-section refinement.
    """
    lo, hi = interval
    if not 0.0 < lo < hi:
        raise ValueError("interval must satisfy 0 < lo < hi")
    if monotone:
        return lambda record: _invert_monotone(record, model, lo, hi)
    grid = np.linspace(lo, hi, _GRID_POINTS).tolist()
    log_p, log_1mp = np.array([_log_terms(model(t)) for t in grid]).T.copy()
    tol = 1e-13 * (hi - lo)
    edge = 2e-12 * (hi - lo)

    def estimate(record: MeasurementRecord) -> tuple[float, bool]:
        m0, m1 = record.m0, record.M - record.m0
        best = int(np.argmax(_log_likelihood(m0, m1, log_p, log_1mp)))
        a, b = grid[max(best - 1, 0)], grid[min(best + 1, _GRID_POINTS - 1)]
        f = lambda t: _log_likelihood(m0, m1, *_log_terms(model(t)))  # noqa: E731
        a, b = _golden_section_max(f, a, b, lambda b: tol, 120)
        t_hat = 0.5 * (a + b)
        clamped = t_hat <= lo + edge or t_hat >= hi - edge
        if clamped:
            t_hat = lo if t_hat <= lo + edge else hi
        return t_hat, clamped

    return estimate


def steady_model(config: MachineConfig) -> Callable[[float], float]:
    """T -> steady ground population, with all other machine knobs fixed."""

    eps_s, x_v = config.eps_s, config.eps_v / config.T_v

    def p0_of(T: float) -> float:
        return _fixed_point(eps_s / T, x_v)

    return p0_of


def transient_model(config: MachineConfig, k: int, p00: float) -> Callable[[float], float]:
    """T -> probe ground population after k collisions from p00.

    The ancilla state and eps_v/T_v are computed once; each call forms
    (r, p0_inf) from T alone, bit for bit as ``collision_params`` would.
    """
    eps_s, x_v = config.eps_s, config.eps_v / config.T_v
    ancilla = thermal_population(config.eps_v, config.T_v)

    def p0_of(T: float) -> float:
        if not T > 0.0:
            raise ValueError(f"temperature must be > 0, got {T}")
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

    ``k`` = None uses the steady-state model (monotone inversion); an
    integer k uses the transient model after k collisions from initial
    ground population ``p00`` (default: the config's).  Identical inputs
    give a bit-identical report.  The empirical spread needs a real
    ensemble, hence the floor on ``trials``.
    """
    if trials < 100:
        raise ValueError("trials must be >= 100")
    if p00 is None:
        p00 = config.p00

    if k is None:
        model, crb = steady_model(config), snr_steady(config, M)
    else:
        model, crb = transient_model(config, k, p00), snr_transient(k, p00, config, M)
    p_true = model(config.T)
    singular = p_true <= 0.0 or p_true >= 1.0
    estimate = _estimator(model, prior_interval(config), monotone=k is None)
    estimates = np.empty(trials)
    clamped = 0
    for i in range(trials):
        t_hat, was_clamped = estimate(sample_measurements(p_true, M, trial_seed(seed, i)))
        estimates[i] = t_hat
        clamped += was_clamped

    std = float(estimates.std(ddof=1)) if trials > 1 else 0.0
    rmse = float(np.sqrt(np.mean((estimates - config.T) ** 2)))
    empirical = config.T / std if std > 0.0 else math.inf
    return EstimationReport(
        t_hat_mean=float(estimates.mean()),
        t_hat_std=std,
        rmse=rmse,
        empirical_snr=empirical,
        crb_snr=crb.snr,
        trials=trials,
        clamped_fraction=clamped / trials,
        small_m_warning=M < SMALL_M_THRESHOLD,
        singular=singular,
    )
