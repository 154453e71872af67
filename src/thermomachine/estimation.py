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
of a single draw of all M while holding one block per drawing thread in
memory.  Trial t's seed is SeedSequence(master, spawn_key=(t,)) -> first
uint64, independent of execution order, and its stream is
Philox(SeedSequence(seed)).  A study hashes every trial's seed and key in
one pass, SeedSequence's hash on uint32 arrays.  When each trial draws at
least 2^12 words and the study at least 2^22, its trials are split into
contiguous runs, one per CPU the process may run on; the calling thread or
a pool thread draws each run on its own Philox, restarted at each trial's
key, so the counts are independent of the split.

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
import operator
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import MachineConfig, _check_count, _check_range, _params_at
from .dynamics import transient_population
from .metrology import snr_steady, snr_transient

#: Fixed default master seed so bare invocations are reproducible.
DEFAULT_SEED = 0x5EED

#: Lower edge of the search interval, as a fraction of its upper edge; the
#: open end T -> 0 of the prior interval is represented by this point.
_INTERVAL_FLOOR = 1e-12

#: Raw Philox words per draw; one block lives at a time in each drawing thread (two
#: ran 30% slower at M = 1e5); the block size does not set when a study splits.
_DRAW_BLOCK = 2**15

#: A study draws on every usable CPU when each trial draws >= _SPLIT_TRIAL words and the
#: study >= _SPLIT_STUDY.  On a 2-CPU host two threads took 1.04x the serial time at M = 1000
#: (a trial's ~5 us of Python runs under the GIL) and 0.89x at M = 4096; splitting a 1e6-word
#: study at M = 1e4 read 1.008x on its workload's pass, inside the spread, and +0.9 MB peak memory.
_SPLIT_TRIAL, _SPLIT_STUDY = 2**12, 2**22

#: Empirical CRB checks are only meaningful for M >= this (ML regularity).
SMALL_M_THRESHOLD = 1000

#: A study's floor on ``trials``: the empirical spread needs a real ensemble.
MIN_TRIALS = 100


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome counts of M probe energy measurements at fixed p0."""

    m0: int
    M: int
    seed: int

    def __post_init__(self) -> None:
        _check_count("m0", self.m0, 0)
        _check_count("M", self.M, max(self.m0, 1))  # so 0 <= m0 <= M
        _check_count("seed", self.seed, 0)


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
    _check_count("seed", master_seed, 0)
    _check_count("trial", trial, 0)
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(trial,))
    return int(ss.generate_state(1, np.uint64)[0])


def _seed_state(head: list[int], tail: np.ndarray, n64: int) -> np.ndarray:
    """SeedSequence(words).generate_state(n64, np.uint64), one lane per element of ``tail``.

    A lane's uint32 entropy words are ``head``, its uint64's low word and, from 2^32 on,
    its high word.  Lanes stay arrays: uint32 arrays wrap silently, a scalar product warns.
    """
    h, length = 0x43B0D7E5, len(head) + 1 + (tail >> 32 > 0)
    words = [(w + 0 * tail).astype(np.uint32) for w in [*head, tail % 2**32, tail >> 32]]

    def hashmix(v: np.ndarray, multiplier: int = 0x931E8875) -> np.ndarray:
        nonlocal h  # it advances on every call, whatever the data
        v = (v ^ h) * (h := h * multiplier % 2**32)
        return v ^ (v >> 16)

    pool = [hashmix(w) for w in (words + [0 * words[0]] * 4)[:4]]  # zeros pad the pool's 4
    for s in range(max(4, len(words))):  # the pool mixes within, then each later word into all
        for d in (d for d in range(4) if d != s):
            r = pool[d] * 0xCA01F9DD - hashmix(pool[s] if s < 4 else words[s]) * 0x4973F715
            pool[d] = np.where(s < 4 or s < length, r ^ (r >> 16), pool[d])
    h = 0x8B51F9DD
    state = np.stack([hashmix(pool[i % 4], 0x58F38DED) for i in range(2 * n64)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)  # as generate_state joins them


def _trial_seeds(master_seed: int, trials: np.ndarray) -> np.ndarray:
    """trial_seed(master_seed, t) per t of a uint64 array: master's words padded to 4, then t's."""
    n = int(master_seed)
    head = [n >> shift & 0xFFFFFFFF for shift in range(0, max(n.bit_length(), 1), 32)]
    return _seed_state(head + [0] * (4 - len(head)), trials, 1)[:, 0]


def _ground_threshold(p0: float) -> int:
    """The t with  x < t  iff  (x >> 11) 2^-53 < p0,  for every uint64 word x.

    p0 * 2^53 is a power-of-two scaling, so it is exact, as is the uniform;
    t = 2^64 at p0 = 1 does not fit in uint64.
    """
    return math.ceil(p0 * 2.0**53) << 11


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity where the OS reports one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _ground_counts(p0: float, M: int, keys: np.ndarray) -> list[int]:
    """Each trial's m0: the count of M words below p0's threshold, from Philox at its (2,) key.

    The calling thread draws the first run of trials, a pool thread each other run.
    """
    _check_count("M", M, 1)
    _check_range("p0", p0, 0.0, 1.0, closed=True)
    if p0 == 1.0:
        return [M] * len(keys)
    threshold = np.uint64(_ground_threshold(p0))
    sizes = [min(_DRAW_BLOCK, M - start) for start in range(0, M, _DRAW_BLOCK)]

    def draw(run: range) -> list[int]:  # on its own Philox: a shared one's lock serialises them
        bitgen, zeros, counts = np.random.Philox(key=keys[run.start]), np.zeros(4, np.uint64), []
        for t in run:  # restarted as Philox(SeedSequence(seed)) starts
            state = {"counter": zeros, "key": keys[t]}
            bitgen.state = {"bit_generator": "Philox", "state": state, "buffer": zeros,
                            "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
            words = (bitgen.random_raw(n) for n in sizes)
            counts.append(sum(int(np.count_nonzero(x < threshold)) for x in words))
        return counts

    split = M >= _SPLIT_TRIAL and operator.index(M) * len(keys) >= _SPLIT_STUDY  # no numpy product
    n = min(_usable_cpus(), len(keys)) if split else 1  # contiguous runs
    runs = [range(len(keys) * w // n, len(keys) * (w + 1) // n) for w in range(n)]
    if n == 1:  # a serial study builds no pool and starts no thread
        return draw(runs[0])
    from concurrent.futures import ThreadPoolExecutor  # not at module level: it imports logging and queue
    with ThreadPoolExecutor(n) as pool:  # its exit joins every thread, also when a draw raises
        rest = pool.map(draw, runs[1:])
        counts = draw(runs[0])  # on the caller
    return counts + [m0 for run in rest for m0 in run]  # raises a pool thread's error


def sample_measurements(p0: float, M: int, seed: int) -> MeasurementRecord:
    """Draw m0 ~ Binomial(M, p0) from the Philox stream keyed by ``seed``."""
    _check_count("seed", seed, 0)
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)  # Philox(SeedSequence(seed))'s
    (m0,) = _ground_counts(p0, M, key[None])
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
    lo, hi = _checked(interval)
    if monotone:
        if not hasattr(model, "temperature"):
            raise TypeError("monotone=True needs a steady_model, which carries its exact inverse")
        t_hat, clamped = _invert_monotone(record.m0, record.M, model.temperature, lo, hi)
        return float(t_hat), clamped
    t_hat, clamped = _bisect(model, lo, hi, [record.m0], record.M)
    return float(t_hat[0]), bool(clamped[0])


def _checked(interval: tuple[float, float]) -> tuple[float, float]:
    """(lo, hi), refused unless 0 < lo < hi < inf."""
    lo, hi = interval
    _check_range("interval lo", lo, 0.0)
    _check_range("interval hi", hi, lo)
    return lo, hi


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


def _bisect(
    model: Callable[[float], float], lo: float, hi: float, m0s: Sequence[int], M: int
) -> tuple[np.ndarray, np.ndarray]:
    """(T_hat array, clamped array) with model(T_hat) = m0/M for each m0, clamped to [lo, hi].

    The m0 values are Python ints, so each m0/M rounds once at any M.  The
    model is evaluated at the interval ends once; the frequencies strictly
    between them are bisected together on model(T) < m0/M until no midpoint
    lies inside its bracket.  A finished lane is a fixed point
    (model(a) < m0/M <= model(b) held when a and b were set), so each lane
    ends on the midpoint a lone bisection returns.
    """
    p_lo, p_hi = model(lo), model(hi)
    frequency = np.array([m0 / M for m0 in m0s], float)
    t_hat = np.where(frequency <= p_lo, lo, hi)
    inside = ~((frequency <= p_lo) | (frequency >= p_hi))
    f = frequency[inside]
    a, b = np.full_like(f, lo), np.full_like(f, hi)
    while np.count_nonzero((a < (mid := 0.5 * (a + b))) & (mid < b)):
        below = model(mid) < f
        a, b = np.where(below, mid, a), np.where(below, b, mid)
    t_hat[inside] = mid
    return t_hat, ~inside


def steady_model(config: MachineConfig) -> Callable[[float], float]:
    """T -> steady ground population 1 / (1 + e^(eps_s/T - x_v)), other knobs fixed.

    The model carries its exact inverse as ``.temperature(logit)``: the T
    with ln(p0/p1) = logit is eps_s / (x_v - logit), and math.inf when
    logit >= x_v (p0 at or past its T -> inf limit).
    """

    eps_s, x_v = config.eps_s, config.eps_v / config.T_v

    def p0_of(T: float) -> float:
        _check_range("T", T, 0.0)
        return _params_at(eps_s / T, x_v).p0_inf

    p0_of.temperature = lambda logit: eps_s / (x_v - logit) if logit < x_v else math.inf
    return p0_of


def transient_model(config: MachineConfig, k: int, p00: float) -> Callable[[float], float]:
    """T -> probe ground population after k collisions from p00.

    eps_v/T_v is computed once; each call forms (r, p0_inf) from T alone, bit for bit as
    ``collision_params`` would, and a float ndarray T the scalar calls per element, bit for bit.

    The model is non-decreasing in T for every machine, k and p00, which
    ``_bisect`` relies on.  With q_j = (1-r)^j and
    g_k = 1 - q_k - k r q_(k-1) = P(Binomial(k, r) >= 2), the identity
    r p0_inf = p1_s p0_v gives

        d p0_k/dT = lam_inf g_k + k q_(k-1) (dp1_s/dT) [(1-p00) p0_v + p00 p1_v],

    where lam_inf = d p0_inf/dT; every factor is >= 0.
    """
    eps_s, x_v = config.eps_s, config.eps_v / config.T_v

    def p0_of(T: float) -> float:
        _check_range("T", T, 0.0)
        return transient_population(k, p00, _params_at(eps_s / T, x_v))

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
) -> EstimationReport:
    """Run ``trials`` (at least ``MIN_TRIALS``) independent simulate/estimate rounds and aggregate.

    ``k`` = None uses the steady-state model (closed-form inversion); an
    integer k uses the transient model after k collisions from the config's
    initial ground population ``p00``.  Identical inputs give a
    bit-identical report.
    """
    _check_count("trials", trials, MIN_TRIALS)
    _check_count("seed", seed, 0)

    crb = snr_steady(config, M) if k is None else snr_transient(k, config.p00, config, M)
    p_true = crb.p0  # the model at config.T, bit for bit: one closed form on the same floats
    singular = p_true <= 0.0 or p_true >= 1.0
    lo, hi = _checked(prior_interval(config))
    keys = _seed_state([], _trial_seeds(seed, np.arange(trials, dtype=np.uint64)), 2)
    m0 = _ground_counts(p_true, M, keys)
    distinct, index = np.unique(m0, return_inverse=True)
    if k is None:
        temperature = steady_model(config).temperature
        pairs = [_invert_monotone(m, M, temperature, lo, hi) for m in distinct.tolist()]
        t_hat, was_clamped = np.array(pairs, float).T  # clamped reads 1.0, unclamped 0.0
    else:
        model = transient_model(config, k, config.p00)
        t_hat, was_clamped = _bisect(model, lo, hi, distinct.tolist(), M)
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
