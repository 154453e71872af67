"""Reproducible sampling and maximum-likelihood estimation."""

from __future__ import annotations

import functools
import math
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermomachine import (
    EstimationReport,
    MachineConfig,
    MeasurementRecord,
    collision_params,
    empirical_snr_study,
    ml_estimate,
    prior_interval,
    sample_measurements,
    steady_model,
    steady_population,
    transient_model,
    transient_population,
    trial_seed,
    tune_config,
)
from thermomachine import estimation
from thermomachine.estimation import SMALL_M_THRESHOLD
from thermomachine.metrology import snr_steady, snr_transient


@pytest.fixture
def config():
    return tune_config(eps_s=1.0, T=0.2, T_prior=0.25, T_v=1.0)


def test_degenerate_probabilities():
    assert sample_measurements(1.0, 50, seed=1).m0 == 50
    assert sample_measurements(0.0, 50, seed=1).m0 == 0


def test_sampling_is_reproducible():
    a = sample_measurements(0.37, 10_000, seed=42)
    b = sample_measurements(0.37, 10_000, seed=42)
    c = sample_measurements(0.37, 10_000, seed=43)
    assert a == b
    assert a.m0 != c.m0 or a.seed != c.seed


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_fair_coin_within_three_sigma(seed):
    record = sample_measurements(0.5, 10**6, seed=seed)
    assert 0.4985 <= record.m0 / record.M <= 0.5015


#: Ground probabilities at the edges of the 2^-53 grid that ``Generator.random`` draws on.
EDGE_P0 = [
    0.0,
    5e-324,
    2.0**-54,
    2.0**-53,
    3 * 2.0**-54,
    math.nextafter(0.5, 0.0),
    0.5,
    math.nextafter(0.5, 1.0),
    1.0 - 2.0**-53,
    1.0,
]


@pytest.mark.parametrize("M", [1, 2**15 - 1, 2**15, 2**15 + 1, 10**5])
def test_block_draws_count_what_one_draw_of_all_m_counts(M):
    def one_shot_m0(p0, seed):  # the single-draw form, kept as the reference
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        return int(np.count_nonzero(rng.random(M) < p0))

    p0s = [0.0, 0.37, 0.5, 0.999, 1.0, *np.linspace(0.01, 0.99, 7), *EDGE_P0]
    for i, p0 in enumerate(p0s):
        seed = trial_seed(0x5EED, i)
        assert sample_measurements(float(p0), M, seed).m0 == one_shot_m0(float(p0), seed)


@pytest.mark.parametrize("p0", EDGE_P0)
def test_raw_word_threshold_is_the_uniform_test(p0):
    t = estimation._ground_threshold(p0)
    words = [0, t - 2**11, t - 1, t, t + 1, t + 2**11 - 1, t + 2**11, 2**64 - 1]
    for x in sorted({min(max(x, 0), 2**64 - 1) for x in words}):
        assert (x < t) == ((x >> 11) * 2.0**-53 < p0), (p0, x)
        if t < 2**64:  # the uint64 comparison that sample_measurements makes
            assert bool(np.uint64(x) < np.uint64(t)) == (x < t), (p0, x)


def test_generator_uniform_is_the_top_53_bits_of_the_raw_word():
    seed = trial_seed(0x5EED, 0)
    u = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))).random(4099)
    x = np.random.Philox(np.random.SeedSequence(seed)).random_raw(4099)
    assert np.array_equal(u, (x >> np.uint64(11)) * 2.0**-53)


def test_a_uniform_equal_to_p0_is_not_a_ground_outcome():
    M, seed = 2**15 + 7, trial_seed(0x5EED, 1)
    x = np.random.Philox(np.random.SeedSequence(seed)).random_raw(M)
    u = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))).random(M)
    on_threshold = np.flatnonzero(x % 2**11 == 0)  # words equal to the threshold of their u
    assert on_threshold.size > 0
    for p0 in u[on_threshold[:4]].tolist():
        for q in (p0, math.nextafter(p0, 0.0), math.nextafter(p0, 1.0)):
            assert sample_measurements(q, M, seed).m0 == int(np.count_nonzero(u < q))


@pytest.mark.parametrize("p0", [0.5, 1.0])
def test_sample_size_must_be_a_positive_integer(p0):
    for M in (1000.0, True, False, 0, -3, 2.5, "1000"):
        with pytest.raises(ValueError, match="M must be an integer >= 1"):
            sample_measurements(p0, M, 1)
    for M in (np.int64(1000), np.uint16(1000)):
        assert sample_measurements(p0, M, 1) == sample_measurements(p0, 1000, 1)


def test_trial_seed_splitting_is_stable():
    seeds = [trial_seed(0x5EED, i) for i in range(5)]
    assert len(set(seeds)) == 5
    assert seeds == [trial_seed(0x5EED, i) for i in range(5)]


def test_record_validation():
    from thermomachine import MeasurementRecord

    with pytest.raises(ValueError):
        MeasurementRecord(m0=5, M=3, seed=0)
    for m0, M in ((True, 2), (1, True), (3.7, 10), (1, 2.5), (0, 0), (-1, 5), (1, "2")):
        with pytest.raises(ValueError, match="must be an integer"):
            MeasurementRecord(m0=m0, M=M, seed=0)
    assert MeasurementRecord(np.int64(3), np.uint16(5), 0) == MeasurementRecord(3, 5, 0)
    with pytest.raises(ValueError):
        sample_measurements(1.2, 10, seed=0)
    with pytest.raises(ValueError):
        sample_measurements(0.5, 0, seed=0)


def test_a_bool_or_fractional_count_is_not_estimated(config):
    # Such a record used to be estimated from: this call returned (0.227, False).
    with pytest.raises(ValueError, match="m0 must be an integer >= 0, got True"):
        record = MeasurementRecord(m0=True, M=2.5, seed=0)
        ml_estimate(record, steady_model(config), prior_interval(config))


def test_ml_steady_inverts_exactly(config):
    from thermomachine import MeasurementRecord

    model = steady_model(config)
    interval = prior_interval(config)
    record = MeasurementRecord(m0=314, M=1000, seed=0)
    t_hat, clamped = ml_estimate(record, model, interval)
    assert not clamped
    assert model(t_hat) == pytest.approx(0.314, abs=1e-12)


def test_ml_steady_recovers_prior_at_half(config):
    from thermomachine import MeasurementRecord

    t_hat, clamped = ml_estimate(
        MeasurementRecord(m0=500, M=1000, seed=0),
        steady_model(config),
        prior_interval(config),
    )
    assert not clamped
    assert t_hat == pytest.approx(config.T_prior, rel=1e-9)


def test_ml_steady_clamps_boundary_counts(config):
    from thermomachine import MeasurementRecord

    model = steady_model(config)
    lo, hi = prior_interval(config)
    t_low, clamped_low = ml_estimate(MeasurementRecord(0, 1000, 0), model, (lo, hi))
    t_high, clamped_high = ml_estimate(MeasurementRecord(1000, 1000, 0), model, (lo, hi))
    assert clamped_low and t_low == lo
    assert clamped_high and t_high == hi


def test_ml_steady_clamps_out_of_range_frequency(config):
    from thermomachine import MeasurementRecord

    model = steady_model(config)
    lo, hi = prior_interval(config)
    # m0/M above p0_inf(2 T_prior): no solution inside, must clamp high.
    assert model(hi) < 0.999
    t_hat, clamped = ml_estimate(MeasurementRecord(999, 1000, 0), model, (lo, hi))
    assert clamped and t_hat == hi


def decimal_steady_temperature(config, m0, M):
    """eps_s / (x_v - ln(m0/m1)) at 40 digits, from the float eps_s and x_v the model forms."""
    with localcontext() as ctx:
        ctx.prec = 40
        logit = (Decimal(m0) / Decimal(M - m0)).ln()
        return Decimal(config.eps_s) / (Decimal(config.eps_v / config.T_v) - logit)


@pytest.mark.parametrize("M", [10**3, 10**4, 10**6])
def test_ml_steady_is_the_closed_form_to_1e15(config, M):
    model = steady_model(config)
    lo, hi = prior_interval(config)
    top = math.floor(model(hi) * M)  # the largest m0 whose estimate lies inside
    p_true = int(steady_population(config) * M)
    counts = {1, 2, M // 2, top - 1, top, *range(p_true - 3, p_true + 4)}
    counts.update(np.linspace(1, top, 97).astype(int).tolist())
    for m0 in sorted(counts):
        t_hat, clamped = ml_estimate(MeasurementRecord(m0, M, 0), model, (lo, hi))
        want = decimal_steady_temperature(config, m0, M)
        assert not clamped and abs(Decimal(t_hat) - want) <= Decimal("1e-15") * want, (M, m0)


@pytest.mark.parametrize("M", [10**3, 10**4, 10**6])
def test_ml_steady_clamps_where_the_bisection_clamped(config, M):
    # The bisection clamped to lo when m0/M < p0(lo), to hi when m0/M > p0(hi),
    # and at the boundary counts m0 = 0 (lo) and m0 = M (hi).
    model = steady_model(config)
    lo, hi = prior_interval(config)
    top = math.floor(model(hi) * M)
    for m0 in sorted({0, 1, *range(top - 3, top + 4), M - 1, M}):
        got = ml_estimate(MeasurementRecord(m0, M, 0), model, (lo, hi))
        if m0 == 0 or m0 / M < model(lo):
            assert got == (lo, True), (M, m0)
        elif m0 == M or m0 / M > model(hi):
            assert got == (hi, True), (M, m0)
        else:
            assert not got[1] and lo < got[0] < hi, (M, m0)


def test_ml_steady_reads_counts_past_float_range(config):
    # The estimate takes log(m0) - log(m1) once m0/m1 is past 2^(+-1000) ~ 9.3e-302:
    # 10^-302 is, 10^-301 is not. At m0 = 1 the bisection read m0/M as 0.0 and
    # returned 1.33e-3.
    model, interval = steady_model(config), prior_interval(config)
    M = 10**400
    for m0 in (1, 10**98, 10**99, M // 2 - 10**386, M // 2):
        t_hat, clamped = ml_estimate(MeasurementRecord(m0, M, 0), model, interval)
        want = decimal_steady_temperature(config, m0, M)
        assert not clamped and abs(Decimal(t_hat) - want) <= Decimal("1e-15") * want, m0
    assert ml_estimate(MeasurementRecord(M - 1, M, 0), model, interval) == (interval[1], True)


def test_steady_inverse_is_infinite_from_the_hot_limit(config):
    # p0/p1 -> e^(x_v) as T -> inf, so a logit at or past x_v has no finite T.
    temperature = steady_model(config).temperature
    x_v = config.eps_v / config.T_v
    assert temperature(x_v) == temperature(x_v + 1.0) == math.inf
    assert 1e15 < temperature(math.nextafter(x_v, 0.0)) < math.inf


def test_monotone_estimate_needs_the_steady_inverse(config):
    with pytest.raises(TypeError, match="steady_model"):
        ml_estimate(MeasurementRecord(1, 2, 0), transient_model(config, 5, 1.0), prior_interval(config))


def test_ml_transient_matches_steady_when_converged(config):
    from thermomachine import MeasurementRecord

    record = MeasurementRecord(m0=3100, M=10_000, seed=0)
    interval = prior_interval(config)
    t_bisect, _ = ml_estimate(
        record, transient_model(config, k=4000, p00=1.0), interval, monotone=False
    )
    t_mono, _ = ml_estimate(record, steady_model(config), interval)
    assert t_bisect == pytest.approx(t_mono, rel=1e-6)


def test_ml_interval_validation(config):
    from thermomachine import MeasurementRecord

    with pytest.raises(ValueError):
        ml_estimate(MeasurementRecord(1, 2, 0), steady_model(config), (0.0, 0.5))


def test_study_mean_unbiased_at_desk_scale(config):
    report = empirical_snr_study(config, M=10_000, trials=1000, seed=0x5EED)
    assert report.t_hat_mean == pytest.approx(0.2, rel=0.01)
    assert report.clamped_fraction == 0.0
    assert not report.small_m_warning


def test_study_bit_identical_reruns(config):
    a = empirical_snr_study(config, M=2000, trials=120, seed=77)
    b = empirical_snr_study(config, M=2000, trials=120, seed=77)
    assert a == b
    c = empirical_snr_study(config, M=2000, trials=120, seed=78)
    assert a != c


def test_study_consistency_across_m(config):
    # sqrt(M)-normalized spread stays flat as M grows.
    per_sqrt_m = []
    for m in (10**3, 10**4, 10**5):
        report = empirical_snr_study(config, M=m, trials=250, seed=11)
        per_sqrt_m.append(report.empirical_snr / math.sqrt(m))
    for value in per_sqrt_m[1:]:
        assert value == pytest.approx(per_sqrt_m[0], rel=0.2)


def test_study_small_m_flag(config):
    report = empirical_snr_study(config, M=1, trials=150, seed=5)
    assert report.small_m_warning


def test_study_requires_a_real_ensemble(config):
    with pytest.raises(ValueError):
        empirical_snr_study(config, M=1000, trials=99, seed=5)


def test_study_transient_model_near_crb():
    config = tune_config(eps_s=1.0, T=0.25, T_prior=0.25, T_v=1.0, p00=1.0)
    report = empirical_snr_study(config, M=4000, trials=300, seed=21, k=60, p00=1.0)
    assert report.clamped_fraction < 0.05
    assert report.empirical_snr == pytest.approx(report.crb_snr, rel=0.12)


def test_thermal_baseline_regime():
    # Bath at the sample temperature with eps_p = eps_s: the probe is thermal.
    # At eps_s/T = 11 the excited counts are Poisson with mean M exp(-11), so
    # at M = 1e4 most runs see zero excited outcomes: the estimator clamps and
    # its spread does not track the Cramer-Rao width (the exact CRB column and
    # the clamped-fraction accounting are what the report guarantees here).
    T = 1.0 / 11.0
    config = MachineConfig(eps_s=1.0, eps_p=1.0, T=T, T_v=T, T_prior=T)
    p_true = steady_population(config)
    assert p_true == pytest.approx(1.0 / (1.0 + math.exp(-11.0)), rel=1e-14)

    report = empirical_snr_study(config, M=10_000, trials=400, seed=9)
    # CRB column reproduces sqrt(M p0 p1) / T, i.e. the thermal closed form.
    expected_crb = math.sqrt(10_000 * p_true * (1.0 - p_true)) / T
    assert report.crb_snr == pytest.approx(expected_crb, rel=1e-10)
    assert report.clamped_fraction > 0.5
    assert report.empirical_snr != pytest.approx(report.crb_snr, rel=0.10)


def test_thermal_baseline_converges_with_enough_counts():
    # Same machine at a gentler gap ratio: counts are plentiful and the
    # empirical spread does match the thermal CRB within 10 percent.
    T = 0.25
    config = MachineConfig(eps_s=1.0, eps_p=1.0, T=T, T_v=T, T_prior=T)
    report = empirical_snr_study(config, M=10_000, trials=400, seed=13)
    assert report.clamped_fraction == 0.0
    assert report.empirical_snr == pytest.approx(report.crb_snr, rel=0.10)


def test_trial_aggregation_is_order_independent(config):
    # Per-trial seeds are split from the master, so evaluating trials in any
    # order reproduces the study's spread and mean exactly.
    import math as _math

    from thermomachine import sample_measurements

    trials, M = 120, 1500
    p_true = steady_population(config)
    model = steady_model(config)
    interval = prior_interval(config)
    estimates = []
    for i in reversed(range(trials)):
        record = sample_measurements(p_true, M, trial_seed(0xFEED, i))
        estimates.append(ml_estimate(record, model, interval)[0])
    mean = sum(estimates) / trials
    var = sum((t - mean) ** 2 for t in estimates) / (trials - 1)

    report = empirical_snr_study(config, M=M, trials=trials, seed=0xFEED)
    assert report.t_hat_mean == pytest.approx(mean, rel=1e-12)
    assert report.t_hat_std == pytest.approx(_math.sqrt(var), rel=1e-9)


def test_clamped_fraction_vanishes_with_m(config):
    small = empirical_snr_study(config, M=100, trials=200, seed=3)
    large = empirical_snr_study(config, M=10_000, trials=200, seed=3)
    assert large.clamped_fraction <= small.clamped_fraction
    assert large.clamped_fraction == 0.0


def fresh_estimate_study(config, M, trials, seed, k=None):
    """The study with its own ``ml_estimate`` for every trial, the reference for sharing by m0.

    Returns the report and the m0 every trial drew.
    """
    p00 = config.p00
    if k is None:
        model, crb = steady_model(config), snr_steady(config, M)
    else:
        model, crb = transient_model(config, k, p00), snr_transient(k, p00, config, M)
    p_true = model(config.T)
    records = [sample_measurements(p_true, M, trial_seed(seed, i)) for i in range(trials)]
    estimates, clamped = np.empty(trials), 0
    for i, record in enumerate(records):
        estimates[i], was_clamped = ml_estimate(
            record, model, prior_interval(config), monotone=k is None
        )
        clamped += was_clamped
    std = float(estimates.std(ddof=1))
    report = EstimationReport(
        t_hat_mean=float(estimates.mean()),
        t_hat_std=std,
        rmse=float(np.sqrt(np.mean((estimates - config.T) ** 2))),
        empirical_snr=config.T / std if std > 0.0 else math.inf,
        crb_snr=crb.snr,
        trials=trials,
        clamped_fraction=clamped / trials,
        small_m_warning=M < SMALL_M_THRESHOLD,
        singular=p_true <= 0.0 or p_true >= 1.0,
    )
    return report, [record.m0 for record in records]


@pytest.mark.parametrize("M, trials, k", [(1000, 1000, None), (100, 300, None), (1000, 100, 50)])
def test_study_estimates_each_distinct_m0_once(config, monkeypatch, M, trials, k):
    reference, drawn = fresh_estimate_study(config, M, trials, 0x5EED, k)
    calls = []
    build = estimation._estimator

    def counting_estimator(model, interval, monotone):
        estimate = build(model, interval, monotone)

        def counted(m0s, M):
            calls.append(list(m0s))
            return estimate(m0s, M)

        return counted

    monkeypatch.setattr(estimation, "_estimator", counting_estimator)
    report = empirical_snr_study(config, M=M, trials=trials, seed=0x5EED, k=k)
    assert len(calls) == 1  # one batch call per study
    assert sorted(calls[0]) == sorted(set(drawn)) and len(set(drawn)) < trials
    assert report == reference


# ----------------------------------------------------------------------
# Reference: the per-call transient path (config rebuilt at every T),
# bisected by a loop written here, against which the study's shared cheap
# model must agree bit for bit.
# ----------------------------------------------------------------------


def reference_model(config, k, p00):
    # Memoized by T only to keep the suite fast; every value is still
    # computed once through collision_params(replace(config, T=T)).
    @functools.lru_cache(maxsize=None)
    def p0_of(T):
        return transient_population(k, p00, collision_params(replace(config, T=T)))

    return p0_of


def reference_estimate(record, model, lo, hi):
    """Root of model(T) = m0/M, clamped to [lo, hi], bisected to adjacent floats."""
    frequency = record.m0 / record.M
    if frequency <= model(lo):
        return lo, True
    if frequency >= model(hi):
        return hi, True
    a, b = lo, hi
    while True:
        mid = 0.5 * (a + b)
        if mid in (a, b):
            return mid, False
        a, b = (mid, b) if model(mid) < frequency else (a, mid)


def golden_section_max(f, a, b, tol, max_iter):
    """Golden-section bracket [a, b] of the maximum of a unimodal ``f``."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
        if b - a < tol:
            break
    return a, b


def reference_log_likelihood(record, p0):
    m0, m1 = record.m0, record.M - record.m0
    ll = 0.0
    if m0 > 0:
        if p0 <= 0.0:
            return -math.inf
        ll += m0 * math.log(p0)
    if m1 > 0:
        if p0 >= 1.0:
            return -math.inf
        ll += m1 * math.log1p(-p0)
    return ll


def grid_golden_estimate(record, model, lo, hi, grid_points=1024):
    """The earlier transient estimator: likelihood grid, then golden-section refinement."""
    grid = np.linspace(lo, hi, grid_points)
    values = [reference_log_likelihood(record, model(t)) for t in grid]
    best = int(np.argmax(values))
    a, b = grid[max(best - 1, 0)], grid[min(best + 1, grid_points - 1)]
    f = lambda t: reference_log_likelihood(record, model(t))  # noqa: E731
    a, b = golden_section_max(f, a, b, 1e-13 * (hi - lo), 120)
    t_hat = 0.5 * (a + b)
    edge = 2e-12 * (hi - lo)
    clamped = t_hat <= lo + edge or t_hat >= hi - edge
    if clamped:
        t_hat = lo if t_hat <= lo + edge else hi
    return t_hat, clamped


def reference_study(config, M, trials, seed, k, p00):
    p_true = transient_population(k, p00, collision_params(config))
    model = reference_model(config, k, p00)
    lo, hi = prior_interval(config)
    results = [
        reference_estimate(sample_measurements(p_true, M, trial_seed(seed, i)), model, lo, hi)
        for i in range(trials)
    ]
    estimates = np.array([t for t, _ in results])
    return (
        float(estimates.mean()),
        float(estimates.std(ddof=1)),
        float(np.sqrt(np.mean((estimates - config.T) ** 2))),
        sum(c for _, c in results) / trials,
    )


STUDY_MACHINES = {
    50: (dict(eps_s=1.0, T=0.2, T_prior=0.25, T_v=1.0), 10_000, 0x5EED),
    60: (dict(eps_s=1.0, T=0.25, T_prior=0.25, T_v=1.0), 4000, 21),
}

#: Ancilla so cold that (1-r)^k rounds to 1 near T -> 0: p0 reaches exactly
#: p00 at the interval's low end (and is 1.0 on the whole interval at p00 = 1).
COLD_ANCILLA = MachineConfig(eps_s=1.0, eps_p=1.0, T=0.2, T_v=0.02, T_prior=0.25)


@pytest.mark.parametrize("p00", [0.0, 1.0])
@pytest.mark.parametrize("k", [50, 60])
def test_transient_study_equals_per_call_reference(k, p00):
    machine, M, seed = STUDY_MACHINES[k]
    config = tune_config(**machine)
    report = empirical_snr_study(config, M=M, trials=100, seed=seed, k=k, p00=p00)
    mean, std, rmse, clamped = reference_study(config, M, 100, seed, k, p00)
    assert (report.t_hat_mean, report.t_hat_std, report.rmse) == (mean, std, rmse)
    assert report.clamped_fraction == clamped


@pytest.mark.parametrize("p00", [0.0, 1.0])
@pytest.mark.parametrize(
    "config, k",
    [
        (tune_config(**STUDY_MACHINES[50][0]), 50),
        (tune_config(**STUDY_MACHINES[60][0]), 60),
        (COLD_ANCILLA, 5),
    ],
)
def test_ml_estimate_equals_per_call_reference(config, k, p00):
    model = transient_model(config, k, p00)
    reference = reference_model(config, k, p00)
    lo, hi = prior_interval(config)
    for M in (7, 1000):
        for m0 in sorted({0, 1, 2, M // 3, M // 2, M - 2, M - 1, M}):
            record = MeasurementRecord(m0, M, 0)
            got = ml_estimate(record, model, (lo, hi), monotone=False)
            assert got == reference_estimate(record, reference, lo, hi), (M, m0)


def test_clamped_edge_record_equals_reference():
    config = tune_config(**STUDY_MACHINES[60][0])
    model, reference = transient_model(config, 60, 1.0), reference_model(config, 60, 1.0)
    lo, hi = prior_interval(config)
    record = MeasurementRecord(1000, 1000, 0)
    t_hat, clamped = ml_estimate(record, model, (lo, hi), monotone=False)
    assert clamped and t_hat == hi
    assert (t_hat, clamped) == reference_estimate(record, reference, lo, hi)


@pytest.mark.parametrize("p00", [0.0, 1.0])
@pytest.mark.parametrize("k", [50, 60])
def test_one_batch_call_equals_the_per_record_reference(k, p00):
    config = tune_config(**STUDY_MACHINES[k][0])
    model, reference = transient_model(config, k, p00), reference_model(config, k, p00)
    lo, hi = prior_interval(config)
    M = 1000
    # Counts at and just inside each clamp, 0 and M, and repeats in no order.
    low, high = math.floor(model(lo) * M), math.ceil(model(hi) * M)
    counts = [M // 2, 0, high, M, low, low + 1, high - 1, M // 2, 0, M, high, 1, M - 1, low]
    t_hat, clamped = estimation._estimator(model, (lo, hi), monotone=False)(counts, M)
    want = [reference_estimate(MeasurementRecord(m0, M, 0), reference, lo, hi) for m0 in counts]
    assert t_hat.tolist() == [t for t, _ in want]
    assert clamped.tolist() == [c for _, c in want]
    assert lo in t_hat and hi in t_hat and not clamped.all()


def test_transient_frequency_past_2_53_is_rounded_once():
    # m0/M of the Python ints rounds once; float(m0) / float(M) rounds three times,
    # which moves this root by one ulp.
    config = tune_config(**STUDY_MACHINES[50][0])
    model, reference = transient_model(config, 50, 1.0), reference_model(config, 50, 1.0)
    lo, hi = prior_interval(config)
    m0, M = 1287881513619328512, 2301474159646987124
    assert m0 / M != float(m0) / float(M)
    t_hat, clamped = estimation._estimator(model, (lo, hi), monotone=False)([m0], M)
    want = reference_estimate(MeasurementRecord(m0, M, 0), reference, lo, hi)
    assert (t_hat.tolist(), clamped.tolist()) == ([want[0]], [want[1]])


#: The transient estimates that perfbench recomputes with grid+golden must stay within this * T.
TRANSIENT_TOL = 1e-7


def transient_records(M):
    counts = {0, 1, 2, M // 3, M // 2, M - 2, M - 1, M}
    counts.update(np.linspace(1, M - 1, 15).astype(int).tolist())
    return [MeasurementRecord(m0, M, 0) for m0 in sorted(counts)]


@pytest.mark.parametrize("p00", [0.0, 1.0])
@pytest.mark.parametrize("k", [50, 60])
def test_bisection_is_within_tolerance_of_the_grid_golden_search(k, p00):
    config = tune_config(**STUDY_MACHINES[k][0])
    model = transient_model(config, k, p00)
    lo, hi = prior_interval(config)
    estimate = estimation._estimator(model, (lo, hi), monotone=False)
    for M in (7, 1000, 10_000):
        records = transient_records(M)
        for record, t_hat, clamped in zip(records, *estimate([r.m0 for r in records], M)):
            if record.m0 / record.M <= model(lo):
                # p0 is flat at its low-T plateau p0(lo), where the likelihood has no
                # unique maximum; the grid search returned an unclamped point on it.
                assert (t_hat, clamped) == (lo, True), (M, record.m0)
                continue
            old, old_clamped = grid_golden_estimate(record, model, lo, hi)
            assert clamped == old_clamped, (M, record.m0)
            assert abs(t_hat - old) <= TRANSIENT_TOL * config.T, (M, record.m0)


def decimal_transient_p0(config, k, p00, T):
    """p0_k at T (a Decimal), from the float eps_s, eps_v and x_v = eps_v/T_v the model forms."""
    one = Decimal(1)
    x_s, x_v = Decimal(config.eps_s) / T, Decimal(config.eps_v / config.T_v)
    p1_s, p1_v = one / (one + x_s.exp()), one / (one + x_v.exp())
    r = p1_s * (one - p1_v) + (one - p1_s) * p1_v
    p0_inf = one / (one + (x_s - x_v).exp())
    return p0_inf + (one - r) ** k * (Decimal(p00) - p0_inf)


@pytest.mark.parametrize("p00", [0.0, 1.0])
@pytest.mark.parametrize("k", [50, 60])
def test_transient_estimate_is_the_decimal_root_to_1e14(k, p00):
    # The grid+golden search was up to 5e-8 off this root on these records.
    config = tune_config(**STUDY_MACHINES[k][0])
    model, interval = transient_model(config, k, p00), prior_interval(config)
    estimate = estimation._estimator(model, interval, monotone=False)
    inside = 0
    with localcontext() as ctx:
        ctx.prec = 50
        for M in (7, 1000, 10_000):
            records = transient_records(M)
            for record, t_hat, clamped in zip(records, *estimate([r.m0 for r in records], M)):
                if clamped:
                    continue
                inside += 1
                frequency = Decimal(record.m0) / Decimal(record.M)
                below = lambda T: decimal_transient_p0(config, k, p00, T) < frequency  # noqa: E731
                a, b = (Decimal(t_hat) * (1 + Decimal(rel)) for rel in ("-1e-12", "1e-12"))
                assert below(a) and not below(b), (M, record.m0)
                for _ in range(30):  # to 2^-30 of the 2e-12 bracket
                    mid = (a + b) / 2
                    a, b = (mid, b) if below(mid) else (a, mid)
                assert abs(Decimal(t_hat) - a) <= Decimal("1e-14") * a, (M, record.m0)
    assert inside >= 15


@pytest.mark.parametrize("M", [10**3, 10**4, 10**6])
def test_bisection_of_the_steady_model_is_its_closed_form(config, M):
    model = steady_model(config)
    lo, hi = prior_interval(config)
    top = math.floor(model(hi) * M)
    counts = sorted({1, 2, M // 2, top - 1, *np.linspace(1, top - 1, 97).astype(int).tolist()})
    bisected = estimation._estimator(model, (lo, hi), monotone=False)(counts, M)
    for m0, t_hat, clamped in zip(counts, *bisected):
        closed, closed_clamped = ml_estimate(MeasurementRecord(m0, M, 0), model, (lo, hi))
        assert not clamped and not closed_clamped, (M, m0)
        assert abs(t_hat - closed) <= 1e-15 * closed, (M, m0)


@settings(max_examples=150, deadline=None)
@given(
    k=st.one_of(
        st.sampled_from([0, 1, 2, 5, 10, 50, 1000, 10**4, 10**6]),
        st.integers(min_value=0, max_value=10**6),
    ),
    p00=st.floats(0.0, 1.0),
    eps_s=st.floats(min_value=0.1, max_value=10.0),
    eps_p=st.floats(min_value=0.0, max_value=10.0),
    t_v=st.floats(min_value=0.01, max_value=10.0),
    t_prior=st.floats(min_value=0.01, max_value=10.0),
)
def test_transient_model_is_non_decreasing_in_temperature(k, p00, eps_s, eps_p, t_v, t_prior):
    # The precondition of the bisection: d p0_k/dT >= 0 (transient_model's
    # docstring), so p0_k may drop only by rounding along a dense T grid,
    # which reaches an ancilla colder than the sample (T > t_v).  The grid is
    # one array call, which the bisection makes too; test_array_k checks it
    # against the scalar calls bit for bit.
    config = MachineConfig(eps_s=eps_s, eps_p=eps_p, T=t_prior, T_v=t_v, T_prior=t_prior)
    lo, hi = prior_interval(config)
    grid = np.union1d(np.linspace(lo, hi, 2001), np.geomspace(lo, hi, 2001))
    p0 = transient_model(config, k, p00)(grid)
    assert np.all(p0[1:] >= p0[:-1] * (1.0 - 4e-15))


def test_constant_model_study_is_all_clamped():
    # p0 = 1.0 at every T of the prior interval: no count carries information,
    # and every estimate is the clamp to lo (the grid+golden search returned
    # grid[1], 4.9e-4, unclamped, for an empirical SNR of 1.8e18).
    report = empirical_snr_study(COLD_ANCILLA, M=1000, trials=100, seed=0x5EED, k=5, p00=1.0)
    assert report.singular and report.clamped_fraction == 1.0
    assert report.t_hat_mean == prior_interval(COLD_ANCILLA)[0]
    assert report.t_hat_std == 0.0 and report.empirical_snr == math.inf


def test_cold_ancilla_model_hits_exact_populations():
    # The edge case the reference comparison relies on: p0 is exactly p00.
    lo, _ = prior_interval(COLD_ANCILLA)
    assert transient_model(COLD_ANCILLA, 5, 1.0)(lo) == 1.0
    assert transient_model(COLD_ANCILLA, 5, 0.0)(lo) == 0.0


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(min_value=0, max_value=10**6),
    p00=st.floats(0.0, 1.0),
    frac=st.floats(min_value=1e-12, max_value=1.0),
    eps_s=st.floats(min_value=0.1, max_value=10.0),
    eps_p=st.floats(min_value=0.0, max_value=10.0),
    t_v=st.floats(min_value=0.01, max_value=10.0),
)
def test_transient_model_matches_rebuilt_config_bits(k, p00, frac, eps_s, eps_p, t_v):
    config = MachineConfig(eps_s=eps_s, eps_p=eps_p, T=0.2, T_v=t_v, T_prior=0.25)
    T = frac * prior_interval(config)[1]
    got = transient_model(config, k, p00)(T)
    want = transient_population(k, p00, collision_params(replace(config, T=T)))
    assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


def test_steady_model_is_the_collision_fixed_point(config):
    model = steady_model(config)
    lo, hi = prior_interval(config)
    for T in np.linspace(lo, hi, 257).tolist():
        assert model(T) == collision_params(replace(config, T=T)).p0_inf
