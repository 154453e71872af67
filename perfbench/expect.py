"""Expected outputs computed by the benchmark itself, without the package.

Monte Carlo studies are re-derived from the documented random number
contract: per-trial seed = first uint64 of SeedSequence(master,
spawn_key=(trial,)), then one Philox uniform per measurement, m0 = number
of uniforms below p0.  Steady estimates come from the closed-form logit
inversion of p0(T) = 1 / (1 + exp(eps_s/T - eps_v/T_v)); transient
estimates from a vectorised copy of the grid plus golden-section search.
Result tables are compared cell by cell against a committed reference.
"""

from __future__ import annotations

import math

import numpy as np

#: Largest relative deviation a figure cell may have from the reference.
CELL_RTOL = 1e-10

#: Allowed deviation of a study's t-hat mean and std, as a share of T.
#: Bisection and the closed form agree to ~1e-12 T.  Near its flat maximum
#: the transient log-likelihood is resolved only to ~1e-8 T in float64.
STEADY_TOL = 1e-10
TRANSIENT_TOL = 1e-7

_INTERVAL_FLOOR = 1e-12
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


# ----------------------------------------------------------------------
# Monte Carlo
# ----------------------------------------------------------------------


def philox_m0(p0: float, M: int, master: int, trials: int) -> np.ndarray:
    """Ground counts per trial from the documented Philox contract."""
    m0 = np.empty(trials, dtype=np.int64)
    for i in range(trials):
        ss = np.random.SeedSequence(entropy=master, spawn_key=(i,))
        seed = int(ss.generate_state(1, np.uint64)[0])
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        m0[i] = np.count_nonzero(rng.random(M) < p0)
    return m0


def _logistic(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def steady_p0(c: dict, T) -> np.ndarray:
    return _logistic(c["eps_v"] / c["T_v"] - c["eps_s"] / np.asarray(T, dtype=float))


def transient_p0(c: dict, k: int, p00: float, T) -> np.ndarray:
    T = np.asarray(T, dtype=float)
    s0, s1 = _logistic(c["eps_s"] / T), _logistic(-c["eps_s"] / T)
    v0, v1 = _logistic(c["eps_v"] / c["T_v"]), _logistic(-c["eps_v"] / c["T_v"])
    r = s1 * v0 + s0 * v1
    p_inf = _logistic(c["eps_v"] / c["T_v"] - c["eps_s"] / T)
    with np.errstate(divide="ignore", under="ignore", invalid="ignore"):
        log_q = np.log1p(-np.minimum(r, 1.0))
        q = np.where(k * -log_q > 745.2, 0.0, np.exp(k * log_q))
    return (1.0 - q) * p_inf + q * p00


def interval(c: dict) -> tuple[float, float]:
    hi = 2.0 * c["T_prior"]
    return _INTERVAL_FLOOR * hi, hi


def steady_estimates(c: dict, m0: np.ndarray, M: int) -> np.ndarray:
    """Closed-form ML: invert p0(T) = m0/M, clamped to the prior interval."""
    lo, hi = interval(c)
    a = c["eps_v"] / c["T_v"]
    frac = m0 / M
    out = np.empty(len(m0))
    p_lo, p_hi = steady_p0(c, [lo, hi])
    for i, (m, f) in enumerate(zip(m0, frac)):
        if m == 0 or f < p_lo:
            out[i] = lo
        elif m == M or f > p_hi:
            out[i] = hi
        else:
            out[i] = c["eps_s"] / (a - math.log(f / (1.0 - f)))
    return out


def _log_likelihood(m0, M, p0):
    m0 = np.asarray(m0, dtype=float)
    m1 = M - m0
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = np.where(m0 > 0, m0 * np.log(p0), 0.0) + np.where(m1 > 0, m1 * np.log1p(-p0), 0.0)
    return np.where(np.isnan(ll), -np.inf, ll)


def transient_estimates(
    c: dict, k: int, p00: float, m0: np.ndarray, M: int, grid_points: int = 1024
) -> np.ndarray:
    """Grid maximum of the binomial likelihood, refined by golden section."""
    lo, hi = interval(c)
    distinct, inverse = np.unique(m0, return_inverse=True)
    grid = np.linspace(lo, hi, grid_points)
    ll = _log_likelihood(distinct[:, None], M, transient_p0(c, k, p00, grid)[None, :])
    best = np.argmax(ll, axis=1)
    a = grid[np.maximum(best - 1, 0)]
    b = grid[np.minimum(best + 1, grid_points - 1)]
    f = lambda t: _log_likelihood(distinct, M, transient_p0(c, k, p00, t))  # noqa: E731
    cc = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(cc), f(d)
    done = np.zeros(len(distinct), dtype=bool)
    for _ in range(120):
        left = (fc > fd) & ~done
        right = ~(fc > fd) & ~done
        # left: the maximum is in [a, d]; right: it is in [c, b].
        b, d, fd = np.where(left, d, b), np.where(left, cc, d), np.where(left, fc, fd)
        a, cc, fc = np.where(right, cc, a), np.where(right, d, cc), np.where(right, fd, fc)
        cc = np.where(left, b - _INV_PHI * (b - a), cc)
        d = np.where(right, a + _INV_PHI * (b - a), d)
        fc = np.where(left, f(cc), fc)
        fd = np.where(right, f(d), fd)
        done |= b - a < 1e-13 * (hi - lo)
        if done.all():
            break
    t_hat = 0.5 * (a + b)
    edge = 2e-12 * (hi - lo)
    t_hat = np.where(t_hat <= lo + edge, lo, np.where(t_hat >= hi - edge, hi, t_hat))
    return t_hat[inverse]


def true_p0(study: dict) -> float:
    """Ground probability at the study's true temperature."""
    c, k = study["config"], study["k"]
    if k is None:
        return float(steady_p0(c, c["T"]))
    return float(transient_p0(c, k, study["p00"], c["T"]))


def study_expectation(study: dict, master: int) -> dict:
    """m0 per trial and the t-hat mean/std a correct study must report."""
    c, M, trials, k = study["config"], study["M"], study["trials"], study["k"]
    m0 = philox_m0(true_p0(study), M, master, trials)
    if k is None:
        t_hat = steady_estimates(c, m0, M)
    else:
        t_hat = transient_estimates(c, k, study["p00"], m0, M)
    return {
        "m0": m0,
        "mean": float(t_hat.mean()),
        "std": float(t_hat.std(ddof=1)),
        "tol": (STEADY_TOL if k is None else TRANSIENT_TOL) * c["T"],
    }


def repeat_share(m0: np.ndarray) -> float:
    """Share of trials whose m0 equals that of an earlier trial."""
    return 1.0 - len(np.unique(m0)) / len(m0)


# ----------------------------------------------------------------------
# Result tables
# ----------------------------------------------------------------------


def parse_csv(text: str) -> tuple[dict, list[str], np.ndarray]:
    """(meta, columns, values) of an exported CSV table."""
    meta: dict[str, str] = {}
    columns: list[str] | None = None
    rows = []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key.strip()] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append([float(x) for x in line.split(",")])
    if columns is None:
        raise ValueError("CSV has no header row")
    return meta, columns, np.array(rows, dtype=float).reshape(len(rows), len(columns))


def json_values(payload: dict) -> tuple[list[str], np.ndarray]:
    """(columns, values) of an exported JSON table; non-numbers become NaN."""
    columns = list(payload["columns"])
    rows = [
        [x if isinstance(x, (int, float)) and not isinstance(x, bool) else math.nan for x in row]
        for row in payload["rows"]
    ]
    return columns, np.array(rows, dtype=float).reshape(len(rows), len(columns))


def _cell(x: float) -> float | str:
    return float(x) if math.isfinite(x) else repr(float(x))


def summarize(meta: dict, columns: list[str], values: np.ndarray, samples: int = 64) -> dict:
    """Committable fingerprint of a table: strided rows, sums, non-finite cells."""
    n = len(values)
    finite = np.isfinite(values)
    zeroed = np.where(finite, values, 0.0)
    weights = (np.arange(n) % 7 + 1)[:, None]
    sample_rows = sorted(set(range(0, n, max(1, n // samples))) | {n - 1})
    return {
        "meta": {k: meta[k] for k in ("scenario", "kind")},
        "columns": columns,
        "rows": n,
        "sample_rows": sample_rows,
        "sample": [[_cell(x) for x in values[i]] for i in sample_rows],
        "nonfinite": np.argwhere(~finite).tolist(),
        "abs_sum": np.abs(zeroed).sum(axis=0).tolist(),
        "weighted_sum": (weights * zeroed).sum(axis=0).tolist(),
    }


def _close(a: np.ndarray, b: np.ndarray, scale: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        return (a == b) | (np.abs(a - b) <= CELL_RTOL * scale)


def compare_table(ref: dict, columns: list[str], values: np.ndarray) -> str | None:
    """None when the table matches the reference, else the first mismatch."""
    if len(values) != ref["rows"]:
        return f"{len(values)} rows, reference has {ref['rows']}"
    missing = [c for c in ref["columns"] if c not in columns]
    if missing:
        return f"missing columns {missing}"
    values = values[:, [columns.index(c) for c in ref["columns"]]]
    finite = np.isfinite(values)
    if np.argwhere(~finite).tolist() != ref["nonfinite"]:
        return "non-finite cells differ from the reference"
    sample = np.array([[float(x) for x in row] for row in ref["sample"]], dtype=float)
    got = values[ref["sample_rows"]]
    scale = np.maximum(np.abs(got), np.abs(sample))
    if not np.all(~np.isfinite(sample) | _close(got, sample, scale)):
        return "sampled cells differ from the reference by more than 1e-10 relative"
    zeroed = np.where(finite, values, 0.0)
    abs_ref = np.array(ref["abs_sum"])
    weights = (np.arange(len(values)) % 7 + 1)[:, None]
    if not np.all(_close(np.abs(zeroed).sum(axis=0), abs_ref, abs_ref)):
        return "column sums differ from the reference by more than 1e-10 relative"
    weighted = (weights * zeroed).sum(axis=0)
    if not np.all(_close(weighted, np.array(ref["weighted_sum"]), 7.0 * abs_ref)):
        return "weighted column sums differ from the reference by more than 1e-10 relative"
    return None

