"""Named scenarios: parameter sweeps, preset tables and the self-check battery.

Each scenario kind produces a table with a fixed column layout; presets
pin the parameter blocks used by the reference figures.  All energies in
output tables are expressed in units of the sample gap (eps_s normalized
to 1), all analytic kinds are deterministic, and the montecarlo kind is
reproducible from its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .core import MachineConfig, collision_params, tune_config
from .dynamics import (
    COUPLED_STATES,
    ProbeState,
    build_triad_hamiltonian,
    collide_analytic,
    collide_oracle,
    exact_unitary,
    steady_population,
    transient_population,
)
from .estimation import DEFAULT_SEED, empirical_snr_study
from .heat import heat_ancilla, heat_sample, perturbation_trajectory, probe_energy_change
from .metrology import (
    SQRT_TWO_OVER_PI,
    NoisyAncillaSpec,
    fisher_binary,
    snr_noisy_ancilla,
    snr_sample_bound,
    snr_steady,
    snr_thermal,
    snr_transient,
)
from .tables import ResultTable, make_table

_TUNING = ("eps_s", "T_prior", "T_v")
_T_AXIS = ("points", "t_min", "t_max")
_K_AXIS = ("k_min", "k_max", "k_step")

#: Fields each kind's runner reads, besides name, kind and seed.
_KIND_FIELDS = {
    "steady-sweep": _TUNING + _T_AXIS + ("priors", "M"),
    "transient-sweep": _TUNING + _K_AXIS + ("p00", "T", "temps", "p00_values", "M"),
    "cost-comparison": _TUNING + _K_AXIS + ("p00", "T", "M", "M_alt"),
    "heat-trajectory": _TUNING + _K_AXIS + ("p00", "T", "temps", "p00_values"),
    "noisy-ancilla": _TUNING + _T_AXIS + ("delta_Tv_rel", "M"),
    "montecarlo": _TUNING + ("p00", "T", "M", "trials", "model", "k_measure"),
    "verify": ("samples",),
}

KINDS = tuple(_KIND_FIELDS)


@dataclass(frozen=True)
class Scenario:
    """One runnable experiment description.

    Only the fields relevant to ``kind`` are consulted, and
    :func:`apply_settings` refuses an override of any other; energies are in
    units of eps_s and temperature-like fields are set as fractions of
    eps_s.  Multi-valued fields (``priors``, ``temps``, ``p00_values``)
    produce long-format tables with one block per combination.
    """

    name: str
    kind: str
    eps_s: float = 1.0
    T: float | None = None
    T_v: float = 1.0
    T_prior: float | None = None
    p00: float = 1.0
    priors: tuple[float, ...] = ()
    temps: tuple[float, ...] = ()
    p00_values: tuple[float, ...] = ()
    points: int = 400
    t_min: float | None = None
    t_max: float | None = None
    k_min: int = 0
    k_max: int = 300
    k_step: int = 1
    k_measure: int | None = None
    M: int = 1
    M_alt: int = 2
    trials: int = 1000
    delta_Tv_rel: float = 0.0
    model: str = "steady"
    samples: int = 200
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.points < 0:
            raise ValueError("points must be >= 0")
        if self.k_step < 1:
            raise ValueError("k_step must be >= 1")
        if self.k_max < self.k_min:
            raise ValueError("k_max must be >= k_min")
        if self.M < 1 or self.M_alt < 1:
            raise ValueError("M and M_alt must be >= 1")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if (self.t_min is None) != (self.t_max is None):
            raise ValueError("t_min and t_max must be given together")
        if self.t_min is not None and not 0.0 < self.t_min < self.t_max:
            raise ValueError("need 0 < t_min < t_max")


_FIELD_TYPES = {f.name: f.type for f in fields(Scenario)}

def coerce_setting(name: str, raw: str) -> object:
    """Parse one ``key=value`` override with the field's declared type; floats must be finite."""
    if name not in _FIELD_TYPES:
        raise ValueError(f"unknown scenario field {name!r}")
    decl = _FIELD_TYPES[name]
    if decl.startswith("tuple"):
        if raw.strip() == "":
            return ()
        return tuple(_finite(name, x) for x in raw.split(","))
    if decl.startswith("int"):
        return int(raw, 0)
    if decl.startswith("float"):
        return _finite(name, raw)
    return raw


def _finite(name: str, text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {text!r}")
    return value


def apply_settings(scenario: Scenario, settings: dict[str, object]) -> Scenario:
    """Override fields of ``scenario``, refusing any field its kind never reads."""
    updated = replace(scenario, **settings)
    unread = sorted(set(settings) - {"name", "kind", "seed"} - set(_KIND_FIELDS[updated.kind]))
    if unread:
        raise ValueError(f"{updated.kind} scenarios do not read {', '.join(unread)}")
    return updated


def _tuned(scenario: Scenario, T: float, p00: float | None = None) -> MachineConfig:
    if scenario.T_prior is None:
        raise ValueError("scenario requires T_prior")
    return tune_config(
        eps_s=scenario.eps_s,
        T=T,
        T_prior=scenario.T_prior,
        T_v=scenario.T_v,
        p00=scenario.p00 if p00 is None else p00,
    )


def _base_meta(scenario: Scenario) -> dict[str, object]:
    return {
        "scenario": scenario.name,
        "kind": scenario.kind,
        "version": __version__,
        "seed": scenario.seed,
    }


def _temperature_grid(scenario: Scenario, t_prior: float) -> np.ndarray:
    """Temperature sweep axis for one prior interval.

    With explicit bounds: ``points`` uniform samples of [t_min, t_max].
    Otherwise the (points+1)-point uniform partition of [0, 2 T_prior]
    with T = 0 dropped, so T = T_prior itself is always on the grid.
    """
    if scenario.t_min is not None:
        return np.linspace(scenario.t_min, scenario.t_max, scenario.points)
    return np.linspace(0.0, 2.0 * t_prior, scenario.points + 1)[1:]


def _k_values(scenario: Scenario, k_lo: int) -> np.ndarray:
    return np.arange(k_lo, scenario.k_max + 1, scenario.k_step)


def _block(k: np.ndarray, *columns: float | np.ndarray) -> np.ndarray:
    """One (T, p00) block of a k sweep; scalar columns repeat down the block."""
    return np.column_stack([np.broadcast_to(c, k.shape) for c in columns])


# ----------------------------------------------------------------------
# Scenario runners
# ----------------------------------------------------------------------


def _run_steady_sweep(scenario: Scenario) -> ResultTable:
    priors = scenario.priors or (scenario.T_prior,)
    if any(p is None for p in priors):
        raise ValueError("steady-sweep needs T_prior or priors")
    u = scenario.eps_s  # temperatures reported in units of eps_s
    rows = []
    for t_prior in priors:
        for T in _temperature_grid(scenario, t_prior):
            config = _tuned(replace(scenario, T_prior=t_prior), T)
            point = snr_steady(config, scenario.M)
            rows.append(
                (
                    t_prior / u,
                    T / u,
                    steady_population(config),
                    point.sensitivity * u,
                    point.snr,
                    snr_thermal(T, scenario.eps_s, scenario.M),
                    0.5 * math.sqrt(scenario.M) * scenario.eps_s / T,
                )
            )
    return make_table(
        ("T_prior", "T", "p0_inf", "sensitivity", "snr", "snr_thermal", "snr_at_prior"),
        rows,
        _base_meta(scenario),
    )


def _run_transient_sweep(scenario: Scenario) -> ResultTable:
    temps = scenario.temps or ((scenario.T,) if scenario.T is not None else ())
    if not temps:
        raise ValueError("transient-sweep needs T or temps")
    p00s = scenario.p00_values or (scenario.p00,)
    u = scenario.eps_s
    k = _k_values(scenario, scenario.k_min)
    blocks = []
    for T in temps:
        for p00 in p00s:
            config = _tuned(scenario, T, p00)
            point = snr_transient(k, p00, config, scenario.M)
            p0_k = transient_population(k, p00, collision_params(config))
            blocks.append(_block(k, T / u, p00, point.k, p0_k, point.sensitivity * u, point.snr))
    return make_table(
        ("T", "p00", "k", "p0_k", "sensitivity", "snr"),
        np.vstack(blocks).tolist(),
        _base_meta(scenario),
    )


def _run_cost_comparison(scenario: Scenario) -> ResultTable:
    if scenario.T is None:
        raise ValueError("cost-comparison needs T")
    if snr_sample_bound(1, scenario.T, scenario.eps_s) == 0.0:
        raise ValueError(
            f"eps_s/T = {scenario.eps_s / scenario.T:g} is past ~745, where e^(-eps_s/T) "
            "underflows: the sample bound is 0 and ratio_to_bound undefined"
        )
    config = _tuned(scenario, scenario.T)
    k = _k_values(scenario, max(1, scenario.k_min))
    snr_m1 = snr_transient(k, scenario.p00, config, scenario.M)
    snr_m2 = snr_transient(k, scenario.p00, config, scenario.M_alt).snr
    # The k-qubit sample bound is the thermal SNR of k qubits: one column, written twice.
    bound = snr_sample_bound(k, scenario.T, scenario.eps_s)
    rows = _block(k, snr_m1.k, snr_m1.snr, snr_m2, bound, bound, snr_m1.snr / bound)
    meta = _base_meta(scenario)
    meta["ref_sqrt_2_over_pi"] = SQRT_TWO_OVER_PI
    # The plateau the transient columns climb toward; the measurement-cost
    # comparison reads the thermal column against these steady limits.
    meta["snr_machine_steady_m1"] = snr_steady(config, scenario.M).snr
    meta["snr_machine_steady_m2"] = snr_steady(config, scenario.M_alt).snr
    return make_table(
        (
            "k",
            "snr_machine_m1",
            "snr_machine_m2",
            "snr_thermal_mk",
            "snr_sample_bound",
            "ratio_to_bound",
        ),
        rows.tolist(),
        meta,
    )


def _run_heat_trajectory(scenario: Scenario) -> ResultTable:
    temps = scenario.temps or ((scenario.T,) if scenario.T is not None else ())
    if not temps:
        raise ValueError("heat-trajectory needs T or temps")
    p00s = scenario.p00_values or (scenario.p00,)
    k = _k_values(scenario, max(1, scenario.k_min))
    j = k - 1
    u = scenario.eps_s
    blocks = []
    for T in temps:
        for p00 in p00s:
            traj = perturbation_trajectory(scenario.k_max, p00, _tuned(scenario, T, p00))
            steps = (traj.delta_p, traj.sample_p0, traj.ancilla_p0)
            heats = (traj.q_sample / u, traj.q_ancilla / u)
            blocks.append(_block(k, T / u, p00, k.astype(float), *(c[j] for c in steps + heats)))
    return make_table(
        ("T", "p00", "k", "delta_p", "sample_p0", "ancilla_p0", "q_sample", "q_ancilla"),
        np.vstack(blocks).tolist(),
        _base_meta(scenario),
    )


def _run_noisy_ancilla(scenario: Scenario) -> ResultTable:
    if scenario.T_prior is None:
        raise ValueError("noisy-ancilla needs T_prior")
    plus = NoisyAncillaSpec(scenario.delta_Tv_rel, sign=1)
    minus = NoisyAncillaSpec(scenario.delta_Tv_rel, sign=-1)
    u = scenario.eps_s
    rows = []
    for T in _temperature_grid(scenario, scenario.T_prior):
        config = _tuned(scenario, T)
        rows.append(
            (
                T / u,
                snr_steady(config, scenario.M).snr,
                snr_noisy_ancilla(config, plus, scenario.M).snr,
                snr_noisy_ancilla(config, minus, scenario.M).snr,
            )
        )
    meta = _base_meta(scenario)
    meta["delta_Tv_rel"] = scenario.delta_Tv_rel
    return make_table(("T", "snr_ideal", "snr_plus", "snr_minus"), rows, meta)


def _run_montecarlo(scenario: Scenario) -> ResultTable:
    if scenario.T is None:
        raise ValueError("montecarlo needs T")
    if scenario.model not in ("steady", "transient"):
        raise ValueError(f"unknown estimation model {scenario.model!r}")
    if scenario.model == "transient" and scenario.k_measure is None:
        raise ValueError("transient model needs k_measure (collisions before readout)")
    config = _tuned(scenario, scenario.T)
    k = scenario.k_measure if scenario.model == "transient" else None
    report = empirical_snr_study(
        config,
        M=scenario.M,
        trials=scenario.trials,
        seed=scenario.seed,
        k=k,
        p00=scenario.p00,
    )
    meta = _base_meta(scenario)
    meta["model"] = scenario.model
    meta["small_m_warning"] = report.small_m_warning
    meta["singular"] = report.singular
    u = scenario.eps_s
    row = (
        scenario.T / u,
        float(scenario.M),
        float(report.trials),
        report.t_hat_mean / u,
        report.t_hat_std / u,
        report.rmse / u,
        report.empirical_snr,
        report.crb_snr,
        report.clamped_fraction,
    )
    return make_table(
        (
            "T_true",
            "M",
            "trials",
            "t_hat_mean",
            "t_hat_std",
            "rmse",
            "empirical_snr",
            "crb_snr",
            "clamped_fraction",
        ),
        (row,),
        meta,
    )


# ----------------------------------------------------------------------
# Verification battery
# ----------------------------------------------------------------------


def _random_configs(samples: int, seed: int) -> list[MachineConfig]:
    rng = np.random.default_rng(seed)
    configs = []
    for _ in range(samples):
        eps_s = rng.uniform(0.5, 2.0)
        t_prior = eps_s * rng.uniform(0.05, 0.45)
        T = t_prior * rng.uniform(0.15, 1.85)
        t_v = rng.uniform(2.0, 4.0) * t_prior
        configs.append(
            tune_config(
                eps_s=eps_s,
                T=T,
                T_prior=t_prior,
                T_v=t_v,
                eps_I=rng.uniform(0.5, 2.0),
                p00=rng.uniform(0.0, 1.0),
            )
        )
    return configs


def run_verification(samples: int = 200, seed: int = DEFAULT_SEED) -> ResultTable:
    """Run the oracle-equivalence and conservation self-checks.

    One row per check: (check index, ok flag, worst error).  Intended as
    the machine-checkable health gate behind the ``verify`` CLI command.
    """
    configs = _random_configs(samples, seed)
    checks: list[tuple[str, float, float]] = []

    ref = configs[0]
    u = exact_unitary(build_triad_hamiltonian(ref), ref.collision_time)
    checks.append(
        ("unitarity", float(np.abs(u @ u.conj().T - np.eye(8)).max()), 1e-12)
    )

    a, b = COUPLED_STATES
    mags = np.abs(u)
    err_swap = max(abs(mags[b, a] - 1.0), abs(mags[a, b] - 1.0))
    for idx in range(8):
        if idx not in (a, b):
            err_swap = max(err_swap, abs(mags[idx, idx] - 1.0))
    checks.append(("full_swap_permutation", err_swap, 1e-10))

    err = 0.0
    for config in configs:
        h_full = build_triad_hamiltonian(config)
        h_free = h_full.copy()
        h_free[a, b] = 0.0
        h_free[b, a] = 0.0
        h_int = h_full - h_free
        comm = h_int @ h_free - h_free @ h_int
        err = max(err, float(np.abs(comm).max()))
    checks.append(("resonant_commutation", err, 1e-12))

    err = 0.0
    for config in configs:
        params = collision_params(config)
        probe = ProbeState(p0=config.p00)
        oracle = collide_oracle(probe, config).p0
        analytic = collide_analytic(config.p00, params)
        err = max(err, abs(oracle - analytic))
    checks.append(("oracle_vs_analytic", err, 1e-10))

    err = 0.0
    for config in configs[: min(25, samples)]:
        params = collision_params(config)
        p0 = config.p00
        for k in range(1, 501):
            p0 = collide_analytic(p0, params)
            if k in (1, 10, 100, 500):
                err = max(err, abs(p0 - transient_population(k, config.p00, params)))
    checks.append(("closed_form_vs_iteration", err, 1e-12))

    err = 0.0
    for config in configs:
        params = collision_params(config)
        err = max(err, abs(collide_analytic(params.p0_inf, params) - params.p0_inf))
    checks.append(("fixed_point", err, 1e-12))

    err = 0.0
    for config in configs:
        for k in (1, 7, 150):
            balance = (
                heat_sample(k, config.p00, config)
                + heat_ancilla(k, config.p00, config)
                + probe_energy_change(k, config.p00, config)
            )
            err = max(err, abs(balance))
    checks.append(("heat_conservation", err, 1e-12))

    err = 0.0
    for config in configs:
        traj = perturbation_trajectory(40, config.p00, config)
        params = collision_params(config)
        p0_40 = transient_population(40, config.p00, params)
        err = max(err, abs(float(traj.delta_p.sum()) - (p0_40 - config.p00)))
    checks.append(("telescoping", err, 1e-12))

    err = 0.0
    for config in configs:
        q_s = heat_sample(60, config.p00, config)
        q_v = heat_ancilla(60, config.p00, config)
        if abs(q_s) > 1e-15 and abs(q_v) > 1e-15:
            err = max(err, 1.0 if q_s * q_v >= 0.0 else 0.0)
    checks.append(("heat_sign_opposition", err, 0.5))

    err = 0.0
    for config in configs:
        point = snr_steady(config, M=3)
        implied = config.T * math.sqrt(3 * fisher_binary(steady_population(config), point.sensitivity))
        if point.snr > 0:
            err = max(err, abs(point.snr - implied) / point.snr)
    checks.append(("snr_fisher_consistency", err, 1e-12))

    meta = {
        "scenario": "verify",
        "kind": "verify",
        "version": __version__,
        "seed": seed,
        "samples": samples,
        "checks": ",".join(name for name, _, _ in checks),
    }
    rows = [
        (float(i), 1.0 if error <= tol else 0.0, error)
        for i, (_, error, tol) in enumerate(checks)
    ]
    return make_table(("check", "ok", "max_error"), rows, meta)


def verification_passed(table: ResultTable) -> bool:
    return all(row[1] == 1.0 for row in table.rows)


# ----------------------------------------------------------------------
# Presets (reference-figure parameter blocks)
# ----------------------------------------------------------------------

PRESETS: dict[str, Scenario] = {
    "fig1b": Scenario(
        name="fig1b",
        kind="steady-sweep",
        priors=(1.0 / 4.0, 1.0 / 8.0, 1.0 / 12.0, 1.0 / 16.0),
        points=400,
        M=1,
    ),
    "fig2a": Scenario(
        name="fig2a",
        kind="transient-sweep",
        T_prior=1.0 / 4.0,
        temps=(1.0 / 4.0, 1.0 / 4.5, 1.0 / 3.5),
        p00_values=(0.5, 1.0),
        k_min=0,
        k_max=300,
        k_step=1,
        M=1,
    ),
    "fig2b": Scenario(
        name="fig2b",
        kind="transient-sweep",
        T_prior=1.0 / 10.0,
        temps=(1.0 / 10.0, 1.0 / 10.5, 1.0 / 9.5),
        p00_values=(0.5, 1.0),
        k_min=0,
        k_max=50000,
        k_step=10,
        M=1,
    ),
    "fig3": Scenario(
        name="fig3",
        kind="cost-comparison",
        T=1.0 / 11.0,
        T_prior=1.0 / 10.0,
        p00=1.0,
        k_min=1,
        k_max=20000,
        k_step=1,
        M=1,
        M_alt=2,
    ),
    "figS1a": Scenario(
        name="figS1a",
        kind="heat-trajectory",
        T_prior=1.0 / 4.0,
        temps=(1.0 / 4.5, 1.0 / 3.5),
        p00_values=(1.0, 0.5),
        k_min=1,
        k_max=300,
        k_step=1,
    ),
    "figS1b": Scenario(
        name="figS1b",
        kind="heat-trajectory",
        T_prior=1.0 / 10.0,
        temps=(1.0 / 10.5, 1.0 / 9.5),
        p00_values=(1.0, 0.5),
        k_min=1,
        k_max=50000,
        k_step=10,
    ),
    "figS2-ratio": Scenario(
        name="figS2-ratio",
        kind="cost-comparison",
        T=1.0 / 8.0,
        T_prior=1.0 / 7.0,
        p00=1.0,
        k_min=1,
        k_max=6000,
        k_step=1,
        M=1,
        M_alt=2,
    ),
}


def run_scenario(scenario: Scenario) -> ResultTable:
    """Produce the result table for any scenario kind."""
    runner = {
        "steady-sweep": _run_steady_sweep,
        "transient-sweep": _run_transient_sweep,
        "cost-comparison": _run_cost_comparison,
        "heat-trajectory": _run_heat_trajectory,
        "noisy-ancilla": _run_noisy_ancilla,
        "montecarlo": _run_montecarlo,
    }.get(scenario.kind)
    if runner is not None:
        return runner(scenario)
    if scenario.kind == "verify":
        return run_verification(samples=scenario.samples, seed=scenario.seed)
    raise ValueError(f"unknown scenario kind {scenario.kind!r}")
