"""Named scenarios: parameter sweeps, preset tables and the self-check battery.

Each scenario kind produces a table with a fixed column layout; presets
pin the parameter blocks used by the reference figures.  All energies in
output tables are expressed in units of the sample gap (eps_s normalized
to 1), all analytic kinds are deterministic, and the montecarlo kind is
reproducible from its seed.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .core import CollisionParams, MachineConfig, _check_count, _check_range, collision_params
from .core import tune_config
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
_BLOCKS = ("p00", "T", "temps", "p00_values")  # one block per (T, p00) pair

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
        # The name is a CSV meta line, which from_csv splits and strips.
        if len(self.name.splitlines()) > 1 or self.name != self.name.strip():
            raise ValueError(f"scenario name {self.name!r} has a line break or edge whitespace")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        counts = {"points": 0, "k_step": 1, "k_max": self.k_min, "M": 1, "M_alt": 1, "samples": 1}
        for name, low in counts.items():
            _check_count(name, getattr(self, name), low)
        if (self.t_min is None) != (self.t_max is None):
            raise ValueError("t_min and t_max must be given together")
        if self.t_min is not None:
            _check_range("t_min", self.t_min, 0.0)
            _check_range("t_max", self.t_max, self.t_min)


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
    _, read = _KINDS[updated.kind]
    unread = sorted(set(settings) - {"name", "kind", "seed"} - set(read))
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


def _block(axis: np.ndarray, *columns: float | np.ndarray) -> np.ndarray:
    """One block of a sweep along ``axis`` (k or T); scalar columns repeat down the block."""
    return np.column_stack([np.broadcast_to(c, axis.shape) for c in columns])


# ----------------------------------------------------------------------
# Scenario runners
# ----------------------------------------------------------------------


def _run_steady_sweep(scenario: Scenario) -> ResultTable:
    u, M = scenario.eps_s, scenario.M  # temperatures reported in units of eps_s
    blocks = []
    for t_prior in _axis(scenario, "T_prior", "priors"):
        T = _temperature_grid(scenario, t_prior)
        pt = snr_steady(_tuned(replace(scenario, T_prior=t_prior), T), M)
        thermal = snr_thermal(T, scenario.eps_s, M)
        at_prior = 0.5 * math.sqrt(M) * scenario.eps_s / T
        blocks.append(
            _block(T, t_prior / u, T / u, pt.p0, pt.sensitivity * u, pt.snr, thermal, at_prior)
        )
    return make_table(
        ("T_prior", "T", "p0_inf", "sensitivity", "snr", "snr_thermal", "snr_at_prior"),
        np.vstack(blocks),
        _base_meta(scenario),
    )


def _axis(scenario: Scenario, single: str, plural: str) -> tuple:
    """The values of the multi-valued field ``plural``, else ``single``'s one value."""
    values = getattr(scenario, plural) or (getattr(scenario, single),)
    if None in values:
        raise ValueError(f"{scenario.kind} needs {single} or {plural}")
    return values


def _blocks(scenario: Scenario) -> list[tuple[float, float]]:
    """The (T, p00) pair of each block of a k sweep, temperature outermost."""
    p00s = _axis(scenario, "p00", "p00_values")
    return [(T, p00) for T in _axis(scenario, "T", "temps") for p00 in p00s]


def _run_transient_sweep(scenario: Scenario) -> ResultTable:
    u = scenario.eps_s
    k = _k_values(scenario, scenario.k_min)
    blocks = []
    for T, p00 in _blocks(scenario):
        pt = snr_transient(k, p00, _tuned(scenario, T, p00), scenario.M)
        blocks.append(_block(k, T / u, p00, pt.k, pt.p0, pt.sensitivity * u, pt.snr))
    return make_table(
        ("T", "p00", "k", "p0_k", "sensitivity", "snr"),
        np.vstack(blocks),
        _base_meta(scenario),
    )


def _run_cost_comparison(scenario: Scenario) -> ResultTable:
    if scenario.T is None:
        raise ValueError("cost-comparison needs T")
    if not snr_sample_bound(1, scenario.T, scenario.eps_s) > 0.0:
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
        rows,
        meta,
    )


def _run_heat_trajectory(scenario: Scenario) -> ResultTable:
    k = _k_values(scenario, max(1, scenario.k_min))
    j = k - 1
    u = scenario.eps_s
    blocks = []
    for T, p00 in _blocks(scenario):
        traj = perturbation_trajectory(scenario.k_max, p00, _tuned(scenario, T, p00))
        steps = (traj.delta_p, traj.sample_p0, traj.ancilla_p0)
        heats = (traj.q_sample / u, traj.q_ancilla / u)
        blocks.append(_block(k, T / u, p00, k.astype(float), *(c[j] for c in steps + heats)))
    return make_table(
        ("T", "p00", "k", "delta_p", "sample_p0", "ancilla_p0", "q_sample", "q_ancilla"),
        np.vstack(blocks),
        _base_meta(scenario),
    )


def _run_noisy_ancilla(scenario: Scenario) -> ResultTable:
    if scenario.T_prior is None:
        raise ValueError("noisy-ancilla needs T_prior")
    T = _temperature_grid(scenario, scenario.T_prior)
    config, M = _tuned(scenario, T), scenario.M
    noisy = [
        snr_noisy_ancilla(config, NoisyAncillaSpec(scenario.delta_Tv_rel, sign), M).snr
        for sign in (1, -1)
    ]
    meta = _base_meta(scenario)
    meta["delta_Tv_rel"] = scenario.delta_Tv_rel
    rows = _block(T, T / scenario.eps_s, snr_steady(config, M).snr, *noisy)
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
        scenario.M,
        report.trials,
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


def _commutator_norm(config: MachineConfig) -> float:
    """Largest entry of [H_int, H_free] for the triad; zero on resonance."""
    a, b = COUPLED_STATES
    h_full = build_triad_hamiltonian(config)
    h_free = h_full.copy()
    h_free[[a, b], [b, a]] = 0.0
    h_int = h_full - h_free
    return float(np.abs(h_int @ h_free - h_free @ h_int).max())


def _iteration_errors(config: MachineConfig, params: CollisionParams) -> Iterator[float]:
    """Closed form against the iterated map at k = 1, 10, 100 and 500."""
    p0 = config.p00
    for k in range(1, 501):
        p0 = collide_analytic(p0, params)
        if k in (1, 10, 100, 500):
            yield abs(p0 - transient_population(k, config.p00, params))


def _run_verify(scenario: Scenario) -> ResultTable:
    """Run the oracle-equivalence and conservation self-checks.

    One row per check: (check index, ok flag, worst error), the
    machine-checkable health gate behind the ``verify`` CLI command.  A NaN
    error propagates to its row and fails the check.
    """
    configs = _random_configs(scenario.samples, scenario.seed)
    params = [collision_params(c) for c in configs]
    ref = configs[0]
    u = exact_unitary(build_triad_hamiltonian(ref), ref.collision_time)
    swap = np.arange(8)  # column j of a full swap has its 1 in row swap[j]
    swap[list(COUPLED_STATES)] = COUPLED_STATES[::-1]
    heats = np.array([(heat_sample(60, c.p00, c), heat_ancilla(60, c.p00, c)) for c in configs])
    # Skip heats within 1e-15 of zero, written so that a NaN heat is not skipped.
    signed = ~(np.abs(heats) <= 1e-15).any(axis=1)
    steady = [snr_steady(c, M=3) for c in configs]
    # (name, tolerance, the errors it finds on the random machines), in row order.
    battery = (
        ("unitarity", 1e-12, [np.abs(u @ u.conj().T - np.eye(8)).max()]),
        ("full_swap_permutation", 1e-10, np.abs(np.abs(u[swap, np.arange(8)]) - 1.0)),
        ("resonant_commutation", 1e-12, [_commutator_norm(c) for c in configs]),
        ("oracle_vs_analytic", 1e-10, [
            abs(collide_oracle(ProbeState(p0=c.p00), c).p0 - collide_analytic(c.p00, p))
            for c, p in zip(configs, params)
        ]),
        ("closed_form_vs_iteration", 1e-12, [
            e for c, p in zip(configs[:25], params) for e in _iteration_errors(c, p)
        ]),
        ("fixed_point", 1e-12, [abs(collide_analytic(p.p0_inf, p) - p.p0_inf) for p in params]),
        ("heat_conservation", 1e-12, [
            abs(heat_sample(k, c.p00, c) + heat_ancilla(k, c.p00, c)
                + probe_energy_change(k, c.p00, c))
            for c in configs for k in (1, 7, 150)
        ]),
        ("telescoping", 1e-12, [
            abs(float(perturbation_trajectory(40, c.p00, c).delta_p.sum())
                - (transient_population(40, c.p00, p) - c.p00))
            for c, p in zip(configs, params)
        ]),
        # 1 where the two heats share a sign; heaviside keeps a NaN product NaN.
        ("heat_sign_opposition", 0.5, np.heaviside(heats[signed].prod(axis=1), 1.0)),
        ("snr_fisher_consistency", 1e-12, [
            abs(pt.snr - c.T * math.sqrt(3 * fisher_binary(steady_population(c), pt.sensitivity)))
            / pt.snr
            for c, pt in zip(configs, steady) if pt.snr != 0.0
        ]),
    )
    rows = []
    for i, (_, tol, errors) in enumerate(battery):
        error = np.max([0.0, *errors])  # NaN propagates here and fails error <= tol
        rows.append((i, float(error <= tol), error))
    checks = ",".join(name for name, _, _ in battery)
    meta = _base_meta(scenario) | {"samples": scenario.samples, "checks": checks}
    return make_table(("check", "ok", "max_error"), rows, meta)


def run_verification(samples: int = 200, seed: int = DEFAULT_SEED) -> ResultTable:
    """The ``verify`` battery on ``samples`` random machines drawn from ``seed``."""
    return _run_verify(Scenario(name="verify", kind="verify", samples=samples, seed=seed))


def verification_passed(table: ResultTable) -> bool:
    return bool(np.all(table.cells[:, table.columns.index("ok")] == 1.0))


#: Per kind: its runner and the fields it reads besides name, kind and seed.
_KINDS = {
    "steady-sweep": (_run_steady_sweep, _TUNING + _T_AXIS + ("priors", "M")),
    "transient-sweep": (_run_transient_sweep, _TUNING + _K_AXIS + _BLOCKS + ("M",)),
    "cost-comparison": (_run_cost_comparison, _TUNING + _K_AXIS + ("p00", "T", "M", "M_alt")),
    "heat-trajectory": (_run_heat_trajectory, _TUNING + _K_AXIS + _BLOCKS),
    "noisy-ancilla": (_run_noisy_ancilla, _TUNING + _T_AXIS + ("delta_Tv_rel", "M")),
    "montecarlo": (_run_montecarlo, _TUNING + ("p00", "T", "M", "trials", "model", "k_measure")),
    "verify": (_run_verify, ("samples",)),
}


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
    runner, _ = _KINDS[scenario.kind]
    # numpy would only warn on 0/0, x/0 or overflow and write the NaN or inf to a
    # cell; raised, it is a FloatingPointError, an ArithmeticError.
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        return runner(scenario)
