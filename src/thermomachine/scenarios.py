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
from typing import Iterable, Iterator

import numpy as np

from . import __version__
from .core import CollisionParams, MachineConfig, _check_count, _check_range, _probe_gap
from .core import collision_params, tune_config
from .dynamics import COUPLED_STATES, _collide, _triad_lanes, collide_analytic, transient_population
from .estimation import DEFAULT_SEED, empirical_snr_study
from .heat import heat_ancilla, heat_sample, perturbation_trajectory, probe_energy_change
from .metrology import (
    SQRT_TWO_OVER_PI,
    NoisyAncillaSpec,
    _fisher_two_sided,
    _mistuned_gap,
    snr_noisy_ancilla,
    snr_sample_bound,
    snr_steady,
    snr_thermal,
    snr_transient,
)
from .tables import ResultTable

_TUNING = ("eps_s", "T_prior", "T_v")
_T_AXIS = ("points", "t_min", "t_max")
_K_AXIS = ("k_min", "k_max", "k_step")
_BLOCKS = ("p00", "T", "temps", "p00_values")  # one block per (T, p00) pair
_BLOCK_NEEDS = ("T_prior", "T|temps")

@dataclass(frozen=True)
class Scenario:
    """One runnable experiment description, checked when it is built (and by ``replace``).

    A scenario that can be built can be run: it sets every field its kind needs, and
    no field its kind never reads differs from its default.  Energies are in units of
    eps_s and temperature-like fields are set as fractions of eps_s.  Multi-valued
    fields (``priors``, ``temps``, ``p00_values``) take any sequence of numbers, kept as a
    tuple of floats, and produce long-format tables with one block per combination.
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
        for name in ("priors", "temps", "p00_values"):  # a numpy array would compare per element
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        counts = dict(
            points=0, k_min=0, k_step=1, k_max=self.k_min, M=1, M_alt=1, samples=1, seed=0
        )
        for name, low in counts.items():
            _check_count(name, getattr(self, name), low)
        if self.k_measure is not None:
            _check_count("k_measure", self.k_measure, 0)
        if (self.t_min is None) != (self.t_max is None):
            raise ValueError("t_min and t_max must be given together")
        if self.t_min is not None:
            _check_range("t_min", self.t_min, 0.0)
            _check_range("t_max", self.t_max, self.t_min)
        changed = [f.name for f in fields(self) if getattr(self, f.name) != f.default]
        _refuse_unread(self.kind, self.model, changed)
        readout = ("k_measure",) if self.model == "transient" else ()  # only montecarlo's
        for group in _KINDS[self.kind][2] + readout:
            if all(getattr(self, f) in (None, ()) for f in group.split("|")):
                raise ValueError(f"{self.kind} needs {group.replace('|', ' or ')}")
        if self.model not in ("steady", "transient"):  # another kind reads no model
            raise ValueError(f"unknown estimation model {self.model!r}")
        if self.kind != "verify":  # a kind that tunes machines, checked as its runner tunes them
            for t_prior in self.priors or (self.T_prior,):
                _probe_gap(self.eps_s, self.T_v, t_prior)
            for sign in (1, -1) if self.kind == "noisy-ancilla" else ():
                _mistuned_gap(self, NoisyAncillaSpec(self.delta_Tv_rel, sign))


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


def _refuse_unread(kind: str, model: str, names: Iterable[str]) -> None:
    """Refuse the ``names`` a ``kind`` scenario never reads (a steady montecarlo study
    reads neither ``k_measure`` nor ``p00``)."""
    read = {"name", "kind", "seed", *_KINDS[kind][1]}
    if kind == "montecarlo" and model == "steady":
        kind, read = "steady montecarlo", read - {"k_measure", "p00"}
    unread = sorted(set(names) - read)
    if unread:
        raise ValueError(f"{kind} scenarios do not read {', '.join(unread)}")


def apply_settings(scenario: Scenario, settings: dict[str, object]) -> Scenario:
    """Override fields of ``scenario``: ``replace`` checks the result, and this adds the pass
    by name, which refuses a field the kind never reads even when set to its default."""
    kind = settings.get("kind", scenario.kind)
    if kind in _KINDS:  # replace names an unknown kind, and an unknown field
        _refuse_unread(kind, settings.get("model", scenario.model), settings.keys() & _FIELD_TYPES)
    return replace(scenario, **settings)


def _tuned(scenario: Scenario, T: float, p00: float | None = None) -> MachineConfig:
    return tune_config(
        eps_s=scenario.eps_s,
        T=T,
        T_prior=scenario.T_prior,
        T_v=scenario.T_v,
        p00=scenario.p00 if p00 is None else p00,
    )


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


# ----------------------------------------------------------------------
# Scenario runners: each yields its blocks as {column: values} along its k or T
# axis (a float repeats down the block) and adds only its own keys to ``meta``.
# ----------------------------------------------------------------------


def _run_steady_sweep(scenario: Scenario, meta: dict) -> Iterator[dict]:
    u, M = scenario.eps_s, scenario.M  # temperatures reported in units of eps_s
    for t_prior in scenario.priors or (scenario.T_prior,):
        T = _temperature_grid(scenario, t_prior)
        pt = snr_steady(_tuned(replace(scenario, T_prior=t_prior), T), M)
        yield {
            "T_prior": t_prior / u, "T": T / u, "p0_inf": pt.p0, "sensitivity": pt.sensitivity * u,
            "snr": pt.snr, "snr_thermal": snr_thermal(T, scenario.eps_s, M),
            "snr_at_prior": 0.5 * math.sqrt(M) * scenario.eps_s / T,
        }


def _blocks(scenario: Scenario) -> list[tuple[float, float]]:
    """The (T, p00) pair of each block of a k sweep, temperature outermost."""
    p00s = scenario.p00_values or (scenario.p00,)
    return [(T, p00) for T in scenario.temps or (scenario.T,) for p00 in p00s]


def _run_transient_sweep(scenario: Scenario, meta: dict) -> Iterator[dict]:
    u = scenario.eps_s
    k = _k_values(scenario, scenario.k_min)
    for T, p00 in _blocks(scenario):
        pt = snr_transient(k, p00, _tuned(scenario, T, p00), scenario.M)
        yield {
            "T": T / u, "p00": p00, "k": pt.k, "p0_k": pt.p0,
            "sensitivity": pt.sensitivity * u, "snr": pt.snr,
        }


def _run_cost_comparison(scenario: Scenario, meta: dict) -> Iterator[dict]:
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
    meta["ref_sqrt_2_over_pi"] = SQRT_TWO_OVER_PI
    # The plateau the transient columns climb toward; the measurement-cost
    # comparison reads the thermal column against these steady limits.
    meta["snr_machine_steady_m1"] = snr_steady(config, scenario.M).snr
    meta["snr_machine_steady_m2"] = snr_steady(config, scenario.M_alt).snr
    yield {
        "k": snr_m1.k,
        "snr_machine_m1": snr_m1.snr,
        "snr_machine_m2": snr_m2,
        "snr_thermal_mk": bound,
        "snr_sample_bound": bound,
        "ratio_to_bound": snr_m1.snr / bound,
    }


def _run_heat_trajectory(scenario: Scenario, meta: dict) -> Iterator[dict]:
    k = _k_values(scenario, max(1, scenario.k_min))
    j = k - 1
    u = scenario.eps_s
    for T, p00 in _blocks(scenario):
        config = _tuned(scenario, T, p00)
        traj = perturbation_trajectory(scenario.k_max, p00, config)
        yield {
            "T": T / u, "p00": p00, "k": k, "delta_p": traj.delta_p[j],
            "sample_p0": traj.sample_p0[j], "ancilla_p0": traj.ancilla_p0[j],
            "q_sample": heat_sample(k, p00, config) / u,
            "q_ancilla": heat_ancilla(k, p00, config) / u,
        }


def _run_noisy_ancilla(scenario: Scenario, meta: dict) -> Iterator[dict]:
    T = _temperature_grid(scenario, scenario.T_prior)
    config, M = _tuned(scenario, T), scenario.M
    plus, minus = (
        snr_noisy_ancilla(config, NoisyAncillaSpec(scenario.delta_Tv_rel, sign), M).snr
        for sign in (1, -1)
    )
    meta["delta_Tv_rel"] = scenario.delta_Tv_rel
    yield {
        "T": T / scenario.eps_s, "snr_ideal": snr_steady(config, M).snr,
        "snr_plus": plus, "snr_minus": minus,
    }


def _run_montecarlo(scenario: Scenario, meta: dict) -> Iterator[dict]:
    config = _tuned(scenario, scenario.T)
    report = empirical_snr_study(
        config,
        M=scenario.M,
        trials=scenario.trials,
        seed=scenario.seed,
        k=scenario.k_measure,
        p00=scenario.p00,
    )
    meta["model"] = scenario.model
    meta["small_m_warning"] = report.small_m_warning
    meta["singular"] = report.singular
    u = scenario.eps_s
    yield {
        "T_true": scenario.T / u,
        "M": scenario.M,
        "trials": report.trials,
        "t_hat_mean": report.t_hat_mean / u,
        "t_hat_std": report.t_hat_std / u,
        "rmse": report.rmse / u,
        "empirical_snr": report.empirical_snr,
        "crb_snr": report.crb_snr,
        "clamped_fraction": report.clamped_fraction,
    }


# ----------------------------------------------------------------------
# Verification battery
# ----------------------------------------------------------------------


def _random_configs(samples: int, seed: int) -> MachineConfig:
    # One uniform row per machine, tuned as one lane: eps_s, T_prior / eps_s, T / T_prior,
    # T_v / T_prior, eps_I, p00.
    low, high = (0.5, 0.05, 0.15, 2.0, 0.5, 0.0), (2.0, 0.45, 1.85, 4.0, 2.0, 1.0)
    e, f, g, f_v, i, p = np.random.default_rng(seed).uniform(low, high, (samples, 6)).T
    t_prior = e * f
    return tune_config(eps_s=e, T=t_prior * g, T_prior=t_prior, T_v=f_v * t_prior, eps_I=i, p00=p)


def _run_verify(scenario: Scenario, meta: dict) -> Iterator[dict]:
    """Run the oracle-equivalence and conservation self-checks.

    One row per check: (check index, ok flag, worst error), the
    machine-checkable health gate behind the ``verify`` CLI command.  A NaN
    error propagates to its row and fails the check.  Each check is an array expression over
    the machines, and each closed form one call on the MachineConfig that tunes them all; so is
    the exact oracle (``_triad_lanes``: every machine's Hamiltonian, unitary and collision in one
    ``eigh``), each lane bit for bit what the single-machine oracle gives.
    """
    machines = _random_configs(scenario.samples, scenario.seed)
    p00, params = machines.p00, collision_params(machines)
    swap = np.arange(8)  # column j of a full swap has its 1 in row swap[j]
    swap[list(COUPLED_STATES)] = COUPLED_STATES[::-1]
    h, u, oracle = _triad_lanes(machines)  # the unitarity and swap rows read u[0]
    free = h * np.eye(8)  # h - free is the swap coupling
    first = CollisionParams(params.r[:25], params.p0_inf[:25])  # the map iterated on 25 machines
    iterated = [p00[:25]]  # checked when the machines were built: the steps skip the check
    for _ in range(500):
        iterated.append(_collide(iterated[-1], first))
    k = np.array([1, 7, 150, 60])[:, None]  # the balance at k = 1, 7, 150 and the signs at 60
    q_s, q_v, q_p = (f(k, p00, machines) for f in (heat_sample, heat_ancilla, probe_energy_change))
    heats = np.array((q_s[3], q_v[3]))
    # Skip heats within 1e-15 of zero, written so that a NaN heat is not skipped.
    signed = ~(np.abs(heats) <= 1e-15).any(axis=0)
    steady = snr_steady(machines, M=3)
    p, snr, kept = params.p0_inf, steady.snr, steady.snr != 0.0
    # (name, tolerance, the errors it finds on the random machines), in row order.
    battery = (
        ("unitarity", 1e-12, np.abs(u[0] @ u[0].conj().T - np.eye(8)).max()),
        ("full_swap_permutation", 1e-10, np.abs(np.abs(u[0][swap, np.arange(8)]) - 1.0)),
        ("resonant_commutation", 1e-12, np.abs((h - free) @ free - free @ (h - free))),
        ("oracle_vs_analytic", 1e-10, np.abs(oracle - collide_analytic(p00, params))),
        ("closed_form_vs_iteration", 1e-12, np.abs([
            iterated[k] - transient_population(k, p00[:25], first) for k in (1, 10, 100, 500)
        ])),
        ("fixed_point", 1e-12, np.abs(collide_analytic(p, params) - p)),
        ("heat_conservation", 1e-12, np.abs(q_s + q_v + q_p)[:3]),
        # Each machine's 40 steps summed as one contiguous row, in the scalar sum's order.
        ("telescoping", 1e-12, np.abs(
            np.ascontiguousarray(perturbation_trajectory(40, p00, machines).delta_p.T).sum(axis=1)
            - (transient_population(40, p00, params) - p00)
        )),
        # 1 where the two heats share a sign; heaviside keeps a NaN product NaN.
        ("heat_sign_opposition", 0.5, np.heaviside(heats[:, signed].prod(axis=0), 1.0)),
        # fisher_binary's own form, unguarded, so that a NaN sensitivity fails this row.
        ("snr_fisher_consistency", 1e-12, np.abs(
            snr - machines.T * np.sqrt(3 * _fisher_two_sided(p, 1.0 - p, steady.sensitivity))
        )[kept] / snr[kept]),
    )
    names, tols, errors = zip(*battery)
    worst = np.array([np.max(np.append(0.0, e)) for e in errors])  # NaN propagates, fails <= tol
    meta.update(samples=scenario.samples, checks=",".join(names))
    yield {"check": np.arange(len(worst)), "ok": worst <= tols, "max_error": worst}


def run_verification(samples: int = 200, seed: int = DEFAULT_SEED) -> ResultTable:
    """The ``verify`` battery on ``samples`` random machines drawn from ``seed``."""
    return run_scenario(Scenario(name="verify", kind="verify", samples=samples, seed=seed))


def verification_passed(table: ResultTable) -> bool:
    return bool(np.all(table.cells[:, table.columns.index("ok")] == 1.0))


#: Per kind: its runner, the fields it reads besides name, kind and seed, and those it needs
#: ("T|temps": one of them set).  Scenario.__post_init__ checks each scenario against its row.
_KINDS = {
    "steady-sweep": (_run_steady_sweep, _TUNING + _T_AXIS + ("priors", "M"), ("T_prior|priors",)),
    "transient-sweep": (_run_transient_sweep, _TUNING + _K_AXIS + _BLOCKS + ("M",), _BLOCK_NEEDS),
    "cost-comparison": (
        _run_cost_comparison, _TUNING + _K_AXIS + ("p00", "T", "M", "M_alt"), ("T", "T_prior")
    ),
    "heat-trajectory": (_run_heat_trajectory, _TUNING + _K_AXIS + _BLOCKS, _BLOCK_NEEDS),
    "noisy-ancilla": (_run_noisy_ancilla, _TUNING + _T_AXIS + ("delta_Tv_rel", "M"), ("T_prior",)),
    "montecarlo": (
        _run_montecarlo, _TUNING + ("p00", "T", "M", "trials", "model", "k_measure"),
        ("T", "T_prior"),
    ),
    "verify": (_run_verify, ("samples",), ()),
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


def _stacked(block: dict) -> tuple[tuple[str, ...], np.ndarray]:
    """The block's column names and cells; a float column repeats down the block."""
    cells = np.empty((*np.broadcast_shapes(*map(np.shape, block.values())), len(block)))
    for i, values in enumerate(block.values()):
        cells[..., i] = values
    return tuple(block), cells.reshape(-1, len(block))


def run_scenario(scenario: Scenario) -> ResultTable:
    """Produce the result table of a scenario, which was checked when it was built."""
    runner = _KINDS[scenario.kind][0]
    meta = {
        "scenario": scenario.name,
        "kind": scenario.kind,
        "version": __version__,
        "seed": scenario.seed,
    }
    # numpy would only warn on 0/0, x/0 or overflow and write the NaN or inf to a
    # cell; raised, it is a FloatingPointError, an ArithmeticError.
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        # map drops each block once it is stacked, so one block's columns live at a time.
        names, blocks = zip(*map(_stacked, runner(scenario, meta)))
    cells = blocks[0] if len(blocks) == 1 else np.vstack(blocks)  # vstack copies even one block
    return ResultTable(names[0], cells, meta)
