"""Collisional two-level-probe thermometer: dynamics, metrology, estimation.

A two-level probe repeatedly undergoes energy-conserving three-body
collisions with fresh sample qubits at the unknown temperature T and a
rethermalized ancilla at a known hotter temperature.  The package provides
the exact triad evolution (the oracle), the closed-form collision
recurrence, Fisher-information/SNR metrology for steady and transient
probes, reproducible Monte Carlo maximum-likelihood estimation, heat
bookkeeping, and a scenario/preset CLI that emits CSV or JSON tables.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .core import (
    CollisionParams,
    GapOrderingWarning,
    MachineConfig,
    ThermalQubit,
    collision_params,
    thermal_population,
    tune_config,
)
from .dynamics import (
    DLevelSample,
    ProbeState,
    build_triad_hamiltonian,
    collide_analytic,
    collide_oracle,
    collide_oracle_dlevel,
    collide_oracle_matrix,
    exact_unitary,
    reduce_d_level,
    steady_population,
    transient_population,
)
from .estimation import (
    DEFAULT_SEED,
    EstimationReport,
    MeasurementRecord,
    empirical_snr_study,
    ml_estimate,
    prior_interval,
    sample_measurements,
    steady_model,
    transient_model,
    trial_seed,
)
from .heat import (
    HeatTrajectory,
    heat_ancilla,
    heat_sample,
    perturbation_trajectory,
    probe_energy_change,
)
from .metrology import (
    SQRT_TWO_OVER_PI,
    NoisyAncillaSpec,
    SnrPoint,
    fisher_binary,
    jump_rate_derivative,
    max_thermal_snr,
    noisy_peak,
    noisy_peak_in_prior,
    required_interactions,
    sensitivity_steady,
    sensitivity_transient,
    snr_noisy_ancilla,
    snr_sample_bound,
    snr_steady,
    snr_thermal,
    snr_transient,
)
from .scenarios import PRESETS, Scenario, run_scenario, run_verification
from .tables import ResultTable, export, from_csv, to_csv, to_json

#: The public names imported above (submodules excluded), plus ``__version__``.
__all__ = ["__version__"]
__all__ += [n for n, v in dict(globals()).items() if n[0] != "_" and not isinstance(v, _ModuleType)]
