"""The package's public export list, and README's library example that uses it."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np

import thermomachine

EXPORTS = [
    "__version__",
    "CollisionParams",
    "GapOrderingWarning",
    "MachineConfig",
    "ThermalQubit",
    "collision_params",
    "thermal_population",
    "tune_config",
    "DLevelSample",
    "ProbeState",
    "build_triad_hamiltonian",
    "collide_analytic",
    "collide_oracle",
    "collide_oracle_dlevel",
    "collide_oracle_matrix",
    "exact_unitary",
    "reduce_d_level",
    "steady_population",
    "transient_population",
    "DEFAULT_SEED",
    "EstimationReport",
    "MeasurementRecord",
    "empirical_snr_study",
    "ml_estimate",
    "prior_interval",
    "sample_measurements",
    "steady_model",
    "transient_model",
    "trial_seed",
    "HeatTrajectory",
    "heat_ancilla",
    "heat_sample",
    "perturbation_trajectory",
    "probe_energy_change",
    "SQRT_TWO_OVER_PI",
    "NoisyAncillaSpec",
    "SnrPoint",
    "fisher_binary",
    "jump_rate_derivative",
    "max_thermal_snr",
    "noisy_peak",
    "noisy_peak_in_prior",
    "required_interactions",
    "sensitivity_steady",
    "sensitivity_transient",
    "snr_noisy_ancilla",
    "snr_sample_bound",
    "snr_steady",
    "snr_thermal",
    "snr_transient",
    "PRESETS",
    "Scenario",
    "run_scenario",
    "run_verification",
    "ResultTable",
    "export",
    "from_csv",
    "to_csv",
    "to_json",
]


def test_exported_names_are_pinned():
    assert thermomachine.__all__ == EXPORTS


def test_the_readme_library_example_runs_as_written():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, []  # each bare expression's value, in order
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    steady, _, sweep = values
    cfg, report = namespace["cfg"], namespace["report"]
    assert (cfg.eps_v, cfg.eps_p) == (4.0, 3.0)
    assert repr(steady).startswith("2.217")
    assert sweep.dtype == np.float64 and sweep.shape == (301,)
    assert abs(report.empirical_snr / report.crb_snr - 1.0) < 0.1
