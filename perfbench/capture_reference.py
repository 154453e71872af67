"""Write reference.json: fingerprints of every figures table and the
per-trial Monte Carlo counts at the package's default seed.

The committed file was captured from the package as it was when the
benchmark was defined; later versions must match it within the tolerances
in expect.py.  Re-running this script replaces that baseline, so do it only
when an intended change of results has been reviewed.

    python3 perfbench/capture_reference.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import thermomachine as tm  # noqa: E402
from thermomachine import cli  # noqa: E402

import expect  # noqa: E402
import workloads  # noqa: E402


def figures() -> dict:
    out = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        path = Path(tmp) / "table.csv"
        for key in [f"preset {p}" for p in workloads.PRESETS] + list(workloads.CLI_DEFAULTS):
            if cli.main(key.split(" ") + ["--out", str(path)]) != 0:
                raise SystemExit(f"{key} failed")
            out[key] = expect.summarize(*expect.parse_csv(path.read_text()))
    return out


def monte_carlo(seed: int) -> dict:
    studies = {}
    for name, (machine, M, trials, k, _) in workloads.STUDIES.items():
        config = workloads.tuned(machine)
        if k is None:
            p_true = tm.steady_population(config)
        else:
            p_true = tm.transient_population(k, config.p00, tm.collision_params(config))
        m0 = [tm.sample_measurements(p_true, M, tm.trial_seed(seed, i)).m0 for i in range(trials)]
        report = tm.empirical_snr_study(config, M=M, trials=trials, seed=seed, k=k)
        studies[name] = {"mean": report.t_hat_mean, "std": report.t_hat_std, "m0": m0}
    return {"seed": seed, "studies": studies}


def main() -> None:
    reference = {"figures": figures(), "mc": monte_carlo(workloads.DEFAULT_SEED)}
    workloads.REFERENCE.write_text(json.dumps(reference, separators=(",", ":")) + "\n")
    print(f"wrote {workloads.REFERENCE} ({workloads.REFERENCE.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
