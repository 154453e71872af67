"""Shared helpers for the test suite."""

from __future__ import annotations

import json

import jsonschema
import numpy as np
import pytest

from thermomachine import MachineConfig, tune_config
from thermomachine.tables import schema_text


@pytest.fixture(scope="session")
def validate_table_json():
    """Check a decoded JSON table against the shipped schema, then each row's width.

    A row's width against ``columns`` is the one rule the schema cannot state.
    """
    schema = json.loads(schema_text())

    def validate(payload: object) -> None:
        jsonschema.validate(payload, schema)
        width = len(payload["columns"])
        for i, row in enumerate(payload["rows"]):
            if len(row) != width:
                raise jsonschema.ValidationError(f"row {i} has {len(row)} cells, expected {width}")

    return validate


def random_machine_configs(n: int, seed: int = 1) -> list[MachineConfig]:
    """Tuned machines over a broad but well-conditioned parameter range.

    The jump rate stays above ~1e-4 on this range, which keeps iterated
    maps comparable to closed forms at 1e-12 over 10^4 collisions.
    """
    rng = np.random.default_rng(seed)
    configs = []
    for _ in range(n):
        eps_s = rng.uniform(0.5, 2.0)
        t_prior = eps_s * rng.uniform(0.08, 0.45)
        configs.append(
            tune_config(
                eps_s=eps_s,
                T=t_prior * rng.uniform(0.15, 1.85),
                T_prior=t_prior,
                T_v=t_prior * rng.uniform(2.0, 4.0),
                eps_I=rng.uniform(0.5, 2.0),
                p00=rng.uniform(0.0, 1.0),
            )
        )
    return configs
