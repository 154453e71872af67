"""Shared helpers for the test suite."""

from __future__ import annotations

import json
from decimal import Decimal, localcontext
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest

from thermomachine import MachineConfig, tune_config
from thermomachine.tables import schema_text


@pytest.fixture(scope="session")
def validate_table_json():
    """Check a decoded JSON table against the shipped schema, then each row's width.

    jsonschema checks the head (``rows`` emptied); the schema's rule for
    ``rows`` (a list of lists whose cells are numbers or null, and a bool
    is not a number) is checked in one plain pass, which costs a small
    fraction of jsonschema's walk over every cell.  A row's width against
    ``columns`` is the one rule the schema cannot state.
    """
    schema = json.loads(schema_text())

    def validate(payload: object) -> None:
        has_rows = isinstance(payload, dict) and "rows" in payload
        jsonschema.validate(dict(payload, rows=[]) if has_rows else payload, schema)
        rows, width = payload["rows"], len(payload["columns"])
        if not isinstance(rows, list):
            raise jsonschema.ValidationError("rows is not an array")
        for i, row in enumerate(rows):
            if not isinstance(row, list) or not all(map(_is_cell, row)):
                raise jsonschema.ValidationError(f"row {i} is not an array of numbers or nulls")
            if len(row) != width:
                raise jsonschema.ValidationError(f"row {i} has {len(row)} cells, expected {width}")

    return validate


def _is_cell(value: object) -> bool:
    return value is None or (isinstance(value, (int, float)) and not isinstance(value, bool))


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


def scalar_configs(samples, seed):
    """The verify machines drawn one number at a time, in the order of the uniform row."""
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


def decimal_relaxation(config: MachineConfig, k: int, p00: float, x_s: Decimal | None = None):
    """The probe's relaxation at 60 digits, from the float inputs the library forms.

    Returns the excited populations ``p1_s`` and ``p1_v``, the jump rate ``r``, the fixed
    point ``p0_inf`` and the population change ``change = p0_k - p00`` after k collisions,
    all Decimals.  The sample exponent ``x_s`` defaults to the float eps_s / T; the ancilla
    exponent is the float eps_v / T_v.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        one = Decimal(1)
        x_s = Decimal(config.eps_s / config.T) if x_s is None else x_s
        x_v = Decimal(config.eps_v / config.T_v)
        p1_s, p1_v = one / (one + x_s.exp()), one / (one + x_v.exp())
        r = p1_s * (one - p1_v) + (one - p1_s) * p1_v
        p0_inf = one / (one + (x_s - x_v).exp())
        change = (p0_inf - Decimal(p00)) * (one - (one - r) ** k)
    return SimpleNamespace(p1_s=p1_s, p1_v=p1_v, r=r, p0_inf=p0_inf, change=change)
