"""Result-table invariants, export round-trips and the JSON schema."""

from __future__ import annotations

import hashlib
import json
import math
import re
import tracemalloc
from itertools import zip_longest
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermomachine import PRESETS, ResultTable, cli, from_csv, run_scenario, to_csv, to_json
from thermomachine.cli import EXIT_OK, main
from thermomachine.scenarios import Scenario
from thermomachine.tables import _BLOCK, _chunks, export, schema_text


def small_table() -> ResultTable:
    return ResultTable(
        ("a", "b"),
        ((1.0, 2.0), (0.1 + 0.2, 1e-300), (float(2**53 - 1), -4.9406564584124654e-324)),
        {"scenario": "unit", "kind": "steady-sweep", "version": "0.1.0", "seed": 7},
    )


def test_rectangularity_enforced():
    with pytest.raises(ValueError):
        ResultTable(columns=("a", "b"), cells=((1.0,),))


def test_width_mismatch_refused_by_result_table_and_from_csv():
    with pytest.raises(ValueError):
        ResultTable(("a", "b"), ((1.0, 2.0, 3.0),))
    with pytest.raises(ValueError):
        ResultTable(("a", "b"), ((1.0, 2.0), (3.0,)))
    # A one-cell row would broadcast across a numpy row; it must be refused.
    for body in ("1\n", "1,2,3\n"):
        with pytest.raises(ValueError):
            from_csv("a,b\n1,2\n" + body)
    assert ResultTable(("a", "b"), []).cells.shape == (0, 2)


def test_an_empty_table_takes_its_width_from_the_columns():
    assert ResultTable(("a", "b", "c"), ()).cells.shape == (0, 3)
    assert from_csv("# seed=1\na,b\n").cells.shape == (0, 2)
    with pytest.raises(ValueError, match="CSV has no header row"):
        from_csv("# seed=1\n")
    assert ResultTable(("a", "b"), np.empty((0, 2))).cells.shape == (0, 2)
    with pytest.raises(ValueError, match=r"shape \(0, 3\), expected \(rows, 2\)"):
        ResultTable(("a", "b"), np.empty((0, 3)))  # only the shape (0,) takes the width


def test_cells_are_one_read_only_float64_array():
    table = small_table()
    assert table.cells.dtype == np.float64 and table.cells.shape == (3, 2)
    with pytest.raises(ValueError):
        table.cells[0, 0] = 5.0
    assert table.rows[1] == (0.1 + 0.2, 1e-300)
    # A runner's own array stays writeable; the table holds a read-only view of it.
    mine = np.ones((2, 1))
    assert not ResultTable(("a",), mine).cells.flags.writeable
    assert mine.flags.writeable


def _old_csv_row(row):
    return ",".join(format(float(x), ".17g") for x in row)


def _csv_reference(cells):
    return "".join(f"{_old_csv_row(row)}\n" for row in cells)


def _old_json_row(row):
    if all(map(math.isfinite, row)):
        return row
    return tuple(x if math.isfinite(x) else None for x in row)


def test_array_exporters_match_the_per_cell_reference():
    special = [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, float(2**53 - 1), 0.1 + 0.2]
    rows = [tuple(special[(i + j) % len(special)] for j in range(3)) for i in range(len(special))]
    meta = {"scenario": "x", "kind": "verify", "version": "0"}
    table = ResultTable(("a", "b", "c"), rows, meta)
    csv_body = to_csv(table).splitlines()[len(meta) + 1 :]
    assert csv_body == [_old_csv_row(row) for row in rows]
    old = {"meta": meta, "columns": ["a", "b", "c"], "rows": list(map(_old_json_row, rows))}
    assert to_json(table) == json.dumps(old, indent=2, allow_nan=False) + "\n"
    back = from_csv(to_csv(table))
    assert back.cells.tobytes() == table.cells.tobytes()


_FINITE_SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, float(2**53 - 1), 0.1 + 0.2, 1e300, 1.0]
_NON_FINITE = [math.inf, -math.inf, math.nan]


def _json_reference(table: ResultTable) -> str:
    """The encoder the block writer replaced: json.dumps of the whole payload."""
    rows = [[x if math.isfinite(x) else None for x in row] for row in table.cells.tolist()]
    payload = {"meta": table.meta, "columns": list(table.columns), "rows": rows}
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _assert_same_text(got, want):
    """Equal texts (or bytes), compared by digest: on a mismatch, name the first differing
    line, where pytest's own diff of two multi-MB strings runs for minutes."""
    __tracebackhide__ = True
    if hashlib.sha256(_raw(got)).digest() == hashlib.sha256(_raw(want)).digest():
        return
    lines = zip_longest(_raw(got).splitlines(True), _raw(want).splitlines(True))
    i, (a, b) = next((i, pair) for i, pair in enumerate(lines) if pair[0] != pair[1])
    pytest.fail(f"first difference on line {i}: got {a!r:.200}, want {b!r:.200}")


def _raw(text):
    return text.encode() if isinstance(text, str) else text


# Column layouts the block writers classify: whole-column and one-block constants, a
# constant inf, one non-finite cell, and integer columns holding one edge value each.
_WHOLE_EDGES = [-0.0, 2.0**53 - 1, -(2.0**53 - 1), 2.0**53, -(2.0**53), 1e16, 1e17]
_COLUMN_KINDS = ["noise", "constant", "block-1 constant", "inf", "one non-finite", *_WHOLE_EDGES]
_LONG, _NOISE = 2 * _BLOCK + 1, ["noise"] * 7


def _shape_columns(cells, kinds, rng):
    n = len(cells)
    for j, kind in enumerate(kinds[: cells.shape[1]]):
        if kind == "constant":
            cells[:, j] = rng.choice(_FINITE_SPECIAL)
        elif kind == "block-1 constant":
            cells[:_BLOCK, j] = rng.choice(_FINITE_SPECIAL)
        elif kind == "inf":
            cells[:, j] = math.inf
        elif kind == "one non-finite" and n:
            cells[rng.integers(n), j] = rng.choice(_NON_FINITE)
        elif not isinstance(kind, str):  # integers below 2^53, then one edge value
            cells[:, j] = rng.integers(-(2**53) + 1, 2**53, n) >> rng.integers(0, 53, n)
            cells[rng.integers(n, size=min(n, 2)), j] = kind


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([0, 1, _BLOCK, 2 * _BLOCK + 1]),
    width=st.integers(0, 7),
    seed=st.integers(0, 2**32 - 1),
    non_finite_row=st.sampled_from([None, 0, _BLOCK - 1, _BLOCK, 2 * _BLOCK]),
    # A non-finite meta value is refused by both encoders: test_non_finite_meta_is_refused_by_to_json.
    meta_value=st.one_of(
        st.text(), st.booleans(), st.integers(), st.floats(allow_nan=False, allow_infinity=False)
    ),
    kinds=st.lists(st.sampled_from(_COLUMN_KINDS), min_size=7, max_size=7),
)
@example(n=_LONG, width=3, seed=1, non_finite_row=0, meta_value='Tempé "ratur" \\ ∞', kinds=_NOISE)
@example(n=_LONG, width=7, seed=2, non_finite_row=2 * _BLOCK, meta_value=True, kinds=_NOISE)
@example(n=_BLOCK, width=1, seed=3, non_finite_row=_BLOCK - 1, meta_value=False, kinds=_NOISE)
# Every column kind: an edge value per integer column; constants broken in block one's last row.
@example(n=_LONG, width=7, seed=4, non_finite_row=None, meta_value=0, kinds=_WHOLE_EDGES)
@example(
    n=_LONG, width=7, seed=5, non_finite_row=None, meta_value=0, kinds=[*_COLUMN_KINDS[:5], 0.0, 1.0]
)
@example(
    n=_LONG, width=7, seed=6, non_finite_row=_BLOCK - 1, meta_value=0, kinds=_COLUMN_KINDS[1:8]
)
def test_block_writers_match_the_whole_table_reference(
    n, width, seed, non_finite_row, meta_value, kinds
):
    rng = np.random.default_rng(seed)
    cells = rng.standard_normal((n, width)) * 10.0 ** rng.integers(-300, 300, (n, width))
    special = rng.random((n, width)) < 0.2
    cells[special] = rng.choice(_FINITE_SPECIAL, size=int(special.sum()))
    _shape_columns(cells, kinds, rng)
    if non_finite_row is not None and non_finite_row < n and width:
        cells[non_finite_row] = rng.choice(_NON_FINITE, size=width)
    meta = {"scenario": "x", "kind": "verify", "version": "0", "note": meta_value}
    table = ResultTable(tuple(f"c{j}" for j in range(width)), cells, meta)
    _assert_same_text(to_json(table), _json_reference(table))
    csv_text = to_csv(ResultTable(table.columns, cells))  # meta text may hold a line break
    _assert_same_text(csv_text.partition("\n")[2], _csv_reference(cells))
    if width:  # a zero-width row is an empty line, which from_csv skips
        _assert_same_text(from_csv(csv_text).cells.tobytes(), table.cells.tobytes())


def test_a_column_broken_only_between_its_first_and_last_rows_is_written_per_cell():
    # The writers test full columns only where row 0 (and, for constancy, the last
    # row) passes; the break here is in a middle row of each block.
    cells = np.tile([2.5, 3.0, 0.0], (2 * _BLOCK + 3, 1))
    for row in (7, _BLOCK + 9):
        cells[row] = [7.0, 3.5, -0.0]
    table = ResultTable(("a", "b", "c"), cells)
    _assert_same_text(to_csv(table).partition("\n")[2], _csv_reference(cells))
    _assert_same_text(to_json(table), _json_reference(table))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("n", [0, _BLOCK + 1])
def test_non_finite_meta_is_refused_by_to_json(bad, n, tmp_path):
    table = ResultTable(("a",), np.ones((n, 1)), {"scenario": "x", "bad": bad})
    with pytest.raises(ValueError):
        to_json(table)
    # export refuses it before opening the destination: an existing file keeps
    # its bytes and a missing one is not created.
    existing, missing = tmp_path / "old.json", tmp_path / "new.json"
    existing.write_bytes(b"previous export\n")
    for path in (existing, missing):
        with pytest.raises(ValueError):
            export(table, "json", path)
    assert existing.read_bytes() == b"previous export\n"
    assert not missing.exists()


@pytest.mark.parametrize("n", [0, 1, 2 * _BLOCK + 1])
@pytest.mark.parametrize("width", [0, 3])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_export_writes_what_the_string_writers_return(n, width, fmt, tmp_path):
    cells = np.random.default_rng(n + width).standard_normal((n, width))
    if n > _BLOCK and width:
        cells[_BLOCK + 5] = [math.inf, math.nan, -math.inf]  # a non-finite row in block two
    table = ResultTable(tuple(f"c{j}" for j in range(width)), cells, {"scenario": "x", "seed": 3})
    written = export(table, fmt, tmp_path / f"t.{fmt}").read_text()
    assert written == (to_csv(table) if fmt == "csv" else to_json(table))


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_export_and_from_csv_scratch_memory_is_bounded_by_the_block(tmp_path):
    # fig2b's shape.  Joining the whole text before writing peaked at ~3x the
    # text; streaming a block at a time holds well under a third of it.
    cells = np.random.default_rng(0).random((30_006, 6))
    table = ResultTable(tuple(f"c{j}" for j in range(6)), cells)
    for fmt in ("csv", "json"):
        path = tmp_path / f"t.{fmt}"
        peak = _traced_peak(lambda: export(table, fmt, path))
        assert peak < path.stat().st_size / 3, (fmt, peak)
    # from_csv holds the parsed array (its parts, then their concatenation)
    # and one chunk of lines; a list of every line took over twice the text.
    text = to_csv(table)
    assert _traced_peak(lambda: from_csv(text)) < 1.5 * len(text)


@pytest.mark.parametrize("index", [0, _BLOCK - 1, _BLOCK, 40_000])  # 40,000: past the first chunk
@pytest.mark.parametrize("cells", ["1", "1,2,3"])
def test_from_csv_names_the_ragged_row(index, cells):
    rows = ["1,2"] * (max(index, _BLOCK) + 3)
    rows[index] = cells
    with pytest.raises(ValueError, match=f"CSV row {index} has {cells.count(',') + 1} cells"):
        from_csv("a,b\n" + "\n".join(rows) + "\n")


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_from_csv_reads_any_line_break_in_any_chunk(newline):
    table = ResultTable(("a", "b", "c"), np.random.default_rng(1).random((10_000, 3)), {"seed": 2})
    text = to_csv(table) + "\n# late=1\n"  # a meta line after the rows, in the last chunk
    back = from_csv(text.replace("\n", newline))
    assert back.cells.tobytes() == table.cells.tobytes()
    assert back.meta == {"seed": 2, "late": 1}


def test_from_csv_refuses_a_short_row_beside_a_long_one():
    # The block's comma count is right, so only a per-row count sees it.
    rows = ["1,2"] * 10
    rows[4:6] = ["1", "1,2,3"]
    with pytest.raises(ValueError, match="CSV row 4 has 1 cells, expected 2"):
        from_csv("a,b\n" + "\n".join(rows) + "\n")


def test_from_csv_refuses_rows_that_all_have_one_wrong_width():
    # numpy's reader parses these into a (2, 4) array; only the width check refuses them.
    with pytest.raises(ValueError, match="CSV row 0 has 4 cells, expected 2"):
        from_csv("a,b\n1,2,3,4\n5,6,7,8\n")


@pytest.mark.parametrize("cell", ["1_0", "\u0663"])  # Python's float reads both; no writer emits them
def test_from_csv_refuses_cells_numpy_cannot_read(cell):
    rows = ["1,2"] * 50_000
    rows[40_000] = f"{cell},2"  # past the first chunk: the error names the chunk's CSV rows
    with pytest.raises(ValueError, match=r"in CSV rows \d+-49999: "):
        from_csv("a,b\n" + "\n".join(rows) + "\n")


def test_from_csv_accepts_non_finite_cells():
    back = from_csv("a,b,c\ninf,-inf,nan\n1,2,3\n")
    assert back.cells[0, 0] == math.inf and back.cells[0, 1] == -math.inf
    assert math.isnan(back.cells[0, 2]) and back.cells[1].tolist() == [1.0, 2.0, 3.0]


def test_csv_round_trip_is_exact():
    table = small_table()
    back = from_csv(to_csv(table))
    assert back.columns == table.columns
    assert back.rows == table.rows
    assert back.meta["scenario"] == "unit"


def test_exports_are_byte_identical(tmp_path):
    table = small_table()
    p1 = export(table, "csv", tmp_path / "one.csv")
    p2 = export(table, "csv", tmp_path / "two.csv")
    assert p1.read_bytes() == p2.read_bytes()
    j1 = export(table, "json", tmp_path / "one.json")
    j2 = export(table, "json", tmp_path / "two.json")
    assert j1.read_bytes() == j2.read_bytes()


def test_header_only_csv_for_empty_sweep():
    scenario = Scenario(name="empty", kind="steady-sweep", T_prior=0.25, points=0)
    table = run_scenario(scenario)
    text = to_csv(table)
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert body == ["T_prior,T,p0_inf,sensitivity,snr,snr_thermal,snr_at_prior"]
    assert text.endswith("\n")


def test_metadata_lines_are_hash_prefixed():
    text = to_csv(small_table())
    meta_lines = [ln for ln in text.splitlines() if ln.startswith("#")]
    assert "# scenario=unit" in meta_lines
    assert "# seed=7" in meta_lines


def test_json_export_matches_schema(validate_table_json):
    table = run_scenario(Scenario(name="s", kind="steady-sweep", T_prior=0.2, points=5))
    payload = json.loads(to_json(table))
    validate_table_json(payload)


def test_json_schema_cross_checked_with_jsonschema(validate_table_json):
    table = run_scenario(Scenario(name="s", kind="cost-comparison", T=0.1, T_prior=0.11, k_max=5))
    validate_table_json(json.loads(to_json(table)))
    bad = {"meta": {}, "columns": ["a"], "rows": [[1.0]]}
    with pytest.raises(jsonschema.ValidationError):
        validate_table_json(bad)


def test_validate_rejects_malformed_payloads(validate_table_json):
    good = json.loads(to_json(small_table()))
    validate_table_json(good)
    with pytest.raises(jsonschema.ValidationError):
        validate_table_json([])
    with pytest.raises(jsonschema.ValidationError):
        validate_table_json({"meta": good["meta"], "columns": ["a"]})
    ragged = dict(good, rows=[[1.0]])  # schema-valid: only the width check refuses it
    jsonschema.validate(ragged, json.loads(schema_text()))
    with pytest.raises(jsonschema.ValidationError):
        validate_table_json(ragged)
    stringy = dict(good, rows=[["x", "y"], ["z", "w"]])
    with pytest.raises(jsonschema.ValidationError):
        validate_table_json(stringy)


def full_schema_validate(payload: object) -> None:
    """The reference validator: jsonschema over every cell, then each row's width."""
    jsonschema.validate(payload, json.loads(schema_text()))
    for i, row in enumerate(payload["rows"]):
        if len(row) != len(payload["columns"]):
            raise jsonschema.ValidationError(f"row {i} has {len(row)} cells")


def test_validator_agrees_with_full_schema_validation(validate_table_json):
    good = json.loads(to_json(small_table()))
    variants = [
        {},
        [],
        "table",
        None,
        {"meta": good["meta"], "columns": ["a", "b"]},
        dict(good, extra=1),
        dict(good, meta={"scenario": "x"}),
        dict(good, meta=dict(good["meta"], seed=1.5)),
        dict(good, meta=dict(good["meta"], seed=True)),
        dict(good, columns=["a", 2]),
        dict(good, columns=["a"]),
        dict(good, columns=[]),
    ]
    rows_variants = [
        [],
        [[]],
        None,
        {},
        "rows",
        1.0,
        [1.0, 2.0],
        [None],
        [{"a": 1.0}],
        ["ab"],
        [(1.0, 2.0)],
        [[1, 2]],
        [[1.0, None], [None, None]],
        [[1.0, math.nan]],
        [[True, 1.0]],
        [[1.0, False]],
        [[1.0, "2"]],
        [[1.0, [2.0]]],
        [[1.0, {}]],
        [[1.0, 2.0], [3.0]],
        [[1.0, 2.0, 3.0]],
        [[1.0, 2.0], "xy"],
        [[1.0, 2.0], None],
    ]
    payloads = [good, *variants, *(dict(good, rows=rows) for rows in rows_variants)]
    payloads.append(json.loads(to_json(run_scenario(PRESETS["fig2a"]))))  # null cells
    verdicts = set()
    for payload in payloads:
        outcome = []
        for check in (full_schema_validate, validate_table_json):
            try:
                check(payload)
                outcome.append(True)
            except jsonschema.ValidationError:
                outcome.append(False)
        assert outcome[0] == outcome[1], payload
        verdicts.add(outcome[0])
    assert verdicts == {True, False}


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        export(small_table(), "yaml", tmp_path / "t.yaml")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_the_format_is_chosen_in_tables_alone(fmt):
    table = small_table()
    assert "".join(_chunks(table, fmt)) == (to_csv(table) if fmt == "csv" else to_json(table))
    with pytest.raises(ValueError, match="unknown format 'yaml'"):
        _chunks(table, "yaml")
    with pytest.raises(ValueError, match="not JSON compliant"):  # on the call, not on a next()
        _chunks(ResultTable(("a",), np.ones((3, 1)), {"bad": math.inf}), "json")
    # The CLI's stdout branch takes the same chunks: it names no writer of its own.
    assert not re.search(r"_(csv|json)_chunks", Path(cli.__file__).read_text())


def test_json_writes_non_finite_cells_as_null(validate_table_json):
    meta = {"scenario": "x", "kind": "verify", "version": "0"}
    table = ResultTable(("a", "b"), ((float("inf"), 1.5), (2.0, float("nan"))), meta)
    payload = json.loads(to_json(table))
    assert payload["rows"] == [[None, 1.5], [2.0, None]]
    validate_table_json(payload)
    assert "inf" in to_csv(table)  # CSV still carries the undefined marker
    # A constant inf column, and a lone inf row (a montecarlo table whose empirical_snr is
    # inf), take the row template: their inf cells still reach the null swap.
    for cells, rows in (
        (((math.inf, 1.0), (math.inf, 2.5)), [[None, 1.0], [None, 2.5]]),
        (((7.0, math.inf),), [[7.0, None]]),
    ):
        payload = json.loads(to_json(ResultTable(("a", "b"), cells, meta)))
        assert payload["rows"] == rows
        validate_table_json(payload)
    # The pure-start k = 0 rows of fig2a carry the documented snr = inf.
    fig2a = json.loads(to_json(run_scenario(PRESETS["fig2a"])))
    validate_table_json(fig2a)
    assert sum(row.count(None) for row in fig2a["rows"]) == 3
    # JSON has no inf token, so a non-finite meta value is still refused.
    with pytest.raises(ValueError):
        to_json(ResultTable(("a",), ((1.0,),), dict(meta, bad=float("inf"))))


def test_fig1b_round_trips_through_csv():
    table = run_scenario(PRESETS["fig1b"])
    back = from_csv(to_csv(table))
    assert back.rows == table.rows


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_csv_to_json_round_trip_is_schema_valid(name, validate_table_json):
    text = to_csv(run_scenario(PRESETS[name]))
    back = from_csv(text)
    assert to_csv(back) == text
    assert back.meta["seed"] == PRESETS[name].seed
    validate_table_json(json.loads(to_json(back)))


@pytest.mark.parametrize("name", ["7", "3.5", "-0", "1e5", "0x10", "inf"])
def test_numeric_scenario_name_round_trips_as_text(name, validate_table_json):
    # The schema types scenario, kind and version as strings, so from_csv keeps them as text.
    text = to_csv(run_scenario(Scenario(name=name, kind="steady-sweep", T_prior=0.25, points=2)))
    back = from_csv(text)
    assert back.meta["scenario"] == name
    assert to_csv(back) == text
    validate_table_json(json.loads(to_json(back)))


def test_from_csv_parses_meta_only_when_it_reformats_exactly():
    text = "# seed=7\n# x=0.25\n# v=0.1.0\n# pad=007\n# short=1e-05\n# big=inf\na\n1\n"
    back = from_csv(text)
    assert back.meta == {
        "seed": 7, "x": 0.25, "v": "0.1.0", "pad": "007", "short": "1e-05", "big": "inf"
    }
    assert to_csv(back) == text


def test_boolean_meta_round_trips_as_bool(capsys, validate_table_json):
    argv = ["montecarlo", "--set", "trials=100", "--set", "M=100", "--format"]
    assert main([*argv, "csv"]) == EXIT_OK
    text = capsys.readouterr().out
    assert main([*argv, "json"]) == EXIT_OK
    direct = capsys.readouterr().out
    back = from_csv(text)
    assert back.meta["small_m_warning"] is True and back.meta["singular"] is False
    assert to_json(back) == direct
    assert to_csv(back) == text
    validate_table_json(json.loads(to_json(back)))
    # Only Python's own spelling of a bool is read as one.
    loose = from_csv("# a=true\n# b=TRUE\n# c=1\n# d=False\nx\n1\n").meta
    assert loose == {"a": "true", "b": "TRUE", "c": 1, "d": False} and loose["d"] is False
