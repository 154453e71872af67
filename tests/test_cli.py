"""Command-line behavior: exit codes, overrides, formats, determinism."""

from __future__ import annotations

import io
import json
import math
import sys
from dataclasses import fields

import pytest

from thermomachine.cli import _DEFAULTS, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from thermomachine.scenarios import PRESETS, Scenario, apply_settings
from thermomachine.tables import from_csv


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_preset_to_stdout(capsys):
    code, out, err = run(["preset", "fig1b"], capsys)
    assert code == EXIT_OK
    table = from_csv(out)
    assert table.meta["scenario"] == "fig1b"
    assert len(table.rows) == 4 * 400


def test_preset_writes_identical_files(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["preset", "figS2-ratio", "--set", "k_max=50", "--out", str(a)]) == EXIT_OK
    assert main(["preset", "figS2-ratio", "--set", "k_max=50", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    meta = from_csv(a.read_text()).meta
    assert "ref_sqrt_2_over_pi" in meta


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("args", [["preset", "fig2b"], ["steady", "--set", "points=3"]])
def test_out_file_holds_the_bytes_stdout_prints(tmp_path, capsys, args, fmt):
    code, out, _ = run([*args, "--format", fmt], capsys)
    assert code == EXIT_OK
    path = tmp_path / f"t.{fmt}"
    assert main([*args, "--format", fmt, "--out", str(path)]) == EXIT_OK
    assert path.read_bytes() == out.encode()


def test_unknown_preset_is_usage_error(capsys):
    code, _, err = run(["preset", "nope"], capsys)
    assert code == EXIT_USAGE
    assert "unknown preset" in err


def test_invalid_sweep_bounds_usage_error(capsys):
    code, _, err = run(["transient", "--set", "k_min=10", "--set", "k_max=3"], capsys)
    assert code == EXIT_USAGE
    code, _, _ = run(["steady", "--set", "t_min=0.3", "--set", "t_max=0.1"], capsys)
    assert code == EXIT_USAGE
    code, _, err = run(["steady", "--set", "t_min=0.3"], capsys)
    assert code == EXIT_USAGE and "t_min and t_max must be given together" in err


def test_explicit_temperature_bounds(capsys):
    code, out, _ = run(
        ["steady", "--set", "t_min=0.1", "--set", "t_max=0.3", "--set", "points=7"],
        capsys,
    )
    assert code == EXIT_OK
    temps = [row[1] for row in from_csv(out).rows]
    assert len(temps) == 7
    assert temps[0] == 0.1 and temps[-1] == 0.3


def test_unknown_set_key_usage_error(capsys):
    code, _, err = run(["steady", "--set", "bogus=1"], capsys)
    assert code == EXIT_USAGE
    assert "bogus" in err


def test_missing_subcommand_usage_error(capsys):
    assert run([], capsys)[0] == EXIT_USAGE


@pytest.mark.parametrize("command", [*_DEFAULTS, "preset"])
def test_every_subcommand_lists_each_common_flag_once(command, capsys):
    with pytest.raises(SystemExit) as done:
        main([command, "--help"])
    assert done.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    options = [ln.split()[0] for ln in lines if ln.startswith("  -")]  # one per option entry
    for flag in ("--config", "--set", "--out", "--format", "--seed"):
        assert options.count(flag) == 1, (command, flag)
    assert run([command, "--bogus"], capsys)[0] == EXIT_USAGE


def test_set_overrides_point_count(capsys):
    code, out, _ = run(["steady", "--set", "points=5", "--set", "T_prior=0.2"], capsys)
    assert code == EXIT_OK
    assert len(from_csv(out).rows) == 5


def test_json_format_validates(capsys, validate_table_json):
    code, out, _ = run(["noisy", "--format", "json", "--set", "points=4"], capsys)
    assert code == EXIT_OK
    validate_table_json(json.loads(out))


def test_montecarlo_seed_hex_and_determinism(capsys):
    args = ["montecarlo", "--seed", "0xBEEF", "--set", "M=500", "--set", "trials=100"]
    code1, out1, _ = run(args, capsys)
    code2, out2, _ = run(args, capsys)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert from_csv(out1).meta["seed"] == 0xBEEF
    code3, out3, _ = run(["montecarlo", "--seed", "48879", "--set", "M=500", "--set", "trials=100"], capsys)
    assert out3 == out1  # 0xBEEF == 48879


def test_bad_seed_usage_error(capsys):
    code, _, err = run(["montecarlo", "--seed", "zz"], capsys)
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "seed" in err and "'zz'" in err


@pytest.mark.parametrize("command", ["montecarlo", "verify"])
def test_negative_seed_is_refused_by_name(command, capsys):
    code, _, err = run([command, "--seed", "-1"], capsys)
    assert code == EXIT_USAGE
    assert err.startswith("error: seed must be an integer >= 0")


def test_verify_passes(capsys):
    code, out, _ = run(["verify", "--set", "samples=40"], capsys)
    assert code == EXIT_OK
    table = from_csv(out)
    assert all(row[1] == 1.0 for row in table.rows)


def test_verify_keeps_its_scenario_name(capsys):
    code, out, _ = run(["verify", "--set", "name=mine", "--set", "samples=1"], capsys)
    assert code == EXIT_OK
    assert out.startswith("# scenario=mine\n# kind=verify\n")


@pytest.mark.parametrize("name", ["a\nb,c", "a\x0cb", "a\x85b", "a\u2028b", "a ", " a"])
def test_name_its_csv_meta_line_cannot_carry_is_usage_error(tmp_path, capsys, name):
    # from_csv splits lines with str.splitlines and strips each meta line.
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"name": name}))
    code, out, err = run(["steady", "--config", str(cfg), "--set", "points=2"], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert "scenario name" in err
    if name == name.strip():  # --set strips its value, so only an inner break reaches it
        code, out, _ = run(["steady", "--set", f"name={name}", "--set", "points=2"], capsys)
        assert (code, out) == (EXIT_USAGE, "")


def test_unwritable_out_is_io_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.csv"
    code, _, err = run(["steady", "--set", "points=2", "--out", str(target)], capsys)
    assert code == EXIT_IO


#: M = 10^308: sqrt(M) (T sqrt(F)) keeps the cost table's steady SNR meta value finite.
HUGE_M_COST = ["cost", "--set", "M=1" + "0" * 308, "--set", "k_max=3"]


def test_a_stdout_that_cannot_encode_the_table_is_usage_error(capsys, monkeypatch):
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stdout)
    argv = ["steady", "--set", "points=2", "--set", "name=é"]
    code, _, err = run(argv, capsys)
    assert code == EXIT_USAGE
    assert err.startswith("error: cannot write the table as csv: 'ascii' codec can't encode")
    stdout.flush()
    assert stdout.buffer.getvalue() == b""
    # JSON escapes every non-ASCII character, so the same stdout takes it whole.
    assert main([*argv, "--format", "json"]) == EXIT_OK
    stdout.flush()
    assert json.loads(stdout.buffer.getvalue())["meta"]["scenario"] == "é"
    monkeypatch.undo()
    code, out, _ = run(HUGE_M_COST, capsys)
    assert code == EXIT_OK and "# snr_machine_steady_m1=4.8775038618354065e+154\n" in out
    assert main([*HUGE_M_COST, "--format", "json"]) == EXIT_OK


def test_a_name_utf8_cannot_encode_keeps_an_existing_out_file(tmp_path, capsys):
    # The name is refused when the scenario is built, before export opens the file.
    path = tmp_path / "keep.csv"
    path.write_bytes(b"earlier bytes\n")
    for fmt in ("csv", "json"):
        argv = ["steady", "--set", "points=2", "--set", "name=\udcff", "--format", fmt]
        code, out, err = run([*argv, "--out", str(path)], capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: scenario name '\\udcff' cannot be encoded as UTF-8\n"
        assert path.read_bytes() == b"earlier bytes\n"


def test_out_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("THERMOMACHINE_OUT_DIR", str(tmp_path))
    code, _, _ = run(["steady", "--set", "points=2", "--out", "rel.csv"], capsys)
    assert code == EXIT_OK
    assert (tmp_path / "rel.csv").exists()


def test_config_file_then_set_then_flags(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"points": 3, "T_prior": 0.2, "seed": 1}))
    code, out, _ = run(
        ["steady", "--config", str(cfg), "--set", "points=6", "--seed", "9"], capsys
    )
    assert code == EXIT_OK
    table = from_csv(out)
    assert len(table.rows) == 6  # --set beats the file


def test_config_file_list_value(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"temps": [0.2, 0.25], "T_prior": 0.25, "k_max": 4}))
    code, out, _ = run(["transient", "--config", str(cfg)], capsys)
    assert code == EXIT_OK
    temps = {row[0] for row in from_csv(out).rows}
    assert temps == {0.2, 0.25}


@pytest.mark.parametrize(
    "value", [None, True, {"a": 1}, [0.2, None], [False], [{"a": 1}], [[0.2]]]
)
def test_config_value_that_is_no_number_or_text_is_usage_error(tmp_path, capsys, value):
    # str() would turn a JSON null, boolean, object or inner list into the text None, True,
    # {'a': 1} or [0.2].
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"name": value}))
    code, out, err = run(["steady", "--config", str(cfg), "--set", "points=2"], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: config field 'name' cannot hold {json.dumps(value)}\n"


def test_fig3_preset_has_expected_columns(capsys):
    code, out, _ = run(["preset", "fig3", "--set", "k_max=10"], capsys)
    assert code == EXIT_OK
    table = from_csv(out)
    assert table.columns == (
        "k",
        "snr_machine_m1",
        "snr_machine_m2",
        "snr_thermal_mk",
        "snr_sample_bound",
        "ratio_to_bound",
    )


def test_cost_past_underflow_is_usage_error(capsys, recwarn):
    # eps_s/T = 1000: e^(-eps_s/T) underflows and the sample bound is 0.
    code, out, err = run(["cost", "--set", "T=0.001"], capsys)
    assert code == EXIT_USAGE
    assert "eps_s/T" in err
    assert out == ""
    assert not recwarn.list


def test_cost_just_inside_underflow_is_finite(capsys, recwarn):
    code, out, _ = run(["cost", "--set", "T=0.00136", "--set", "k_max=50"], capsys)
    assert code == EXIT_OK
    assert all(math.isfinite(x) for row in from_csv(out).rows for x in row)
    assert not recwarn.list


def test_setting_a_field_the_kind_never_reads_is_usage_error(tmp_path, capsys):
    code, out, err = run(["steady", "--set", "k_max=5"], capsys)
    assert code == EXIT_USAGE
    assert "k_max" in err and "steady-sweep" in err
    assert out == ""
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"T_prior": 0.2, "delta_Tv_rel": 0.1}))
    code, _, err = run(["transient", "--config", str(cfg)], capsys)
    assert code == EXIT_USAGE
    assert "delta_Tv_rel" in err and "transient-sweep" in err
    code, _, err = run(["preset", "fig3", "--set", "temps=0.1,0.2"], capsys)
    assert code == EXIT_USAGE
    assert "temps" in err and "cost-comparison" in err


def test_steady_montecarlo_refuses_the_transient_fields_a_transient_study_reads(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"trials": 100, "M": 100, "p00": 0.3, "k_measure": 5}))
    code, out, err = run(["montecarlo", "--config", str(cfg)], capsys)
    assert code == EXIT_USAGE
    assert "error: steady montecarlo scenarios do not read k_measure, p00" in err
    assert out == ""
    code, out, _ = run(["montecarlo", "--config", str(cfg), "--set", "model=transient"], capsys)
    assert code == EXIT_OK
    assert out.splitlines()[-1].split(",")[1:3] == ["100", "100"]  # M, trials


def test_defaults_and_presets_set_only_fields_their_kind_reads():
    plain = {f.name: f.default for f in fields(Scenario)}
    for scenario in [*_DEFAULTS.values(), *PRESETS.values()]:
        changed = {
            name: getattr(scenario, name)
            for name in plain
            if getattr(scenario, name) != plain[name]
        }
        assert apply_settings(scenario, changed) == scenario


@pytest.mark.parametrize(
    "args, field",
    [
        (["transient", "--set", "eps_I=7"], "eps_I"),
        (["steady", "--set", "p00=0.3"], "p00"),
        (["noisy", "--set", "p00=0.3"], "p00"),
        (["montecarlo", "--set", "M=100", "--set", "k_measure=5"], "k_measure"),
        (["montecarlo", "--set", "p00=0.3"], "p00"),
        (["heat", "--set", "M=1"], "M"),
    ],
)
def test_dead_knobs_are_usage_errors(capsys, args, field):
    # No closed form reads the coupling, and no steady quantity reads p00 or k_measure.
    # An unread field is refused by name, even at its default value (heat never reads M).
    code, out, err = run(args, capsys)
    assert code == EXIT_USAGE
    assert field in err
    assert out == ""


@pytest.mark.parametrize(
    "args",
    [
        ["steady", "--set", "T_prior=nan"],
        ["cost", "--set", "T=inf"],
        ["steady", "--set", "priors=0.25,-inf"],
        ["transient", "--set", "temps=0.2,nan"],
        ["transient", "--set", "p00_values=0.5,inf"],
        ["noisy", "--set", "delta_Tv_rel=inf"],
        # A scalar whose multi-valued twin gives the blocks tunes no machine, and is checked too.
        ["transient", "--set", "temps=0.2,0.3", "--set", "T=nan"],
        ["transient", "--set", "p00_values=0.5", "--set", "p00=inf"],
        ["steady", "--set", "priors=0.25", "--set", "T_prior=-inf"],
    ],
)
def test_non_finite_setting_is_usage_error(capsys, args):
    # Refused when the scenario is built, under the scalar field's name.
    code, out, err = run(args, capsys)
    assert code == EXIT_USAGE
    assert "must be finite" in err
    assert out == ""


def test_non_finite_prior_is_refused_before_its_grid_is_formed():
    # np.linspace(0, 2 inf) would warn: the prior is checked first, under the name it tunes.
    with pytest.raises(ValueError, match="^T_prior must be finite"):
        Scenario("x", "steady-sweep", priors=(0.25, math.inf))


@pytest.mark.parametrize(
    "key, value", [("T_prior", "NaN"), ("T_prior", "Infinity"), ("priors", "[0.25, NaN]")]
)
def test_non_finite_config_value_is_usage_error(tmp_path, capsys, key, value):
    # Python's json module reads the non-standard tokens NaN and Infinity.
    cfg = tmp_path / "scenario.json"
    cfg.write_text(f'{{"{key}": {value}}}')
    code, out, err = run(["steady", "--config", str(cfg)], capsys)
    assert code == EXIT_USAGE
    assert "must be finite" in err
    assert out == ""


@pytest.mark.parametrize(
    "contents, args, message",
    [
        (None, [], "cannot read config file"),  # no file at the path
        ("{", [], "config file is not valid JSON"),
        ("[0.25]", [], "config file must hold a JSON object"),
        ("{}", ["--set", "points"], "--set needs KEY=VALUE, got 'points'"),
    ],
)
def test_malformed_override_is_usage_error(tmp_path, capsys, contents, args, message):
    cfg = tmp_path / "scenario.json"
    if contents is not None:
        cfg.write_text(contents)
    code, out, err = run(["steady", "--config", str(cfg), *args], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert message in err


def test_an_empty_list_setting_clears_the_field(capsys):
    # "temps=" gives (): fig2a then sweeps its one T, not its three temps.
    args = ["preset", "fig2a", "--set", "temps=", "--set", "T=0.25", "--set", "k_max=3"]
    code, out, _ = run(args, capsys)
    assert code == EXIT_OK
    assert {row[0] for row in from_csv(out).rows} == {0.25}


@pytest.mark.parametrize("command", ["cost", "heat", "transient"])
def test_negative_k_min_is_usage_error(capsys, command):
    code, out, err = run([command, "--set", "k_min=-5"], capsys)
    assert code == EXIT_USAGE
    assert "k_min must be an integer >= 0" in err
    assert out == ""


def test_zero_verify_samples_is_usage_error(capsys):
    code, out, err = run(["verify", "--set", "samples=0"], capsys)
    assert code == EXIT_USAGE
    assert "samples" in err
    assert out == ""


@pytest.mark.parametrize("command", ["transient", "montecarlo"])
def test_arithmetic_failure_is_usage_error(capsys, command):
    # T*T underflows to 0 in the steady sensitivity: ZeroDivisionError.
    code, out, err = run([command, "--set", "T=1e-300"], capsys)
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


def test_heat_forms_no_slope_and_keeps_its_wider_temperature_range(capsys):
    args = ["heat", "--set", "T=1e-300", "--set", "T_prior=1e-299", "--set", "k_max=3"]
    code, out, err = run(args, capsys)
    assert code == EXIT_OK and err == ""
    assert len(out.splitlines()) > 3


@pytest.mark.parametrize(
    "args",
    [
        # T * T underflows to 0 at T ~ 1e-300, so the slope would be 0/0 = NaN.
        ["steady", "--set", "t_min=1e-300", "--set", "t_max=1e-299", "--set", "points=3"],
        ["noisy", "--set", "t_min=1e-300", "--set", "t_max=1e-299", "--set", "points=3"],
        # T^2 = 1e310 overflows: every slope read 0, and the table printed 0 snr cells.
        ["transient", "--set", "T=1e155", "--set", "T_prior=1e155", "--set", "T_v=2e155"],
    ],
    ids=["steady", "noisy", "transient-1e155"],
)
def test_temperature_past_float_range_is_usage_error(capsys, recwarn, args):
    code, out, err = run(args, capsys)
    assert code == EXIT_USAGE
    assert "T must be finite and lie in [1.49167e-154, " in err and "Traceback" not in err
    assert out == ""
    assert not recwarn.list


@pytest.mark.parametrize(
    "args, message",
    [
        # A grid of no points tunes no machine, yet its scenario checks the one it would tune.
        (["steady", "--set", "points=0", "--set", "eps_s=-1"], "eps_s must be finite"),
        (["noisy", "--set", "points=0", "--set", "eps_s=-1"], "eps_s must be finite"),
        # The fields MachineConfig checks, refused with its messages when the scenario is built.
        (["transient", "--set", "T=-0.2"], "T must be finite and lie in (0, inf), got -0.2"),
        (["transient", "--set", "eps_s=-1"], "eps_s must be finite and lie in (0, inf), got -1.0"),
        (["transient", "--set", "temps=-0.2"], "T must be finite and lie in (0, inf), got -0.2"),
        (["transient", "--set", "p00=1.5"], "p00 must be finite and lie in [0, 1], got 1.5"),
        (["transient", "--set", "p00_values=1.5"], "p00 must be finite and lie in [0, 1], got 1.5"),
    ],
)
def test_a_machine_field_out_of_range_exits_1_when_the_scenario_is_built(
    capsys, monkeypatch, args, message
):
    monkeypatch.setattr("thermomachine.cli.run_scenario", lambda scenario: pytest.fail("ran"))
    code, out, err = run(args, capsys)
    assert code == EXIT_USAGE
    assert message in err
    assert out == ""


@pytest.mark.parametrize(
    "args, message",
    [
        (["transient", "--set", "T_v=0.2"], "tuning rule requires T_v >= T_prior, got 0.2 <"),
        (["steady", "--set", "priors=0.25,2"], "tuning rule requires T_v >= T_prior, got 1.0 <"),
        (["noisy", "--set", "delta_Tv_rel=0.95"], "tuning rule requires mistuned T_v >= T_prior"),
        (["noisy", "--set", "delta_Tv_rel=-0.1"], "delta_Tv_rel must be finite and lie in [0,"),
    ],
)
def test_a_broken_tuning_rule_exits_1_before_the_run(capsys, monkeypatch, args, message):
    monkeypatch.setattr("thermomachine.cli.run_scenario", lambda scenario: pytest.fail("ran"))
    code, out, err = run(args, capsys)
    assert code == EXIT_USAGE
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert out == ""


def test_out_of_memory_is_usage_error(capsys, monkeypatch):
    # A k axis past memory (k_max=10000000000000) fails this way; raised here, nothing is allocated.
    def too_big(scenario):
        raise MemoryError("Unable to allocate 72.8 TiB for an array with shape (10000000000000,)")

    monkeypatch.setattr("thermomachine.cli.run_scenario", too_big)
    code, out, err = run(["transient", "--set", "k_max=10000000000000"], capsys)
    assert code == EXIT_USAGE
    assert err.startswith("error: out of memory: Unable to allocate") and err.count("\n") == 1
    assert out == ""


def test_a_float_range_error_is_usage_error(capsys, monkeypatch):
    # Raised here: an input that reaches this branch today stops reaching it once it is mended.
    def overflows(scenario):
        raise FloatingPointError("overflow encountered in divide")

    monkeypatch.setattr("thermomachine.cli.run_scenario", overflows)
    code, out, err = run(["steady"], capsys)
    assert code == EXIT_USAGE
    assert err.rstrip("\n").endswith("an input lies outside the formulas' float range")
    assert out == ""


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a scenario that builds must run: this one tunes eps_p = 100 T at T = 2^-511, and "
    "snr_steady's Fisher information lam eps_s / (T T) overflows where the SNR is finite, so it "
    "exits 1 with 'overflow encountered in divide' (ROADMAP item 2)",
)
def test_a_steady_scenario_at_the_bottom_of_the_range_runs(capsys):
    T = 2.0**-511  # 1.4916681462400413e-154
    settings = dict(eps_s=100 * T, T_prior=T, T_v=2 * T, t_min=T, t_max=2 * T, points=2)
    args = [arg for key, value in settings.items() for arg in ("--set", f"{key}={value!r}")]
    code, _, err = run(["steady", *args], capsys)
    assert code == EXIT_OK, err
