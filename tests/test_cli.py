"""Command-line behavior: exit codes, overrides, formats, determinism."""

from __future__ import annotations

import json
import math
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


#: M = 10^308 overflows the cost table's steady SNR meta value to inf, which JSON cannot hold.
INF_META_COST = ["cost", "--set", "M=1" + "0" * 308, "--set", "k_max=3"]


def test_json_refused_table_to_stdout_is_usage_error(capsys):
    code, out, err = run([*INF_META_COST, "--format", "json"], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and "not JSON compliant" in err
    code, out, _ = run([*INF_META_COST, "--format", "csv"], capsys)
    assert code == EXIT_OK and "# snr_machine_steady_m1=inf\n" in out


def test_json_refused_table_to_out_keeps_the_file(tmp_path, capsys):
    path = tmp_path / "keep.json"
    path.write_bytes(b"earlier bytes\n")
    code, out, err = run([*INF_META_COST, "--format", "json", "--out", str(path)], capsys)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error: ") and "not JSON compliant" in err
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
    ],
)
def test_non_finite_setting_is_usage_error(capsys, args):
    code, out, err = run(args, capsys)
    assert code == EXIT_USAGE
    assert "must be finite" in err
    assert out == ""


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


@pytest.mark.parametrize("command", ["steady", "noisy"])
def test_temperature_past_float_range_is_usage_error(capsys, recwarn, command):
    # T * T underflows to 0 at T ~ 1e-300, so the slope would be 0/0 = NaN.
    args = [command, "--set", "t_min=1e-300", "--set", "t_max=1e-299", "--set", "points=3"]
    code, out, err = run(args, capsys)
    assert code == EXIT_USAGE
    assert "float range" in err and "Traceback" not in err
    assert out == ""
    assert not recwarn.list


@pytest.mark.parametrize(
    "args, message",
    [
        # Fields that only the runner's MachineConfig checks: the scenario builds, then is refused.
        (["steady", "--set", "points=0", "--set", "eps_s=-1"], "eps_s must be finite"),
        (["noisy", "--set", "points=0", "--set", "eps_s=-1"], "eps_s must be finite"),
    ],
)
def test_empty_grid_still_builds_and_checks_its_machine(capsys, args, message):
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
