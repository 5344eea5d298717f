"""End-to-end checks of the command-line interface."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relayplan
from relayplan.cli import CSV_HEADER, main
from relayplan.modes import MODE_OF_STATE
from relayplan.scenario import load_scenario
from relayplan.solver import solve_minrate

DEFAULT = str(Path(relayplan.__file__).parent / "data" / "default_paper.json")


def read_rows(path):
    with open(path) as fh:
        rows = [[c.strip() for c in row] for row in csv.reader(fh)]
    return rows[0], rows[1:]


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which are not JSON."""

    def refuse(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


@pytest.fixture(autouse=True)
def summaries_are_strict_json(tmp_path):
    """Every summary JSON a test of this module writes parses strictly."""
    yield
    for path in sorted(tmp_path.rglob("*_summary.json")):
        strict_json(path.read_text())


def test_strict_json_rejects_non_finite_constants():
    assert strict_json('{"a": 1.5}') == {"a": 1.5}
    for text in ('{"a": NaN}', '[Infinity]', '[-Infinity]'):
        with pytest.raises(ValueError, match="non-finite JSON constant"):
            strict_json(text)


STARTUP = """
import json, sys
from relayplan.cli import main
from relayplan.solver import solve_minrate
from relayplan.scenario import load_scenario

scenario, out = sys.argv[1:]
common = [scenario, "--slots", "4", "--out-dir", out]
slots = out + "/validate_slots.csv"
codes = [main(["validate", *common]),
         main(["rates", *common, "--trajectory", slots, "--powers", slots])]
before = "scipy" in sys.modules
objective = solve_minrate(load_scenario(scenario, slots=4)).objective
print(json.dumps({"codes": codes, "before": before, "after": "scipy" in sys.modules,
                  "objective": objective.hex()}))
"""


def test_commands_that_do_not_solve_start_without_scipy(tmp_path):
    """In a fresh interpreter, importing the CLI and running validate and
    rates loads no scipy; the first Newton solve loads it and gives the
    same plan as this process."""
    env = dict(os.environ, PYTHONPATH=str(Path(relayplan.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", STARTUP, DEFAULT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    got = json.loads(done.stdout.splitlines()[-1])
    assert got["codes"] == [0, 0]
    assert got["before"] is False
    assert got["after"] is True
    want = solve_minrate(load_scenario(DEFAULT, slots=4)).objective
    assert float.fromhex(got["objective"]) == want


def test_validate_default(tmp_path, capsys):
    assert main(["validate", DEFAULT, "--slots", "4", "--out-dir", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "validate_slots.csv")
    assert ", ".join(header) == CSV_HEADER
    assert len(rows) == 4
    summary = json.loads((tmp_path / "validate_summary.json").read_text())
    assert summary["feasible"] is True
    assert summary["violations"] == []
    assert "scenario feasible" in capsys.readouterr().out


def test_minrate_summary_matches_csv(tmp_path):
    assert main(["solve-minrate", DEFAULT, "--slots", "6", "--out-dir", str(tmp_path)]) == 0
    _, rows = read_rows(tmp_path / "minrate_slots.csv")
    summary = json.loads((tmp_path / "minrate_summary.json").read_text())
    r1 = np.array([float(r[8]) for r in rows])
    r2 = np.array([float(r[9]) for r in rows])
    assert summary["objective"] == pytest.approx(min(r1.min(), r2.min()), abs=1e-9)
    assert summary["converged"] is True
    assert sum(summary["mode_percentages"].values()) == pytest.approx(100.0)
    used = sum(float(r[3]) + float(r[4]) for r in rows)
    assert summary["energy"]["bs_used"] == pytest.approx(used, abs=1e-9)


def test_sumrate_summary_matches_csv(tmp_path):
    assert main(["solve-sumrate", DEFAULT, "--slots", "6", "--out-dir", str(tmp_path)]) == 0
    _, rows = read_rows(tmp_path / "sumrate_slots.csv")
    summary = json.loads((tmp_path / "sumrate_summary.json").read_text())
    total = sum(float(r[8]) + float(r[9]) for r in rows)
    assert summary["objective"] == pytest.approx(total, abs=1e-9)
    assert summary["iterations"] == len(summary["objective_history"])


def test_solve_summaries_carry_solver_health(tmp_path):
    for command, stem in (("solve-sumrate", "sumrate"), ("solve-minrate", "minrate")):
        assert main([command, DEFAULT, "--slots", "6", "--out-dir", str(tmp_path)]) == 0
        diagnostics = json.loads((tmp_path / f"{stem}_summary.json").read_text())["diagnostics"]
        for key in ("capped_stages", "failed_solves", "refined_directions"):
            assert type(diagnostics[key]) is int, (stem, key)
        # one exit reason per barrier stage run, summed over the plan's solves
        exits = diagnostics["stage_exits"]
        assert set(exits) <= {"kkt", "decrement", "centred", "capped", "failed"}, stem
        assert exits.get("capped", 0) == diagnostics["capped_stages"], stem
        assert exits.get("decrement", 0) + exits.get("kkt", 0) > 0, stem


@pytest.mark.parametrize(
    "command, stem, phases",
    [("solve-sumrate", "sumrate", {"warm_start", "trajectory", "power", "modes", "rebalance"}),
     ("solve-minrate", "minrate", {"trajectory", "power", "modes", "rebalance"})],
    ids=["solve-sumrate", "solve-minrate"],
)
def test_solve_summaries_carry_phase_times(tmp_path, command, stem, phases):
    assert main([command, DEFAULT, "--slots", "6", "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / f"{stem}_summary.json").read_text())
    spent = summary["diagnostics"]["phase_s"]
    assert set(spent) == phases
    assert all(type(s) is float and s >= 0.0 for s in spent.values())
    assert spent["power"] > 0.0 and spent["trajectory"] > 0.0
    assert sum(spent.values()) <= summary["wall_time_s"]


@pytest.mark.parametrize(
    "command, stem, slots",
    # every slot of the 8-slot sum-rate plan is in mode 1 (SIC at vehicle 1)
    [("solve-minrate", "minrate", "5"), ("solve-sumrate", "sumrate", "8")],
    ids=["solve-minrate", "solve-sumrate"],
)
def test_rates_round_trip(tmp_path, command, stem, slots):
    assert main([command, DEFAULT, "--slots", slots, "--out-dir", str(tmp_path)]) == 0
    slots_csv = str(tmp_path / f"{stem}_slots.csv")
    assert main(["rates", DEFAULT, "--slots", slots, "--trajectory", slots_csv,
                 "--powers", slots_csv, "--out-dir", str(tmp_path)]) == 0
    _, first = read_rows(tmp_path / f"{stem}_slots.csv")
    _, second = read_rows(tmp_path / "rates_slots.csv")
    assert first == second  # bit-for-bit, rates included


def test_repeated_runs_are_bit_stable(tmp_path):
    for sub in ("a", "b"):
        out = tmp_path / sub
        out.mkdir()
        assert main(["solve-sumrate", DEFAULT, "--slots", "4", "--out-dir", str(out)]) == 0
    assert (tmp_path / "a" / "sumrate_slots.csv").read_bytes() == \
        (tmp_path / "b" / "sumrate_slots.csv").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-minrate", "/does/not/exist.json"],
        ["validate", "__BADJSON__"],
        ["highsnr", DEFAULT, "--slots", "2", "--sweep", "abc"],
        ["rates", DEFAULT, "--trajectory", "missing.csv", "--powers", "missing.csv"],
        ["no-such-command", DEFAULT],
    ],
)
def test_parse_failures_exit_3(argv, tmp_path, capsys):
    if "__BADJSON__" in argv:
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        argv = [a.replace("__BADJSON__", str(bad)) for a in argv]
    assert main(argv) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "parse"
    assert err["error"]["exit_code"] == 3


@pytest.mark.parametrize("value", [0.0, -0.5])
@pytest.mark.parametrize("field", ["avg_bs_power_w", "avg_relay_power_w"])
@pytest.mark.parametrize("command", [["solve-minrate"], ["oracle", "--grid", "250"]],
                         ids=["solve-minrate", "oracle"])
def test_nonpositive_average_power_exits_3(tmp_path, capsys, command, field, value):
    raw = json.loads(Path(DEFAULT).read_text())
    raw[field] = value
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(raw))
    assert main([command[0], str(scen), "--slots", "8", *command[1:], "--out-dir", str(tmp_path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "parse"


@pytest.mark.parametrize(
    "field, entry, value",
    [("bandwidth_hz", None, np.inf), ("noise_density_dbm_per_hz", None, np.inf),
     ("reference_snr_db", None, np.inf), ("uav_height_m", None, np.inf),
     ("uav_max_speed_mps", None, np.inf), ("vehicle_initial_m", (0, 0), np.nan),
     ("vehicle_initial_m", (1, 1), np.inf), ("vehicle_velocity_mps", (0, 1), np.nan),
     ("vehicle_velocity_mps", (1, 1), -np.inf), ("bs_position_m", (2,), np.nan),
     ("flight_box_m", (1,), np.inf), ("flight_box_m", (2,), np.nan)],
)
def test_non_finite_scenario_field_exits_3(tmp_path, capsys, field, entry, value):
    raw = json.loads(Path(DEFAULT).read_text())
    if entry is None:
        raw[field] = value
    else:
        arr = np.array(raw[field], dtype=float)
        arr[entry] = value
        raw[field] = arr.tolist()
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(raw))
    for command in ("validate", "solve-sumrate"):
        assert main([command, str(scen), "--slots", "8", "--out-dir", str(tmp_path)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "parse"
        assert "must be finite" in err["error"]["message"]


@pytest.mark.parametrize(
    "path, name",
    [(("slot_count",), "slot_count"), (("avg_bs_power_w",), "avg_bs_power"),
     (("uav_height_m",), "uav_height"), (("rate_targets_bpshz", 0), "rate_targets"),
     (("vehicle_initial_m", 1, 0), "vehicle_initial")],
    ids=["slot_count", "avg_bs_power", "uav_height", "rate_targets", "vehicle_initial"],
)
def test_number_too_large_for_a_float_exits_3(tmp_path, capsys, path, name):
    """A 401-digit integer is one JSON parse error naming the field, not an
    OverflowError or TypeError traceback."""
    raw = json.loads(Path(DEFAULT).read_text())
    *outer, last = path
    entry = raw
    for key in outer:
        entry = entry[key]
    entry[last] = 10**400
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(raw))
    for command in ("validate", "solve-sumrate"):
        assert main([command, str(scen), "--slots", "8", "--out-dir", str(tmp_path)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "parse"
        assert err["error"]["message"].startswith(name + " must be finite")


@pytest.mark.parametrize(
    "field, value, name",
    [("uav_height_m", "100", "uav_height"), ("mode_threshold_bpshz", None, "mode_threshold"),
     ("reference_snr_db", True, "reference_snr_db"), ("rate_targets_bpshz", ["a", 1], "rate_targets"),
     ("bs_position_m", [0.0, None, 0.0], "bs_position"), ("flight_box_m", [0, 1000, False, 500], "flight_box"),
     ("slot_count", float("nan"), "slot_count"), ("slot_count", 10.7, "slot_count"),
     ("slot_count", "12", "slot_count"), ("slot_count", True, "slot_count")],
)
def test_malformed_scenario_value_exits_3(tmp_path, capsys, field, value, name):
    """A value that is not a number, or a slot count that is not integral,
    is one JSON parse error naming the field, not a traceback or a
    truncated slot count."""
    raw = json.loads(Path(DEFAULT).read_text())
    raw[field] = value
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(raw))
    for command in ("validate", "solve-sumrate"):
        assert main([command, str(scen), "--slots", "8", "--out-dir", str(tmp_path)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "parse"
        assert err["error"]["message"].startswith(name + " must")


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--grid", "--power-grid"])
def test_oracle_rejects_non_finite_steps(tmp_path, capsys, flag, bad):
    assert main(["oracle", DEFAULT, "--slots", "2", flag, bad, "--out-dir", str(tmp_path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert "finite and positive" in err["error"]["message"]


def test_oracle_infeasible_targets_exit_2(tmp_path, capsys):
    raw = json.loads(Path(DEFAULT).read_text())
    raw["rate_targets_bpshz"] = [60.0, 60.0]
    hard = tmp_path / "hard.json"
    hard.write_text(json.dumps(raw))
    assert main(["oracle", str(hard), "--slots", "2", "--grid", "250",
                 "--power-grid", "0.5", "--out-dir", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "infeasible"


def test_oracle_outputs(tmp_path):
    assert main(["oracle", DEFAULT, "--slots", "2", "--grid", "250",
                 "--power-grid", "0.5", "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "oracle_summary.json").read_text())
    _, rows = read_rows(tmp_path / "oracle_slots.csv")
    assert len(rows) == 2
    # every slot sits at the single placement the search returned
    assert {(r[1], r[2]) for r in rows} == {(repr(summary["position"][0]),
                                            repr(summary["position"][1]))}
    total = sum(float(r[8]) + float(r[9]) for r in rows)
    assert summary["objective"] == pytest.approx(total, rel=1e-12)


def test_highsnr_report(tmp_path):
    assert main(["highsnr", DEFAULT, "--slots", "2", "--sweep", "23,25", "30",
                 "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "highsnr_summary.json").read_text())
    assert [r["power_dbm"] for r in summary["records"]] == [23.0, 25.0, 30.0]
    assert summary["violations"] == []
    worst = max(max(r["gap"].values()) for r in summary["records"])
    assert summary["objective"] == pytest.approx(worst)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e6", "2000", "-5000"])
def test_highsnr_rejects_sweep_values_it_cannot_evaluate(tmp_path, capsys, value):
    """A sweep value that is not finite, whose watts overflow (1e6 dBm) or
    underflow to zero (-5000 dBm), or whose rates overflow (2000 dBm) is a
    parse error, not NaN in the summary or a traceback."""
    assert main(["highsnr", DEFAULT, "--slots", "2", "--sweep", "23," + value,
                 "--out-dir", str(tmp_path)]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "parse", "message": f"bad sweep value {value!r}", "exit_code": 3}
    assert not (tmp_path / "highsnr_summary.json").exists()


def test_rates_rejects_a_power_that_overflows_the_rates(tmp_path, capsys):
    """A finite but huge power overflows the SINR table: one numerical JSON
    error naming the file, column and slot, without a RuntimeWarning (an
    error under this suite's warning filter) or NaN rates."""
    assert main(["solve-sumrate", DEFAULT, "--slots", "8", "--out-dir", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "sumrate_slots.csv")
    rows[1][header.index("pr")] = "1e307"
    bad = tmp_path / "huge_slots.csv"
    bad.write_text("\n".join(", ".join(r) for r in [header] + rows) + "\n")
    capsys.readouterr()
    assert main(["rates", DEFAULT, "--slots", "8", "--trajectory", str(bad),
                 "--powers", str(bad), "--out-dir", str(tmp_path)]) == 4
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "numerical"
    assert err["message"] == f"{bad}: column pr, slot 2: 1e+307 overflows the exact rates"
    assert not (tmp_path / "rates_slots.csv").exists()


@pytest.mark.parametrize(
    "state, mode",
    [(None, "7"), ("1", "3")],  # None keeps the slot's state
    ids=["mode-outside-1-3", "state-mode-mismatch"],
)
def test_rates_rejects_inconsistent_schedule(tmp_path, capsys, state, mode):
    assert main(["validate", DEFAULT, "--slots", "4", "--out-dir", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "validate_slots.csv")
    rows[1][6] = state or rows[1][6]
    rows[1][7] = mode
    bad = tmp_path / "bad_slots.csv"
    bad.write_text("\n".join(", ".join(r) for r in [header] + rows) + "\n")
    capsys.readouterr()
    assert main(["rates", DEFAULT, "--slots", "4", "--trajectory", str(bad),
                 "--powers", str(bad), "--out-dir", str(tmp_path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "parse"
    assert not (tmp_path / "rates_slots.csv").exists()


@pytest.mark.parametrize("bad_file", ["trajectory", "powers"])
@pytest.mark.parametrize(
    "column, value",
    [("p1", "-0.25"), ("p2", "-1e-300"), ("pr", "inf"), ("pr", "nan"), ("x", "nan"),
     ("y", "-inf"), ("R1", "nan"), ("state", "+0.5"), ("mode", "nan"), ("n", "inf")],
)
def test_rates_rejects_bad_csv_values(tmp_path, capsys, bad_file, column, value):
    """A non-finite value, a negative power or a non-integral state or mode
    in either CSV is one JSON parse error naming the file, column and row,
    not a traceback, NaN rates or a truncated state."""
    assert main(["validate", DEFAULT, "--slots", "4", "--out-dir", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "validate_slots.csv")
    col = header.index(column)
    rows[2][col] = repr(float(rows[2][col]) + 0.5) if value == "+0.5" else value
    bad = tmp_path / "bad_slots.csv"
    bad.write_text("\n".join(", ".join(r) for r in [header] + rows) + "\n")
    good = str(tmp_path / "validate_slots.csv")
    files = {"trajectory": good, "powers": good, bad_file: str(bad)}
    capsys.readouterr()
    assert main(["rates", DEFAULT, "--slots", "4", "--trajectory", files["trajectory"],
                 "--powers", files["powers"], "--out-dir", str(tmp_path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "parse"
    assert err["error"]["message"].startswith(f"{bad}: column {column}, row 3: ")
    assert not (tmp_path / "rates_slots.csv").exists()


def test_oracle_min_round_trips_through_rates(tmp_path):
    # at threshold 0 the policy puts the min-rate placement in NOMA state 6,
    # which the orthogonal schedule of the min objective must not report
    raw = json.loads(Path(DEFAULT).read_text())
    raw["mode_threshold_bpshz"] = 0.0
    scen = tmp_path / "noma.json"
    scen.write_text(json.dumps(raw))
    assert main(["oracle", str(scen), "--slots", "4", "--grid", "250", "--power-grid", "0.5",
                 "--objective", "min", "--out-dir", str(tmp_path)]) == 0
    oracle_csv = str(tmp_path / "oracle_slots.csv")
    _, first = read_rows(oracle_csv)
    assert {r[7] for r in first} == {"3"}
    assert all(MODE_OF_STATE[int(r[6])] == 3 for r in first)
    assert main(["rates", str(scen), "--slots", "4", "--trajectory", oracle_csv,
                 "--powers", oracle_csv, "--out-dir", str(tmp_path)]) == 0
    _, second = read_rows(tmp_path / "rates_slots.csv")
    assert first == second
