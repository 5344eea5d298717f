"""End-to-end checks of the command-line interface."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

import relayplan
from relayplan.cli import CSV_HEADER, main

DEFAULT = str(Path(relayplan.__file__).parent / "data" / "default_paper.json")


def read_rows(path):
    with open(path) as fh:
        rows = [[c.strip() for c in row] for row in csv.reader(fh)]
    return rows[0], rows[1:]


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
