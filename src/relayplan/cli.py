"""Command-line front end: solve, score, brute-force, and validate scenarios.

Every subcommand ingests a scenario JSON file, writes a per-slot CSV and a
summary JSON next to it (or under ``--out-dir``), and exits 0 on success,
2 on infeasibility, 3 on parse/usage errors, and 4 on numerical failures.
Errors are reported as one JSON object on stderr so scripts never have to
scrape tracebacks.
"""

import argparse
import dataclasses
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from relayplan import oracle as oracle_mod
from relayplan.modes import ModeSchedule, mode_schedule
from relayplan.rates import exact_rates
from relayplan.scenario import (
    Scenario,
    ScenarioError,
    channel_state,
    load_scenario,
    validate_trajectory,
)
from relayplan.solver import (
    InfeasibleProblemError,
    PowerAllocation,
    algorithm3_joint,
    feasible_init,
    solve_minrate,
)

CSV_HEADER = "n, x, y, p1, p2, pr, state, mode, R1, R2"

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_PARSE = 3
EXIT_NUMERICAL = 4


class CliError(Exception):
    """Usage or input problem that maps to a specific exit code."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2) on bad usage; route through CliError so the
    # documented parse-error code and JSON shape apply instead.
    def error(self, message):
        raise CliError(message, EXIT_PARSE)


def _fmt(value: float) -> str:
    # repr is the shortest string that parses back to the same double, so
    # rates recomputed from a stored CSV match the original run bit for bit
    return repr(float(value))


def _read_slots_csv(path: str) -> Dict[str, np.ndarray]:
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE) from exc
    if not lines or lines[0] != CSV_HEADER:
        raise CliError(f"{path} does not start with the per-slot header", EXIT_PARSE)
    cols: List[List[float]] = [[] for _ in range(10)]
    for ln in lines[1:]:
        parts = [p.strip() for p in ln.split(",")]
        if len(parts) != 10:
            raise CliError(f"{path}: expected 10 columns, got {len(parts)}", EXIT_PARSE)
        try:
            for store, text in zip(cols, parts):
                store.append(float(text))
        except ValueError as exc:
            raise CliError(f"{path}: {exc}", EXIT_PARSE) from exc
    data = dict(zip(CSV_HEADER.split(", "), map(np.array, cols)))
    for name, vals in data.items():
        ok, need = np.isfinite(vals), "finite"
        if name in ("p1", "p2", "pr"):
            ok, need = ok & (vals >= 0), "finite and nonnegative"
        elif name in ("state", "mode"):
            ok, need = ok & (np.floor(vals) == vals), "an integer"
        if not ok.all():
            i = int(np.argmin(ok))
            raise CliError(f"{path}: column {name}, row {i + 1}: {float(vals[i])} must be {need}", EXIT_PARSE)
    return data


def _exact_plan(sc: Scenario, traj, powers: PowerAllocation, sched: Optional[ModeSchedule] = None):
    """(schedule, (r1, r2)): a fixed plan's exact per-slot rates under
    ``sched``, by default the schedule of the scenario's own policy."""
    cs = channel_state(traj, sc)
    if sched is None:
        sched = mode_schedule(cs, sc)
    return sched, exact_rates(sched.modes, cs.h_r, cs.h_1, cs.h_2,
                              powers.p1, powers.p2, powers.pr, sc.noise_power)


def _write_plan(args, stem: str, sc: Scenario, traj, powers: PowerAllocation,
                sched: ModeSchedule, slot_rates, summary: Dict) -> None:
    """Write a plan's per-slot CSV and summary JSON under ``--out-dir``.

    The summary gains the energy use and the mode shares; a command that
    neither iterates nor times itself keeps the defaults of 0 iterations,
    converged and 0 s.
    """
    base = args.out_dir.rstrip("/") if args.out_dir else "."
    os.makedirs(base, exist_ok=True)
    csv_path, summary_path = f"{base}/{stem}_slots.csv", f"{base}/{stem}_summary.json"
    with open(csv_path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for n, (x, y) in enumerate(traj):
            fh.write(", ".join(
                [str(n + 1), _fmt(x), _fmt(y), _fmt(powers.p1[n]), _fmt(powers.p2[n]),
                 _fmt(powers.pr[n]), str(int(sched.states[n])), str(int(sched.modes[n])),
                 _fmt(slot_rates[0][n]), _fmt(slot_rates[1][n])]
            ) + "\n")
    summary = {
        "iterations": 0,
        "converged": True,
        "wall_time_s": 0.0,
        **summary,
        "energy": {
            "bs_used": float(np.sum(powers.p1 + powers.p2)),
            "bs_budget": float(sc.bs_energy),
            "relay_used": float(np.sum(powers.pr)),
            "relay_budget": float(sc.relay_energy),
        },
        "mode_percentages": {str(m): 100.0 * float(np.mean(sched.modes == m)) for m in (1, 2, 3)},
    }
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {csv_path}")
    print(f"wrote {summary_path}")


def _solve(args, driver, stem: str) -> int:
    sc = load_scenario(args.scenario, slots=args.slots)
    res = driver(sc)
    _write_plan(args, stem, sc, res.trajectory, res.powers, res.schedule,
                (res.slots.r1, res.slots.r2), {
                    "objective": res.objective,
                    "objective_history": res.objective_history,
                    "iterations": len(res.objective_history),
                    "converged": res.converged,
                    "wall_time_s": res.wall_time,
                    "diagnostics": res.diagnostics,
                })
    print(f"objective {_fmt(res.objective)} after {len(res.objective_history)} iterations")
    return EXIT_OK


def _cmd_rates(args) -> int:
    sc = load_scenario(args.scenario, slots=args.slots)
    traj_cols = _read_slots_csv(args.trajectory)
    power_cols = traj_cols if args.powers == args.trajectory else _read_slots_csv(args.powers)
    for name, cols in (("trajectory", traj_cols), ("powers", power_cols)):
        if cols["n"].size != sc.slot_count:
            raise CliError(
                f"{name} file has {cols['n'].size} slots, scenario has "
                f"{sc.slot_count} (use --slots to align)",
                EXIT_PARSE,
            )
    try:
        sched = ModeSchedule(traj_cols["state"].astype(int), traj_cols["mode"].astype(int))
    except ValueError as exc:
        raise CliError(f"{args.trajectory}: {exc}", EXIT_PARSE) from exc
    traj = np.column_stack([traj_cols["x"], traj_cols["y"]])
    powers = PowerAllocation(power_cols["p1"], power_cols["p2"], power_cols["pr"])
    with np.errstate(over="ignore", invalid="ignore"):  # a huge power overflows the SINR table
        _, (r1, r2) = _exact_plan(sc, traj, powers, sched)
    bad = ~(np.isfinite(r1) & np.isfinite(r2))
    if bad.any():
        i = int(np.argmax(bad))
        name = max(("p1", "p2", "pr"), key=lambda c: power_cols[c][i])
        raise CliError(f"{args.powers}: column {name}, slot {i + 1}: {float(power_cols[name][i])!r} "
                       "overflows the exact rates", EXIT_NUMERICAL)
    _write_plan(args, "rates", sc, traj, powers, sched, (r1, r2), {
        "objective": float(np.sum(r1 + r2)),
        "min_rate": float(min(r1.min(), r2.min())),
    })
    return EXIT_OK


def _cmd_oracle(args) -> int:
    sc = load_scenario(args.scenario, slots=args.slots)
    if not (0 < args.grid < np.inf and 0 < args.power_grid < np.inf):
        raise CliError("--grid and --power-grid must be finite and positive", EXIT_PARSE)
    started = time.perf_counter()
    try:
        pos, triple, best = oracle_mod.static_placement_oracle(
            sc, xy_step=args.grid, power_step=args.power_grid, objective=args.objective
        )
    except ValueError as exc:
        # empty grids and target-infeasible grids are scenario problems, not
        # usage problems
        raise CliError(str(exc), EXIT_INFEASIBLE) from exc
    wall = time.perf_counter() - started
    n = sc.slot_count
    traj = np.tile(pos, (n, 1))
    powers = PowerAllocation(np.full(n, triple[0]), np.full(n, triple[1]), np.full(n, triple[2]))
    # the min objective scores the orthogonal mode: the policy's states with
    # the NOMA threshold at infinity, as the min-rate driver schedules them
    policy = sc if args.objective == "sum" else dataclasses.replace(sc, mode_threshold=np.inf)
    sched, slot_rates = _exact_plan(policy, traj, powers)
    _write_plan(args, "oracle", sc, traj, powers, sched, slot_rates, {
        "objective": best,
        "position": [float(pos[0]), float(pos[1])],
        "powers": [float(v) for v in triple],
        "wall_time_s": wall,
    })
    print(f"best {args.objective} {_fmt(best)} at ({_fmt(pos[0])}, {_fmt(pos[1])})")
    return EXIT_OK


def _highsnr_records(gains, piece: str, noise: float) -> Dict:
    """The high-SNR report at one sweep value; CliError unless its exact and
    approximate rates are all finite (NaN, inf, or a power so large or
    small in watts that a rate overflows or divides by zero)."""
    bad = CliError(f"bad sweep value {piece!r}", EXIT_PARSE)
    try:
        p_dbm = float(piece)
    except ValueError as exc:
        raise bad from exc
    try:
        with np.errstate(all="ignore"):  # a non-finite rate is caught below
            report = oracle_mod.highsnr_proposition_suite([gains], [p_dbm], noise)
    except (OverflowError, ZeroDivisionError) as exc:
        raise bad from exc
    if not all(np.isfinite(v) for rec in report["records"]
               for key in ("exact", "approx") for v in rec[key].values()):
        raise bad
    return report


def _cmd_highsnr(args) -> int:
    sc = load_scenario(args.scenario, slots=args.slots)
    gains = oracle_mod.initial_gains(sc)
    noise = 10 ** (sc.noise_density_dbm_per_hz / 10.0) / 1000.0
    parts = [_highsnr_records(gains, piece, noise)
             for token in args.sweep for piece in str(token).split(",") if piece]
    if not parts:
        raise CliError("--sweep needs at least one dBm value", EXIT_PARSE)
    report = {key: [x for part in parts for x in part[key]] for key in ("records", "violations")}
    worst = max(
        abs(rec["gap"][key])
        for rec in report["records"]
        for key in ("noma_sum", "noma_min", "oma_sum", "oma_min")
    )
    traj, powers = feasible_init(sc)
    sched, slot_rates = _exact_plan(sc, traj, powers)
    _write_plan(args, "highsnr", sc, traj, powers, sched, slot_rates, {
        "objective": worst,
        "records": report["records"],
        "violations": report["violations"],
        "noma_split": list(parts[0]["noma_split"]),
    })
    print(f"worst approximation gap {_fmt(worst)} over {len(report['records'])} records")
    return EXIT_OK


def _cmd_validate(args) -> int:
    sc = load_scenario(args.scenario, slots=args.slots)
    traj, powers = feasible_init(sc)
    report = validate_trajectory(traj, sc)
    sched, slot_rates = _exact_plan(sc, traj, powers)
    feasible = not report
    _write_plan(args, "validate", sc, traj, powers, sched, slot_rates, {
        "objective": None,
        "feasible": feasible,
        "violations": report,
    })
    if not feasible:
        raise CliError(f"straight-line initialization violates {len(report)} constraints",
                       EXIT_INFEASIBLE)
    print("scenario feasible")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="relayplan", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_sub(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="scenario JSON file")
        p.add_argument("--slots", type=int, default=None,
                       help="override the slot count (desk-scale runs)")
        p.add_argument("--out-dir", default=".", help="directory for output files")
        return p

    scenario_sub("solve-sumrate", "joint trajectory/mode/power sum-rate driver")
    scenario_sub("solve-minrate", "fairness driver (orthogonal mode)")

    p = scenario_sub("rates", "recompute exact rates for stored results")
    p.add_argument("--trajectory", required=True, help="per-slot CSV with x, y columns")
    p.add_argument("--powers", required=True, help="per-slot CSV with p1, p2, pr columns")

    p = scenario_sub("oracle", "brute-force placement/power reference")
    p.add_argument("--objective", choices=("sum", "min"), default="sum")
    p.add_argument("--grid", type=float, default=5.0, help="position grid step in meters")
    p.add_argument("--power-grid", type=float, default=0.1,
                   help="power grid step as a fraction of the per-slot budget")

    p = scenario_sub("highsnr", "exact versus asymptotic rate report")
    p.add_argument("--sweep", nargs="+", required=True, help="transmit powers in dBm")

    scenario_sub("validate", "check scenario and straight-line initialization")
    return parser


_COMMANDS = {
    "solve-sumrate": lambda args: _solve(args, algorithm3_joint, "sumrate"),
    "solve-minrate": lambda args: _solve(args, solve_minrate, "minrate"),
    "rates": _cmd_rates,
    "oracle": _cmd_oracle,
    "highsnr": _cmd_highsnr,
    "validate": _cmd_validate,
}


def _error_json(kind: str, message: str, code: int) -> int:
    print(json.dumps({"error": {"type": kind, "message": message, "exit_code": code}}),
          file=sys.stderr)
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except CliError as exc:
        kind = {EXIT_PARSE: "parse", EXIT_INFEASIBLE: "infeasible",
                EXIT_NUMERICAL: "numerical"}.get(exc.code, "error")
        return _error_json(kind, str(exc), exc.code)
    except InfeasibleProblemError as exc:
        return _error_json("infeasible", str(exc), EXIT_INFEASIBLE)
    except ScenarioError as exc:
        return _error_json("parse", str(exc), EXIT_PARSE)
    except OSError as exc:
        return _error_json("parse", str(exc), EXIT_PARSE)
    except (FloatingPointError, ZeroDivisionError,
            np.linalg.LinAlgError) as exc:
        return _error_json("numerical", str(exc), EXIT_NUMERICAL)


if __name__ == "__main__":
    sys.exit(main())
