"""Workload loops, checks and metrics of relaybench (imported by run.py)."""

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import relayplan
from relayplan import barrier, cli, modes, oracle, rates, sca, scenario, solver

import refcheck
import spans
import workloads as W

LAYER_MODULES = {"cli": cli, "solver": solver, "barrier": barrier, "sca": sca, "rates": rates,
                 "modes": modes, "scenario": scenario, "oracle": oracle}
RATIO_METRICS = ("solver.traj_accept_ratio", "barrier.ms_per_newton_step", "rates.slot_evals_per_s")
END_TO_END = (("setup_s", "s"), ("plans_per_s", "1/s"), ("sum_rate_bpshz", "bps/Hz"),
              ("min_rate_bpshz", "bps/Hz"), ("peak_rss_mb", "MB"))
FEASIBLE_SAMPLE = 4000  # oracle candidates behind oracle.feasible_share
SETUP_REPS = 3


class Tally:
    """Operations attempted and failed, latencies, plan quality, problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies = []  # completed operations, seconds
        self.busy = 0.0  # seconds spent in the program, failed operations included
        self.plans = {"sum": [], "min": []}  # objective -> [(mean R1 + R2, min rate)]
        self.problems = []
        self.known_faults = 0

    def plan(self, objective, r1, r2):
        r1, r2 = np.asarray(r1, dtype=float), np.asarray(r2, dtype=float)
        self.plans[objective].append((float(np.mean(r1 + r2)), float(min(r1.min(), r2.min()))))

    def quality(self):
        """(mean per-slot sum rate of the sum-rate plans, mean min rate of the
        min-rate plans); a workload without sum-rate plans reports the per-slot
        sum rate of its min-rate plans."""
        sums = self.plans["sum"] or self.plans["min"]
        mins = self.plans["min"]
        return (statistics.fmean(p[0] for p in sums) if sums else 0.0,
                statistics.fmean(p[1] for p in mins) if mins else 0.0)


def _read_slots(path):
    """Per-slot CSV columns: floats, plus the R1/R2 text as written."""
    with open(path) as fh:
        header = [c.strip() for c in fh.readline().split(",")]
        rows = [[c.strip() for c in line.split(",")] for line in fh if line.strip()]
    cols = {name: [r[i] for r in rows] for i, name in enumerate(header)}
    plan = {name: np.array([float(v) for v in vals]) for name, vals in cols.items()}
    plan["text"] = (cols["R1"], cols["R2"])
    return plan


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _cli(argv):
    """relayplan's command line, in process; (exit code, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _is_known_fault(code, err):
    """The sum-rate solver's final exact target check failing (DC-target fault)."""
    if code != cli.EXIT_INFEASIBLE:
        return False
    try:
        error = json.loads(err.strip().splitlines()[-1])["error"]
    except (ValueError, IndexError, KeyError):
        return False
    return error["type"] == "infeasible" and error["message"].startswith("rate targets unreachable")


class PlanBurst:
    """Closed loop, one client: each request runs solve-sumrate, solve-minrate
    and rates on the sum-rate CSV through ``relayplan.cli.main``."""

    def __init__(self, root, seed, work):
        self.root, self.seed, self.work = root, seed, work

    def prepare(self):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        base = W.default_raw(self.root)
        self.requests = []
        for i, raw in enumerate(W.catalogue(base) + [dict(base, slot_count=10)]):
            path = os.path.join(self.work, f"request-{i}.json")
            with open(path, "w") as fh:
                json.dump(raw, fh)
            self.requests.append((path, os.path.join(self.work, f"request-{i}"), refcheck.Model(raw)))
        self.warm = self.requests.pop()
        self.order = W.request_order(self.seed)

    def warmup(self):
        self._request(*self.warm, Tally())

    def round(self, tally, tracer):
        spent = 0.0
        for i in self.order:
            if tracer:
                tracer.request = f"request-{i}"
            spent += self._request(*self.requests[i], tally)
        return spent

    def _request(self, path, out, model, tally):
        sum_csv = os.path.join(out, "sumrate_slots.csv")
        started = time.perf_counter()
        code_s, err_s = _cli(["solve-sumrate", path, "--out-dir", out])
        code_m, err_m = _cli(["solve-minrate", path, "--out-dir", out])
        code_r = err_r = None
        if code_s == 0:
            code_r, err_r = _cli(["rates", path, "--trajectory", sum_csv, "--powers", sum_csv, "--out-dir", out])
        spent = time.perf_counter() - started
        tally.attempted += 1
        tally.busy += spent
        name = os.path.basename(path)
        if code_s == 0 and code_m == 0 and code_r == 0:
            tally.latencies.append(spent)
        else:
            tally.failed += 1
        if code_s != 0:
            if _is_known_fault(code_s, err_s):
                tally.known_faults += 1
            else:
                tally.problems.append(f"{name}: solve-sumrate exit {code_s}: {err_s.strip()}")
        else:
            plan = _read_slots(sum_csv)
            summary = _read_json(os.path.join(out, "sumrate_summary.json"))
            tally.problems += [f"{name} sum-rate: {p}" for p in
                               refcheck.check_sum_plan(model, plan, summary["objective"])]
            tally.plan("sum", plan["R1"], plan["R2"])
            if code_r != 0:
                tally.problems.append(f"{name}: rates exit {code_r}: {err_r.strip()}")
            elif _read_slots(os.path.join(out, "rates_slots.csv"))["text"] != plan["text"]:
                tally.problems.append(f"{name}: rates does not reproduce R1/R2 bit for bit")
        if code_m != 0:
            tally.problems.append(f"{name}: solve-minrate exit {code_m}: {err_m.strip()}")
        else:
            plan = _read_slots(os.path.join(out, "minrate_slots.csv"))
            summary = _read_json(os.path.join(out, "minrate_summary.json"))
            tally.problems += [f"{name} min-rate: {p}" for p in
                               refcheck.check_min_plan(model, plan, summary["objective"])]
            tally.plan("min", plan["R1"], plan["R2"])
        return spent

    def layer_extras(self):
        return {}


def _result_plan(res):
    return {
        "x": res.trajectory[:, 0], "y": res.trajectory[:, 1],
        "p1": res.powers.p1, "p2": res.powers.p2, "pr": res.powers.pr,
        "mode": res.schedule.modes,
        "R1": np.array([s.r1 for s in res.slots]), "R2": np.array([s.r2 for s in res.slots]),
    }


class MissionMinrate:
    """``solver.solve_minrate`` on the default scenario at a long horizon."""

    def __init__(self, root, seed, work):
        self.root = root

    def prepare(self):
        base = W.default_raw(self.root)
        self.sc = scenario.scenario_from_dict(base, slots=W.MISSION_SLOTS)
        self.model = refcheck.Model(base, slots=W.MISSION_SLOTS)
        self.warm_sc = scenario.scenario_from_dict(base, slots=20)

    def warmup(self):
        solver.solve_minrate(self.warm_sc)

    def round(self, tally, tracer):
        if tracer:
            tracer.request = "mission"
        started = time.perf_counter()
        try:
            res = solver.solve_minrate(self.sc)
        except Exception as exc:  # any raise is a failed plan; keep measuring
            res = None
            tally.problems.append(f"solve_minrate raised {type(exc).__name__}: {exc}")
        spent = time.perf_counter() - started
        tally.attempted += 1
        tally.busy += spent
        if res is None:
            tally.failed += 1
            return spent
        tally.latencies.append(spent)
        plan = _result_plan(res)
        tally.problems += [f"mission: {p}" for p in refcheck.check_min_plan(self.model, plan, res.objective)]
        tally.plan("min", plan["R1"], plan["R2"])
        return spent

    def layer_extras(self):
        return {}


class OracleGrid:
    """``oracle.static_placement_oracle`` on the 600-slot default, both objectives."""

    def __init__(self, root, seed, work):
        self.root, self.seed = root, seed

    def prepare(self):
        base = W.default_raw(self.root)
        self.sc = scenario.scenario_from_dict(base)
        self.model = refcheck.Model(base)
        xs, ys, pairs, _ = W.oracle_axes(base)
        self.candidates = xs.size * ys.size * len(pairs) * self.model.n
        self.samples = {obj: W.oracle_sample(base, self.seed, obj) for obj in W.ORACLE_OBJECTIVES}

    def warmup(self):
        # the full horizon and power grid on a 250 m grid: a few cells, but
        # the search's work arrays have their measured size
        for obj in W.ORACLE_OBJECTIVES:
            oracle.static_placement_oracle(self.sc, xy_step=250.0, power_step=W.ORACLE_POWER_STEP, objective=obj)

    def round(self, tally, tracer):
        spent = 0.0
        for obj in W.ORACLE_OBJECTIVES:
            if tracer:
                tracer.request = f"oracle-{obj}"
            started = time.perf_counter()
            try:
                pos, powers, value = oracle.static_placement_oracle(
                    self.sc, xy_step=W.ORACLE_XY_STEP, power_step=W.ORACLE_POWER_STEP, objective=obj)
            except Exception as exc:  # any raise is a failed search; keep measuring
                pos = None
                tally.problems.append(f"oracle {obj} raised {type(exc).__name__}: {exc}")
            took = time.perf_counter() - started
            spent += took
            tally.attempted += 1
            tally.busy += took
            if pos is None:
                tally.failed += 1
                continue
            tally.latencies.append(took)
            tally.problems += [f"oracle {obj}: {p}" for p in refcheck.check_static_result(
                self.model, obj, pos, powers, value, *self.samples[obj], W.ORACLE_XY_STEP)]
            m = self.model
            h = m.gains(np.tile(pos, (m.n, 1)))
            mode = refcheck.policy_modes(*h, m.r_th) if obj == "sum" else refcheck.ORTHOGONAL
            tally.plan(obj, *refcheck.rates(mode, *h, *powers, m.sigma2))
        return spent

    def layer_extras(self):
        """Grid size per round, and the share of a seeded sample of sum-objective
        candidates (cell, BS power pair, top relay power) that meet every target."""
        xs, ys, pairs, relay = W.oracle_axes(self.model.raw)
        rng = np.random.default_rng([self.seed, 99])
        cells = np.column_stack([rng.choice(xs, FEASIBLE_SAMPLE), rng.choice(ys, FEASIBLE_SAMPLE)])
        powers = np.column_stack([pairs[rng.integers(0, len(pairs), FEASIBLE_SAMPLE)],
                                  np.full(FEASIBLE_SAMPLE, relay[-1])])
        ok = np.concatenate([np.isfinite(refcheck.static_values(self.model, cells[i:i + 500], powers[i:i + 500], "sum"))
                             for i in range(0, FEASIBLE_SAMPLE, 500)])
        return {"oracle.candidates": float(len(W.ORACLE_OBJECTIVES) * self.candidates),
                "oracle.feasible_share": float(ok.mean())}


WORKLOAD_CLASSES = {"plan-burst": PlanBurst, "mission-minrate": MissionMinrate, "oracle-grid": OracleGrid}


def _check_source(root):
    here = os.path.realpath(os.path.dirname(relayplan.__file__))
    want = os.path.realpath(os.path.join(root, "src", "relayplan"))
    if here != want:
        print(f"relaybench: imported relayplan from {here}, not {want}", file=sys.stderr)
        sys.exit(2)


def _import_seconds(root):
    """Import time of relayplan and its numpy/scipy stack in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import relayplan.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    return float(done.stdout)


def run(args, threads, root):
    _check_source(root)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    work = WORKLOAD_CLASSES[args.workload](root, args.seed, os.path.join(out_dir, args.workload))

    # set-up: imports (timed in fresh interpreters, since this one has them
    # already), input generation and one warm-up call, each median of three
    import_s = statistics.median(_import_seconds(root) for _ in range(SETUP_REPS))
    reps = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        work.prepare()
        work.warmup()
        reps.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(reps)

    tally = Tally()
    tracer = spans.Tracer() if args.trace else None
    untraced, traced = [], []
    t0 = time.perf_counter()
    while True:
        # traced runs alternate untraced and traced rounds; the difference of
        # their medians is the tracing overhead
        use = tracer is not None and len(untraced) > len(traced)
        if use:
            tracer.install(LAYER_MODULES)
        begun = time.perf_counter()
        try:
            spent = work.round(tally, tracer if use else None)
        finally:
            if use:
                tracer.uninstall()
        (traced if use else untraced).append(spent)
        # whole rounds only: start another while it should end in time
        now = time.perf_counter()
        if (tracer is None or traced) and now - t0 + (now - begun) > args.seconds:
            break

    correct = not tally.problems
    print(f"relaybench {args.workload} seed {args.seed}: blas/openmp threads {threads}, "
          f"{len(untraced) + len(traced)} rounds, {tally.attempted} attempted, {tally.failed} failed "
          f"({tally.known_faults} on the known sum-rate target fault)", file=sys.stderr)
    print(f"  setup seconds: imports {import_s:.3f} (median of {SETUP_REPS}), set-ups "
          + " ".join(f"{t:.3f}" for t in reps),
          file=sys.stderr)
    print("  round seconds: untraced " + " ".join(f"{t:.3f}" for t in untraced)
          + ("; traced " + " ".join(f"{t:.3f}" for t in traced) if traced else ""), file=sys.stderr)
    for p in tally.problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    if tracer is None:
        done = len(tally.latencies)
        sum_rate, min_rate = tally.quality()
        metrics = {
            "setup_s": setup_s,
            "plans_per_s": done / tally.busy if tally.busy else 0.0,
            "sum_rate_bpshz": sum_rate,
            "min_rate_bpshz": min_rate,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        # latency and grid rate, printed but not gated: the median of a dozen
        # uneven request latencies swings with the machine's short-term speed
        if done:
            print(f"  (plan_p50_s {statistics.median(tally.latencies):.6g} s over {done} completed plans)",
                  file=sys.stderr)
        if isinstance(work, OracleGrid) and tally.busy:
            print(f"  (oracle_candidates_per_s {work.candidates * done / tally.busy:.6g} 1/s)", file=sys.stderr)
    else:
        rounds = len(traced)
        per_layer = tracer.layer_metrics()
        metrics = {k: v if k in RATIO_METRICS else v / rounds for k, v in per_layer.items()}
        metrics["oracle.candidates"] = 0.0
        metrics["oracle.feasible_share"] = 0.0
        metrics.update(work.layer_extras())
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        units = {k: _unit(k) for k in metrics}
        tracer.write(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        print(f"  per-layer figures are per traced round ({rounds} traced, {len(untraced)} untraced)",
              file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def _unit(name):
    if name.startswith("barrier.ms_"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "share")):
        return "ratio"
    if name.endswith("gflop_computed"):
        return "GFLOP"
    return "count"
