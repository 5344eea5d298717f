import dataclasses
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relayplan
from relayplan import barrier, rates, sca, solver
from relayplan.cli import main
from relayplan.scenario import (
    channel_state,
    default_scenario,
    initial_trajectory,
    scenario_from_dict,
    validate_trajectory,
)
from relayplan.modes import mode_schedule
from relayplan.solver import InfeasibleProblemError, PowerAllocation

from finite_diff import finite_diff_gradient, finite_diff_hessian
from references import feasibility_report

SC8 = default_scenario(slots=8)

SYMMETRIC_RAW = {
    "bs_position_m": [0.0, 0.0, 0.0],
    "uav_height_m": 100.0,
    "uav_start_m": [200.0, 0.0],
    "uav_end_m": [200.0, 0.0],
    "uav_max_speed_mps": 30.0,
    "slot_duration_s": 0.1,
    "slot_count": 10,
    "flight_box_m": [0.0, 1000.0, -500.0, 500.0],
    "vehicle_initial_m": [[700.0, 60.0], [700.0, -60.0]],
    "vehicle_velocity_mps": [[15.0, 0.0], [15.0, 0.0]],
    "bandwidth_hz": 1.0e7,
    "noise_density_dbm_per_hz": -174.0,
    "reference_snr_db": 70.0,
    "avg_bs_power_w": 0.5,
    "avg_relay_power_w": 0.5,
    "rate_targets_bpshz": [0.0, 0.0],
    "mode_threshold_bpshz": 0.1,
}


def equal_split(sc):
    n = sc.slot_count
    return PowerAllocation(
        np.full(n, 0.5 * sc.avg_bs_power),
        np.full(n, 0.5 * sc.avg_bs_power),
        np.full(n, sc.avg_relay_power),
    )


def exact_sum(sc, traj, modes, powers):
    cs = channel_state(traj, sc)
    r1, r2 = rates.exact_rates(
        modes, cs.h_r, cs.h_1, cs.h_2, powers.p1, powers.p2, powers.pr, sc.noise_power
    )
    return float(r1.sum() + r2.sum())


@pytest.fixture(scope="module")
def joint8():
    return solver.algorithm3_joint(SC8)


@pytest.fixture(scope="module")
def joint50():
    return solver.algorithm3_joint(default_scenario(slots=50))


@pytest.fixture(scope="module")
def minrate50():
    return solver.solve_minrate(default_scenario(slots=50))


# ---- feasible_init ----


def test_p2_init_budget_equality_and_valid_trajectory():
    traj, powers = solver.feasible_init(SC8)
    assert powers.bs_sum() == pytest.approx(SC8.bs_energy, rel=1e-12)
    assert powers.relay_sum() == pytest.approx(SC8.relay_energy, rel=1e-12)
    assert validate_trajectory(traj, SC8) == []


def test_p1_init_meets_targets_every_slot(monkeypatch):
    """The sum-rate loop starts from the fairness plan, re-balanced so that
    every slot meets its rate targets on exact rates under the policy: its
    first trajectory step is taken at such powers.  Vehicle 2's target is
    one that the fairness powers miss."""
    sc = dataclasses.replace(SC8, rate_targets=np.array([1.0, 1.2]))
    started = {}
    step = solver._traj_step

    def spy(sc, powers, modes, start_traj, objective, diag):
        if objective == "sum" and not started:
            started.update(traj=start_traj, powers=powers)
        return step(sc, powers, modes, start_traj, objective, diag)

    monkeypatch.setattr(solver, "_traj_step", spy)
    solver.algorithm3_joint(sc)
    fair = solver.solve_minrate(sc)
    traj, powers = started["traj"], started["powers"]
    assert np.array_equal(traj, fair.trajectory)
    cs = channel_state(traj, sc)
    sched = mode_schedule(cs, sc)

    def exact(p):
        return rates.exact_rates(sched.modes, cs.h_r, cs.h_1, cs.h_2, p.p1, p.p2, p.pr, sc.noise_power)

    assert np.any(exact(fair.powers)[1] < sc.rate_targets[1])
    r1, r2 = exact(powers)
    assert np.all(r1 >= sc.rate_targets[0] - 1e-6)
    assert np.all(r2 >= sc.rate_targets[1] - 1e-6)


# ---- one side held still ----


def test_hover_keeps_trajectory():
    sc = dataclasses.replace(SC8, uav_max_speed=0.0, rate_targets=np.zeros(2))
    res = solver.algorithm3_joint(sc)
    assert np.array_equal(res.trajectory, initial_trajectory(sc))
    assert all(h["bound_traj"] is None for h in res.history)


def test_zero_targets_inactive_and_objective_climbs(monkeypatch):
    """With zero targets no target row reaches the barrier.  Every sum-rate
    trajectory step keeps or raises the exact sum at the powers and modes it
    was taken under; the power step's bound can overstate a NOMA rate, so an
    outer iteration may still fall, and each fall is on record as a dip."""
    sc = dataclasses.replace(SC8, rate_targets=np.zeros(2))
    labels, steps = [], []
    real, real_accept = solver.concave_max, solver._damped_traj_accept

    def spy(objective, blocks, z0, **kwargs):
        labels.extend(getattr(blk, "label", "") for blk in blocks)
        return real(objective, blocks, z0, **kwargs)

    def accept(sc_, powers, modes, anchor, cand, objective, base, diag):
        traj = real_accept(sc_, powers, modes, anchor, cand, objective, base, diag)
        if objective == "sum":  # not the warm start's min-rate steps
            before = exact_sum(sc, anchor, modes, powers)
            # a base handed down from the previous iteration is the same value
            assert base is None or base == before
            steps.append((before, exact_sum(sc, traj, modes, powers)))
        return traj

    monkeypatch.setattr(solver, "concave_max", spy)
    monkeypatch.setattr(solver, "_damped_traj_accept", accept)
    res = solver.algorithm3_joint(sc)
    assert steps and all(after >= before - 1e-9 for before, after in steps)
    exact = res.objective_history
    dips = {d["iteration"] for d in res.diagnostics.get("objective_dips", [])}
    for i, (prev, cur) in enumerate(zip(exact, exact[1:]), 1):
        assert cur >= prev - 1e-9 or i in dips
    assert "velocity" in labels  # the spy saw the trajectory subproblems
    assert not [lab for lab in labels if lab.startswith("rate target")]


def test_trajectory_driver_improves_on_straight_line(joint50):
    sc = default_scenario(slots=50)
    traj0 = initial_trajectory(sc)
    sched0 = mode_schedule(channel_state(traj0, sc), sc)
    before = exact_sum(sc, traj0, sched0.modes, equal_split(sc))
    assert len(joint50.history) <= 30
    assert joint50.objective >= before - 1e-9


def test_unreachable_targets_reported_with_slots():
    sc = dataclasses.replace(SC8, rate_targets=np.array([20.0, 20.0]))
    with pytest.raises(InfeasibleProblemError) as err:
        solver.algorithm3_joint(sc)
    assert err.value.slots == list(range(SC8.slot_count))


# ---- known faults: strict xfails that the named ROADMAP item flips ----

# plan-burst request 2 (catalogue seed 2) over the default scenario
REQUEST_2 = {
    "uav_start_m": [197.72199009230616, 384.84337930136485],
    "uav_end_m": [197.72199009230616, 384.84337930136485],
    "slot_count": 29,
    "vehicle_initial_m": [[678.3249666160052, 68.7252569720098],
                          [678.5462860873968, -15.870809585163514]],
    "vehicle_velocity_mps": [[0, 18.91209409500579], [0, 17.755639424726894]],
    "mode_threshold_bpshz": 0,
}


@pytest.mark.xfail(strict=True, raises=InfeasibleProblemError, reason="ROADMAP item 4")
def test_sumrate_solves_request_2():
    path = Path(relayplan.__file__).parent / "data" / "default_paper.json"
    solver.algorithm3_joint(scenario_from_dict(dict(json.loads(path.read_text()), **REQUEST_2)))


@pytest.mark.xfail(strict=True, raises=InfeasibleProblemError, reason="ROADMAP item 4")
def test_sumrate_solves_the_100_slot_default():
    solver.algorithm3_joint(default_scenario(slots=100))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 7")
def test_sumrate_schedule_follows_the_mode_rule(joint50):
    sc = default_scenario(slots=50)
    modes = mode_schedule(channel_state(joint50.trajectory, sc), sc).modes
    np.testing.assert_array_equal(modes, joint50.schedule.modes)


def bisection_rebalance(sc, cs, modes, powers):
    """Scalar reference for ``_rebalance_for_targets``: bisect each target's
    end of the decoding-order interval, slot by slot, to rounding level.
    Returns (p1, p2, stuck slots)."""
    t1, t2 = sc.rate_targets
    r1, r2 = rates.exact_rates(modes, cs.h_r, cs.h_1, cs.h_2, powers.p1, powers.p2, powers.pr, sc.noise_power)
    p1, p2 = powers.p1.copy(), powers.p2.copy()
    stuck = []
    for n in np.nonzero((r1 < t1) | (r2 < t2))[0]:
        s, pr, mode = p1[n] + p2[n], powers.pr[n], int(modes[n])
        lo = 0.5 * s if mode == 2 else 0.0
        hi = 0.5 * s if mode == 1 else s

        def meets(share, k, target):
            pair = rates.rates_for_mode(mode, cs.h_r[n], cs.h_1[n], cs.h_2[n], share, s - share, pr,
                                        sc.noise_power)
            return pair[k] >= target

        def cut(k, target, want_low):
            # smallest (want_low) or largest p1 whose rate k meets the target
            if meets(lo if want_low else hi, k, target):
                return lo if want_low else hi
            if not meets(hi if want_low else lo, k, target):
                return None
            a, b = lo, hi
            for _ in range(80):
                m = 0.5 * (a + b)
                if m == a or m == b:
                    break
                if meets(m, k, target) == want_low:
                    b = m
                else:
                    a = m
            return b if want_low else a

        need_lo, need_hi = cut(0, t1, want_low=True), cut(1, t2, want_low=False)
        if need_lo is None or need_hi is None or need_lo > need_hi:
            stuck.append(int(n))
            continue
        p1[n] = 0.5 * (need_lo + need_hi)
        p2[n] = s - p1[n]
    return p1, p2, stuck


GAIN = st.floats(1e-13, 1e-10)
SLOT = st.tuples(st.sampled_from([1, 2, 3]), GAIN, GAIN, GAIN,
                 st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))


@settings(max_examples=150, deadline=None)
@given(slots=st.lists(SLOT, min_size=1, max_size=6), targets=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)))
def test_rebalance_matches_bisection(slots, targets):
    """The closed-form re-balance against a per-slot bisection: the same
    stuck slots, or midpoints within 1e-12 s that meet both targets on the
    exact rates, with the other slots and every s and pr kept."""
    modes, h_r, h_1, h_2, p1, p2, pr = (np.array(col) for col in zip(*slots))
    sc = dataclasses.replace(SC8, rate_targets=np.array(targets))
    cs = SimpleNamespace(h_r=h_r, h_1=h_1, h_2=h_2)
    powers = PowerAllocation(p1, p2, pr)
    want_p1, want_p2, want_stuck = bisection_rebalance(sc, cs, modes, powers)
    if want_stuck:
        with pytest.raises(InfeasibleProblemError) as err:
            solver._rebalance_for_targets(sc, cs, modes, powers)
        assert err.value.slots == want_stuck
        return
    got = solver._rebalance_for_targets(sc, cs, modes, powers)
    s = p1 + p2
    r1, r2 = rates.exact_rates(modes, h_r, h_1, h_2, p1, p2, pr, sc.noise_power)
    kept = (r1 >= targets[0]) & (r2 >= targets[1])
    assert np.all(np.abs(got.p1 - want_p1) <= 1e-12 * s)
    assert np.array_equal(got.p1[kept], p1[kept]) and np.array_equal(got.p2[kept], p2[kept])
    assert np.allclose(got.p1 + got.p2, s, rtol=1e-15, atol=0.0)
    assert np.array_equal(got.pr, pr)
    r1, r2 = rates.exact_rates(modes, h_r, h_1, h_2, got.p1, got.p2, got.pr, sc.noise_power)
    assert np.all(r1 >= targets[0] - 1e-12) and np.all(r2 >= targets[1] - 1e-12)

def test_power_driver_monotone_with_huge_budgets_oma():
    raw = dict(SYMMETRIC_RAW, slot_count=6, mode_threshold_bpshz=1e9,
               avg_bs_power_w=50.0, avg_relay_power_w=50.0)
    sc = scenario_from_dict(raw)
    traj = initial_trajectory(sc)
    assert np.all(mode_schedule(channel_state(traj, sc), sc).modes == 3)
    res = solver.algorithm3_joint(sc)
    assert np.all(res.schedule.modes == 3)
    exact = res.objective_history
    assert all(b >= a - 1e-9 for a, b in zip(exact, exact[1:]))
    assert exact[-1] >= exact[0] - 1e-9


def test_equal_split_start_accepted():
    # budget-tight equal split is a legal start (fairness-problem style: no targets)
    sc = dataclasses.replace(SC8, rate_targets=np.zeros(2))
    traj, start = solver.feasible_init(sc)
    assert start.bs_sum() == pytest.approx(sc.bs_energy, rel=1e-12)
    res = solver.solve_minrate(sc)
    assert len(res.history) >= 1
    assert res.powers.bs_sum() <= sc.bs_energy * (1 + 1e-6)


def grid_best(sc, mode, cs, objective, npts=200):
    """Brute-force per-slot-constant powers for a single-slot scenario."""
    axis = np.linspace(0.0, sc.bs_energy, npts)
    raxis = np.linspace(0.0, sc.relay_energy, npts)
    p1g, p2g = np.meshgrid(axis, axis, indexing="ij")
    feasible = p1g + p2g <= sc.bs_energy + 1e-12
    if mode == 1:
        feasible &= p2g >= p1g
    elif mode == 2:
        feasible &= p1g >= p2g
    best = -np.inf
    for pr in raxis:
        r1, r2 = rates.rates_for_mode(
            mode, cs.h_r[0], cs.h_1[0], cs.h_2[0], p1g, p2g, pr, sc.noise_power
        )
        val = r1 + r2 if objective == "sum" else np.minimum(r1, r2)
        best = max(best, float(np.where(feasible, val, -np.inf).max()))
    return best


def test_single_slot_power_matches_grid():
    raw = dict(SYMMETRIC_RAW)
    raw.update(slot_count=1, uav_max_speed_mps=0.0,
               vehicle_initial_m=[[700.0, 100.0], [702.0, 0.0]],
               vehicle_velocity_mps=[[0.0, 15.0], [0.0, 15.0]],
               uav_start_m=[200.0, 300.0], uav_end_m=[200.0, 300.0],
               flight_box_m=[0.0, 1000.0, 0.0, 1000.0])
    sc = scenario_from_dict(raw)
    res = solver.algorithm3_joint(sc)
    assert np.array_equal(res.trajectory, initial_trajectory(sc))
    cs = channel_state(res.trajectory, sc)
    want = grid_best(sc, int(res.schedule.modes[0]), cs, "sum")
    assert abs(res.objective - want) <= 0.01 * want


# ---- algorithm 3: joint driver ----


def test_joint_near_fixed_point_stops_quickly(joint8):
    # the fairness initialization is already nearly optimal at this size
    assert joint8.converged
    assert len(joint8.history) <= 2


def test_joint_history_monotone_and_converged(joint50):
    assert joint50.converged
    assert len(joint50.history) <= 30
    hist = joint50.objective_history
    assert all(b >= a - 1e-9 for a, b in zip(hist, hist[1:]))
    assert joint50.wall_time > 0
    assert all(s > 0 for s in joint50.newton_steps)


def test_bound_above_exact_is_recorded(joint50, minrate50):
    # The sum-rate power bound overstates the exact objective at its own
    # optimum on the 50-slot default (the interfered vehicle's DC split,
    # ROADMAP item 4); min-rate power rows are OMA and never do.
    entries = joint50.diagnostics.get("bound_above_exact", [])
    assert entries
    for entry in entries:
        step = joint50.history[entry["iteration"]]
        assert entry["excess"] == step["bound_power"] - step["exact"] > 1e-9 * abs(step["exact"])
    assert "bound_above_exact" not in minrate50.diagnostics


def test_joint_result_feasible_and_budget_tight(joint50):
    sc = default_scenario(slots=50)
    report = feasibility_report(
        sc, joint50.trajectory, joint50.powers, joint50.schedule.modes
    )
    assert report == []
    bs_use = joint50.powers.bs_sum() / sc.bs_energy
    relay_use = joint50.powers.relay_sum() / sc.relay_energy
    assert max(bs_use, relay_use) >= 1 - 1e-3


def test_joint_meets_rate_targets(joint50):
    sc = default_scenario(slots=50)
    r1, r2 = joint50.slots.r1, joint50.slots.r2
    assert np.all(r1 >= sc.rate_targets[0] - 1e-6)
    assert np.all(r2 >= sc.rate_targets[1] - 1e-6)


def test_joint_beats_oma_forced_ablation(joint50):
    sc = dataclasses.replace(default_scenario(slots=50), mode_threshold=np.inf)
    oma = solver.algorithm3_joint(sc)
    assert joint50.objective >= oma.objective - 1e-9


def test_joint_slots_match_exact_formulas(joint8):
    sc = SC8
    cs = channel_state(joint8.trajectory, sc)
    r1, r2 = rates.exact_rates(
        joint8.schedule.modes, cs.h_r, cs.h_1, cs.h_2,
        joint8.powers.p1, joint8.powers.p2, joint8.powers.pr, sc.noise_power,
    )
    assert np.allclose(joint8.slots.r1, r1, rtol=1e-12, atol=1e-12)
    assert np.allclose(joint8.slots.r2, r2, rtol=1e-12, atol=1e-12)
    assert joint8.objective == pytest.approx(float(r1.sum() + r2.sum()), rel=1e-12)


def test_joint_deterministic():
    a = solver.algorithm3_joint(SC8)
    b = solver.algorithm3_joint(SC8)
    assert np.array_equal(a.trajectory, b.trajectory)
    assert np.array_equal(a.powers.p1, b.powers.p1)
    assert np.array_equal(a.powers.pr, b.powers.pr)
    assert a.objective == b.objective


# ---- min-rate driver ----


def test_minrate_symmetric_scenario_splits_power_evenly():
    sc = scenario_from_dict(SYMMETRIC_RAW)
    res = solver.solve_minrate(sc)
    mean = 0.5 * (res.powers.p1 + res.powers.p2)
    assert np.max(np.abs(res.powers.p1 - res.powers.p2) / mean) <= 1e-3
    assert np.all(res.schedule.modes == 3)


def test_minrate_single_slot_matches_grid():
    raw = dict(SYMMETRIC_RAW)
    raw.update(slot_count=1, uav_max_speed_mps=0.0)
    sc = scenario_from_dict(raw)
    res = solver.solve_minrate(sc)
    cs = channel_state(res.trajectory, sc)
    want = grid_best(sc, 3, cs, "min")
    assert abs(res.objective - want) <= 0.01 * want


def test_minrate_beats_equal_power_baseline(minrate50):
    sc = default_scenario(slots=50)
    traj, powers = solver.feasible_init(sc)
    cs = channel_state(traj, sc)
    r1, r2 = rates.exact_rates(
        np.full(sc.slot_count, 3), cs.h_r, cs.h_1, cs.h_2,
        powers.p1, powers.p2, powers.pr, sc.noise_power,
    )
    baseline = float(min(r1.min(), r2.min()))
    assert minrate50.objective >= baseline - 1e-9


def test_minrate_fairness_signature(minrate50):
    r1, r2 = minrate50.slots.r1, minrate50.slots.r2
    worst = minrate50.objective
    assert np.max(np.abs(r1 - r2)) / worst <= 0.05
    assert (r1.max() - worst) / worst <= 0.05
    assert (r2.max() - worst) / worst <= 0.05
    assert minrate50.converged


def test_minrate_history_monotone(minrate50):
    hist = minrate50.objective_history
    assert all(b >= a - 1e-9 for a, b in zip(hist, hist[1:]))


def test_minrate_diagnostics_sum_barrier_counts(monkeypatch):
    infos = []
    real = solver.concave_max

    def spy(*args, **kwargs):
        z, info = real(*args, **kwargs)
        infos.append(info)
        return z, info

    monkeypatch.setattr(solver, "concave_max", spy)
    monkeypatch.setattr(barrier, "MAX_NEWTON_PER_STAGE", 5)  # force capped stages
    diag = solver.solve_minrate(SC8).diagnostics
    assert diag["capped_stages"] == sum(info.capped_stages for info in infos) > 0
    assert diag["failed_solves"] == sum(info.line_search_failed for info in infos)


def test_minrate_long_horizon_converges():
    res = solver.solve_minrate(default_scenario(slots=300))
    bound = np.array([h["bound_power"] for h in res.history])
    assert res.converged
    assert res.diagnostics["capped_stages"] == 0
    assert res.diagnostics["failed_solves"] == 0
    assert np.all(np.diff(bound) >= -1e-9)


@pytest.mark.parametrize(
    "command, stem, driver",
    [("solve-minrate", "minrate", solver.solve_minrate),
     ("solve-sumrate", "sumrate", solver.algorithm3_joint)],
    ids=["minrate", "sumrate"],
)
def test_failed_subproblem_solve_is_not_converged(monkeypatch, tmp_path, command, stem, driver):
    """One of the driver's own subproblem solves reports a failed line
    search (the sum-rate warm start's min-rate solves are left alone): the
    plan reads unconverged in the result and in the CLI summary."""
    real = solver.concave_max
    failed = []

    def fail_once(obj, *args, **kwargs):
        z, info = real(obj, *args, **kwargs)
        if not failed and (obj[0].label == "epigraph objective") == (stem == "minrate"):
            failed.append(True)
            info = dataclasses.replace(info, line_search_failed=True)
        return z, info

    monkeypatch.setattr(solver, "concave_max", fail_once)
    res = driver(default_scenario(slots=6))
    assert res.diagnostics["failed_solves"] == 1
    assert res.converged is False
    failed.clear()
    scenario = str(Path(relayplan.__file__).parent / "data" / "default_paper.json")
    assert main([command, scenario, "--slots", "6", "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / f"{stem}_summary.json").read_text())
    assert summary["diagnostics"]["failed_solves"] == 1
    assert summary["converged"] is False


@pytest.mark.parametrize(
    "command, stem, driver",
    [("solve-minrate", "minrate", solver.solve_minrate),
     ("solve-sumrate", "sumrate", solver.algorithm3_joint)],
    ids=["minrate", "sumrate"],
)
def test_capped_barrier_stage_is_not_converged(monkeypatch, tmp_path, command, stem, driver):
    """A barrier stage that runs into the Newton-step cap leaves a plan that
    reads unconverged in the result and in the CLI summary, though no solve
    failed and the outer gain test passed."""
    monkeypatch.setattr(barrier, "MAX_NEWTON_PER_STAGE", 3)
    res = driver(default_scenario(slots=6))
    assert res.diagnostics["capped_stages"] > 0
    assert res.diagnostics["failed_solves"] == 0
    assert len(res.objective_history) < solver.MAX_OUTER
    assert res.converged is False
    scenario = str(Path(relayplan.__file__).parent / "data" / "default_paper.json")
    assert main([command, scenario, "--slots", "6", "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / f"{stem}_summary.json").read_text())
    assert summary["diagnostics"]["capped_stages"] > 0
    assert summary["converged"] is False


def test_warm_started_subproblems_skip_barrier_stages(minrate50, joint50):
    """Each subproblem starts at the previous optimum, so the barrier's
    centring mu skips early stages, and the stages before the last centre
    only approximately: the 50-slot min-rate plan takes fewer than 400
    Newton steps (795 on the cold ladder with every stage fully centred) in
    the same 8 outer iterations, and the sum-rate plan keeps the golden
    objective."""
    assert sum(minrate50.newton_steps) < 400
    assert minrate50.diagnostics["stage_exits"]["centred"] > 0
    assert minrate50.diagnostics["skipped_stages"] > 0
    assert minrate50.diagnostics["capped_stages"] == 0
    assert len(minrate50.objective_history) == 8
    golden = np.genfromtxt(Path(__file__).parent / "data" / "sumrate_n50_golden.csv",
                           delimiter=",", names=True)
    want = float(np.sum(np.concatenate((golden["R1"], golden["R2"]))))
    assert joint50.objective == pytest.approx(want, rel=1e-9, abs=0.0)
    assert joint50.diagnostics["capped_stages"] == 0


@pytest.mark.parametrize("driver", [solver.solve_minrate, solver.algorithm3_joint],
                         ids=["minrate", "sumrate"])
def test_step_caps_skip_only_trials_that_fail(monkeypatch, driver):
    """The closed-form step caps of the energy budgets and reach circles skip
    only line-search trials that those rows would reject: without them every
    subproblem solve gives the same iterate and SolveInfo bit for bit, after
    more point evaluations."""

    def run():
        solves, evals = [], [0]
        real_solve, real_eval = solver.concave_max, barrier._evaluate_point

        def spy(*args, **kwargs):
            solves.append(real_solve(*args, **kwargs))
            return solves[-1]

        def counted(*args):
            evals[0] += 1
            return real_eval(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "concave_max", spy)
            mp.setattr(barrier, "_evaluate_point", counted)
            driver(SC8)
        return solves, evals[0]

    capped, capped_evals = run()
    for cls in (barrier.LinearBlock, solver.VelocityChainBlock):
        monkeypatch.setattr(cls, "max_step", lambda self, z, d, vals: np.inf)
    free, free_evals = run()
    assert len(capped) == len(free) > 0
    for (z, info), (z_free, info_free) in zip(capped, free):
        assert np.array_equal(z, z_free)
        assert info == info_free
    assert capped_evals < free_evals


def test_warm_trajectory_solves_start_off_their_reach_circles(monkeypatch):
    """A trajectory solve starts at the previous optimum blended BACKOFF of
    the way towards the straight line, off the reach circles that optimum
    is tight on, so on the 150-slot mission each warm-started solve's first
    mu stage takes a few Newton steps (23-25 when it started on them)."""
    first_stage = []
    real = solver.concave_max

    def spy(objective, blocks, z0, **kwargs):
        z, info = real(objective, blocks, z0, **kwargs)
        if any(blk.label == "velocity" for blk in blocks):
            first_stage.append(info.stage_steps[0])
        return z, info

    monkeypatch.setattr(solver, "concave_max", spy)
    res = solver.solve_minrate(default_scenario(slots=150))
    assert res.converged
    assert len(first_stage) == len(res.objective_history) > 1
    assert max(first_stage[1:]) <= 12


# Two hover geometries (29 and 38 slots) whose min-rate power solves reach
# their last mu stage with an energy-budget row of slack about mu: its
# Woodbury column is huge, and rounding can turn the Newton direction (a
# slope of -9.5e-12 against a rounding band of 3.1e-13 was seen on the
# first).  The second takes a refinement step in today's solves.
ROUNDING_GEOMETRIES = {
    "hover29": {
        "slot_count": 29, "mode_threshold_bpshz": 0.3,
        "uav_start_m": [195.99892363333078, 392.2701689472914],
        "uav_end_m": [195.99892363333078, 392.2701689472914],
        "vehicle_initial_m": [[768.0337634316779, 61.240574149257895],
                              [767.6176933294704, -49.137328382428635]],
        "vehicle_velocity_mps": [[0.0, 15.946848704882786], [0.0, 16.59275006609063]],
    },
    "hover38": {
        "slot_count": 38, "mode_threshold_bpshz": 0.0,
        "uav_start_m": [274.40341887098725, 299.6112109834496],
        "uav_end_m": [274.40341887098725, 299.6112109834496],
        "vehicle_initial_m": [[703.3156388249994, 109.34435177559061],
                              [702.0793621481819, -26.867446715172207]],
        "vehicle_velocity_mps": [[0.0, 18.92240109966643], [0.0, 16.137169384025874]],
    },
}


@pytest.mark.parametrize("name", sorted(ROUNDING_GEOMETRIES))
def test_rounding_level_negative_decrement_is_refined_not_failed(name):
    path = Path(relayplan.__file__).parent / "data" / "default_paper.json"
    raw = dict(json.loads(path.read_text()), **ROUNDING_GEOMETRIES[name])
    res = solver.solve_minrate(scenario_from_dict(raw))
    assert res.converged
    assert res.diagnostics["failed_solves"] == 0
    assert res.diagnostics["capped_stages"] == 0
    if name == "hover38":
        assert res.diagnostics["refined_directions"] >= 1


# ---- structure of the Newton steps ----


def test_driver_newton_steps_factor_a_band(monkeypatch):
    """Both drivers' Newton steps factor a band; any dense factorisation
    (Schur complement, capacitance) is at most 3 x 3."""
    dense, banded = [], []
    real_dense, real_banded = barrier._POTRF, barrier._PBTRF

    def spy_dense(a, *args, **kwargs):
        dense.append(np.shape(a))
        return real_dense(a, *args, **kwargs)

    def spy_banded(ab, *args, **kwargs):
        banded.append(np.shape(ab))
        return real_banded(ab, *args, **kwargs)

    monkeypatch.setattr(barrier, "_POTRF", spy_dense)
    monkeypatch.setattr(barrier, "_PBTRF", spy_banded)
    sc = default_scenario(slots=40)
    solver.solve_minrate(sc)
    solver.algorithm3_joint(sc)
    # (p1, p2, pr) slots: 3 band rows over 120 variables; (x, y): 4 over 80
    assert set(banded) == {(3, 120), (4, 80)}
    assert dense and max(max(shape) for shape in dense) <= 3


# ---- feasibility reporting ----


def test_feasibility_report_flags_violations():
    sc = SC8
    n = sc.slot_count
    traj = initial_trajectory(sc)
    good = equal_split(sc)
    assert feasibility_report(sc, traj, good) == []
    bad_power = PowerAllocation(np.full(n, -0.1), np.full(n, 0.25), np.full(n, 0.5))
    assert "negative power" in feasibility_report(sc, traj, bad_power)
    glutton = PowerAllocation(np.full(n, 0.5), np.full(n, 0.5), np.full(n, 0.9))
    report = feasibility_report(sc, traj, glutton)
    assert "source energy budget exceeded" in report
    assert "relay energy budget exceeded" in report
    flipped = PowerAllocation(np.full(n, 0.3), np.full(n, 0.2), np.full(n, 0.5))
    report = feasibility_report(sc, traj, flipped, modes=np.full(n, 1))
    assert any("decoding order" in p for p in report)
    wild = traj.copy()
    wild[3] += 50.0
    assert any("velocity" in p for p in feasibility_report(sc, wild, good))



# ---- derivatives of the subproblems handed to the barrier ----

FD_REL_TOL = 1e-5


@pytest.fixture(scope="module")
def subproblems():
    """(objective, blocks, start, band) of the first subproblem of each shape.

    The joint driver starts from the min-rate solution, so one joint solve
    hands the barrier both drivers' subproblems: epigraph trajectory and
    power steps, then sum-rate ones.  Targets of 0.467 and 0.615 bps/Hz lie
    inside the range of the 12-slot trajectory bounds, so the trajectory
    steps keep target rows on a strict subset of the slots.
    """
    calls = []
    real = solver.concave_max

    def spy(objective, blocks, z0, **kwargs):
        calls.append((list(objective), list(blocks), np.array(z0), kwargs["band"]))
        return real(objective, blocks, z0, **kwargs)

    sc = dataclasses.replace(
        default_scenario(slots=12), rate_targets=np.array([0.467, 0.615])
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "concave_max", spy)
        solver.algorithm3_joint(sc)
    first = {}
    for call in calls:
        first.setdefault(len(call[2]), call)
    return sc.slot_count, first


def assert_matches(got, want, where):
    """Analytic `got` against difference quotients `want`, relative to the
    analytic scale; where that is zero (linear terms, a start with no
    motion) `want` holds only rounding noise and is held to the bound."""
    scale = float(np.max(np.abs(got))) or 1.0
    assert float(np.max(np.abs(got - want))) <= FD_REL_TOL * scale, where


def test_subproblems_cover_every_block_kind(subproblems):
    n, first = subproblems
    # trajectory sum / min, power sum / min
    assert sorted(first) == [2 * n, 2 * n + 1, 3 * n, 3 * n + 1]
    labels = {size: [(b.label, b.count) for b in blocks]
              for size, (_, blocks, _, _) in first.items()}
    # slot-major layouts: (x, y) or (p1, p2, pr) per slot, epigraph last
    bands = {size: band for size, (_, _, _, band) in first.items()}
    assert bands == {2 * n: (2 * n, 3), 2 * n + 1: (2 * n, 3),
                     3 * n: (3 * n, 2), 3 * n + 1: (3 * n, 2)}
    # both vehicles' rows stacked in one block, vehicle 1's first: row i
    # reads slot i mod n, a power row as (own, other, relay) power, so
    # vehicle 2's power rows read (p2, p1, pr)
    for d, vehicle_2 in ((2, [0, 1]), (3, [1, 0, 2])):
        slots = np.arange(d * n).reshape(n, d)
        slots = np.concatenate([slots, slots[:, vehicle_2]])
        (rows,) = first[d * n][0]
        assert rows.label == "sum-rate objective"
        np.testing.assert_array_equal(rows.cols, slots)
        assert rows.count == 2 * n
        objective, blocks = first[d * n + 1][:2]
        assert [b.label for b in objective] == ["epigraph objective"]
        (rows,) = [b for b in blocks if b.label == "epigraph rate"]
        np.testing.assert_array_equal(rows.cols, np.column_stack([slots, np.full(2 * n, d * n)]))
        assert rows.count == 2 * n
    assert ("velocity", n + 1) in labels[2 * n]
    assert any(label == "decoding order" and c > 0 for label, c in labels[3 * n])
    kept = [c for label, c in labels[2 * n] if label.startswith("rate target")]
    assert len(kept) == 1 and 0 < kept[0] < 2 * n


def local_calls_per_point(monkeypatch, driver):
    """Run ``driver`` on SC8 and count the bounds' ``local`` calls of each
    barrier point evaluation: (every point, in-domain points, whether any
    subproblem kept target rows).  A solve's start point counts the calls
    made since its subproblem began: ``_subproblem`` evaluates the rows
    there, and the barrier reuses that evaluation."""
    calls, kept, start = [0], [False], [None]
    per_eval, per_accepted = [], []
    for cls in (sca.PowerBound, sca.TrajectoryBound):
        def local(self, v, _real=cls.local):
            calls[0] += 1
            return _real(self, v)
        monkeypatch.setattr(cls, "local", local)
    real_eval, real_subproblem = barrier._evaluate_point, solver._subproblem

    def subproblem(*args):
        start[0] = calls[0]
        return real_subproblem(*args)

    def counted(objective, blocks, z):
        before = calls[0] if start[0] is None else start[0]
        start[0] = None
        kept[0] = kept[0] or any(isinstance(b, solver.RowSubset) for b in blocks)
        res = real_eval(objective, blocks, z)
        per_eval.append(calls[0] - before)
        if res is not None:
            per_accepted.append(per_eval[-1])
        return res

    monkeypatch.setattr(barrier, "_evaluate_point", counted)
    monkeypatch.setattr(solver, "_subproblem", subproblem)
    driver(SC8)
    return set(per_eval), set(per_accepted), kept[0]


def test_minrate_evaluation_makes_one_local_call(monkeypatch):
    """A min-rate point evaluation computes the rate rows with one ``local``
    call over both vehicles.  (The step caps keep SC8's line searches off
    trials that a cheap row would reject, so every evaluation may make one.)"""
    per_eval, per_accepted, _ = local_calls_per_point(monkeypatch, solver.solve_minrate)
    assert per_accepted == {1}
    assert per_eval <= {0, 1}


def test_sumrate_evaluation_makes_one_local_call(monkeypatch):
    """A sum-rate point evaluates the rate rows with one ``local`` call too:
    the kept target rows are read from the objective rows' evaluation."""
    per_eval, per_accepted, kept = local_calls_per_point(monkeypatch, solver.algorithm3_joint)
    assert kept
    assert per_accepted == {1}
    assert per_eval <= {0, 1}


def test_cheap_row_rejection_makes_no_local_call(monkeypatch):
    """A point outside a reach circle is rejected by the velocity rows, listed
    before the rate rows, without a ``local`` call."""
    calls, real = [], sca.TrajectoryBound.local

    def local(self, v):
        calls.append(1)
        return real(self, v)

    monkeypatch.setattr(sca.TrajectoryBound, "local", local)
    n = SC8.slot_count
    traj = initial_trajectory(SC8)
    slots = np.arange(2 * n).reshape(n, 2)
    modes = np.full(n, 3)
    terms = solver._traj_terms(SC8, channel_state(traj, SC8), modes, equal_split(SC8))
    chain = solver.VelocityChainBlock(slots, SC8.uav_start, SC8.uav_end, SC8.step_radius)
    rows = solver.SlotRowBlock(terms, np.concatenate([slots, slots]), "sum-rate objective")
    z = traj.ravel() / solver.LENGTH_SCALE
    assert barrier._evaluate_point([rows], [chain], z) is not None and calls == [1]
    z[2 * 3] += 2.0 * SC8.step_radius / solver.LENGTH_SCALE  # slot 3 jumps out of reach
    assert barrier._evaluate_point([rows], [chain], z) is None
    assert calls == [1]


def test_row_blocks_match_their_formulas_bit_for_bit():
    """A ``RowSubset`` gives the full block's rows and ``cols`` at ``idx``
    less its ``rhs``, and the epigraph block pads ``local``'s rows with the
    epigraph column, both bit for bit."""
    rng = np.random.default_rng(61)
    sc = default_scenario(slots=13)
    n = sc.slot_count
    modes = rng.integers(1, 4, n)
    traj = initial_trajectory(sc) + rng.uniform(-40.0, 40.0, (n, 2))
    powers = PowerAllocation(*rng.uniform(0.05, 0.5, (3, n)))
    for terms, d in ((solver._power_terms(sc, channel_state(traj, sc), modes, powers), 3),
                     (solver._traj_terms(sc, channel_state(traj, sc), modes, powers), 2)):
        slots = np.arange(d * n).reshape(n, d)
        # as the solver maps them: vehicle 2's power rows read (p2, p1, pr)
        row_slots = np.concatenate([slots, slots[:, [1, 0, 2]] if d == 3 else slots])
        anchor = (np.column_stack([powers.p1, powers.p2, powers.pr]) / terms.scale if d == 3
                  else traj / solver.LENGTH_SCALE).ravel()
        idx = np.sort(rng.choice(2 * n, n, replace=False))
        rhs = rng.uniform(0.0, 0.5, n)
        z = anchor + rng.uniform(-0.01, 0.01, anchor.shape)
        vals, grad, hess = terms.local(z[row_slots])
        rows = solver.SlotRowBlock(terms, row_slots, "sum-rate objective")
        full = rows.evaluate(z)
        for f, w in zip(full, (vals, grad, hess)):
            assert np.array_equal(f, w)
        subset = solver.RowSubset(rows, idx, rhs)
        np.testing.assert_array_equal(subset.cols, rows.cols[idx])
        got = subset.evaluate(z)
        assert np.array_equal(got[0], full[0][idx] - rhs)
        for g, f in zip(got[1:], full[1:]):
            assert np.array_equal(g, f[idx])
        z = np.append(z, -0.3)
        epi = solver.SlotRowBlock(terms, row_slots, "epigraph rate", epi_idx=d * n).evaluate(z)
        assert np.array_equal(epi[0], vals - z[-1])
        assert np.array_equal(epi[1], np.column_stack([grad, np.full(2 * n, -1.0)]))
        assert np.array_equal(epi[2][:, :d, :d], hess)
        assert not epi[2][:, d].any() and not epi[2][:, :, d].any()


def test_subproblem_derivatives_match_finite_differences(subproblems, dense_system):
    """Objectives, and every block against the barrier's contract: with
    row weights w1 and w2 a block adds sum w1 grad g to the gradient and
    sum (w2 grad g grad g^T - w1 hess g) to -H.  Each part is scattered
    under the drivers' own band layout, made dense and differenced, so an
    entry in the wrong place of the band fails too."""
    rng = np.random.default_rng(5)
    n, first = subproblems
    for size, (objective, blocks, z0, band) in sorted(first.items()):
        # coordinates are in units of 100 m, powers in units of the budget
        step = 1e-3 if size <= 2 * n + 1 else 1e-4

        def assembled(blk, w1, w2):
            """(gradient, dense -H) of one block under the driver's band."""
            scatter = barrier.Scatter(size, band, [blk])
            ev = blk.evaluate(z0)
            grad, system = scatter.newton([ev], [w1], [w2])
            return grad, dense_system(system)

        def value(z):
            return sum(src.evaluate(z)[0].sum() for src in objective)

        parts = [assembled(src, np.ones(src.count), None) for src in objective]
        grad = sum(p[0] for p in parts)
        hess = -sum(p[1] for p in parts)
        assert_matches(grad, finite_diff_gradient(value, z0, step), size)
        assert_matches(hess, finite_diff_hessian(value, z0, step), size)
        for blk in blocks:
            w = rng.uniform(0.5, 1.5, blk.count)
            zero = np.zeros(blk.count)
            where = (size, blk.label)

            def weighted(z):
                return float(w @ blk.evaluate(z)[0])

            got, neg_curv = assembled(blk, w, zero)
            assert_matches(got, finite_diff_gradient(weighted, z0, step), where)
            assert_matches(-neg_curv, finite_diff_hessian(weighted, z0, step), where)
            jac = np.array([
                finite_diff_gradient(lambda z: blk.evaluate(z)[0][i], z0, step)
                for i in range(blk.count)
            ])
            _, outer = assembled(blk, zero, w)
            assert_matches(outer, (jac.T * w) @ jac, where)
